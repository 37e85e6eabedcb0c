/**
 * @file
 * Table 5: effective DRAM-cache capacity under TSI, BAI, and DICE,
 * measured as the mean number of valid logical lines relative to the
 * physical line capacity.
 *
 * Paper result: TSI 1.24x, BAI 1.69x, DICE 1.62x (GAP up to ~5x).
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("Effective capacity of the compressed DRAM cache",
                "DICE (ISCA'17) Table 5");

    const SystemConfig tsi =
        configureCompressed(defaultBase(), CompressionPolicy::TsiOnly);
    const SystemConfig bai =
        configureCompressed(defaultBase(), CompressionPolicy::BaiOnly);
    const SystemConfig dice_cfg = configureDice(defaultBase());
    const SystemConfig base = configureBaseline(defaultBase());

    const double physical_lines = static_cast<double>(
        defaultBase().l4.base.capacity / kLineSize);

    std::vector<std::string> all;
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group)
            all.push_back(name);
    }

    runSweep(all, {{base, "base"},
                   {tsi, "tsi"},
                   {bai, "bai"},
                   {dice_cfg, "dice"}});

    // Normalize each workload's compressed occupancy by the baseline's
    // occupancy of the same physical cache (workloads whose footprint
    // does not fill the cache would otherwise understate the ratio).
    auto capacity_ratio = [&](const SystemConfig &cfg,
                              const std::string &key,
                              const std::string &name) {
        const RunResult &r = runWorkload(name, cfg, key);
        const RunResult &b = runWorkload(name, base, "base");
        const double denom =
            std::min(physical_lines,
                     std::max(b.avg_valid_lines, 1.0));
        return r.avg_valid_lines / denom;
    };

    std::map<std::string, double> c_tsi, c_bai, c_dice;
    printColumns({"TSI", "BAI", "DICE"});
    for (const auto &name : all) {
        c_tsi[name] = capacity_ratio(tsi, "tsi", name);
        c_bai[name] = capacity_ratio(bai, "bai", name);
        c_dice[name] = capacity_ratio(dice_cfg, "dice", name);
        printRow(name, {c_tsi[name], c_bai[name], c_dice[name]});
    }
    std::printf("\n");
    for (const auto &[label, names] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"SPEC RATE", rateNames()},
             {"SPEC MIX", mixNames()},
             {"GAP", gapNames()},
             {"GMEAN26", all}}) {
        printRow(label, {geomeanOver(names, c_tsi),
                         geomeanOver(names, c_bai),
                         geomeanOver(names, c_dice)});
    }
    std::printf("\nPaper (GMEAN26): TSI 1.24x, BAI 1.69x, DICE 1.62x.\n");
    return 0;
}
