/**
 * @file
 * Figure 10: speedup of compressed-cache TSI, BAI, and DICE over the
 * uncompressed Alloy baseline, against the 2x-capacity/2x-bandwidth
 * limit, per workload and for RATE/MIX/GAP/ALL26 geomeans.
 *
 * Extra organization columns (e.g. banshee, touche) can be appended
 * via DICE_BENCH_ORGS=name[,name...]; the default output is unchanged.
 *
 * Paper result: TSI +7%, BAI +0.1%, DICE +19.0%, 2x-both +21.9%.
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("Compressed DRAM cache speedup: TSI vs BAI vs DICE",
                "DICE (ISCA'17) Figure 10");

    const SystemConfig base = configureBaseline(defaultBase());
    const SystemConfig tsi =
        configureCompressed(defaultBase(), CompressionPolicy::TsiOnly);
    const SystemConfig bai =
        configureCompressed(defaultBase(), CompressionPolicy::BaiOnly);
    const SystemConfig dice_cfg = configureDice(defaultBase());
    const SystemConfig both = configure2xBoth(defaultBase());

    const std::vector<std::string> extras = extraOrgNames();
    std::vector<SystemConfig> extra_cfgs;
    for (const std::string &org : extras)
        extra_cfgs.push_back(configureOrganization(defaultBase(), org));

    // Batch-simulate every cell across the thread pool up front; the
    // per-cell reads below are then memoized lookups.
    std::vector<OrgCell> orgs = {{base, "base"},
                                 {tsi, "tsi"},
                                 {bai, "bai"},
                                 {dice_cfg, "dice"},
                                 {both, "2x2x"}};
    for (std::size_t i = 0; i < extras.size(); ++i)
        orgs.push_back({extra_cfgs[i], extras[i]});
    runSweep(allNames(), orgs);

    std::map<std::string, double> s_tsi, s_bai, s_dice, s_both;
    std::vector<std::map<std::string, double>> s_extra(extras.size());

    std::vector<std::string> columns = {"TSI", "BAI", "DICE",
                                        "2xCap+2xBW"};
    columns.insert(columns.end(), extras.begin(), extras.end());
    printColumns(columns);
    std::vector<std::string> all;
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group) {
            s_tsi[name] = speedupOver(name, base, "base", tsi, "tsi");
            s_bai[name] = speedupOver(name, base, "base", bai, "bai");
            s_dice[name] =
                speedupOver(name, base, "base", dice_cfg, "dice");
            s_both[name] = speedupOver(name, base, "base", both, "2x2x");
            std::vector<double> row = {s_tsi[name], s_bai[name],
                                       s_dice[name], s_both[name]};
            for (std::size_t i = 0; i < extras.size(); ++i) {
                s_extra[i][name] = speedupOver(name, base, "base",
                                               extra_cfgs[i], extras[i]);
                row.push_back(s_extra[i][name]);
            }
            printRow(name, row);
            all.push_back(name);
        }
    }

    const auto summaryRow = [&](const std::string &label,
                                const std::vector<std::string> &names) {
        std::vector<double> row = {geomeanOver(names, s_tsi),
                                   geomeanOver(names, s_bai),
                                   geomeanOver(names, s_dice),
                                   geomeanOver(names, s_both)};
        for (const auto &s : s_extra)
            row.push_back(geomeanOver(names, s));
        printRow(label, row);
    };

    std::printf("\n");
    summaryRow("RATE", rateNames());
    summaryRow("MIX", mixNames());
    summaryRow("GAP", gapNames());
    summaryRow("ALL26", all);

    std::printf("\nPaper (ALL26): TSI 1.07, BAI 1.001, DICE 1.190, "
                "2xBoth 1.219\n");
    return 0;
}
