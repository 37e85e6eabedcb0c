/**
 * @file
 * Figure 14: off-chip power, performance, energy, and energy-delay
 * product of TSI / BAI / DICE normalized to the uncompressed baseline.
 *
 * Paper result: DICE reduces energy 24% and EDP 36%; BAI's energy is
 * worse than baseline despite similar performance.
 */

#include <cstdio>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

namespace
{

struct Agg
{
    double power = 0, perf = 0, energy = 0, edp = 0;
};

} // namespace

int
main()
{
    printHeader("Off-chip power / performance / energy / EDP",
                "DICE (ISCA'17) Figure 14");

    const SystemConfig base = configureBaseline(defaultBase());
    const SystemConfig tsi =
        configureCompressed(defaultBase(), CompressionPolicy::TsiOnly);
    const SystemConfig bai =
        configureCompressed(defaultBase(), CompressionPolicy::BaiOnly);
    const SystemConfig dice_cfg = configureDice(defaultBase());

    const std::vector<std::pair<std::string, SystemConfig>> orgs = {
        {"base", base}, {"tsi", tsi}, {"bai", bai}, {"dice", dice_cfg}};

    std::vector<std::string> all;
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group)
            all.push_back(name);
    }

    runSweep(all, {{base, "base"},
                   {tsi, "tsi"},
                   {bai, "bai"},
                   {dice_cfg, "dice"}});

    std::printf("%-10s %12s %12s %12s %12s  (normalized to baseline)\n",
                "org", "power", "perf", "energy", "EDP");
    for (const auto &[tag, cfg] : orgs) {
        std::vector<double> power, perf, energy, edp;
        for (const auto &name : all) {
            const RunResult &b = runWorkload(name, base, "base");
            const RunResult &r = runWorkload(name, cfg, tag);
            power.push_back(r.energy.avg_power_w / b.energy.avg_power_w);
            perf.push_back(weightedSpeedup(b, r));
            energy.push_back(r.energy.total_nj / b.energy.total_nj);
            edp.push_back(r.energy.edp / b.energy.edp);
        }
        std::printf("%-10s %12.3f %12.3f %12.3f %12.3f\n", tag.c_str(),
                    geomean(power), geomean(perf), geomean(energy),
                    geomean(edp));
    }
    std::printf("\nPaper: DICE energy 0.76, EDP 0.64, perf 1.19.\n");
    return 0;
}
