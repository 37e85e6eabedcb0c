/**
 * @file
 * Figure 11: distribution of install-index decisions under DICE. For
 * half of all lines TSI and BAI coincide (the BAI invariance property),
 * so no decision is needed; the rest split between BAI (compressible)
 * and TSI (incompressible) with a skew that follows workload
 * compressibility.
 *
 * Paper result: 50% invariant; remaining lines split ~52% TSI / 48%
 * BAI across ALL26 (libq-like workloads drag toward TSI).
 */

#include <cstdio>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("DICE install-index distribution",
                "DICE (ISCA'17) Figure 11");

    const SystemConfig dice_cfg = configureDice(defaultBase());

    runSweep(allNames(), {{dice_cfg, "dice"}});

    printColumns({"invariant%", "BAI%", "TSI%", "BAI%of-decided"});
    double sum_bai = 0, sum_tsi = 0;
    int count = 0;
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group) {
            const RunResult &r = runWorkload(name, dice_cfg, "dice");
            const double decided = r.frac_bai + r.frac_tsi;
            const double bai_of_decided =
                decided > 0 ? 100.0 * r.frac_bai / decided : 0.0;
            printRow(name, {100.0 * r.frac_invariant, 100.0 * r.frac_bai,
                            100.0 * r.frac_tsi, bai_of_decided});
            sum_bai += r.frac_bai;
            sum_tsi += r.frac_tsi;
            ++count;
        }
    }
    std::printf("\n");
    const double db = sum_bai / count, dt = sum_tsi / count;
    printRow("ALL26", {100.0 * (1.0 - db - dt) /* approx invariant */,
                       100.0 * db, 100.0 * dt,
                       db + dt > 0 ? 100.0 * db / (db + dt) : 0.0});
    std::printf("\nPaper: ~50%% invariant; decided lines split ~48%% "
                "BAI / 52%% TSI.\n");
    return 0;
}
