/**
 * @file
 * Figure 15: Skewed Compressed Cache (SCC) transplanted onto the DRAM
 * cache vs DICE. SCC's multi-location tag lookups — cheap in SRAM —
 * cost three extra DRAM accesses per request here, so it loses badly
 * despite its generous hit rate.
 *
 * Paper result: SCC 0.78 (22% slowdown) vs DICE 1.19.
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("SCC on a DRAM cache vs DICE",
                "DICE (ISCA'17) Figure 15");

    const SystemConfig base = configureBaseline(defaultBase());
    SystemConfig scc = defaultBase();
    scc.l4.organization = "scc";
    const SystemConfig dice_cfg = configureDice(defaultBase());

    runSweep(allNames(),
             {{base, "base"}, {scc, "scc-v2"}, {dice_cfg, "dice"}});

    std::map<std::string, double> s_scc, s_dice;
    std::vector<std::string> all;
    printColumns({"SCC", "DICE"});
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group) {
            s_scc[name] = speedupOver(name, base, "base", scc, "scc-v2");
            s_dice[name] =
                speedupOver(name, base, "base", dice_cfg, "dice");
            printRow(name, {s_scc[name], s_dice[name]});
            all.push_back(name);
        }
    }
    std::printf("\n");
    printRow("ALL26",
             {geomeanOver(all, s_scc), geomeanOver(all, s_dice)});
    std::printf("\nPaper: SCC 0.78 average vs DICE 1.19.\n");
    return 0;
}
