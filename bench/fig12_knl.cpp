/**
 * @file
 * Figure 12: DICE on a Knights-Landing-style DRAM cache (tags stored
 * in the ECC bits: 72-B accesses, no free neighbor tag, so misses on
 * non-invariant lines require merged probes of both candidate sets).
 *
 * Paper result: +17.5% average, within 2% of DICE on the Alloy
 * organization.
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("DICE on the KNL tags-in-ECC organization",
                "DICE (ISCA'17) Figure 12");

    const SystemConfig base = configureBaseline(defaultBase());
    SystemConfig knl = configureDice(defaultBase());
    knl.l4.comp.knl_mode = true;
    const SystemConfig alloy_dice = configureDice(defaultBase());

    runSweep(allNames(),
             {{base, "base"}, {knl, "knl"}, {alloy_dice, "dice"}});

    std::map<std::string, double> s_knl, s_alloy;
    std::vector<std::string> all;
    printColumns({"DICE-on-KNL", "DICE-on-Alloy"});
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group) {
            s_knl[name] = speedupOver(name, base, "base", knl, "knl");
            s_alloy[name] =
                speedupOver(name, base, "base", alloy_dice, "dice");
            printRow(name, {s_knl[name], s_alloy[name]});
            all.push_back(name);
        }
    }
    std::printf("\n");
    printRow("ALL26",
             {geomeanOver(all, s_knl), geomeanOver(all, s_alloy)});
    std::printf("\nPaper: KNL 1.175 vs Alloy 1.190 (within 2%%).\n");
    return 0;
}
