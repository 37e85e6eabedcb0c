/**
 * @file
 * Figure 1(f): potential speedup from doubling the DRAM cache's
 * capacity, bandwidth, and both — the limit study motivating
 * compression for bandwidth.
 *
 * Paper result (ALL26 average): 2x capacity ~1.10, 2x bandwidth
 * ~1.15, 2x both ~1.22.
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("Limit study: doubling DRAM cache capacity / bandwidth",
                "DICE (ISCA'17) Figure 1(f)");

    const SystemConfig base = configureBaseline(defaultBase());
    const SystemConfig cap = configure2xCapacity(defaultBase());
    const SystemConfig bw = configure2xBandwidth(defaultBase());
    const SystemConfig both = configure2xBoth(defaultBase());

    runSweep(allNames(), {{base, "base"},
                          {cap, "2xcap"},
                          {bw, "2xbw"},
                          {both, "2x2x"}});

    std::map<std::string, double> s_cap, s_bw, s_both;
    std::vector<std::string> all;
    printColumns({"2xCapacity", "2xBandwidth", "2xBoth"});
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group) {
            s_cap[name] = speedupOver(name, base, "base", cap, "2xcap");
            s_bw[name] = speedupOver(name, base, "base", bw, "2xbw");
            s_both[name] = speedupOver(name, base, "base", both, "2x2x");
            printRow(name, {s_cap[name], s_bw[name], s_both[name]});
            all.push_back(name);
        }
    }
    std::printf("\n");
    printRow("ALL26", {geomeanOver(all, s_cap), geomeanOver(all, s_bw),
                       geomeanOver(all, s_both)});
    std::printf("\nPaper (avg): 2xCapacity ~1.10, 2xBW ~1.15, "
                "2xBoth ~1.22\n");
    return 0;
}
