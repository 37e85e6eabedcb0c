/**
 * @file
 * Figure 7: speedup of compression with Traditional Set Indexing (TSI)
 * and Bandwidth-Aware Indexing (BAI) vs. doubling the cache capacity
 * and capacity+bandwidth. Shows BAI winning on compressible workloads
 * and thrashing on incompressible ones.
 *
 * Paper result: TSI +7% average; BAI ~0% average with big swings
 * (soplex/gcc/zeusmp/astar up, mcf/lbm/libq/sphinx down).
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("Static indexing: TSI vs BAI vs ideal 2x caches",
                "DICE (ISCA'17) Figure 7");

    const SystemConfig base = configureBaseline(defaultBase());
    const SystemConfig tsi =
        configureCompressed(defaultBase(), CompressionPolicy::TsiOnly);
    const SystemConfig bai =
        configureCompressed(defaultBase(), CompressionPolicy::BaiOnly);
    const SystemConfig cap = configure2xCapacity(defaultBase());
    const SystemConfig both = configure2xBoth(defaultBase());

    runSweep(allNames(), {{base, "base"},
                          {tsi, "tsi"},
                          {bai, "bai"},
                          {cap, "2xcap"},
                          {both, "2x2x"}});

    std::map<std::string, double> s_tsi, s_bai, s_cap, s_both;
    std::vector<std::string> all;
    printColumns({"TSI", "BAI", "2xCapacity", "2xCap+2xBW"});
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group) {
            s_tsi[name] = speedupOver(name, base, "base", tsi, "tsi");
            s_bai[name] = speedupOver(name, base, "base", bai, "bai");
            s_cap[name] = speedupOver(name, base, "base", cap, "2xcap");
            s_both[name] = speedupOver(name, base, "base", both, "2x2x");
            printRow(name, {s_tsi[name], s_bai[name], s_cap[name],
                            s_both[name]});
            all.push_back(name);
        }
    }
    std::printf("\n");
    for (const auto &[label, names] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"RATE", rateNames()},
             {"MIX", mixNames()},
             {"GAP", gapNames()},
             {"ALL26", all}}) {
        printRow(label,
                 {geomeanOver(names, s_tsi), geomeanOver(names, s_bai),
                  geomeanOver(names, s_cap), geomeanOver(names, s_both)});
    }
    std::printf("\nPaper (ALL26): TSI 1.07, BAI ~1.00.\n");
    return 0;
}
