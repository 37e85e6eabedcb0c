/**
 * @file
 * Table 4: sensitivity of DICE to the BAI-vs-TSI insertion threshold
 * (32 B / 36 B / 40 B). 36 B is the sweet spot because BDI's B4D2
 * mode produces exactly 36-B singles whose shared-base pairs fit a
 * 72-B TAD.
 *
 * Paper result: +17.5% / +19.0% / +18.3% — 36 B best.
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("DICE insertion-threshold sensitivity",
                "DICE (ISCA'17) Table 4");

    const SystemConfig base = configureBaseline(defaultBase());

    std::vector<std::string> all;
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group)
            all.push_back(name);
    }

    std::vector<OrgCell> orgs = {{base, "base"}};
    for (const std::uint32_t threshold : {32u, 36u, 40u}) {
        SystemConfig cfg = configureDice(defaultBase());
        cfg.l4.comp.threshold_bytes = threshold;
        const std::string key =
            threshold == 36 ? "dice" : "dice-t" + std::to_string(threshold);
        orgs.push_back({cfg, key});
    }
    runSweep(all, orgs);

    std::printf("%-12s %12s %12s %12s\n", "group", "<=32B", "<=36B",
                "<=40B");
    std::map<std::uint32_t, std::map<std::string, double>> speedups;
    for (std::size_t i = 1; i < orgs.size(); ++i) {
        const std::uint32_t threshold =
            orgs[i].config.l4.comp.threshold_bytes;
        for (const auto &name : all) {
            speedups[threshold][name] = speedupOver(
                name, base, "base", orgs[i].config, orgs[i].cache_key);
        }
    }

    for (const auto &[label, names] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"SPEC RATE", rateNames()},
             {"SPEC MIX", mixNames()},
             {"GAP", gapNames()},
             {"GMEAN26", all}}) {
        printRow(label, {geomeanOver(names, speedups[32]),
                         geomeanOver(names, speedups[36]),
                         geomeanOver(names, speedups[40])});
    }
    std::printf("\nPaper (GMEAN26): 1.175 / 1.190 / 1.183 — 36 B "
                "maximizes performance.\n");
    return 0;
}
