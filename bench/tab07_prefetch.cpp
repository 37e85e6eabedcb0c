/**
 * @file
 * Table 7: DICE vs L3-side alternatives that merely fetch an extra
 * line — 128-B wide fetch (two 64-B requests) and next-line prefetch —
 * and the combination of DICE with next-line prefetch.
 *
 * Paper result: 128B-PF +1.9%, Nextline-PF +1.6%, DICE +19.0%,
 * DICE+NL +20.9%. Prefetches cost bandwidth; DICE's extra line is
 * free.
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("DICE vs wider fetch and next-line prefetch",
                "DICE (ISCA'17) Table 7");

    const SystemConfig base = configureBaseline(defaultBase());

    SystemConfig wide = configureBaseline(defaultBase());
    wide.l3_wide_fetch = true;
    SystemConfig nl = configureBaseline(defaultBase());
    nl.l3_nextline_prefetch = true;
    const SystemConfig dice_cfg = configureDice(defaultBase());
    SystemConfig dice_nl = configureDice(defaultBase());
    dice_nl.l3_nextline_prefetch = true;

    std::vector<std::string> all;
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group)
            all.push_back(name);
    }

    std::map<std::string, std::map<std::string, double>> s;
    const std::vector<std::pair<std::string, const SystemConfig *>>
        orgs = {{"128B-PF", &wide},
                {"NL-PF", &nl},
                {"DICE", &dice_cfg},
                {"DICE+NL", &dice_nl}};

    std::vector<OrgCell> sweep = {{base, "base"}};
    for (const auto &[tag, cfg] : orgs)
        sweep.push_back({*cfg, tag});
    runSweep(all, sweep);

    for (const auto &[tag, cfg] : orgs) {
        for (const auto &name : all)
            s[tag][name] = speedupOver(name, base, "base", *cfg, tag);
    }

    std::printf("%-12s %12s %12s %12s %12s\n", "group", "128B-PF",
                "NL-PF", "DICE", "DICE+NL");
    for (const auto &[label, names] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"SPEC RATE", rateNames()},
             {"SPEC MIX", mixNames()},
             {"GAP", gapNames()},
             {"GMEAN26", all}}) {
        printRow(label, {geomeanOver(names, s["128B-PF"]),
                         geomeanOver(names, s["NL-PF"]),
                         geomeanOver(names, s["DICE"]),
                         geomeanOver(names, s["DICE+NL"])});
    }
    std::printf("\nPaper (GMEAN26): 1.019 / 1.016 / 1.190 / 1.209.\n");
    return 0;
}
