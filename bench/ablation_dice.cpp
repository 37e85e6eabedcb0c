/**
 * @file
 * Ablation of DICE's ingredients (not a paper table; supports the
 * design discussion of Sections 4-5):
 *
 *  - full DICE;
 *  - without forwarding the free neighbor into L3 (bandwidth benefit
 *    only inside the L4);
 *  - without shared-tag pair compression (singles only);
 *  - with a degenerate 1-entry CIP (always follows the last access).
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("DICE ingredient ablation", "supporting study");

    const SystemConfig base = configureBaseline(defaultBase());
    const SystemConfig full = configureDice(defaultBase());
    SystemConfig no_extra = configureDice(defaultBase());
    no_extra.extra_line_to_l3 = false;
    SystemConfig no_pairs = configureDice(defaultBase());
    no_pairs.l4.comp.pair_compression = false;
    SystemConfig tiny_cip = configureDice(defaultBase());
    tiny_cip.l4.comp.cip_entries = 1;

    const std::vector<std::pair<std::string, const SystemConfig *>>
        orgs = {{"DICE", &full},
                {"no-L3-extra", &no_extra},
                {"no-pairs", &no_pairs},
                {"1-entry-CIP", &tiny_cip}};

    std::vector<std::string> all;
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group)
            all.push_back(name);
    }

    std::vector<OrgCell> sweep = {{base, "base"}};
    for (const auto &[tag, cfg] : orgs)
        sweep.push_back({*cfg, tag == "DICE" ? "dice" : "abl-" + tag});
    runSweep(all, sweep);

    std::map<std::string, std::map<std::string, double>> s;
    for (const auto &[tag, cfg] : orgs) {
        const std::string key = tag == "DICE" ? "dice" : "abl-" + tag;
        for (const auto &name : all)
            s[tag][name] = speedupOver(name, base, "base", *cfg, key);
    }

    std::printf("%-12s %12s %12s %12s %12s\n", "group", "DICE",
                "no-L3-extra", "no-pairs", "1-entry-CIP");
    for (const auto &[label, names] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"SPEC RATE", rateNames()},
             {"SPEC MIX", mixNames()},
             {"GAP", gapNames()},
             {"GMEAN26", all}}) {
        printRow(label, {geomeanOver(names, s["DICE"]),
                         geomeanOver(names, s["no-L3-extra"]),
                         geomeanOver(names, s["no-pairs"]),
                         geomeanOver(names, s["1-entry-CIP"])});
    }
    return 0;
}
