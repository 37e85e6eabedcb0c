/**
 * @file
 * Table 6: L3 hit rate of the baseline vs a system with DICE. The
 * free spatial neighbors DICE forwards into L3 lift its hit rate.
 *
 * Paper result: 37.0% baseline -> 43.6% with DICE.
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("Effect of DICE on L3 hit rate",
                "DICE (ISCA'17) Table 6");

    const SystemConfig base = configureBaseline(defaultBase());
    const SystemConfig dice_cfg = configureDice(defaultBase());

    std::vector<std::string> all;
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group)
            all.push_back(name);
    }

    runSweep(all, {{base, "base"}, {dice_cfg, "dice"}});

    std::map<std::string, double> h_base, h_dice;
    printColumns({"BASE%", "DICE%"});
    for (const auto &name : all) {
        h_base[name] =
            100.0 * runWorkload(name, base, "base").l3_hit_rate;
        h_dice[name] =
            100.0 * runWorkload(name, dice_cfg, "dice").l3_hit_rate;
        printRow(name, {h_base[name], h_dice[name]});
    }
    std::printf("\n");
    for (const auto &[label, names] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"SPEC RATE", rateNames()},
             {"SPEC MIX", mixNames()},
             {"GAP", gapNames()},
             {"AVG26", all}}) {
        double b = 0, d = 0;
        for (const auto &n : names) {
            b += h_base[n];
            d += h_dice[n];
        }
        printRow(label, {b / names.size(), d / names.size()});
    }
    std::printf("\nPaper (AVG26): 37.0%% -> 43.6%%.\n");
    return 0;
}
