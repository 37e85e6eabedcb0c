/**
 * @file
 * Section 5.3: Cache Index Predictor accuracy vs Last-Time-Table size,
 * plus the size-based write predictor's accuracy and the total SRAM
 * budget (< 1 KB).
 *
 * Paper result: read accuracy 93.2% (512 entries) -> 93.8% (2048,
 * the 256-B default) -> 94.1% (8192); write accuracy 95%.
 */

#include <cstdio>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("CIP accuracy vs Last-Time-Table size",
                "DICE (ISCA'17) Section 5.3");

    std::vector<std::string> all;
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group)
            all.push_back(name);
    }

    std::vector<OrgCell> orgs;
    for (const std::uint32_t entries : {512u, 2048u, 8192u}) {
        SystemConfig cfg = configureDice(defaultBase());
        cfg.l4.comp.cip_entries = entries;
        orgs.push_back({cfg, entries == 2048
                                 ? "dice"
                                 : "dice-ltt" + std::to_string(entries)});
    }
    runSweep(all, orgs);

    std::printf("%-12s %14s %14s %12s\n", "LTT entries", "read acc %",
                "write acc %", "SRAM bytes");
    for (const std::uint32_t entries : {512u, 2048u, 8192u}) {
        SystemConfig cfg = configureDice(defaultBase());
        cfg.l4.comp.cip_entries = entries;
        const std::string key =
            entries == 2048 ? "dice" : "dice-ltt" + std::to_string(entries);
        double racc = 0, wacc = 0;
        for (const auto &name : all) {
            const RunResult &r = runWorkload(name, cfg, key);
            racc += r.cip_read_accuracy;
            wacc += r.cip_write_accuracy;
        }
        std::printf("%-12u %14.1f %14.1f %12u\n", entries,
                    100.0 * racc / all.size(), 100.0 * wacc / all.size(),
                    (entries + 7) / 8);
    }
    std::printf("\nPaper: 93.2%% (512) / 93.8%% (2048, 256 B) / 94.1%% "
                "(8192); writes 95%%.\n");
    return 0;
}
