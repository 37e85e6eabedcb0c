/**
 * @file
 * Table 8: DICE's benefit across DRAM-cache configurations — the
 * default cache, double capacity, double bandwidth (2x channels), and
 * half latency — each normalized to its own uncompressed counterpart.
 *
 * Paper result (GMEAN26): base +19.0%, 2x capacity +13.2%,
 * 2x bandwidth +24.5%, half latency +24.4%.
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

namespace
{

SystemConfig
withHalfLatency(SystemConfig cfg)
{
    DramTiming &b = cfg.l4.base.timing;
    b.tCAS /= 2;
    b.tRCD /= 2;
    b.tRP /= 2;
    b.tRAS /= 2;
    DramTiming &c = cfg.l4.base.timing;
    c.tCAS /= 2;
    c.tRCD /= 2;
    c.tRP /= 2;
    c.tRAS /= 2;
    return cfg;
}

SystemConfig
withDoubleCapacity(SystemConfig cfg)
{
    cfg.l4.base.capacity *= 2;
    cfg.l4.base.capacity *= 2;
    return cfg;
}

SystemConfig
withDoubleBandwidth(SystemConfig cfg)
{
    cfg.l4.base.timing.channels *= 2;
    cfg.l4.base.timing.channels *= 2;
    return cfg;
}

} // namespace

int
main()
{
    printHeader("DICE sensitivity to L4 capacity / bandwidth / latency",
                "DICE (ISCA'17) Table 8");

    struct Variant
    {
        std::string tag;
        SystemConfig cfg;
    };
    const std::vector<Variant> variants = {
        {"base-1x", defaultBase()},
        {"2xcap", withDoubleCapacity(defaultBase())},
        {"2xbw", withDoubleBandwidth(defaultBase())},
        {"halflat", withHalfLatency(defaultBase())},
    };

    std::vector<std::string> all;
    for (const auto &group : {rateNames(), mixNames(), gapNames()}) {
        for (const auto &name : group)
            all.push_back(name);
    }

    std::vector<OrgCell> sweep;
    for (const Variant &v : variants) {
        const std::string bkey =
            v.tag == "base-1x" ? "base" : "base-" + v.tag;
        const std::string dkey =
            v.tag == "base-1x" ? "dice" : "dice-" + v.tag;
        sweep.push_back({configureBaseline(v.cfg), bkey});
        sweep.push_back({configureDice(v.cfg), dkey});
    }
    runSweep(all, sweep);

    std::map<std::string, std::map<std::string, double>> s;
    for (const Variant &v : variants) {
        const SystemConfig base = configureBaseline(v.cfg);
        const SystemConfig dice_cfg = configureDice(v.cfg);
        const std::string bkey =
            v.tag == "base-1x" ? "base" : "base-" + v.tag;
        const std::string dkey =
            v.tag == "base-1x" ? "dice" : "dice-" + v.tag;
        for (const auto &name : all) {
            s[v.tag][name] =
                speedupOver(name, base, bkey, dice_cfg, dkey);
        }
    }

    std::printf("%-12s %12s %12s %12s %12s\n", "group", "Base(1x)",
                "2xCapacity", "2xBW", "50%Latency");
    for (const auto &[label, names] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"SPEC RATE", rateNames()},
             {"SPEC MIX", mixNames()},
             {"GAP", gapNames()},
             {"GMEAN26", all}}) {
        printRow(label, {geomeanOver(names, s["base-1x"]),
                         geomeanOver(names, s["2xcap"]),
                         geomeanOver(names, s["2xbw"]),
                         geomeanOver(names, s["halflat"])});
    }
    std::printf("\nPaper (GMEAN26): 1.190 / 1.132 / 1.245 / 1.244.\n");
    return 0;
}
