/**
 * @file
 * Figure 13: DICE on the non-memory-intensive SPEC workloads (L3
 * MPKI < 2). Most fit in the on-chip hierarchy; the requirement is
 * that DICE never degrades them.
 *
 * Extra organization columns (e.g. banshee, touche) can be appended
 * via DICE_BENCH_ORGS=name[,name...]; the default output is unchanged.
 *
 * Paper result: ~+2% average, no workload degraded.
 */

#include <cstdio>
#include <map>

#include "harness.hpp"

using namespace dice;
using namespace dice::bench;

int
main()
{
    printHeader("DICE on non-memory-intensive workloads",
                "DICE (ISCA'17) Figure 13");

    const SystemConfig base = configureBaseline(defaultBase());
    const SystemConfig dice_cfg = configureDice(defaultBase());

    const std::vector<std::string> extras = extraOrgNames();
    std::vector<SystemConfig> extra_cfgs;
    for (const std::string &org : extras)
        extra_cfgs.push_back(configureOrganization(defaultBase(), org));

    std::vector<std::string> sweep_names;
    for (const WorkloadProfile &p : nonIntensiveSuite())
        sweep_names.push_back(p.name);
    std::vector<OrgCell> orgs = {{base, "base"}, {dice_cfg, "dice"}};
    for (std::size_t i = 0; i < extras.size(); ++i)
        orgs.push_back({extra_cfgs[i], extras[i]});
    runSweep(sweep_names, orgs);

    std::map<std::string, double> s;
    std::vector<std::map<std::string, double>> s_extra(extras.size());
    std::vector<std::string> names;
    std::vector<std::string> columns = {"DICE"};
    columns.insert(columns.end(), extras.begin(), extras.end());
    printColumns(columns);
    for (const WorkloadProfile &p : nonIntensiveSuite()) {
        s[p.name] = speedupOver(p.name, base, "base", dice_cfg, "dice");
        std::vector<double> row = {s[p.name]};
        for (std::size_t i = 0; i < extras.size(); ++i) {
            s_extra[i][p.name] = speedupOver(p.name, base, "base",
                                             extra_cfgs[i], extras[i]);
            row.push_back(s_extra[i][p.name]);
        }
        printRow(p.name, row);
        names.push_back(p.name);
    }
    std::printf("\n");
    std::vector<double> gmean = {geomeanOver(names, s)};
    for (const auto &se : s_extra)
        gmean.push_back(geomeanOver(names, se));
    printRow("GMEAN", gmean);
    std::printf("\nPaper: ~1.02 geomean, no degradation.\n");
    return 0;
}
