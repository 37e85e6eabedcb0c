/**
 * @file
 * Transparency of the timing decorator: a cell run under
 * "timed.<org>" must produce the same RunResult digest and the same
 * flattened stat registry as the plain organization, for every
 * registered organization and for DICE in KNL mode. This pins the
 * mirroring of the non-virtual DramCache state System reads.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hpp"
#include "timed_l4.hpp"

namespace
{

using namespace dice;
using namespace dice::bench;

struct Outcome
{
    std::uint64_t digest = 0;
    std::vector<std::pair<std::string, double>> stats;
};

Outcome
runCell(const SystemConfig &cfg, const std::string &workload)
{
    System sys(cfg, workloadProfiles(workload, cfg.num_cores));
    const RunResult r = sys.run();
    return Outcome{detail::resultDigest(r), sys.statRegistry().flatten()};
}

SystemConfig
shortCell(const std::string &org, bool knl)
{
    SystemConfig cfg = configureOrganization(defaultBase(), org);
    cfg.refs_per_core = 3000;
    cfg.warmup_refs_per_core = 1500;
    cfg.l4.comp.knl_mode = knl;
    return cfg;
}

void
expectTransparent(const std::string &org, bool knl,
                  const std::string &workload)
{
    SCOPED_TRACE(org + (knl ? " (knl)" : "") + " on " + workload);
    const SystemConfig plain = shortCell(org, knl);
    SystemConfig timed = plain;
    timed.l4.organization = perfbench::registerTimed(org, "");

    const Outcome a = runCell(plain, workload);
    const Outcome b = runCell(timed, workload);
    EXPECT_EQ(a.digest, b.digest);
    ASSERT_EQ(a.stats.size(), b.stats.size());
    for (std::size_t i = 0; i < a.stats.size(); ++i) {
        EXPECT_EQ(a.stats[i].first, b.stats[i].first);
        // Bitwise: NaN-valued formulas must match too.
        EXPECT_EQ(0, std::memcmp(&a.stats[i].second, &b.stats[i].second,
                                 sizeof(double)))
            << a.stats[i].first << ": " << a.stats[i].second << " vs "
            << b.stats[i].second;
    }
    perfbench::TraceCollector::instance().take();
}

/** Every built-in organization, as the registry lists them. */
std::vector<std::string>
registeredOrganizations()
{
    std::vector<std::string> out;
    for (const std::string &name : L4Registry::instance().names()) {
        if (name != "none" && name.rfind("timed.", 0) != 0)
            out.push_back(name);
    }
    return out;
}

TEST(TimedDecorator, RegistryListsTheStudiedOrganizations)
{
    const std::vector<std::string> orgs = registeredOrganizations();
    for (const char *want : {"alloy", "comp-tsi", "comp-nsi", "comp-bai",
                             "dice", "scc", "banshee", "touche"}) {
        EXPECT_NE(std::find(orgs.begin(), orgs.end(), want), orgs.end())
            << want;
    }
}

TEST(TimedDecorator, TransparentForEveryOrganization)
{
    // lbm writes heavily and is mostly incompressible; cc_twi is read
    // dominant and compressible. Together they drive every path of the
    // decorator (reads, fills, writebacks, page fills, pair installs).
    for (const std::string &org : registeredOrganizations()) {
        expectTransparent(org, false, "cc_twi");
        expectTransparent(org, false, "lbm");
    }
}

TEST(TimedDecorator, TransparentForKnlDice)
{
    expectTransparent("dice", true, "cc_twi");
}

TEST(TimedDecorator, RecordsEveryCallAndTheStatSnapshot)
{
    SystemConfig cfg = shortCell("dice", false);
    cfg.l4.organization = perfbench::registerTimed("dice", "probe/cc_twi");
    perfbench::TraceCollector::instance().take();
    perfbench::TraceCollector::instance().armRaw("probe/cc_twi");
    {
        System sys(cfg, workloadProfiles("cc_twi", cfg.num_cores));
        sys.run();
    }
    const std::vector<perfbench::CellTrace> cells =
        perfbench::TraceCollector::instance().take();
    ASSERT_EQ(cells.size(), 1u);
    const perfbench::CellTrace &t = cells[0];
    EXPECT_EQ(t.label, "probe/cc_twi");
    EXPECT_GT(t.layers[perfbench::kL4Read].calls, 0u);
    EXPECT_GT(t.layers[perfbench::kL4Install].calls, 0u);
    EXPECT_GT(t.linesSynthesized(), 0u);
    EXPECT_FALSE(t.stats.empty());
    EXPECT_GT(t.fill_at_measure, 0.0);
    ASSERT_FALSE(t.raw.empty());
    EXPECT_EQ(t.raw[0].layer, perfbench::kCell);
    EXPECT_EQ(t.raw[0].end_ns, t.end_ns);
    for (std::size_t i = 1; i < t.raw.size(); ++i) {
        const perfbench::RawSpan &s = t.raw[i];
        ASSERT_GE(s.parent, 0);
        ASSERT_LT(static_cast<std::size_t>(s.parent), i);
        const perfbench::RawSpan &p = t.raw[s.parent];
        EXPECT_LE(p.start_ns, s.start_ns);
        EXPECT_LE(s.start_ns, s.end_ns);
        EXPECT_LE(s.end_ns, p.end_ns);
    }
    // Nested synthesis never exceeds the L4 time that contains it.
    for (perfbench::Layer l : {perfbench::kL4Read, perfbench::kL4Install,
                               perfbench::kL4Fill})
        EXPECT_LE(t.layers[l].nested_ns, t.layers[l].ns);
}

TEST(TimedDecorator, SweepCellsEachReportTheirOwnTrace)
{
    // The fig10 traced sweep: one timed organization per cell, run by
    // the harness thread pool; every cell's trace must come back under
    // its own label and its result must equal the untraced cell's.
    setenv("DICE_BENCH_NO_CACHE", "1", 1);
    std::vector<SimCell> plain, timed;
    std::vector<std::string> labels;
    for (const char *org : {"alloy", "dice"}) {
        for (const char *w : {"cc_twi", "lbm", "mcf", "mix1"}) {
            SystemConfig cfg = shortCell(org, false);
            labels.push_back(std::string(org) + "/" + w);
            plain.push_back(SimCell{w, cfg, std::string("plain.") + org});
            cfg.l4.organization =
                perfbench::registerTimed(org, labels.back());
            timed.push_back(SimCell{w, cfg, std::string("timed.") + org});
        }
    }
    perfbench::TraceCollector::instance().take();
    runCells(plain);
    runCells(timed);
    const std::vector<perfbench::CellTrace> traces =
        perfbench::TraceCollector::instance().take();
    ASSERT_EQ(traces.size(), timed.size());
    for (std::size_t i = 0; i < timed.size(); ++i) {
        const auto it = std::find_if(
            traces.begin(), traces.end(),
            [&](const perfbench::CellTrace &t) {
                return t.label == labels[i];
            });
        ASSERT_NE(it, traces.end()) << labels[i];
        EXPECT_FALSE(it->stats.empty()) << labels[i];
        const SimCell &p = plain[i];
        const SimCell &t = timed[i];
        EXPECT_EQ(
            detail::resultDigest(
                runWorkload(t.workload, t.config, t.cache_key)),
            detail::resultDigest(
                runWorkload(p.workload, p.config, p.cache_key)))
            << labels[i];
    }
}

} // namespace
