/**
 * @file
 * End-to-end observability tests through the bench harness: a sweep
 * run with DICE_STATS_JSON / DICE_STATS_CSV must leave one valid,
 * complete stats document per fresh cell that depends on that cell
 * alone, DICE_TRACE_OUT must yield a Perfetto-loadable trace with
 * per-cell spans, and DICE_PROGRESS must produce the heartbeat line.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/telemetry.hpp"
#include "common/trace_events.hpp"
#include "harness.hpp"
#include "mini_json.hpp"

namespace dice::bench
{
namespace
{

namespace fs = std::filesystem;

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Unique scratch dir under the system temp root; caller removes. */
fs::path
scratchDir(const std::string &stem)
{
    const fs::path dir = fs::temp_directory_path() /
                         (stem + "." + std::to_string(::getpid()));
    fs::remove_all(dir);
    return dir;
}

/** Tiny-run environment shared by every test in this binary. */
class StatsExportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Small fresh runs: the persistent cache is bypassed so every
        // cell actually simulates (a cache hit would skip the export).
        setenv("DICE_BENCH_REFS", "1200", 1);
        setenv("DICE_BENCH_NO_CACHE", "1", 1);
        setenv("DICE_BENCH_JOBS", "2", 1);
    }

    void
    TearDown() override
    {
        unsetenv("DICE_STATS_JSON");
        unsetenv("DICE_STATS_CSV");
        unsetenv("DICE_STATS_INTERVAL");
        unsetenv("DICE_PROGRESS");
    }
};

TEST_F(StatsExportTest, SweepWritesOneValidJsonPerCell)
{
    const fs::path dir = scratchDir("dice_stats_json");
    setenv("DICE_STATS_JSON", dir.c_str(), 1);
    setenv("DICE_STATS_CSV", dir.c_str(), 1);
    // Half-run snapshots: every cell gets at least one warmup and one
    // measurement interval at this refs budget.
    setenv("DICE_STATS_INTERVAL", "600", 1);
    // Four cells on four workers: they run concurrently.
    setenv("DICE_BENCH_JOBS", "4", 1);

    const std::vector<std::string> workloads = {rateNames()[0],
                                                mixNames()[0]};
    const SystemConfig base = defaultBase();
    const std::vector<OrgCell> orgs = {
        {configureBaseline(base), "sx_base"},
        {configureDice(base), "sx_dice"},
    };
    runSweep(workloads, orgs);

    for (const std::string &workload : workloads) {
        for (const OrgCell &org : orgs) {
            const std::string stem =
                sanitizeFileStem(workload + "_" + org.cache_key);
            const fs::path json_path = dir / (stem + ".json");
            ASSERT_TRUE(fs::exists(json_path)) << json_path;

            auto doc = testjson::parse(slurp(json_path));
            const auto &groups = doc->at("groups");

            // Core groups every organization must export.
            for (const char *g :
                 {"system", "l3", "l4", "l4.dram", "mapi", "mem.dram"})
                EXPECT_TRUE(groups.has(g)) << stem << " missing " << g;

            EXPECT_GT(groups.at("system").at("refs").number, 0.0);

            // No process-wide group: their values would depend on
            // which other cells ran in this process, and when.
            EXPECT_FALSE(groups.has("trace_arena")) << stem;
            EXPECT_FALSE(groups.has("sweep")) << stem;

            // The DICE organization additionally exports CIP accuracy
            // and the BAI/TSI install mix; the baseline must not.
            if (org.cache_key == "sx_dice") {
                ASSERT_TRUE(groups.has("cip")) << stem;
                const double acc =
                    groups.at("cip").at("read_accuracy").number;
                EXPECT_GE(acc, 0.0);
                EXPECT_LE(acc, 1.0);
                const auto &l4 = groups.at("l4");
                const double installs =
                    l4.at("installs_bai").number +
                    l4.at("installs_tsi").number +
                    l4.at("installs_invariant").number;
                EXPECT_GT(installs, 0.0);
            } else {
                EXPECT_FALSE(groups.has("cip")) << stem;
            }

            // Interval snapshots: labels cover both phases, refs are
            // strictly increasing.
            const auto &ivs = doc->at("intervals");
            ASSERT_GE(ivs.array.size(), 2u) << stem;
            double prev = 0.0;
            bool saw_warmup = false, saw_measure = false;
            for (const auto &iv : ivs.array) {
                EXPECT_GT(iv->at("refs").number, prev);
                prev = iv->at("refs").number;
                const std::string &label = iv->at("label").string;
                saw_warmup |= label == "warmup";
                saw_measure |= label == "measure";
            }
            EXPECT_TRUE(saw_warmup) << stem;
            EXPECT_TRUE(saw_measure) << stem;

            // The CSV twin exists and has the expected header.
            const std::string csv = slurp(dir / (stem + ".csv"));
            EXPECT_EQ(csv.rfind("scope,refs,stat,value", 0), 0u);
            EXPECT_NE(csv.find("final,"), std::string::npos);
        }
    }

    // The same cells again, each alone in its own one-job sweep (new
    // cache keys, so they simulate afresh): every document must match
    // its in-sweep twin byte for byte.
    const fs::path alone = scratchDir("dice_stats_json_alone");
    setenv("DICE_STATS_JSON", alone.c_str(), 1);
    setenv("DICE_STATS_CSV", alone.c_str(), 1);
    setenv("DICE_BENCH_JOBS", "1", 1);
    for (const std::string &workload : workloads) {
        for (const OrgCell &org : orgs) {
            const std::string key = org.cache_key + "_alone";
            runSweep({workload}, {{org.config, key}});
            const std::string stem =
                sanitizeFileStem(workload + "_" + org.cache_key);
            const std::string alone_stem =
                sanitizeFileStem(workload + "_" + key);
            for (const char *ext : {".json", ".csv"}) {
                const std::string in_sweep = slurp(dir / (stem + ext));
                ASSERT_FALSE(in_sweep.empty()) << stem << ext;
                EXPECT_EQ(in_sweep, slurp(alone / (alone_stem + ext)))
                    << stem << ext;
            }
        }
    }

    fs::remove_all(dir);
    fs::remove_all(alone);
}

TEST_F(StatsExportTest, SweepEmitsAPerfettoLoadableTrace)
{
    const fs::path trace = fs::temp_directory_path() /
                           ("dice_trace_sweep." +
                            std::to_string(::getpid()) + ".json");
    TraceLog::instance().setOutputForTest(trace.string());

    const SystemConfig base = defaultBase();
    runSweep({rateNames()[1]}, {{configureDice(base), "sx_trace"}});

    // runSweep flushes on completion when tracing is enabled.
    auto doc = testjson::parse(slurp(trace));
    EXPECT_EQ(doc->at("displayTimeUnit").string, "ms");
    const auto &events = doc->at("traceEvents");
    ASSERT_TRUE(events.isArray());

    bool saw_cell = false, saw_sim = false, saw_measure = false;
    for (const auto &ev : events.array) {
        // Spans are "X"; point markers are "i".
        const std::string &ph = ev->at("ph").string;
        EXPECT_TRUE(ph == "X" || ph == "i") << ph;
        const std::string &cat = ev->at("cat").string;
        if (cat == "cell") {
            saw_cell = true;
            EXPECT_EQ(ev->at("args").at("org").string, "sx_trace");
        }
        saw_sim |= cat == "simulate";
        saw_measure |= ev->at("name").string == "measure";
    }
    EXPECT_TRUE(saw_cell);
    EXPECT_TRUE(saw_sim);
    EXPECT_TRUE(saw_measure); // the System's per-phase span

    TraceLog::instance().setOutputForTest("");
    fs::remove(trace);
}

TEST_F(StatsExportTest, ProgressHeartbeatReportsEveryCell)
{
    setenv("DICE_PROGRESS", "1", 1);

    testing::internal::CaptureStderr();
    const SystemConfig base = defaultBase();
    runSweep({rateNames()[2], gapNames()[0]},
             {{configureBaseline(base), "sx_prog"}});
    const std::string err = testing::internal::GetCapturedStderr();

    // One heartbeat per completed cell, ending at 2/2; the [sim]
    // announcement yields to the heartbeat.
    EXPECT_NE(err.find("[progress] 1/2 cells"), std::string::npos) << err;
    EXPECT_NE(err.find("[progress] 2/2 cells"), std::string::npos) << err;
    EXPECT_NE(err.find("Mref/s"), std::string::npos) << err;
    EXPECT_EQ(err.find("[sim]"), std::string::npos);
}

} // namespace
} // namespace dice::bench
