/**
 * @file
 * Tests of the parallel bench engine: a parallel sweep must produce
 * bit-identical results to a serial one, its cells must generate
 * their reference streams live, and the result caches must key cells
 * by their full config, survive concurrent writers and reject corrupt
 * files.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace dice::bench
{
namespace
{

/**
 * A result-file path under the test temp directory, unique per test
 * and process: ctest -j runs the cases as parallel processes sharing
 * one temp directory.
 */
std::filesystem::path
tempPath(const std::string &stem)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::filesystem::path(::testing::TempDir()) /
           (stem + "." + info->name() + "." +
            std::to_string(::getpid()) + ".result");
}

/** Compare every field of two results with exact (bitwise) equality. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    ASSERT_EQ(a.core_cycles.size(), b.core_cycles.size());
    for (std::size_t i = 0; i < a.core_cycles.size(); ++i)
        EXPECT_EQ(a.core_cycles[i], b.core_cycles[i]);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.l3_hit_rate, b.l3_hit_rate);
    EXPECT_EQ(a.l4_hit_rate, b.l4_hit_rate);
    EXPECT_EQ(a.l4_reads, b.l4_reads);
    EXPECT_EQ(a.l4_extra_lines, b.l4_extra_lines);
    EXPECT_EQ(a.l4_second_probes, b.l4_second_probes);
    EXPECT_EQ(a.cip_read_accuracy, b.cip_read_accuracy);
    EXPECT_EQ(a.cip_write_accuracy, b.cip_write_accuracy);
    EXPECT_EQ(a.mapi_accuracy, b.mapi_accuracy);
    EXPECT_EQ(a.frac_invariant, b.frac_invariant);
    EXPECT_EQ(a.frac_bai, b.frac_bai);
    EXPECT_EQ(a.frac_tsi, b.frac_tsi);
    EXPECT_EQ(a.avg_valid_lines, b.avg_valid_lines);
    EXPECT_EQ(a.l4_bytes, b.l4_bytes);
    EXPECT_EQ(a.mem_bytes, b.mem_bytes);
    EXPECT_EQ(a.avg_miss_latency, b.avg_miss_latency);
    EXPECT_EQ(a.energy.l4_nj, b.energy.l4_nj);
    EXPECT_EQ(a.energy.mem_nj, b.energy.mem_nj);
    EXPECT_EQ(a.energy.background_nj, b.energy.background_nj);
    EXPECT_EQ(a.energy.total_nj, b.energy.total_nj);
    EXPECT_EQ(a.energy.avg_power_w, b.energy.avg_power_w);
    EXPECT_EQ(a.energy.edp, b.energy.edp);
    EXPECT_EQ(a.energy.seconds, b.energy.seconds);
}

/** A recognizable result whose fields are functions of @p id. */
RunResult
resultFor(std::uint64_t id)
{
    RunResult r;
    r.instructions = id;
    r.cycles = 7 * id + 3;
    r.ipc = 0.5 * static_cast<double>(id);
    r.core_cycles = {id, id + 1};
    return r;
}

TEST(BenchParallel, ParallelSweepMatchesSerial)
{
    // Tiny runs, no persistent cache: every cell is freshly simulated,
    // once serially and once across the thread pool, under distinct
    // memo keys so the two sweeps cannot see each other's results.
    setenv("DICE_BENCH_REFS", "1500", 1);
    setenv("DICE_BENCH_NO_CACHE", "1", 1);

    const std::vector<std::string> workloads = {rateNames()[0],
                                                rateNames()[1]};
    const SystemConfig base = configureBaseline(defaultBase());
    const SystemConfig dice_cfg = configureDice(defaultBase());

    setenv("DICE_BENCH_JOBS", "1", 1);
    runSweep(workloads, {{base, "ser:base"}, {dice_cfg, "ser:dice"}});

    setenv("DICE_BENCH_JOBS", "4", 1);
    runSweep(workloads, {{base, "par:base"}, {dice_cfg, "par:dice"}});

    for (const std::string &w : workloads) {
        expectIdentical(runWorkload(w, base, "ser:base"),
                        runWorkload(w, base, "par:base"));
        expectIdentical(runWorkload(w, dice_cfg, "ser:dice"),
                        runWorkload(w, dice_cfg, "par:dice"));
    }
}

TEST(BenchParallel, SweepCellsGenerateLiveAndMatchDirectRuns)
{
    // Sweep cells build their System with live trace generation: the
    // process-wide arena stays empty, and each cell's result is what a
    // direct live System run of the same configuration produces.
    setenv("DICE_BENCH_REFS", "1500", 1);
    setenv("DICE_BENCH_NO_CACHE", "1", 1);
    setenv("DICE_BENCH_JOBS", "4", 1);
    TraceArena::instance().clear();

    const std::vector<std::string> workloads = {rateNames()[0],
                                                mixNames()[0]};
    const std::vector<OrgCell> orgs = {
        {configureBaseline(defaultBase()), "live:base"},
        {configureDice(defaultBase()), "live:dice"},
    };
    runSweep(workloads, orgs);

    const TraceArena::Stats s = TraceArena::instance().stats();
    EXPECT_EQ(s.generations, 0u);
    EXPECT_EQ(s.entries, 0u);
    for (const std::string &w : workloads) {
        for (const OrgCell &org : orgs) {
            System sys(org.config,
                       workloadProfiles(w, org.config.num_cores));
            EXPECT_EQ(detail::resultDigest(
                          runWorkload(w, org.config, org.cache_key)),
                      detail::resultDigest(sys.run()))
                << w << " / " << org.cache_key;
        }
    }
}

TEST(BenchCache, KeyCoversEveryConfigFieldUnderOneLabel)
{
    // One workload, one label, three configs: the default, one DRAM
    // timing field changed, and only the L3 size changed. Each must be
    // its own cell with its own cache file; re-running an equal
    // config must hit both caches.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("dice_cellkey." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    setenv("DICE_BENCH_CACHE_DIR", dir.c_str(), 1);
    unsetenv("DICE_BENCH_NO_CACHE");
    setenv("DICE_BENCH_REFS", "1500", 1);
    setenv("DICE_BENCH_JOBS", "2", 1);

    const std::string w = rateNames()[0];
    const std::string label = "key:dice";
    const SystemConfig a = configureDice(defaultBase());
    SystemConfig timing = a;
    timing.mem_timing.tRCD *= 2;
    SystemConfig l3 = a;
    l3.l3.size_bytes *= 4;

    EXPECT_NE(detail::cellKey(w, a, label),
              detail::cellKey(w, timing, label));
    EXPECT_NE(detail::cellKey(w, a, label), detail::cellKey(w, l3, label));
    EXPECT_EQ(detail::cellKey(w, a, label),
              detail::cellKey(w, configureDice(defaultBase()), label));
    EXPECT_NE(detail::cellKey(w, a, label),
              detail::cellKey(w, a, "key:other"));

    runCells({{w, a, label}, {w, timing, label}, {w, l3, label}});
    const std::uint64_t da = detail::resultDigest(runWorkload(w, a, label));
    const std::uint64_t dt =
        detail::resultDigest(runWorkload(w, timing, label));
    const std::uint64_t dl = detail::resultDigest(runWorkload(w, l3, label));
    EXPECT_NE(da, dt);
    EXPECT_NE(da, dl);
    EXPECT_NE(dt, dl);

    // Three cache files, each holding one of the three results.
    std::set<std::uint64_t> on_disk;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        RunResult r;
        ASSERT_TRUE(detail::loadResult(entry.path(), r)) << entry.path();
        on_disk.insert(detail::resultDigest(r));
    }
    EXPECT_EQ(on_disk, (std::set<std::uint64_t>{da, dt, dl}));

    // An equal config is the same cell: the memo returns the stored
    // result and no file is added.
    const RunResult &again =
        runWorkload(w, configureDice(defaultBase()), label);
    EXPECT_EQ(&again, &runWorkload(w, a, label));
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator()),
              3);
    std::filesystem::remove_all(dir);
    unsetenv("DICE_BENCH_CACHE_DIR");
}

TEST(BenchCache, SaveLoadRoundTripsAllFields)
{
    const std::filesystem::path path =
        tempPath("dice_roundtrip");

    RunResult r = resultFor(42);
    r.l3_hit_rate = 0.123456789012345;
    r.avg_miss_latency = 987.654321;
    r.energy.total_nj = 1.0e9 / 3.0;
    detail::saveResult(path, r);

    RunResult loaded;
    ASSERT_TRUE(detail::loadResult(path, loaded));
    expectIdentical(r, loaded);
    std::filesystem::remove(path);
}

TEST(BenchCache, ConcurrentWritersNeverProduceTornReads)
{
    const std::filesystem::path path =
        tempPath("dice_concurrent");
    std::filesystem::remove(path);

    constexpr int kWriters = 4;
    constexpr int kRounds = 50;

    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&path, w] {
            for (int i = 0; i < kRounds; ++i)
                detail::saveResult(
                    path, resultFor(1 + static_cast<std::uint64_t>(
                                            w * kRounds + i)));
        });
    }
    // Readers race the writers; every successful load must be one
    // complete written result, never a torn or interleaved file.
    std::atomic<int> bad{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
        readers.emplace_back([&path, &bad] {
            for (int i = 0; i < 200; ++i) {
                RunResult r;
                if (!detail::loadResult(path, r))
                    continue;
                const RunResult expect = resultFor(r.instructions);
                if (r.instructions == 0 ||
                    r.cycles != expect.cycles ||
                    r.ipc != expect.ipc ||
                    r.core_cycles != expect.core_cycles)
                    bad.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (std::thread &t : readers)
        t.join();
    EXPECT_EQ(bad.load(), 0);

    // After the dust settles the file holds one intact result.
    RunResult last;
    ASSERT_TRUE(detail::loadResult(path, last));
    expectIdentical(last, resultFor(last.instructions));
    std::filesystem::remove(path);

    // No temp files leak.
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(::testing::TempDir())))
        EXPECT_EQ(
            entry.path().filename().string().find(
                path.filename().string()),
            std::string::npos)
            << entry.path();
}

TEST(BenchCache, CorruptOrTruncatedFileIsACacheMiss)
{
    const std::filesystem::path path =
        tempPath("dice_corrupt");
    detail::saveResult(path, resultFor(7));

    std::string content;
    {
        std::ifstream in(path);
        std::getline(in, content);
    }
    ASSERT_FALSE(content.empty());

    RunResult r;

    // Truncated mid-payload: checksum cannot match.
    {
        std::ofstream out(path, std::ios::trunc);
        out << content.substr(0, content.size() / 2);
    }
    EXPECT_FALSE(detail::loadResult(path, r));

    // Flipped payload byte under the original checksum.
    {
        std::string bad = content;
        bad[0] = bad[0] == '1' ? '2' : '1';
        std::ofstream out(path, std::ios::trunc);
        out << bad;
    }
    EXPECT_FALSE(detail::loadResult(path, r));

    // Pre-checksum format: payload with no trailing checksum field.
    {
        std::ofstream out(path, std::ios::trunc);
        out << content.substr(0, content.rfind(' '));
    }
    EXPECT_FALSE(detail::loadResult(path, r));

    // Empty and missing files.
    {
        std::ofstream out(path, std::ios::trunc);
    }
    EXPECT_FALSE(detail::loadResult(path, r));
    std::filesystem::remove(path);
    EXPECT_FALSE(detail::loadResult(path, r));

    // The intact file loads again (sanity that the fixture is valid).
    detail::saveResult(path, resultFor(7));
    EXPECT_TRUE(detail::loadResult(path, r));
    std::filesystem::remove(path);
}

} // namespace
} // namespace dice::bench
