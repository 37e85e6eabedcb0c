/**
 * @file
 * Distributed sweep observability under test: the mergeable
 * LogHistogram (exact cross-process merge is the property the whole
 * summary transport rests on), the hist text transport and the
 * heartbeat/summary participant files, the event-journal line format,
 * and — the centerpiece — the cross-participant timeline merge with
 * skewed wall clocks, asserted causally consistent and round-tripped
 * through the mini JSON parser like a real chrome://tracing load.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/sweep_events.hpp"
#include "mini_json.hpp"
#include "sweep_queue.hpp"

namespace
{

using dice::JournalEvent;
using dice::LogHistogram;
using dice::ParticipantJournal;
using dice::SweepMetrics;
using dice::SweepPhase;

std::filesystem::path
freshDir(const std::string &name)
{
    // Unique per test and process: ctest -j runs the cases as
    // parallel processes sharing one temp directory.
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const auto dir = std::filesystem::temp_directory_path() /
                     (name + "." + info->name() + "." +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << path;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------
// LogHistogram.

TEST(LogHistogram, BucketEdges)
{
    EXPECT_EQ(LogHistogram::bucketIndex(0), 0u);
    EXPECT_EQ(LogHistogram::bucketIndex(1), 1u);
    EXPECT_EQ(LogHistogram::bucketIndex(2), 2u);
    EXPECT_EQ(LogHistogram::bucketIndex(3), 2u);
    EXPECT_EQ(LogHistogram::bucketIndex(4), 3u);
    EXPECT_EQ(LogHistogram::bucketIndex(~std::uint64_t{0}), 64u);

    // Every value lands in [lo, hi) of its own bucket.
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{7}, std::uint64_t{4096},
                            std::uint64_t{1} << 40}) {
        const std::uint32_t i = LogHistogram::bucketIndex(v);
        EXPECT_GE(v, LogHistogram::bucketLo(i)) << v;
        if (i < 64) {
            EXPECT_LT(v, LogHistogram::bucketHi(i)) << v;
        }
    }
}

TEST(LogHistogram, MergeEqualsConcatenatedSampling)
{
    // The distributed-sweep property: per-worker histograms merged at
    // the coordinator must be bit-identical to one histogram that saw
    // every sample. Fixed bucket edges make this exact, not approximate.
    std::vector<std::uint64_t> a = {0, 1, 3, 900, 17, 1 << 20};
    std::vector<std::uint64_t> b = {2, 2, 64, 4095, 5};

    LogHistogram ha, hb, all;
    for (std::uint64_t v : a) {
        ha.sample(v);
        all.sample(v);
    }
    for (std::uint64_t v : b) {
        hb.sample(v);
        all.sample(v);
    }
    LogHistogram merged = ha;
    merged.merge(hb);

    EXPECT_EQ(merged.count(), all.count());
    EXPECT_EQ(merged.sum(), all.sum());
    EXPECT_EQ(merged.max(), all.max());
    EXPECT_EQ(merged.min(), all.min());
    for (std::uint32_t i = 0; i < LogHistogram::kBuckets; ++i)
        EXPECT_EQ(merged.bucket(i), all.bucket(i)) << "bucket " << i;
    EXPECT_DOUBLE_EQ(merged.percentile(0.5), all.percentile(0.5));
}

TEST(LogHistogram, SubtractedIsolatesTheWindow)
{
    LogHistogram h;
    h.sample(10);
    h.sample(20);
    const LogHistogram since = h; // snapshot
    h.sample(100);
    h.sample(200);

    const LogHistogram delta = h.subtracted(since);
    EXPECT_EQ(delta.count(), 2u);
    EXPECT_EQ(delta.sum(), 300u);
    // min/max stay cumulative by design (upper bounds, merge-safe).
    EXPECT_EQ(delta.max(), 200u);
}

TEST(LogHistogram, PercentilesClampedToObservedRange)
{
    LogHistogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(10); // all in bucket [8, 16)
    // Interpolation may wander inside the bucket, but the clamp pins
    // single-valued distributions exactly.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 10.0);

    LogHistogram empty;
    EXPECT_DOUBLE_EQ(empty.percentile(0.9), 0.0);

    LogHistogram spread;
    for (int i = 0; i < 99; ++i)
        spread.sample(8);
    spread.sample(1 << 20);
    EXPECT_LT(spread.percentile(0.5), 16.0);
    EXPECT_GT(spread.percentile(0.999), 1000.0);
}

TEST(LogHistogram, HistTextRoundTrip)
{
    LogHistogram h;
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{5},
                            std::uint64_t{5}, std::uint64_t{70000}})
        h.sample(v);

    std::string text;
    dice::appendHistText(text, "cell_us", h);
    ASSERT_FALSE(text.empty());
    ASSERT_EQ(text.back(), '\n');

    std::string name;
    LogHistogram back;
    ASSERT_TRUE(dice::parseHistLine(text.substr(0, text.size() - 1),
                                    name, back));
    EXPECT_EQ(name, "cell_us");
    EXPECT_EQ(back.count(), h.count());
    EXPECT_EQ(back.sum(), h.sum());
    EXPECT_EQ(back.max(), h.max());
    EXPECT_EQ(back.min(), h.min());
    for (std::uint32_t i = 0; i < LogHistogram::kBuckets; ++i)
        EXPECT_EQ(back.bucket(i), h.bucket(i)) << "bucket " << i;
}

TEST(LogHistogram, HistTextEmptyAndMalformed)
{
    std::string text;
    dice::appendHistText(text, "empty", LogHistogram{});
    std::string name;
    LogHistogram back;
    ASSERT_TRUE(dice::parseHistLine(text.substr(0, text.size() - 1),
                                    name, back));
    EXPECT_EQ(back.count(), 0u);

    // Bucket counts that do not add up to the header count are
    // rejected, as is anything structurally off.
    EXPECT_FALSE(dice::parseHistLine(
        "hist x count 5 sum 50 max 20 min 1 buckets 3:1", name, back));
    EXPECT_FALSE(dice::parseHistLine("hist", name, back));
    EXPECT_FALSE(dice::parseHistLine(
        "hist x count 1 sum 5 max 5 min 5 buckets 99:1", name, back));
}

// ---------------------------------------------------------------------
// SweepMetrics.

TEST(SweepMetrics, SlowestCellAndSnapshots)
{
    SweepMetrics &m = SweepMetrics::instance();
    m.resetForTest();
    m.sample(SweepPhase::Simulate, 100);
    m.noteCell("mcf_dice", 5000);
    m.noteCell("lbm_alloy", 9000);
    m.noteCell("gcc_tsi", 1000);

    const auto [cell, us] = m.slowestCell();
    EXPECT_EQ(cell, "lbm_alloy");
    EXPECT_EQ(us, 9000u);
    EXPECT_EQ(m.snapshot(SweepPhase::Cell).count(), 3u);
    EXPECT_EQ(m.snapshot(SweepPhase::Simulate).count(), 1u);
    EXPECT_EQ(m.snapshot(SweepPhase::Export).count(), 0u);
    m.resetForTest();
}

// ---------------------------------------------------------------------
// Journal line + file parsing.

TEST(SweepJournal, ParseJournalLine)
{
    JournalEvent e;
    ASSERT_TRUE(dice::parseJournalLine(
        R"({"ev":"claim","cell":"mcf_dice","stolen":1,"requeued":0,)"
        R"("wait_us":42,"wall_us":1000,"mono_us":7})",
        e));
    EXPECT_EQ(e.ev, "claim");
    EXPECT_EQ(e.cell, "mcf_dice");
    EXPECT_TRUE(e.stolen);
    EXPECT_FALSE(e.requeued);
    EXPECT_EQ(e.wait_us, 42u);
    EXPECT_EQ(e.mono_us, 7u);

    // Escapes unescape; unknown keys are ignored (forward compat).
    ASSERT_TRUE(dice::parseJournalLine(
        R"({"ev":"mark","name":"spawn","detail":"a\"b","future":1})",
        e));
    EXPECT_EQ(e.detail, "a\"b");

    EXPECT_FALSE(dice::parseJournalLine("", e));
    EXPECT_FALSE(dice::parseJournalLine("not json", e));
    EXPECT_FALSE(dice::parseJournalLine(R"({"ev":)", e));
    EXPECT_FALSE(dice::parseJournalLine(R"({"cell":"x"})", e)); // no ev
}

TEST(SweepJournal, ReadJournalSegmentsAndTornTail)
{
    const auto dir = freshDir("dice_test_journal_read");
    const auto path = dir / "worker0.jsonl";
    // Two process runs (epochs) in one journal, one garbage line in
    // the middle, one torn line at the end (SIGKILL between write and
    // flush) — all of which a reader must survive.
    writeFile(
        path,
        R"({"ev":"epoch","participant":"worker0","pid":11,"host":"h1",)"
        R"("wall_us":1000000,"mono_us":0})"
        "\n"
        R"({"ev":"claim","cell":"a","stolen":0,"requeued":0,)"
        R"("wait_us":1,"wall_us":1000500,"mono_us":500})"
        "\n"
        "garbage line\n"
        R"({"ev":"epoch","participant":"worker0","pid":12,"host":"h1",)"
        R"("wall_us":9000000,"mono_us":0})"
        "\n"
        R"({"ev":"publish","cell":"b","wall_us":9000100,"mono_us":100})"
        "\n"
        R"({"ev":"publish","cell":"c","wall)");

    ParticipantJournal p;
    ASSERT_TRUE(dice::readJournal(path, p));
    EXPECT_EQ(p.name, "worker0");
    EXPECT_EQ(p.host, "h1");
    ASSERT_EQ(p.segments.size(), 2u);
    EXPECT_EQ(p.segments[0].pid, 11);
    EXPECT_EQ(p.segments[1].pid, 12);
    ASSERT_EQ(p.events.size(), 2u);
    EXPECT_EQ(p.events[0].segment, 0);
    EXPECT_EQ(p.events[1].segment, 1);

    // No epoch record at all -> not a journal.
    writeFile(dir / "junk.jsonl", "{\"ev\":\"claim\",\"cell\":\"x\"}\n");
    ParticipantJournal q;
    EXPECT_FALSE(dice::readJournal(dir / "junk.jsonl", q));
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Timeline merge with skewed clocks.

/**
 * Three participants whose wall clocks disagree wildly:
 *  - the coordinator (reference) spawns both workers and claims
 *    nothing itself;
 *  - worker0's clock runs ~0.5s behind: naive alignment would place
 *    its whole lane before it was spawned;
 *  - worker1's clock is ~0.9s behind AND it re-claims worker0's cell
 *    through a broken lease — the requeue must land after the first
 *    claim no matter what its wall clock says.
 */
std::filesystem::path
writeSkewedJournals()
{
    const auto dir = freshDir("dice_test_timeline_merge");
    const auto events = dir / "events";
    std::filesystem::create_directories(events);

    writeFile(
        events / "coordinator.jsonl",
        R"({"ev":"epoch","participant":"coordinator","pid":1,)"
        R"("host":"hub","wall_us":1000000,"mono_us":0})"
        "\n"
        R"({"ev":"mark","name":"spawn","detail":"worker0",)"
        R"("wall_us":1001000,"mono_us":1000})"
        "\n"
        R"({"ev":"mark","name":"spawn","detail":"worker1",)"
        R"("wall_us":1002000,"mono_us":2000})"
        "\n");

    // worker0: claims cell "a" (stolen), runs it, publishes, dies —
    // no release, journal just ends.
    writeFile(
        events / "worker0.jsonl",
        R"({"ev":"epoch","participant":"worker0","pid":2,)"
        R"("host":"h1","wall_us":500000,"mono_us":0})"
        "\n"
        R"({"ev":"claim","cell":"a","stolen":1,"requeued":0,)"
        R"("wait_us":10,"wall_us":501000,"mono_us":1000})"
        "\n"
        R"({"ev":"phase","phase":"cell","cell":"a",)"
        R"("start_us":1000,"dur_us":40000,"wall_us":541000,)"
        R"("mono_us":41000})"
        "\n");

    // worker1: re-claims "a" after worker0's lease went stale.
    writeFile(
        events / "worker1.jsonl",
        R"({"ev":"epoch","participant":"worker1","pid":3,)"
        R"("host":"h2","wall_us":100000,"mono_us":0})"
        "\n"
        R"({"ev":"claim","cell":"a","stolen":1,"requeued":1,)"
        R"("wait_us":0,"wall_us":100500,"mono_us":500})"
        "\n"
        R"({"ev":"publish","cell":"a","wall_us":160500,)"
        R"("mono_us":60500})"
        "\n");
    return dir;
}

TEST(SweepTimeline, SkewedClocksMergeCausallyConsistent)
{
    const auto dir = writeSkewedJournals();
    const auto out = dir / "timeline.json";
    std::string error;
    dice::TimelineStats stats;
    ASSERT_TRUE(dice::mergeSweepTimeline(dir / "events", out, &error,
                                         &stats))
        << error;
    EXPECT_EQ(stats.participants, 3u);
    EXPECT_GT(stats.events, 0u);

    // Round-trip through the same parser the other telemetry tests
    // use: the merged document must be a loadable Chrome trace.
    const auto root = dice::testjson::parse(readFile(out));
    EXPECT_EQ(root->at("displayTimeUnit").string, "ms");
    const auto &events = root->at("traceEvents");
    ASSERT_TRUE(events.isArray());

    // Lane metadata names every participant; remember name -> pid.
    std::map<std::string, double> lane_pid;
    double spawn0_ts = -1, spawn1_ts = -1;
    double first_claim_ts = -1, requeue_ts = -1, publish_ts = -1;
    double phase_ts = -1, phase_dur = -1;
    for (const auto &ev : events.array) {
        ASSERT_TRUE(ev->isObject());
        const std::string name = ev->at("name").string;
        if (name == "process_name") {
            lane_pid[ev->at("args").at("name").string] =
                ev->at("pid").number;
            continue;
        }
        EXPECT_GE(ev->at("ts").number, 0.0); // normalized to t0 = 0
        if (name == "spawn" &&
            ev->at("args").at("detail").string == "worker0")
            spawn0_ts = ev->at("ts").number;
        if (name == "spawn" &&
            ev->at("args").at("detail").string == "worker1")
            spawn1_ts = ev->at("ts").number;
        if (name == "steal" && ev->at("args").at("cell").string == "a")
            first_claim_ts = ev->at("ts").number;
        if (name == "requeue" &&
            ev->at("args").at("cell").string == "a")
            requeue_ts = ev->at("ts").number;
        if (name == "publish" &&
            ev->at("args").at("cell").string == "a")
            publish_ts = ev->at("ts").number;
        if (name == "cell" && ev->at("ph").string == "X") {
            phase_ts = ev->at("ts").number;
            phase_dur = ev->at("dur").number;
        }
    }

    ASSERT_EQ(lane_pid.size(), 3u);
    EXPECT_TRUE(lane_pid.count("coordinator (hub)"));
    EXPECT_TRUE(lane_pid.count("worker0 (h1)"));
    EXPECT_TRUE(lane_pid.count("worker1 (h2)"));

    // Causal consistency despite both workers' wall clocks reading
    // *before* the coordinator's: spawns precede the spawned workers'
    // first events, and the requeued claim lands after the original.
    ASSERT_GE(spawn0_ts, 0);
    ASSERT_GE(spawn1_ts, 0);
    ASSERT_GE(first_claim_ts, 0);
    ASSERT_GE(requeue_ts, 0);
    ASSERT_GE(publish_ts, 0);
    EXPECT_GE(first_claim_ts, spawn0_ts);
    EXPECT_GE(requeue_ts, spawn1_ts);
    EXPECT_GE(requeue_ts, first_claim_ts);
    EXPECT_GE(publish_ts, requeue_ts);

    // The phase span made it through as a complete "X" event.
    EXPECT_GE(phase_ts, 0);
    EXPECT_DOUBLE_EQ(phase_dur, 40000.0);

    // Determinism: merging again yields the identical document.
    const std::string once = readFile(out);
    ASSERT_TRUE(
        dice::mergeSweepTimeline(dir / "events", out, &error, &stats));
    EXPECT_EQ(readFile(out), once);
    std::filesystem::remove_all(dir);
}

TEST(SweepTimeline, EmptyDirFails)
{
    const auto dir = freshDir("dice_test_timeline_empty");
    std::string error;
    EXPECT_FALSE(dice::mergeSweepTimeline(dir / "events",
                                          dir / "t.json", &error));
    EXPECT_FALSE(error.empty());
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Anomaly detection.

TEST(SweepAnomalies, StragglerAndChurn)
{
    LogHistogram cell_us;
    for (int i = 0; i < 20; ++i)
        cell_us.sample(1000);
    cell_us.sample(500000); // one 500ms cell among 1ms cells

    const auto warns = dice::sweepAnomalyWarnings(
        cell_us, "lbm_dice", 500000, /*requeued=*/0, /*cells=*/21,
        /*k=*/4.0);
    ASSERT_EQ(warns.size(), 1u);
    EXPECT_NE(warns[0].find("straggler"), std::string::npos);
    EXPECT_NE(warns[0].find("lbm_dice"), std::string::npos);

    // Healthy uniform batch: silent.
    LogHistogram uniform;
    for (int i = 0; i < 20; ++i)
        uniform.sample(1000);
    EXPECT_TRUE(dice::sweepAnomalyWarnings(uniform, "x", 1000, 0, 20,
                                           4.0)
                    .empty());

    // Tiny batches never self-flag, however skewed.
    LogHistogram tiny;
    tiny.sample(1);
    tiny.sample(100000);
    EXPECT_TRUE(dice::sweepAnomalyWarnings(tiny, "x", 100000, 0, 2,
                                           4.0)
                    .empty());

    // Requeue storm: a quarter of the batch came back through dead
    // holders' leases.
    const auto churn = dice::sweepAnomalyWarnings(uniform, "x", 1000,
                                                  /*requeued=*/5,
                                                  /*cells=*/20, 4.0);
    ASSERT_EQ(churn.size(), 1u);
    EXPECT_NE(churn[0].find("churn"), std::string::npos);
}

// ---------------------------------------------------------------------
// Participant-file helpers (heartbeats, summaries).

TEST(ParticipantFiles, HeartbeatRoundTrip)
{
    dice::bench::HeartbeatRecord hb;
    hb.batch = 3;
    hb.done = 17;
    hb.total = 40;
    hb.stolen = 5;
    hb.requeued = 2;
    hb.busy_ms = 1234;

    dice::bench::HeartbeatRecord back;
    ASSERT_TRUE(dice::bench::parseHeartbeat(
        dice::bench::renderHeartbeat(hb), back));
    EXPECT_EQ(back.batch, hb.batch);
    EXPECT_EQ(back.done, hb.done);
    EXPECT_EQ(back.total, hb.total);
    EXPECT_EQ(back.stolen, hb.stolen);
    EXPECT_EQ(back.requeued, hb.requeued);
    EXPECT_EQ(back.busy_ms, hb.busy_ms);

    EXPECT_FALSE(dice::bench::parseHeartbeat("nonsense", back));
    // done > total is a corrupt file, not a heartbeat.
    dice::bench::HeartbeatRecord bad = hb;
    bad.done = 99;
    EXPECT_FALSE(dice::bench::parseHeartbeat(
        dice::bench::renderHeartbeat(bad), back));
}

TEST(ParticipantFiles, SummaryRoundTripWithHistograms)
{
    dice::bench::SummaryRecord s;
    s.batch = 2;
    s.cells = 12;
    s.stolen = 4;
    s.requeued = 1;
    s.busy_ms = 800;
    s.span_ms = 950;
    s.jobs = 3;
    LogHistogram cell;
    cell.sample(1000);
    cell.sample(64000);
    s.hists.emplace_back("cell_us", cell);
    LogHistogram sim;
    sim.sample(300);
    s.hists.emplace_back("simulate_us", sim);
    s.slowest_cell = "mcf_dice";
    s.slowest_us = 64000;

    dice::bench::SummaryRecord back;
    ASSERT_TRUE(
        dice::bench::parseSummary(dice::bench::renderSummary(s), back));
    EXPECT_EQ(back.batch, s.batch);
    EXPECT_EQ(back.cells, s.cells);
    EXPECT_EQ(back.stolen, s.stolen);
    EXPECT_EQ(back.requeued, s.requeued);
    EXPECT_EQ(back.jobs, s.jobs);
    ASSERT_EQ(back.hists.size(), 2u);
    EXPECT_EQ(back.hists[0].first, "cell_us");
    EXPECT_EQ(back.hists[0].second.count(), 2u);
    EXPECT_EQ(back.hists[0].second.sum(), 65000u);
    EXPECT_EQ(back.hists[1].first, "simulate_us");
    EXPECT_EQ(back.slowest_cell, "mcf_dice");
    EXPECT_EQ(back.slowest_us, 64000u);

    // A garbled hist line poisons the whole summary (files are
    // written atomically, so a bad line is corruption, not tearing)…
    std::string text = dice::bench::renderSummary(s);
    text += "hist broken count 2 sum 5 max 5 min 0 buckets 1:1\n";
    EXPECT_FALSE(dice::bench::parseSummary(text, back));
    // …but unknown future record kinds are ignored.
    std::string ok = dice::bench::renderSummary(s);
    ok += "future_record 1 2 3\n";
    EXPECT_TRUE(dice::bench::parseSummary(ok, back));
}

TEST(ParticipantFiles, ForEachSkipsGarbledOnceAndOptionallyRemoves)
{
    const auto dir = freshDir("dice_test_participant_files");
    writeFile(dir / "a.heartbeat", "batch 1 done 1 total 2 stolen 0 "
                                   "requeued 0 busy_ms 5\n");
    writeFile(dir / "b.heartbeat", "garbage\n");
    writeFile(dir / "c.other", "not scanned\n");

    int seen = 0;
    dice::bench::forEachParticipantFile(
        dir, ".heartbeat", /*remove_garbled=*/false,
        [&seen](const std::filesystem::path &,
                const std::string &content) {
            ++seen;
            dice::bench::HeartbeatRecord hb;
            return dice::bench::parseHeartbeat(content, hb);
        });
    EXPECT_EQ(seen, 2);
    EXPECT_TRUE(std::filesystem::exists(dir / "b.heartbeat"));

    dice::bench::forEachParticipantFile(
        dir, ".heartbeat", /*remove_garbled=*/true,
        [](const std::filesystem::path &, const std::string &content) {
            dice::bench::HeartbeatRecord hb;
            return dice::bench::parseHeartbeat(content, hb);
        });
    EXPECT_FALSE(std::filesystem::exists(dir / "b.heartbeat"));
    EXPECT_TRUE(std::filesystem::exists(dir / "a.heartbeat"));
    std::filesystem::remove_all(dir);
}

} // namespace
