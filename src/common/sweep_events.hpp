/**
 * @file
 * Distributed sweep observability: per-participant event journals,
 * process-wide phase-latency metrics, and the cross-participant
 * timeline merge.
 *
 * A multi-process (possibly multi-host) sweep has no shared memory,
 * so every participant — coordinator, spawned `--worker`s, `--join`
 * attachers, or a plain serial run — appends structured events to its
 * own journal `<results>/events/<participant>.jsonl`:
 *
 *   {"ev":"epoch","participant":..,"pid":..,"host":..,
 *    "wall_us":..,"mono_us":..}            first record per process
 *   {"ev":"mark","name":..,"detail":..,...}    e.g. worker spawns
 *   {"ev":"claim","cell":..,"stolen":0|1,"requeued":0|1,
 *    "wait_us":..,...}                     queue claim (requeued=1:
 *                                          acquired by breaking a
 *                                          dead holder's lease)
 *   {"ev":"begin","phase":..,"cell":..,...}    phase entry (lets a
 *                                          live tail show in-flight
 *                                          work and a post-mortem
 *                                          show where a worker died)
 *   {"ev":"phase","phase":..,"cell":..,"start_us":..,"dur_us":..,...}
 *   {"ev":"publish","cell":..,...}
 *   {"ev":"lease","op":"refresh"|"break"|"release","cell":..,
 *    "dur_us":..,...}
 *
 * Every record carries both clocks: "wall_us" (system clock, for
 * humans and cross-host sanity) and "mono_us" (steady clock relative
 * to the process's epoch record, immune to NTP steps). The merge step
 * estimates one offset per journal segment from its epoch record and
 * then *relaxes* it against causal constraints that cannot be
 * violated no matter how skewed the wall clocks are: a worker's epoch
 * cannot precede the coordinator's spawn mark for it, and a requeued
 * claim of a cell cannot precede the first claim of the same cell.
 * The result is one Chrome trace-event document with a lane per
 * participant — a whole multi-host sweep in one chrome://tracing (or
 * Perfetto) load.
 *
 * Everything here is gated by DICE_SWEEP_EVENTS (off by default).
 * When disabled, every journal emitter returns immediately without
 * allocating — enforced by the micro_simloop allocation gate.
 */

#ifndef DICE_COMMON_SWEEP_EVENTS_HPP
#define DICE_COMMON_SWEEP_EVENTS_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace dice
{

// ---------------------------------------------------------------------
// Phase-latency metrics.

/** The per-cell and lease-op latencies a sweep participant records. */
enum class SweepPhase : unsigned
{
    ClaimWait,    ///< Claim loop: queue poll until a cell was claimed.
    Simulate,     ///< System::run of a fresh cell.
    Export,       ///< Per-cell stats export (zero when disabled).
    Cell,         ///< Whole fresh cell (simulate + export).
    LeaseAcquire, ///< createClaimFile syscall latency.
    LeaseRefresh, ///< refreshClaimFile syscall latency.
};

constexpr unsigned kSweepPhases = 6;

/** Stable stat/export name of @p p ("claim_wait_us", ...). */
const char *sweepPhaseName(SweepPhase p);

/**
 * Process-wide sweep metrics: one LogHistogram per SweepPhase plus
 * the slowest-cell record. Sampled unconditionally (a mutexed
 * histogram bump per *cell*, not per ref — invisible next to a
 * simulation), so sweep_summary.json percentiles exist even when the
 * event journal is off. Cumulative for the process's lifetime; use
 * snapshotAll() deltas for per-batch reporting.
 */
class SweepMetrics
{
  public:
    static SweepMetrics &instance();

    /** Record one latency sample. Allocation-free. */
    void sample(SweepPhase p, std::uint64_t us);

    /** Record a whole fresh cell: samples SweepPhase::Cell and tracks
     *  the slowest cell's identity for straggler flagging. */
    void noteCell(const std::string &cell, std::uint64_t us);

    /** Copies under lock (safe against concurrent samplers). */
    LogHistogram snapshot(SweepPhase p) const;
    std::array<LogHistogram, kSweepPhases> snapshotAll() const;

    /** (cell stem, microseconds) of the slowest cell ("" if none). */
    std::pair<std::string, std::uint64_t> slowestCell() const;

    void resetForTest();

  private:
    SweepMetrics() = default;

    mutable std::mutex mu_;
    std::array<LogHistogram, kSweepPhases> hists_;
    std::string slowest_cell_;
    std::uint64_t slowest_us_ = 0;
};

// ---------------------------------------------------------------------
// Event journal.

/**
 * One participant's append-only event journal. A process-wide
 * singleton: disabled (and allocation-free on every emitter) until
 * open() is called, which only the bench harness does — and only when
 * DICE_SWEEP_EVENTS is set.
 *
 * Records are one JSON object per line, fflushed per record so a
 * SIGKILLed worker's journal is complete up to its last event. Files
 * are opened in append mode: a respawned worker of a later batch adds
 * a new epoch record ("segment") to the same journal, and the merge
 * step aligns each segment independently.
 */
class SweepJournal
{
  public:
    static SweepJournal &instance();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Open (append) @p events_dir/<participant>.jsonl and write the
     * epoch record. False on I/O failure (the journal stays
     * disabled). @p participant must be a sanitized file stem.
     */
    bool open(const std::filesystem::path &events_dir,
              const std::string &participant);

    void close();

    const std::string &participant() const { return participant_; }

    /** Microseconds of steady clock since this process's epoch. */
    std::uint64_t monoUs() const;

    // Emitters. All return immediately, without allocating, when the
    // journal is disabled; cell/phase/op strings are emitted verbatim
    // (callers pass sanitized stems and literals).
    void mark(const char *name, const std::string &detail);
    void claim(const std::string &cell, bool stolen, bool requeued,
               std::uint64_t wait_us);
    void begin(const char *phase, const std::string &cell);
    void phase(const char *phase, const std::string &cell,
               std::uint64_t start_mono_us, std::uint64_t dur_us);
    void publish(const std::string &cell);
    void lease(const char *op, const std::string &cell,
               std::uint64_t dur_us);

  private:
    SweepJournal() = default;

    void writeRecord(const char *body);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::FILE *file_ = nullptr;
    std::string participant_;
    std::chrono::steady_clock::time_point mono_epoch_{};
};

// ---------------------------------------------------------------------
// Journal reading + timeline merge (coordinator / tools / tests).

/** One parsed journal record (unset fields keep their defaults). */
struct JournalEvent
{
    std::string ev;      ///< Record type ("epoch", "claim", ...).
    std::string cell;
    std::string phase;
    std::string op;
    std::string name;    ///< mark name.
    std::string detail;  ///< mark detail.
    std::uint64_t wall_us = 0;
    std::uint64_t mono_us = 0;
    std::uint64_t start_us = 0;
    std::uint64_t dur_us = 0;
    std::uint64_t wait_us = 0;
    long pid = 0;
    bool stolen = false;
    bool requeued = false;
    /** Index of the epoch segment this event belongs to. */
    int segment = 0;
};

/** One epoch record's scope within a journal (one process run). */
struct JournalSegment
{
    std::uint64_t epoch_wall_us = 0;
    std::uint64_t epoch_mono_us = 0;
    long pid = 0;
    /** Estimated wall-clock offset: aligned(e) = offset + e.mono_us.
     *  Seeded from the epoch record, then causally relaxed. */
    double offset_us = 0.0;
};

/** A fully-read participant journal. */
struct ParticipantJournal
{
    std::string name; ///< File stem ("coordinator", "worker0", ...).
    std::string host; ///< From the last epoch record.
    std::vector<JournalSegment> segments;
    std::vector<JournalEvent> events; ///< File order, segment-tagged.
};

/**
 * Parse one journal line into @p out. False on anything that is not
 * a flat JSON object with the fields above (foreign garbage).
 */
bool parseJournalLine(const std::string &line, JournalEvent &out);

/**
 * Read a whole journal file. Unparseable lines are skipped (a journal
 * ends mid-line when its writer is SIGKILLed between write and
 * flush); false only when the file cannot be read or contains no
 * epoch record.
 */
bool readJournal(const std::filesystem::path &path,
                 ParticipantJournal &out, std::string *error = nullptr);

/** What mergeSweepTimeline produced (for logging/tools). */
struct TimelineStats
{
    std::size_t participants = 0;
    std::size_t events = 0; ///< Trace events emitted.
};

/**
 * Merge every *.jsonl journal under @p events_dir into one Chrome
 * trace-event document at @p out_path: per-segment clock offsets from
 * the epoch records, causal constraint relaxation (worker epochs
 * after their spawn marks; requeued claims after the cell's first
 * claim), one lane (pid) per participant, "X" events for phases and
 * instant events for claims/steals/requeues/publishes/lease
 * ops. Deterministic for a given set of journals.
 * False (with @p error) when the directory has no readable journals
 * or the output cannot be written.
 */
bool mergeSweepTimeline(const std::filesystem::path &events_dir,
                        const std::filesystem::path &out_path,
                        std::string *error = nullptr,
                        TimelineStats *stats = nullptr);

// ---------------------------------------------------------------------
// Cross-process histogram transport + anomaly detection.

/**
 * Append "hist <name> count .. sum .. max .. min .. buckets i:c,i:c\n"
 * — the worker-summary transport line for one LogHistogram. Only
 * non-empty buckets are listed; parseHistLine inverts exactly.
 */
void appendHistText(std::string &out, const std::string &name,
                    const LogHistogram &h);

/** Inverse of appendHistText (without the trailing newline
 *  requirement). False on anything malformed. */
bool parseHistLine(const std::string &line, std::string &name,
                   LogHistogram &out);

/**
 * The coordinator's anomaly screen over the merged (all participants)
 * batch record: flags straggler cells (slowest > k x p90 of the cell
 * distribution, with a minimum population so two-cell batches don't
 * self-flag) and requeue storms (a quarter or more of the batch's
 * cells came back through dead-holder requeues — lease churn).
 * Returns human-readable warning strings, empty when healthy.
 */
std::vector<std::string>
sweepAnomalyWarnings(const LogHistogram &cell_us,
                     const std::string &slowest_cell,
                     std::uint64_t slowest_us, std::uint64_t requeued,
                     std::uint64_t cells, double k);

} // namespace dice

#endif // DICE_COMMON_SWEEP_EVENTS_HPP
