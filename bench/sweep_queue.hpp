/**
 * @file
 * Work-stealing cell claim queue for distributed sweeps.
 *
 * The PR-7 engine sharded a batch statically (worker i owns canonical
 * indices ≡ i mod M), so sweep wall-clock was bounded by the
 * unluckiest shard and a crashed worker degraded to coordinator-local
 * serial simulation. This module replaces that with a shared-
 * filesystem claim queue: every participant — spawned workers, the
 * coordinator, and `--join` workers attached from other processes or
 * other hosts sharing the filesystem — loops "claim the next unowned
 * cell, simulate it, publish its per-cell document, release the
 * lease" until every cell of the batch is published.
 *
 * Coordination is an O_EXCL claim/lease protocol on files
 * (src/common/claim_file.hpp):
 *
 *  - A cell is *claimed* by creating `leases/<stem>.lease` with
 *    O_EXCL. A background thread refreshes every held lease's mtime,
 *    so a live holder never goes stale no matter how long its cell
 *    simulates.
 *  - A cell is *done* when `<stem>.cell.json` exists in the results
 *    directory (written via temp + atomic rename, so a torn document
 *    is never observed). Publishing is idempotent: a cell reclaimed
 *    after a lease expiry may be simulated twice, but both claimants
 *    render identical bytes (the simulation is deterministic) and the
 *    atomic rename makes the second publish harmless.
 *  - A lease whose holder died (same-host pid probe) or went stale
 *    (mtime beyond DICE_SWEEP_LEASE_STALE_S) is silently broken and
 *    the cell is *requeued* — any peer reclaims it. This is the whole
 *    retry/requeue policy: a crashed or wedged worker's cells return
 *    to the queue instead of falling back to serial absorption.
 *
 * Cells are handed out longest-expected-first (cost estimated from
 * trace length × cores × an organization weight), which shrinks the
 * makespan tail: the expensive cells start immediately instead of
 * landing late on an already-loaded worker.
 *
 * The queue never touches result *values* — workers publish
 * RunResults through the shared persistent bench cache exactly as
 * before, and the coordinator still merges in canonical cell order,
 * so stdout, golden digests, and the merged document stay
 * byte-identical to a serial run no matter which worker computed
 * which cell or how many times a cell was reclaimed.
 */

#ifndef DICE_BENCH_SWEEP_QUEUE_HPP
#define DICE_BENCH_SWEEP_QUEUE_HPP

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/sweep_events.hpp"

namespace dice::bench
{

/** One queue entry: a batch cell's identity and expected cost. */
struct QueueCell
{
    /** Sanitized file stem (names the lease and the per-cell doc). */
    std::string stem;
    /** Index into the batch's canonical cell vector. */
    std::size_t canonical_index = 0;
    /** Expected simulation cost (arbitrary units; larger = longer). */
    double cost = 0.0;
};

/** What this participant did to the queue (its own work only). */
struct QueueStats
{
    std::uint64_t claimed = 0;   ///< Cells this participant claimed.
    std::uint64_t published = 0; ///< Cells it published documents for.
    /** Claims of cells outside this participant's nominal static
     *  shard (every claim, for participants with no shard — the
     *  coordinator and --join workers). */
    std::uint64_t stolen = 0;
    /** Claims acquired by breaking an expired/dead-holder lease. */
    std::uint64_t requeued = 0;
};

/**
 * One participant's view of a batch's shared claim queue. Thread-safe
 * in-process: a worker runs one claim loop per bench job, all against
 * the same SweepQueue instance.
 */
class SweepQueue
{
  public:
    /**
     * Attach to the queue for a batch whose canonical cells are
     * @p cells, under @p results_dir (shared by every participant).
     * @p home_shard / @p shard_count name this participant's nominal
     * static shard for steal accounting; shard_count == 0 means "no
     * home shard" (coordinator, --join workers) and every claim
     * counts as stolen.
     */
    SweepQueue(std::filesystem::path results_dir,
               std::vector<QueueCell> cells, unsigned home_shard,
               unsigned shard_count);

    /** Stops the lease refresher and releases any still-held leases
     *  (abandoned cells return to the queue for peers). */
    ~SweepQueue();

    SweepQueue(const SweepQueue &) = delete;
    SweepQueue &operator=(const SweepQueue &) = delete;

    /**
     * Claim the most expensive cell not yet done or held by a live
     * peer. nullopt means nothing is claimable *right now* — either
     * the batch is complete() or every remaining cell is held by a
     * live holder (poll again: a holder may crash and requeue its
     * cells). Returns an index into cells().
     *
     * @p wait_us is how long the calling claim loop has been free
     * (since its last publish, or since it started); on a successful
     * claim it is recorded as the cell's claim-wait latency and
     * carried on the journal's claim event.
     */
    std::optional<std::size_t> claimNext(std::uint64_t wait_us = 0);

    /**
     * Publish @p idx's per-cell document and release its lease. Best
     * effort on I/O failure: the cell is still marked done locally
     * (the result also lives in the shared bench cache).
     */
    void publish(std::size_t idx, const std::string &doc);

    /** Cells of this batch with a published document (any publisher;
     *  rescans the filesystem, throttled to a few times per second). */
    std::size_t doneCount();

    /** Whether every cell of the batch is published. */
    bool complete() { return doneCount() == cells_.size(); }

    std::size_t size() const { return cells_.size(); }
    const QueueCell &cell(std::size_t idx) const { return cells_[idx]; }
    QueueStats stats() const;

    /** Paths (under the results dir) owned by @p stem. */
    static std::filesystem::path
    docPath(const std::filesystem::path &results_dir,
            const std::string &stem);
    static std::filesystem::path
    leasePath(const std::filesystem::path &results_dir,
              const std::string &stem);

    /**
     * Remove @p stem's document and lease, returning the cell to a
     * virgin state. The coordinator calls this for every cell at
     * batch start so documents from a previous run of the same
     * results directory never masquerade as this batch's work.
     */
    static void resetCell(const std::filesystem::path &results_dir,
                          const std::string &stem);

    /** Lease age beyond which its holder is presumed dead
     *  (DICE_SWEEP_LEASE_STALE_S, default 30 s). */
    static std::uint64_t leaseStaleSeconds();

  private:
    enum class State : std::uint8_t
    {
        Pending, ///< Not done, not held by this participant.
        Held,    ///< Leased by this participant, simulation running.
        Done     ///< Document observed (published by anyone).
    };

    void refresherLoop();
    void markDoneLocked(std::size_t idx);

    const std::filesystem::path results_dir_;
    const std::filesystem::path lease_dir_;
    const std::vector<QueueCell> cells_;
    const unsigned home_shard_;
    const unsigned shard_count_;

    mutable std::mutex mu_;
    std::vector<State> state_;
    std::vector<std::size_t> cost_order_; ///< Indices, cost-descending.
    std::size_t done_ = 0;
    QueueStats stats_;
    /** Last filesystem rescan for doneCount() (monotonic seconds). */
    double last_scan_s_ = -1.0;

    std::condition_variable refresher_cv_;
    bool stop_ = false;
    std::thread refresher_;
};

// ---------------------------------------------------------------------
// Participant heartbeat / summary files.
//
// Both are tiny text files atomically rewritten by each participant
// under the shared results directory; render* and parse* below are the
// one definition of their format, shared by the harness (writer and
// accumulator) and by read-only tools (bench/sweep_top).

/** One participant's heartbeat ("<name>.heartbeat"): its own progress
 *  and steal/requeue counters, rewritten after every published cell. */
struct HeartbeatRecord
{
    unsigned long batch = 0;
    std::size_t done = 0;
    std::size_t total = 0;
    std::uint64_t stolen = 0;
    std::uint64_t requeued = 0;
    std::uint64_t busy_ms = 0;
};

std::string renderHeartbeat(const HeartbeatRecord &hb);
bool parseHeartbeat(const std::string &content, HeartbeatRecord &out);

/**
 * One participant's batch summary ("<name>.summary"). Line 1 is the
 * legacy counters line; subsequent lines carry the participant's
 * phase-latency histograms ("hist <name> ...", exact-merge transport —
 * see appendHistText) and its slowest cell ("slowest <stem> <us>").
 * Unknown trailing lines are ignored so older readers survive newer
 * writers.
 */
struct SummaryRecord
{
    unsigned long batch = 0;
    std::uint64_t cells = 0;
    std::uint64_t stolen = 0;
    std::uint64_t requeued = 0;
    std::uint64_t busy_ms = 0;
    std::uint64_t span_ms = 0;
    unsigned jobs = 1;
    /** (phase name, histogram) pairs, e.g. ("cell_us", ...). */
    std::vector<std::pair<std::string, LogHistogram>> hists;
    std::string slowest_cell;
    std::uint64_t slowest_us = 0;
};

std::string renderSummary(const SummaryRecord &s);
bool parseSummary(const std::string &content, SummaryRecord &out);

/**
 * Read every "*<extension>" file directly under @p dir and hand its
 * (path, content) to @p consume. A file @p consume rejects (returns
 * false) is foreign garbage, not a torn write — both file kinds are
 * published atomically — so it is warned about (once per path per
 * process, not once per poll) and, when @p remove_garbled, removed so
 * it can never be silently folded into totals. The one shared
 * read-parse-warn-remove loop behind heartbeat aggregation, summary
 * accumulation, and the read-only status tools.
 */
void forEachParticipantFile(
    const std::filesystem::path &dir, const std::string &extension,
    bool remove_garbled,
    const std::function<bool(const std::filesystem::path &path,
                             const std::string &content)> &consume);

} // namespace dice::bench

#endif // DICE_BENCH_SWEEP_QUEUE_HPP
