/**
 * @file
 * Shared harness for the paper-reproduction benchmark binaries.
 *
 * Each bench binary declares the L4 organizations it compares, runs
 * every workload of the evaluation suite under each of them, and
 * prints rows in the shape of the paper's figure/table.
 *
 * Every (workload, organization) simulation is independent and
 * deterministic, so the harness exposes a batch API: a binary
 * enumerates all the cells it will need up front (runSweep/runCells)
 * and the harness dispatches them across a DICE_BENCH_JOBS-sized
 * thread pool. Results are memoized twice — in a concurrency-safe
 * in-process map, and persistently in bench_cache/ (written via
 * temp-file + atomic rename, validated by checksum on load) so that
 * concurrently running bench binaries share work and never read torn
 * files. After the batch run, the per-cell accessors (runWorkload,
 * speedupOver) are cheap cache hits.
 *
 * Freshly-simulated cells generate their reference streams live, so a
 * sweep holds only the streams of the cells in flight.
 *
 * Observability (all off by default; see README "Telemetry"):
 *  - DICE_STATS_JSON / DICE_STATS_CSV: per-cell stat-registry export
 *    into the named directory, one document per fresh cell.
 *  - DICE_TRACE_OUT: Chrome trace-event JSON of per-worker cell and
 *    simulate spans (view in Perfetto).
 *  - DICE_PROGRESS=1: heartbeat line with cells done/total and
 *    refs/sec.
 */

#ifndef DICE_BENCH_HARNESS_HPP
#define DICE_BENCH_HARNESS_HPP

#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/compressed.hpp" // CompressionPolicy
#include "sim/system.hpp"

namespace dice::bench
{

/** A named way of building a SystemConfig (one bar/line per figure). */
struct Organization
{
    std::string name;
    std::function<SystemConfig(const SystemConfig &base)> configure;
};

/** Default scaled system parameters used by all benches. */
SystemConfig defaultBase();

/** Named SystemConfig builders for the standard organizations. */
SystemConfig configureBaseline(SystemConfig base);
SystemConfig configureCompressed(SystemConfig base,
                                 CompressionPolicy policy);
SystemConfig configureDice(SystemConfig base);
SystemConfig configure2xCapacity(SystemConfig base);
SystemConfig configure2xBandwidth(SystemConfig base);
SystemConfig configure2xBoth(SystemConfig base);

/**
 * SystemConfig for any L4Registry organization name ("alloy", "dice",
 * "scc", "banshee", "touche", ...); asserts the name is registered.
 */
SystemConfig configureOrganization(SystemConfig base,
                                   const std::string &org);

/**
 * Extra organization columns requested via DICE_BENCH_ORGS (a comma-
 * separated list of registry names; default empty). fig10/fig13
 * append these after their standard columns, so default stdout stays
 * byte-identical.
 */
std::vector<std::string> extraOrgNames();

/** Per-core profiles of a named workload ("mix3" or a suite name). */
std::vector<WorkloadProfile> workloadProfiles(const std::string &name,
                                              std::uint32_t cores);

/** One simulation cell: a workload replayed under one organization. */
struct SimCell
{
    std::string workload;
    SystemConfig config;
    std::string cache_key;
};

/** An organization paired with its result-cache key. */
struct OrgCell
{
    SystemConfig config;
    std::string cache_key;
};

/** Worker threads the engine uses (DICE_BENCH_JOBS, default ncpu). */
unsigned benchJobs();

/**
 * Enable the distributed sweep engine from the command line. Every
 * bench main calls this first; with no recognized flags it is a no-op
 * and the binary runs serially (in-process thread pool only).
 *
 *  --serve M     Coordinator: each runCells batch is executed by M
 *                re-spawned copies of this binary (posix_spawn), which
 *                pull cells from a shared work-stealing claim queue
 *                (bench/sweep_queue.hpp: O_EXCL lease files, cost-
 *                ordered longest-first, requeue-on-crash) and stream
 *                per-cell results into <cache>/results/ and the shared
 *                persistent caches. The coordinator merges in
 *                canonical cell order, so its stdout and merged
 *                documents are byte-identical to a serial run even
 *                when workers crash or extra workers join.
 *  --worker i/M  Worker i of M (spawned by --serve; not for hand use).
 *  --batch B     The runCells batch index a worker owns.
 *  --join DIR    Attach to an in-flight sweep whose results directory
 *                is DIR (possibly from another machine sharing the
 *                filesystem): steal pending cells from its claim
 *                queue, publish them, and exit. Own stdout is
 *                suppressed — the coordinator renders the figure.
 *
 * Related environment: DICE_SWEEP_RESULTS overrides the results
 * directory, DICE_SWEEP_MERGED names a canonical merged JSON document
 * written (serially or distributed) after every batch,
 * DICE_SWEEP_LEASE_STALE_S (default 30) is the lease staleness
 * threshold for requeueing a dead holder's cells, and
 * DICE_SWEEP_STATIC=1 reverts to the legacy static index-mod-M
 * sharding (no stealing) for A/B comparison. Every distributed batch
 * leaves <results>/sweep_summary.json describing how it executed:
 * scheduler, total stolen/requeued, per-participant cells, busy/span
 * seconds, utilization, merged per-phase latency percentiles
 * (phase_latency_us), the slowest cell, and anomaly warnings
 * (straggler threshold DICE_SWEEP_STRAGGLER_K, default 4 x p90).
 * DICE_SWEEP_EVENTS=1 additionally journals every
 * participant's events to <results>/events/<name>.jsonl and merges them
 * into a Chrome trace at <results>/timeline.json (override with
 * DICE_SWEEP_TIMELINE); see README "Sweep observability".
 */
void initSweepMode(int argc, char **argv);

/**
 * Simulate every cell (deduplicated by workload|cache_key) across a
 * benchJobs()-sized thread pool, populating both memoization layers.
 * Results are bit-identical to a serial run: each cell's System is
 * self-contained and seeded from its own config.
 */
void runCells(const std::vector<SimCell> &cells);

/** Batch-run the cross product of @p workloads and @p orgs. */
void runSweep(const std::vector<std::string> &workloads,
              const std::vector<OrgCell> &orgs);

/** Run one workload under one configuration (memoized, thread-safe). */
const RunResult &runWorkload(const std::string &workload,
                             const SystemConfig &config,
                             const std::string &cache_key);

/**
 * Speedup of config over the uncompressed Alloy baseline for a
 * workload (weighted speedup, as in the paper).
 */
double speedupOver(const std::string &workload,
                   const SystemConfig &base_cfg,
                   const std::string &base_key,
                   const SystemConfig &test_cfg,
                   const std::string &test_key);

/** Workload-name groups used in every table. */
const std::vector<std::string> &rateNames();
const std::vector<std::string> &mixNames();
const std::vector<std::string> &gapNames();

/** All 26 evaluation workloads in RATE, MIX, GAP order. */
std::vector<std::string> allNames();

/** Geomean over a set of named per-workload values. */
double geomeanOver(const std::vector<std::string> &names,
                   const std::map<std::string, double> &values);

/** Print a header naming the figure/table being reproduced. */
void printHeader(const std::string &title, const std::string &paper_ref);

/** Print one row: workload name + columns at fixed width. */
void printRow(const std::string &name,
              const std::vector<double> &values,
              const std::vector<std::string> &suffix = {});

/** Print the column legend. */
void printColumns(const std::vector<std::string> &names);

namespace detail
{

/**
 * Persist @p r at @p path crash- and race-safely: the serialized
 * result plus a trailing checksum is written to a unique temp file in
 * the same directory and atomically renamed into place. Fails silently
 * (the persistent cache is an optimization, not a correctness layer).
 */
void saveResult(const std::filesystem::path &path, const RunResult &r);

/**
 * Load a persisted result. Returns false — a cache miss — for missing,
 * truncated, corrupted, or checksum-mismatching files.
 */
bool loadResult(const std::filesystem::path &path, RunResult &r);

/**
 * Stable golden digest of a result: FNV-1a over its canonical
 * serialization. Identical across processes and across cache
 * round-trips, so a distributed sweep can be diffed against a serial
 * one digest-by-digest.
 */
std::uint64_t resultDigest(const RunResult &r);

} // namespace detail

} // namespace dice::bench

#endif // DICE_BENCH_HARNESS_HPP
