/**
 * @file
 * Shared harness for the paper-reproduction benchmark binaries.
 *
 * Each bench binary declares the L4 organizations it compares, runs
 * every workload of the evaluation suite under each of them, and
 * prints rows in the shape of the paper's figure/table.
 *
 * The sweep engine is one in-process thread pool. A binary enumerates
 * all the cells it will need up front (runSweep/runCells) and the
 * harness simulates them across DICE_BENCH_JOBS worker threads. Every
 * (workload, organization) cell is independent and deterministic, and
 * generates its reference streams live, so a sweep holds only the
 * streams of the cells in flight and its results do not depend on
 * the job count.
 *
 * Results are memoized twice, both keyed by cellKey(): in a
 * concurrency-safe in-process map, and persistently in bench_cache/
 * (written via temp-file + atomic rename, validated by checksum on
 * load) so that concurrently running bench binaries share work and
 * never read torn files. After the batch run, the per-cell accessors
 * (runWorkload, speedupOver) are cheap cache hits.
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

/** One simulation cell: a workload run under one organization. */
struct SimCell
{
    std::string workload;
    SystemConfig config;
    /** Column label; part of cellKey() together with the config. */
    std::string cache_key;
};

/** An organization paired with its column label. */
struct OrgCell
{
    SystemConfig config;
    std::string cache_key;
};

/** Worker threads the engine uses (DICE_BENCH_JOBS, default ncpu). */
unsigned benchJobs();

/**
 * Simulate every cell (deduplicated by cellKey) across a
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
 * round-trips, so two runs of a sweep can be diffed digest-by-digest.
 */
std::uint64_t resultDigest(const RunResult &r);

/**
 * A cell's identity in both result caches: FNV-1a (16 hex digits)
 * over the cache version, @p workload, @p label and a canonical
 * serialization of every SystemConfig field. Two configs that differ
 * in any field get distinct keys even under one label; the label
 * still counts, so an identical config can be re-run fresh under a
 * new label.
 */
std::string cellKey(const std::string &workload, const SystemConfig &config,
                    const std::string &label);

} // namespace detail

} // namespace dice::bench

#endif // DICE_BENCH_HARNESS_HPP
