#include "harness.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_set>

#include <chrono>

#include "sweep_queue.hpp"

#include "common/claim_file.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/sweep_events.hpp"
#include "common/telemetry.hpp"
#include "common/trace_events.hpp"

#ifdef _WIN32
#include <process.h>
#else
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
extern char **environ;
#endif

namespace dice::bench
{

namespace
{

/** Bump when simulator or cache-file format changes invalidate
 *  cached results (v6: trailing checksum field). */
constexpr int kCacheVersion = 6;

/** Scale knob: DICE_BENCH_REFS overrides refs per core. */
std::uint64_t
refsPerCore()
{
    if (const char *env = std::getenv("DICE_BENCH_REFS"))
        return std::strtoull(env, nullptr, 10);
    return 40'000;
}

/**
 * Directory for cross-binary result caching. Every bench binary needs
 * many of the same (workload, organization) simulations; persisting
 * them lets the whole table suite run each simulation exactly once.
 * Disable with DICE_BENCH_NO_CACHE=1.
 */
std::filesystem::path
cacheDir()
{
    if (const char *env = std::getenv("DICE_BENCH_CACHE_DIR"))
        return env;
    return "bench_cache";
}

bool
cacheEnabled()
{
    return std::getenv("DICE_BENCH_NO_CACHE") == nullptr;
}

std::string
resultFileName(const std::string &workload, const SystemConfig &config,
               const std::string &cache_key)
{
    std::ostringstream key;
    key << kCacheVersion << '|' << workload << '|' << cache_key << '|'
        << config.refs_per_core << '|' << config.warmup_refs_per_core
        << '|' << config.seed << '|' << config.reference_capacity;
    return std::to_string(mix64(std::hash<std::string>{}(key.str()))) +
           ".result";
}

/** Stable (cross-process, cross-build) FNV-1a hash of the payload. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

/** Serialize a result into the cache-file payload (no checksum). */
std::string
serializeResult(const RunResult &r)
{
    std::ostringstream out;
    out.precision(17);
    out << r.cycles << ' ' << r.instructions << ' ' << r.ipc << ' '
        << r.l3_hit_rate << ' ' << r.l4_hit_rate << ' ' << r.l4_reads
        << ' ' << r.l4_extra_lines << ' ' << r.l4_second_probes << ' '
        << r.cip_read_accuracy << ' ' << r.cip_write_accuracy << ' '
        << r.mapi_accuracy << ' ' << r.frac_invariant << ' '
        << r.frac_bai << ' ' << r.frac_tsi << ' ' << r.avg_valid_lines
        << ' ' << r.l4_bytes << ' ' << r.mem_bytes << ' '
        << r.avg_miss_latency << ' ' << r.energy.l4_nj << ' '
        << r.energy.mem_nj << ' ' << r.energy.background_nj << ' '
        << r.energy.total_nj << ' ' << r.energy.avg_power_w << ' '
        << r.energy.edp << ' ' << r.energy.seconds << ' '
        << r.core_cycles.size();
    for (const Cycle c : r.core_cycles)
        out << ' ' << c;
    return out.str();
}

/** Inverse of serializeResult(); false on malformed payloads. */
bool
parseResult(const std::string &payload, RunResult &r)
{
    std::istringstream in(payload);
    std::size_t n_cores = 0;
    in >> r.cycles >> r.instructions >> r.ipc >> r.l3_hit_rate >>
        r.l4_hit_rate >> r.l4_reads >> r.l4_extra_lines >>
        r.l4_second_probes >> r.cip_read_accuracy >>
        r.cip_write_accuracy >> r.mapi_accuracy >> r.frac_invariant >>
        r.frac_bai >> r.frac_tsi >> r.avg_valid_lines >> r.l4_bytes >>
        r.mem_bytes >> r.avg_miss_latency >> r.energy.l4_nj >>
        r.energy.mem_nj >> r.energy.background_nj >> r.energy.total_nj >>
        r.energy.avg_power_w >> r.energy.edp >> r.energy.seconds >>
        n_cores;
    if (!in || n_cores == 0 || n_cores > 1024)
        return false;
    r.core_cycles.resize(n_cores);
    for (std::size_t i = 0; i < n_cores; ++i)
        in >> r.core_cycles[i];
    return static_cast<bool>(in);
}

/**
 * In-process result memo. Guarded by a shared mutex so parallel sweep
 * workers can look up and publish results concurrently; std::map node
 * stability makes the returned references permanently valid.
 */
struct ResultCache
{
    std::shared_mutex mu;
    std::map<std::string, RunResult> results;
};

ResultCache &
resultCache()
{
    static ResultCache cache;
    return cache;
}

/** References actually simulated this process (fresh cells only;
 *  cache-loaded cells do no simulation work). Feeds the heartbeat's
 *  refs/sec figure. */
std::atomic<std::uint64_t> g_simulated_refs{0};

/** Rendered trace-event args for a cell span. */
std::string
cellArgsJson(const std::string &workload, const std::string &cache_key)
{
    std::string args = "{\"workload\": \"";
    appendJsonEscaped(args, workload);
    args += "\", \"org\": \"";
    appendJsonEscaped(args, cache_key);
    args += "\"}";
    return args;
}

/**
 * Export one freshly-simulated cell's stat registry when
 * DICE_STATS_JSON / DICE_STATS_CSV name output directories. Called
 * with the System still alive (the registry reads live counters).
 */
void
exportCellStats(const System &sys, const std::string &workload,
                const std::string &cache_key)
{
    const std::string json_dir = statsJsonDir();
    const std::string csv_dir = statsCsvDir();
    if (json_dir.empty() && csv_dir.empty())
        return;
    const std::string stem =
        sanitizeFileStem(workload + "_" + cache_key);
    std::error_code ec;
    if (!json_dir.empty()) {
        std::filesystem::create_directories(json_dir, ec);
        const auto path =
            std::filesystem::path(json_dir) / (stem + ".json");
        if (!sys.statRegistry().writeJson(path.string()))
            dice_warn("cannot write stats JSON %s", path.c_str());
    }
    if (!csv_dir.empty()) {
        std::filesystem::create_directories(csv_dir, ec);
        const auto path =
            std::filesystem::path(csv_dir) / (stem + ".csv");
        if (!sys.statRegistry().writeCsv(path.string()))
            dice_warn("cannot write stats CSV %s", path.c_str());
    }
}

/**
 * DICE_PROGRESS=1 heartbeat: one line per completed cell with the
 * sweep position and cumulative simulation throughput. Serialized by
 * its own mutex so parallel workers never interleave; on a tty the
 * line redraws in place.
 */
void
printProgress(std::size_t done, std::size_t total, double elapsed_s)
{
    const double refs =
        static_cast<double>(g_simulated_refs.load(std::memory_order_relaxed));
    const double mrefs_per_s =
        elapsed_s > 0.0 ? refs / elapsed_s / 1e6 : 0.0;
#ifdef _WIN32
    const bool tty = false;
#else
    const bool tty = isatty(fileno(stderr)) != 0;
#endif
    static std::mutex mu;
    std::lock_guard lock(mu);
    std::fprintf(stderr, "%s[progress] %zu/%zu cells | %.2f Mref/s%s",
                 tty ? "\r" : "", done, total, mrefs_per_s,
                 tty ? (done == total ? "\n" : "") : "\n");
    std::fflush(stderr);
}

} // namespace

namespace detail
{

void
saveResult(const std::filesystem::path &path, const RunResult &r)
{
    // Unique temp name per process and call: concurrent writers (other
    // threads or other bench binaries) never collide, and readers only
    // ever see fully-written files because rename() is atomic within a
    // directory.
    static std::atomic<std::uint64_t> counter{0};
    const std::string payload = serializeResult(r);
    std::filesystem::path tmp = path;
    tmp += ".tmp." + std::to_string(static_cast<long>(getpid())) + "." +
           std::to_string(counter.fetch_add(1));

    {
        std::ofstream out(tmp);
        if (!out)
            return;
        out << payload << ' ' << fnv1a(payload) << '\n';
        if (!out)
            return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

bool
loadResult(const std::filesystem::path &path, RunResult &r)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    while (!content.empty() &&
           (content.back() == '\n' || content.back() == '\r'))
        content.pop_back();

    // The file is "<payload> <checksum>"; a truncated, stale (pre-v6),
    // or partially-written file fails the checksum and is a cache miss.
    const std::size_t sep = content.rfind(' ');
    if (sep == std::string::npos || sep + 1 >= content.size())
        return false;
    const std::string payload = content.substr(0, sep);
    errno = 0;
    char *end = nullptr;
    const std::uint64_t stored =
        std::strtoull(content.c_str() + sep + 1, &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    if (stored != fnv1a(payload))
        return false;
    return parseResult(payload, r);
}

std::uint64_t
resultDigest(const RunResult &r)
{
    return fnv1a(serializeResult(r));
}

} // namespace detail

namespace
{

// ---------------------------------------------------------------------
// Distributed sweep engine (--serve M / --worker i/M / --batch B /
// --join DIR).
//
// The coordinator never sends cell data over a pipe: every
// participant re-runs the same deterministic binary, deterministically
// enumerates the same canonical cell vector, and publishes results
// through the shared persistent result cache (bench_cache/). Which
// participant simulates which cell is decided by the work-stealing
// claim queue (bench/sweep_queue.hpp): everyone loops "claim next
// unowned cell → simulate → publish per-cell doc → release", crashed
// holders' leases expire and their cells are silently requeued, and
// extra --join workers (other processes, or other hosts sharing the
// filesystem) attach to the same queue mid-sweep. The coordinator
// then replays the batch as pure cache loads in canonical order, which
// makes its stdout, golden digests, and merged document byte-identical
// to a serial run no matter who computed what or how many times a cell
// was reclaimed. DICE_SWEEP_STATIC=1 falls back to the legacy static
// sharding (worker i owns canonical indices ≡ i mod M) for A/B
// scheduling comparisons.

/** How this process participates in a sweep (set by initSweepMode). */
struct SweepMode
{
    enum class Role
    {
        Serial,      ///< No flags: in-process thread pool only.
        Coordinator, ///< --serve M: shards batches across workers.
        Worker,      ///< --worker i/M: claims cells of one batch.
        Join         ///< --join DIR: attaches to an in-flight sweep.
    };

    Role role = Role::Serial;
    unsigned workers = 0;           ///< M.
    unsigned worker_index = 0;      ///< i in [0, M); worker role only.
    unsigned long target_batch = 0; ///< The batch a worker owns.
    std::string self;               ///< argv[0], for re-spawning.
    std::string join_results;       ///< --join results directory.
    /** Original arguments minus the sweep flags (workers get these
     *  back so binary-specific flags survive the respawn). */
    std::vector<std::string> passthrough;
};

/** DICE_SWEEP_STATIC=1: legacy static index sharding (no stealing). */
bool
schedulerIsStatic()
{
    const char *env = std::getenv("DICE_SWEEP_STATIC");
    return env != nullptr && std::strcmp(env, "0") != 0 &&
           std::strcmp(env, "") != 0;
}

SweepMode &
sweepMode()
{
    static SweepMode mode;
    return mode;
}

/** Monotonic runCells batch index. Coordinator and workers run the
 *  same main(), so the same sequence numbers the same batches. */
std::atomic<unsigned long> g_batch_counter{0};

/**
 * Canonical cell registry: every cell every runCells batch has seen,
 * deduplicated, in first-appearance order. Identical across roles
 * (the enumeration is deterministic), so "index in this vector" is a
 * cross-process cell identity and the merged document's row order.
 */
struct CellRecord
{
    std::string workload;
    SystemConfig config;
    std::string cache_key;
};

struct CellRegistry
{
    std::mutex mu;
    std::vector<CellRecord> order;
    std::unordered_set<std::string> seen;
};

CellRegistry &
cellRegistry()
{
    static CellRegistry reg;
    return reg;
}

void
registerCells(const std::vector<const SimCell *> &work)
{
    CellRegistry &reg = cellRegistry();
    std::lock_guard lock(reg.mu);
    for (const SimCell *c : work) {
        if (reg.seen.insert(c->workload + "|" + c->cache_key).second)
            reg.order.push_back(
                CellRecord{c->workload, c->config, c->cache_key});
    }
}

/** Worker-product directory (heartbeats, per-cell docs, summaries). */
std::filesystem::path
resultsDir()
{
    const std::string env = sweepResultsDir();
    if (!env.empty())
        return env;
    return cacheDir() / "results";
}

/** File stem naming a cell's per-cell doc and lease. */
std::string
cellStem(const SimCell &c)
{
    return sanitizeFileStem(c.workload + "_" + c.cache_key);
}

/**
 * Expected simulation cost of a cell, in arbitrary comparable units:
 * trace length × cores × an organization weight. Only the *ordering*
 * matters — the claim queue hands out the longest-expected cells
 * first so the batch's expensive tail never lands late on an
 * already-loaded worker.
 */
double
cellCost(const SimCell &c)
{
    const SystemConfig &cfg = c.config;
    double cost = static_cast<double>(cfg.warmup_refs_per_core +
                                      cfg.refs_per_core) *
                  std::max<std::uint32_t>(1, cfg.num_cores);
    // Compressed organizations run codec sizing on every install, so
    // their cells simulate measurably slower than the uncompressed
    // baseline; no L4 at all is cheaper still.
    const std::string &org = cfg.l4.organization;
    double weight = 1.0;
    if (org == "none")
        weight = 0.5;
    else if (org != "alloy")
        weight = 1.5;
    // Larger L4s take longer to warm and serve more hits per ref.
    const double cap_ratio =
        static_cast<double>(cfg.l4.base.capacity) / (8.0 * 1024 * 1024);
    if (cap_ratio > 1.0)
        weight *= 1.0 + 0.25 * std::log2(cap_ratio);
    return cost * weight;
}

/** The batch's cells as claim-queue entries (canonical order). */
std::vector<QueueCell>
queueCellsFor(const std::vector<const SimCell *> &work)
{
    std::vector<QueueCell> cells;
    cells.reserve(work.size());
    for (std::size_t i = 0; i < work.size(); ++i)
        cells.push_back(
            QueueCell{cellStem(*work[i]), i, cellCost(*work[i])});
    return cells;
}

/**
 * One cell as a JSON object: identity, golden digest, and every
 * RunResult field. Rendered only from the (cache-round-trip-exact)
 * RunResult, which a cache load reproduces bit for bit, so serial and
 * distributed runs render identical bytes.
 */
std::string
resultJson(const std::string &workload, const std::string &org,
           const RunResult &r)
{
    std::string out = "{\"workload\": \"";
    appendJsonEscaped(out, workload);
    out += "\", \"org\": \"";
    appendJsonEscaped(out, org);
    out += "\", \"digest\": ";
    out += std::to_string(detail::resultDigest(r));
    out += ", \"stats\": {";

    bool first = true;
    const auto u64 = [&out, &first](const char *name, std::uint64_t v) {
        out += first ? "\"" : ", \"";
        first = false;
        out += name;
        out += "\": ";
        out += std::to_string(v);
    };
    const auto num = [&out, &first](const char *name, double v) {
        out += first ? "\"" : ", \"";
        first = false;
        out += name;
        out += "\": ";
        appendJsonNumber(out, v);
    };
    u64("cycles", r.cycles);
    u64("instructions", r.instructions);
    num("ipc", r.ipc);
    num("l3_hit_rate", r.l3_hit_rate);
    num("l4_hit_rate", r.l4_hit_rate);
    u64("l4_reads", r.l4_reads);
    u64("l4_extra_lines", r.l4_extra_lines);
    u64("l4_second_probes", r.l4_second_probes);
    num("cip_read_accuracy", r.cip_read_accuracy);
    num("cip_write_accuracy", r.cip_write_accuracy);
    num("mapi_accuracy", r.mapi_accuracy);
    num("frac_invariant", r.frac_invariant);
    num("frac_bai", r.frac_bai);
    num("frac_tsi", r.frac_tsi);
    num("avg_valid_lines", r.avg_valid_lines);
    u64("l4_bytes", r.l4_bytes);
    u64("mem_bytes", r.mem_bytes);
    num("avg_miss_latency", r.avg_miss_latency);
    num("energy_l4_nj", r.energy.l4_nj);
    num("energy_mem_nj", r.energy.mem_nj);
    num("energy_background_nj", r.energy.background_nj);
    num("energy_total_nj", r.energy.total_nj);
    num("energy_avg_power_w", r.energy.avg_power_w);
    num("energy_edp", r.energy.edp);
    num("energy_seconds", r.energy.seconds);
    out += ", \"core_cycles\": [";
    for (std::size_t i = 0; i < r.core_cycles.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += std::to_string(r.core_cycles[i]);
    }
    out += "]}}";
    return out;
}

/** One participant's aggregated scheduling record (across batches). */
struct ParticipantAgg
{
    std::uint64_t cells = 0;
    std::uint64_t stolen = 0;
    std::uint64_t requeued = 0;
    std::uint64_t busy_ms = 0;
    std::uint64_t span_ms = 0;
    unsigned jobs = 1;
    /** Phase-latency histograms (exact cross-batch merge). */
    std::array<LogHistogram, kSweepPhases> phases;
    std::string slowest_cell;
    std::uint64_t slowest_us = 0;
};

/** Cross-batch totals of what worker processes reported, plus the
 *  coordinator's own claim-loop work. */
struct SweepTotals
{
    std::uint64_t worker_cells = 0;
    std::uint64_t worker_stolen = 0;
    std::uint64_t worker_requeued = 0;
    std::uint64_t worker_busy_ms = 0;
    /** Σ span × jobs per worker summary (utilization denominator). */
    std::uint64_t worker_span_jobs_ms = 0;
    /** Per-participant records keyed by name ("worker0", "join123"). */
    std::map<std::string, ParticipantAgg> per_worker;
    ParticipantAgg coordinator;
};

SweepTotals &
sweepTotals()
{
    static SweepTotals totals;
    return totals;
}

/**
 * Open this process's event journal (once) when DICE_SWEEP_EVENTS is
 * set. The participant name matches the role: "coordinator",
 * "worker<i>", "join<pid>", or "serial". The coordinator (or a serial
 * run) owns the results directory, so it clears journals left by a
 * previous run of the same directory first — workers and --join
 * attachers append (a respawned worker's later batches become new
 * segments of the same journal).
 */
void
maybeOpenSweepJournal()
{
    static bool attempted = false;
    if (attempted || !sweepEventsEnabled())
        return;
    attempted = true;
    const SweepMode &m = sweepMode();
    std::string name = "serial";
    bool owner = true;
    switch (m.role) {
      case SweepMode::Role::Coordinator:
        name = "coordinator";
        break;
      case SweepMode::Role::Worker:
        name = "worker" + std::to_string(m.worker_index);
        owner = false;
        break;
      case SweepMode::Role::Join:
        name = "join" + std::to_string(claimPid());
        owner = false;
        break;
      case SweepMode::Role::Serial:
        break;
    }
    const std::filesystem::path events = resultsDir() / "events";
    if (owner) {
        std::error_code ec;
        std::filesystem::directory_iterator it(events, ec);
        if (!ec) {
            std::vector<std::filesystem::path> stale;
            for (const auto &entry : it) {
                if (entry.path().extension() == ".jsonl")
                    stale.push_back(entry.path());
            }
            for (const std::filesystem::path &p : stale)
                std::filesystem::remove(p, ec);
        }
    }
    SweepJournal::instance().open(events, name);
}

#ifndef _WIN32

/**
 * One participant's heartbeat: its own progress and steal/requeue
 * counters, rewritten (atomically) after every published cell. Feeds
 * the static-scheduler progress line and post-mortem debugging; the
 * queue scheduler's progress counts published docs directly.
 */
void
writeHeartbeat(const std::string &name, unsigned long batch,
               std::size_t done, std::size_t total,
               const QueueStats &qs, std::uint64_t busy_ms)
{
    HeartbeatRecord hb;
    hb.batch = batch;
    hb.done = done;
    hb.total = total;
    hb.stolen = qs.stolen;
    hb.requeued = qs.requeued;
    hb.busy_ms = busy_ms;
    atomicWriteFile(resultsDir() / (name + ".heartbeat"),
                    renderHeartbeat(hb));
}

/**
 * Sum of all live participant heartbeats for @p batch. Heartbeats are
 * written atomically, so a malformed file is foreign garbage, not a
 * torn write: forEachParticipantFile rejects it with a (once-per-path)
 * warning and removes it — never silently folds it into the totals.
 */
void
readHeartbeats(unsigned long batch, std::size_t &done,
               std::size_t &total)
{
    done = total = 0;
    forEachParticipantFile(
        resultsDir(), ".heartbeat", /*remove_garbled=*/true,
        [batch, &done, &total](const std::filesystem::path &,
                               const std::string &content) {
            HeartbeatRecord hb;
            if (!parseHeartbeat(content, hb))
                return false;
            if (hb.batch == batch) {
                done += hb.done;
                total += hb.total;
            }
            return true;
        });
}

/** The coordinator's single aggregated progress line (stderr). */
void
printSweepProgress(unsigned long batch, std::size_t done,
                   std::size_t total, unsigned workers,
                   std::size_t alive, bool final_line)
{
    const bool tty = isatty(fileno(stderr)) != 0;
    std::fprintf(stderr,
                 "%s[sweep] batch %lu: %zu/%zu cells | %u workers, "
                 "%zu alive%s",
                 tty ? "\r" : "", batch, done, total, workers, alive,
                 tty ? (final_line ? "\n" : "") : "\n");
    std::fflush(stderr);
}

pid_t
spawnWorker(unsigned index, unsigned long batch)
{
    const SweepMode &m = sweepMode();
    std::vector<std::string> args;
    args.push_back(m.self);
    args.insert(args.end(), m.passthrough.begin(), m.passthrough.end());
    args.push_back("--worker");
    args.push_back(std::to_string(index) + "/" +
                   std::to_string(m.workers));
    args.push_back("--batch");
    args.push_back(std::to_string(batch));

    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    // The spawn mark goes to the journal *before* the spawn itself:
    // the timeline merge uses "a worker's epoch cannot precede its
    // spawn mark" as a hard causal constraint when aligning clocks,
    // which only holds if the mark is durable first.
    SweepJournal::instance().mark("spawn",
                                  "worker" + std::to_string(index));

    // Workers would duplicate the coordinator's stdout tables; their
    // real output is the shared caches and the results directory.
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    pid_t pid = -1;
    const int rc =
        posix_spawnp(&pid, m.self.c_str(), &fa, nullptr, argv.data(),
                     environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        // No special case: the unspawned worker's cells simply stay in
        // the claim queue for the remaining participants (under the
        // legacy static scheduler its shard is absorbed at merge).
        dice_warn("sweep: cannot spawn worker %u (%s)", index,
                  std::strerror(rc));
        return -1;
    }
    return pid;
}

/** Map a summary-transport hist name back to its SweepPhase slot
 *  (kSweepPhases when unknown — a newer writer's phase). */
unsigned
phaseIndexByName(const std::string &name)
{
    for (unsigned i = 0; i < kSweepPhases; ++i) {
        if (name == sweepPhaseName(static_cast<SweepPhase>(i)))
            return i;
    }
    return kSweepPhases;
}

/**
 * Fold finished participants' summary files into the cross-batch
 * totals (consumed on read so a later batch never double-counts).
 * Summaries are written atomically; anything that fails to parse is
 * foreign garbage, rejected by forEachParticipantFile with a
 * (once-per-path) warning and removed — never silently folded into
 * the totals.
 */
void
accumulateWorkerSummaries()
{
    SweepTotals &totals = sweepTotals();
    forEachParticipantFile(
        resultsDir(), ".summary", /*remove_garbled=*/true,
        [&totals](const std::filesystem::path &path,
                  const std::string &content) {
            SummaryRecord s;
            if (!parseSummary(content, s))
                return false;
            totals.worker_cells += s.cells;
            totals.worker_stolen += s.stolen;
            totals.worker_requeued += s.requeued;
            totals.worker_busy_ms += s.busy_ms;
            totals.worker_span_jobs_ms += s.span_ms * s.jobs;
            ParticipantAgg &agg =
                totals.per_worker[path.stem().string()];
            agg.cells += s.cells;
            agg.stolen += s.stolen;
            agg.requeued += s.requeued;
            agg.busy_ms += s.busy_ms;
            agg.span_ms += s.span_ms;
            agg.jobs = s.jobs;
            for (const auto &[name, h] : s.hists) {
                const unsigned p = phaseIndexByName(name);
                if (p < kSweepPhases)
                    agg.phases[p].merge(h);
            }
            if (s.slowest_us > agg.slowest_us) {
                agg.slowest_us = s.slowest_us;
                agg.slowest_cell = s.slowest_cell;
            }
            std::error_code ec;
            std::filesystem::remove(path, ec);
            return true;
        });
}

/**
 * Render one participant's summary file. Phase histograms are
 * process-cumulative, so the caller passes the snapshot taken at batch
 * start (@p phases_since) and the summary reports the deltas — a
 * multi-batch participant (a --join worker) never double-counts
 * across its summaries. The slowest-cell record stays cumulative: it
 * merges by max, which is idempotent.
 */
std::string
summaryLine(unsigned long batch, std::uint64_t cells,
            const QueueStats &qs, std::uint64_t busy_ms,
            std::uint64_t span_ms, unsigned jobs,
            const std::array<LogHistogram, kSweepPhases> &phases_since)
{
    SummaryRecord s;
    s.batch = batch;
    s.cells = cells;
    s.stolen = qs.stolen;
    s.requeued = qs.requeued;
    s.busy_ms = busy_ms;
    s.span_ms = span_ms;
    s.jobs = jobs;
    const std::array<LogHistogram, kSweepPhases> phases =
        SweepMetrics::instance().snapshotAll();
    for (unsigned i = 0; i < kSweepPhases; ++i) {
        const LogHistogram delta =
            phases[i].subtracted(phases_since[i]);
        if (delta.count() > 0)
            s.hists.emplace_back(
                sweepPhaseName(static_cast<SweepPhase>(i)), delta);
    }
    std::tie(s.slowest_cell, s.slowest_us) =
        SweepMetrics::instance().slowestCell();
    return renderSummary(s);
}

#endif // !_WIN32

/**
 * The machine-readable sweep summary: the scheduling record (who
 * claimed, stole, and requeued what, and how busy each participant
 * was). Not part of the byte-identical contract — it reports *how*
 * the run executed, which legitimately differs between serial and
 * distributed runs; CI uses it to prove that a skewed sweep actually
 * stole work.
 */
/** One histogram as a JSON object of its summary statistics. */
void
appendHistJson(std::string &out, const LogHistogram &h)
{
    out += "{\"count\": ";
    out += std::to_string(h.count());
    out += ", \"sum_us\": ";
    out += std::to_string(h.sum());
    out += ", \"mean_us\": ";
    appendJsonNumber(out, h.mean());
    out += ", \"max_us\": ";
    out += std::to_string(h.max());
    out += ", \"p50_us\": ";
    appendJsonNumber(out, h.percentile(0.50));
    out += ", \"p90_us\": ";
    appendJsonNumber(out, h.percentile(0.90));
    out += ", \"p99_us\": ";
    appendJsonNumber(out, h.percentile(0.99));
    out += "}";
}

void
writeSweepSummary()
{
    const SweepTotals &totals = sweepTotals();

    // Phase latencies merged across every participant: the
    // coordinator's own in-process histograms plus each worker's
    // summary-transported deltas. The merge is exact (fixed
    // power-of-two bucket edges), so these percentiles are what one
    // process sampling every cell would have reported.
    std::array<LogHistogram, kSweepPhases> merged =
        SweepMetrics::instance().snapshotAll();
    std::string slowest_cell;
    std::uint64_t slowest_us = 0;
    std::tie(slowest_cell, slowest_us) =
        SweepMetrics::instance().slowestCell();
    for (const auto &[name, agg] : totals.per_worker) {
        for (unsigned i = 0; i < kSweepPhases; ++i)
            merged[i].merge(agg.phases[i]);
        if (agg.slowest_us > slowest_us) {
            slowest_us = agg.slowest_us;
            slowest_cell = agg.slowest_cell;
        }
    }
    // busy / (span × jobs): 1.0 means every claim-loop thread
    // simulated for the participant's whole wall-clock span.
    const auto utilization = [](std::uint64_t busy_ms,
                                std::uint64_t span_ms, unsigned jobs) {
        const double denom =
            static_cast<double>(span_ms) * static_cast<double>(jobs);
        return denom > 0.0 ? static_cast<double>(busy_ms) / denom : 0.0;
    };

    std::string out = "{\n \"batches\": ";
    out += std::to_string(g_batch_counter.load());
    out += ",\n \"cells\": ";
    {
        CellRegistry &reg = cellRegistry();
        std::lock_guard lock(reg.mu);
        out += std::to_string(reg.order.size());
    }
    out += ",\n \"scheduler\": \"";
    out += schedulerIsStatic() ? "static" : "queue";
    out += "\",\n \"stolen\": ";
    out += std::to_string(totals.worker_stolen +
                          totals.coordinator.stolen);
    out += ",\n \"requeued\": ";
    out += std::to_string(totals.worker_requeued +
                          totals.coordinator.requeued);
    out += ",\n \"coordinator\": {\"cells\": ";
    out += std::to_string(totals.coordinator.cells);
    out += ", \"stolen\": ";
    out += std::to_string(totals.coordinator.stolen);
    out += ", \"requeued\": ";
    out += std::to_string(totals.coordinator.requeued);
    out += ", \"busy_s\": ";
    appendJsonNumber(out, totals.coordinator.busy_ms / 1000.0);
    out += ", \"span_s\": ";
    appendJsonNumber(out, totals.coordinator.span_ms / 1000.0);
    out += ", \"utilization\": ";
    appendJsonNumber(out, utilization(totals.coordinator.busy_ms,
                                      totals.coordinator.span_ms,
                                      totals.coordinator.jobs));
    out += "},\n \"workers\": {\"cells\": ";
    out += std::to_string(totals.worker_cells);
    out += ", \"stolen\": ";
    out += std::to_string(totals.worker_stolen);
    out += ", \"requeued\": ";
    out += std::to_string(totals.worker_requeued);
    out += ", \"busy_s\": ";
    appendJsonNumber(out, totals.worker_busy_ms / 1000.0);
    out += ", \"utilization\": ";
    appendJsonNumber(
        out, totals.worker_span_jobs_ms > 0
                 ? static_cast<double>(totals.worker_busy_ms) /
                       static_cast<double>(totals.worker_span_jobs_ms)
                 : 0.0);
    out += "},\n \"per_worker\": [";
    bool first = true;
    for (const auto &[name, agg] : totals.per_worker) {
        out += first ? "\n  " : ",\n  ";
        first = false;
        out += "{\"name\": \"";
        appendJsonEscaped(out, name);
        out += "\", \"cells\": ";
        out += std::to_string(agg.cells);
        out += ", \"stolen\": ";
        out += std::to_string(agg.stolen);
        out += ", \"requeued\": ";
        out += std::to_string(agg.requeued);
        out += ", \"busy_s\": ";
        appendJsonNumber(out, agg.busy_ms / 1000.0);
        out += ", \"span_s\": ";
        appendJsonNumber(out, agg.span_ms / 1000.0);
        out += ", \"jobs\": ";
        out += std::to_string(agg.jobs);
        out += ", \"utilization\": ";
        appendJsonNumber(
            out, utilization(agg.busy_ms, agg.span_ms, agg.jobs));
        out += ", \"cell_us\": ";
        appendHistJson(out,
                       agg.phases[static_cast<unsigned>(
                           SweepPhase::Cell)]);
        out += "}";
    }
    out += first ? "],\n \"phase_latency_us\": {"
                 : "\n ],\n \"phase_latency_us\": {";
    for (unsigned i = 0; i < kSweepPhases; ++i) {
        out += i == 0 ? "\n  \"" : ",\n  \"";
        out += sweepPhaseName(static_cast<SweepPhase>(i));
        out += "\": ";
        appendHistJson(out, merged[i]);
    }
    out += "\n },\n \"slowest_cell\": {\"cell\": \"";
    appendJsonEscaped(out, slowest_cell);
    out += "\", \"us\": ";
    out += std::to_string(slowest_us);
    out += "},\n \"warnings\": [";
    {
        const std::vector<std::string> warnings = sweepAnomalyWarnings(
            merged[static_cast<unsigned>(SweepPhase::Cell)],
            slowest_cell, slowest_us,
            totals.worker_requeued + totals.coordinator.requeued,
            totals.worker_cells + totals.coordinator.cells,
            sweepStragglerK());
        bool first_warn = true;
        for (const std::string &w : warnings) {
            out += first_warn ? "\n  \"" : ",\n  \"";
            first_warn = false;
            appendJsonEscaped(out, w);
            out += "\"";
            // Only a distributed run's coordinator escalates to
            // stderr — a serial run exporting a summary keeps the
            // anomalies in the JSON alone.
            if (sweepMode().role == SweepMode::Role::Coordinator)
                dice_warn("sweep: %s", w.c_str());
        }
        out += first_warn ? "]" : "\n ]";
    }
    out += "\n}\n";
    std::error_code ec;
    std::filesystem::create_directories(resultsDir(), ec);
    atomicWriteFile(resultsDir() / "sweep_summary.json", out);
}

/**
 * Rewrite the canonical merged document (DICE_SWEEP_MERGED) from the
 * cell registry after a batch. Every row is a memo/cache hit by now,
 * so this costs one JSON render. Cumulative: the file always covers
 * every cell any batch so far has run.
 */
void
writeSweepOutputs()
{
    const std::string merged = sweepMergedPath();
    if (!merged.empty()) {
        std::vector<CellRecord> order;
        {
            CellRegistry &reg = cellRegistry();
            std::lock_guard lock(reg.mu);
            order = reg.order;
        }
        std::string out = "{\"version\": 1, \"cells\": [";
        bool first = true;
        for (const CellRecord &c : order) {
            const RunResult &r =
                runWorkload(c.workload, c.config, c.cache_key);
            out += first ? "\n " : ",\n ";
            first = false;
            out += resultJson(c.workload, c.cache_key, r);
        }
        out += "\n]}\n";
        if (!atomicWriteFile(merged, out))
            dice_warn("sweep: cannot write DICE_SWEEP_MERGED=%s",
                      merged.c_str());
    }
    if (sweepMode().role == SweepMode::Role::Coordinator ||
        !sweepResultsDir().empty())
        writeSweepSummary();

    // Merge every participant's event journal into one Chrome trace
    // after each batch (cheap: journals are small), so the timeline is
    // inspectable mid-sweep and survives a killed coordinator. The
    // standalone bench/sweep_timeline tool re-runs the same merge.
    if (sweepEventsEnabled()) {
        const std::string custom = sweepTimelinePath();
        const std::filesystem::path out_path =
            custom.empty() ? resultsDir() / "timeline.json"
                           : std::filesystem::path(custom);
        std::string error;
        if (!mergeSweepTimeline(resultsDir() / "events", out_path,
                                &error))
            dice_warn("sweep: timeline merge failed: %s",
                      error.c_str());
    }
}

/** The classic engine: a benchJobs()-sized in-process thread pool. */
void
runCellsSerial(const std::vector<const SimCell *> &work,
               bool progress_allowed)
{
    const bool progress = progress_allowed && progressEnabled();
    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::size_t> done{0};
    parallelFor(work.size(), benchJobs(),
                [&work, &done, progress, t0](std::size_t i) {
        runWorkload(work[i]->workload, work[i]->config,
                    work[i]->cache_key);
        if (progress) {
            const std::size_t d =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            printProgress(d, work.size(), elapsed);
        }
    });
}

#ifndef _WIN32

/** Milliseconds elapsed since @p t0. */
std::uint64_t
elapsedMs(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/**
 * One participant's claim loop against @p q, run as @p jobs parallel
 * loops: claim the most expensive unowned cell, simulate it, publish
 * its document, repeat. When nothing is claimable the loop polls until
 * the batch completes — a live peer may still crash and requeue its
 * cells, and those must not be orphaned. @p after_cell runs after
 * every publish with this participant's cumulative busy milliseconds
 * (used for heartbeats/progress). Returns total busy milliseconds.
 */
template <typename AfterCell>
std::uint64_t
drainSweepQueue(SweepQueue &q, const std::vector<const SimCell *> &work,
                unsigned jobs, AfterCell after_cell)
{
    std::atomic<std::uint64_t> busy_ms{0};
    parallelFor(jobs, jobs, [&](std::size_t) {
        // How long this claim loop has been idle: feeds the
        // claim-wait latency histogram and the journal's claim events
        // (the distributed analogue of run-queue wait).
        auto free_since = std::chrono::steady_clock::now();
        for (;;) {
            const std::uint64_t wait_us = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - free_since)
                    .count());
            const std::optional<std::size_t> idx =
                q.claimNext(wait_us);
            if (!idx) {
                if (q.complete())
                    return;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                continue;
            }
            const SimCell *c = work[q.cell(*idx).canonical_index];
            const auto t0 = std::chrono::steady_clock::now();
            const RunResult &r =
                runWorkload(c->workload, c->config, c->cache_key);
            const std::uint64_t dt = elapsedMs(t0);
            const std::uint64_t busy =
                busy_ms.fetch_add(dt, std::memory_order_relaxed) + dt;
            q.publish(*idx,
                      resultJson(c->workload, c->cache_key, r) + "\n");
            after_cell(busy);
            free_since = std::chrono::steady_clock::now();
        }
    });
    return busy_ms.load();
}

/**
 * Run one batch as a claim-queue participant named @p name whose
 * nominal static shard is @p home_shard of @p shard_count (0 ⇒ no
 * shard; every claim counts as stolen). Heartbeats after every
 * published cell; ends with either a summary file for the coordinator
 * to accumulate or, when @p record is non-null (the coordinator
 * itself), an in-process record that goes straight into the totals —
 * the coordinator must not also write a summary that would
 * double-count it.
 */
void
runCellsQueueParticipant(const std::vector<const SimCell *> &work,
                         unsigned long batch, const std::string &name,
                         unsigned home_shard, unsigned shard_count,
                         ParticipantAgg *record = nullptr)
{
    std::error_code ec;
    std::filesystem::create_directories(resultsDir(), ec);
    SweepQueue q(resultsDir(), queueCellsFor(work), home_shard,
                 shard_count);
    const unsigned jobs = benchJobs();
    const auto t0 = std::chrono::steady_clock::now();
    const std::array<LogHistogram, kSweepPhases> phases_since =
        SweepMetrics::instance().snapshotAll();
    // The summary is rewritten (atomically) after every publish, not
    // only at the end: completion detection lags the last publish by
    // a poll interval, and the accumulating coordinator must find the
    // full record the instant the batch's last document lands — not
    // lose a race against a --join worker still noticing it is done.
    const auto write_summary = [&](std::uint64_t busy_ms) {
        if (record != nullptr)
            return;
        const QueueStats qs = q.stats();
        atomicWriteFile(resultsDir() / (name + ".summary"),
                        summaryLine(batch, qs.published, qs, busy_ms,
                                    elapsedMs(t0), jobs, phases_since));
    };
    writeHeartbeat(name, batch, 0, work.size(), QueueStats{}, 0);
    write_summary(0);
    const std::uint64_t busy =
        drainSweepQueue(q, work, jobs, [&](std::uint64_t busy_so_far) {
            writeHeartbeat(name, batch, q.doneCount(), work.size(),
                           q.stats(), busy_so_far);
            write_summary(busy_so_far);
        });
    const std::uint64_t span = elapsedMs(t0);
    const QueueStats qs = q.stats();
    if (record != nullptr) {
        record->cells += qs.published;
        record->stolen += qs.stolen;
        record->requeued += qs.requeued;
        record->busy_ms += busy;
        record->span_ms += span;
        record->jobs = jobs;
    } else {
        write_summary(busy);
    }
}

/**
 * Legacy static scheduler (DICE_SWEEP_STATIC=1): the worker owns
 * exactly the canonical indices congruent to its index mod M. Kept as
 * the A/B baseline for scheduling experiments; a crashed worker's
 * shard silently degrades to coordinator-local simulation at merge.
 */
void
runCellsWorkerStatic(const std::vector<const SimCell *> &work,
                     unsigned long batch)
{
    const SweepMode &m = sweepMode();
    std::error_code ec;
    std::filesystem::create_directories(resultsDir(), ec);
    std::vector<const SimCell *> mine;
    for (std::size_t i = m.worker_index; i < work.size();
         i += m.workers)
        mine.push_back(work[i]);

    const std::string name = "worker" + std::to_string(m.worker_index);
    const unsigned jobs = benchJobs();
    const auto t0 = std::chrono::steady_clock::now();
    const std::array<LogHistogram, kSweepPhases> phases_since =
        SweepMetrics::instance().snapshotAll();
    std::atomic<std::size_t> done{0};
    std::atomic<std::uint64_t> busy_ms{0};
    writeHeartbeat(name, batch, 0, mine.size(), QueueStats{}, 0);
    parallelFor(mine.size(), jobs, [&](std::size_t i) {
        const SimCell *c = mine[i];
        const auto c0 = std::chrono::steady_clock::now();
        const RunResult &r =
            runWorkload(c->workload, c->config, c->cache_key);
        const std::uint64_t dt = elapsedMs(c0);
        const std::uint64_t busy =
            busy_ms.fetch_add(dt, std::memory_order_relaxed) + dt;
        atomicWriteFile(SweepQueue::docPath(resultsDir(), cellStem(*c)),
                        resultJson(c->workload, c->cache_key, r) + "\n");
        writeHeartbeat(name, batch,
                       done.fetch_add(1, std::memory_order_relaxed) + 1,
                       mine.size(), QueueStats{}, busy);
    });
    atomicWriteFile(resultsDir() / (name + ".summary"),
                    summaryLine(batch, mine.size(), QueueStats{},
                                busy_ms.load(), elapsedMs(t0), jobs,
                                phases_since));
}

/**
 * Worker role: batches before the target were already merged into the
 * persistent cache by the coordinator, so they replay as loads; the
 * target batch drains the shared claim queue (or, under
 * DICE_SWEEP_STATIC=1, simulates exactly its static shard), then the
 * worker exits before the bench main can print anything or touch
 * later batches.
 */
void
runCellsWorker(const std::vector<const SimCell *> &work,
               unsigned long batch)
{
    const SweepMode &m = sweepMode();
    if (batch != m.target_batch) {
        runCellsSerial(work, /*progress_allowed=*/false);
        return;
    }

    if (schedulerIsStatic())
        runCellsWorkerStatic(work, batch);
    else
        runCellsQueueParticipant(
            work, batch, "worker" + std::to_string(m.worker_index),
            m.worker_index, m.workers);
    if (TraceLog::instance().enabled())
        TraceLog::instance().flush();
    std::exit(0);
}

/**
 * Join role (--join DIR): attach to an in-flight sweep's results
 * directory and drain every batch's claim queue alongside the owning
 * coordinator — from this host or any other sharing the filesystem.
 * A join worker is a pure extra pair of hands: it feeds the shared
 * caches, per-cell documents, its heartbeat, and a summary per batch;
 * the sweep's coordinator still owns stdout, the merged document, and
 * the sweep summary.
 */
void
runCellsJoin(const std::vector<const SimCell *> &work,
             unsigned long batch)
{
    static const std::string name =
        "join" + std::to_string(claimPid());
    runCellsQueueParticipant(work, batch, name, 0, 0);
}

/** Remove every participant heartbeat and summary (batch-start
 *  hygiene: leftovers from a previous batch or run — e.g. a --join
 *  worker's final summary rewrite that landed after the previous
 *  batch was accumulated — must not pollute this batch's progress or
 *  get accumulated twice). */
void
removeHeartbeats()
{
    std::error_code ec;
    std::filesystem::directory_iterator it(resultsDir(), ec);
    if (ec)
        return;
    std::vector<std::filesystem::path> stale;
    for (const auto &entry : it) {
        const std::filesystem::path ext = entry.path().extension();
        if (ext == ".heartbeat" || ext == ".summary")
            stale.push_back(entry.path());
    }
    for (const std::filesystem::path &p : stale)
        std::filesystem::remove(p, ec);
}

/**
 * Coordinator role, work-stealing scheduler: reset the batch's cells
 * (documents left by a previous run must not masquerade as done),
 * spawn M workers, and monitor the queue. While workers live the
 * coordinator only reaps and reports progress — a worker that dies
 * abnormally just abandons its leases, which expire and requeue to
 * the survivors. Only when *every* worker is gone does the
 * coordinator drain the remainder itself (also the degenerate path
 * when spawning fails entirely). Then it merges by replaying the
 * batch as cache loads in canonical order, which keeps stdout and the
 * merged document byte-identical to a serial run.
 */
void
runCellsCoordinatorQueue(const std::vector<const SimCell *> &work,
                         unsigned long batch)
{
    const SweepMode &m = sweepMode();
    std::error_code ec;
    std::filesystem::create_directories(resultsDir() / "leases", ec);
    for (const SimCell *c : work)
        SweepQueue::resetCell(resultsDir(), cellStem(*c));
    removeHeartbeats();

    std::vector<pid_t> pids;
    for (unsigned i = 0; i < m.workers; ++i) {
        const pid_t pid = spawnWorker(i, batch);
        if (pid > 0)
            pids.push_back(pid);
    }

    SweepQueue q(resultsDir(), queueCellsFor(work), 0, 0);
    const unsigned jobs = benchJobs();
    const auto t0 = std::chrono::steady_clock::now();
    const bool progress = progressEnabled();
    std::vector<bool> reaped(pids.size(), false);
    std::size_t alive = pids.size();
    std::uint64_t busy_ms = 0;
    for (;;) {
        for (std::size_t i = 0; i < pids.size(); ++i) {
            if (reaped[i])
                continue;
            int status = 0;
            if (waitpid(pids[i], &status, WNOHANG) == pids[i]) {
                reaped[i] = true;
                --alive;
                if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                    dice_warn("sweep: worker %zu died; its cells "
                              "return to the queue",
                              i);
            }
        }
        if (progress)
            printSweepProgress(batch, q.doneCount(), work.size(),
                               m.workers, alive, false);
        if (q.complete())
            break;
        if (alive == 0) {
            // Every worker is gone (crashed, or never spawned): the
            // coordinator claims and simulates what remains. Expired
            // leases of the dead are broken inside claimNext.
            busy_ms += drainSweepQueue(
                q, work, jobs, [&](std::uint64_t) {
                    if (progress)
                        printSweepProgress(batch, q.doneCount(),
                                           work.size(), m.workers, 0,
                                           false);
                });
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    }
    // Workers exit on their own once they observe the batch complete.
    for (std::size_t i = 0; i < pids.size(); ++i) {
        if (!reaped[i]) {
            int status = 0;
            waitpid(pids[i], &status, 0);
        }
    }
    if (progress)
        printSweepProgress(batch, work.size(), work.size(), m.workers,
                           0, true);

    const QueueStats qs = q.stats();
    SweepTotals &totals = sweepTotals();
    totals.coordinator.cells += qs.published;
    totals.coordinator.stolen += qs.stolen;
    totals.coordinator.requeued += qs.requeued;
    totals.coordinator.busy_ms += busy_ms;
    totals.coordinator.span_ms += elapsedMs(t0);
    totals.coordinator.jobs = jobs;

    for (const SimCell *c : work)
        runWorkload(c->workload, c->config, c->cache_key);
    accumulateWorkerSummaries();
}

/**
 * Coordinator role, legacy static scheduler (DICE_SWEEP_STATIC=1):
 * shard the batch across M re-spawned workers, wait on them while
 * aggregating their heartbeats into one progress line, then merge by
 * replaying the batch as cache loads in canonical order (simulating
 * locally anything a worker failed to publish).
 */
void
runCellsCoordinatorStatic(const std::vector<const SimCell *> &work,
                          unsigned long batch)
{
    const SweepMode &m = sweepMode();
    std::error_code ec;
    std::filesystem::create_directories(resultsDir(), ec);
    removeHeartbeats();

    std::vector<pid_t> pids;
    for (unsigned i = 0; i < m.workers; ++i) {
        const pid_t pid = spawnWorker(i, batch);
        if (pid > 0)
            pids.push_back(pid);
    }

    const bool progress = progressEnabled();
    std::vector<bool> reaped(pids.size(), false);
    std::size_t alive = pids.size();
    while (alive > 0) {
        for (std::size_t i = 0; i < pids.size(); ++i) {
            if (reaped[i])
                continue;
            int status = 0;
            if (waitpid(pids[i], &status, WNOHANG) == pids[i]) {
                reaped[i] = true;
                --alive;
                if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                    dice_warn("sweep: worker %zu died; its shard falls "
                              "back to the coordinator",
                              i);
            }
        }
        if (progress) {
            std::size_t done = 0, total = 0;
            readHeartbeats(batch, done, total);
            printSweepProgress(batch, done,
                               total != 0 ? total : work.size(),
                               m.workers, alive, alive == 0);
        }
        if (alive > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
    }

    for (const SimCell *c : work)
        runWorkload(c->workload, c->config, c->cache_key);
    accumulateWorkerSummaries();
}

void
runCellsCoordinator(const std::vector<const SimCell *> &work,
                    unsigned long batch)
{
    if (schedulerIsStatic())
        runCellsCoordinatorStatic(work, batch);
    else
        runCellsCoordinatorQueue(work, batch);
}

#endif // !_WIN32

} // namespace

SystemConfig
defaultBase()
{
    SystemConfig cfg;
    cfg.num_cores = 8;
    cfg.refs_per_core = refsPerCore();
    cfg.warmup_refs_per_core = refsPerCore() / 2;
    // 1/128-scale machine: an 8-MiB L4 stands in for the paper's
    // 1 GiB and a 64-KiB shared L3 for the paper's 8 MiB. Footprints
    // scale with reference_capacity so footprint/capacity pressure
    // matches Table 3, and the smaller caches reach steady state
    // within the scaled instruction budget.
    cfg.reference_capacity = 8_MiB;
    cfg.l3.size_bytes = 64_KiB;
    cfg.l4.base.capacity = 8_MiB;
    cfg.core.mshrs = 16;
    cfg.seed = 2017;
    return cfg;
}

SystemConfig
configureBaseline(SystemConfig base)
{
    base.l4.organization = "alloy";
    return base;
}

SystemConfig
configureOrganization(SystemConfig base, const std::string &org)
{
    dice_assert(L4Registry::instance().known(org),
                "unknown L4 organization '%s'", org.c_str());
    base.l4.organization = org;
    return base;
}

SystemConfig
configureCompressed(SystemConfig base, CompressionPolicy policy)
{
    base.l4.organization = policyName(policy);
    return base;
}

SystemConfig
configureDice(SystemConfig base)
{
    return configureCompressed(std::move(base), CompressionPolicy::Dice);
}

SystemConfig
configure2xCapacity(SystemConfig base)
{
    base.l4.organization = "alloy";
    base.l4.base.capacity *= 2;
    return base;
}

SystemConfig
configure2xBandwidth(SystemConfig base)
{
    base.l4.organization = "alloy";
    base.l4.base.timing.channels *= 2;
    return base;
}

SystemConfig
configure2xBoth(SystemConfig base)
{
    return configure2xBandwidth(configure2xCapacity(std::move(base)));
}

std::vector<std::string>
extraOrgNames()
{
    std::vector<std::string> out;
    const char *env = std::getenv("DICE_BENCH_ORGS");
    if (env == nullptr || *env == '\0')
        return out;
    std::string cur;
    for (const char *p = env;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty()) {
                dice_assert(L4Registry::instance().known(cur),
                            "DICE_BENCH_ORGS names unknown organization "
                            "'%s'",
                            cur.c_str());
                out.push_back(cur);
            }
            cur.clear();
            if (*p == '\0')
                break;
        } else {
            cur += *p;
        }
    }
    return out;
}

std::vector<WorkloadProfile>
workloadProfiles(const std::string &name, std::uint32_t cores)
{
    if (name.rfind("mix", 0) == 0 && name.size() == 4) {
        const std::size_t idx =
            static_cast<std::size_t>(name[3] - '1');
        dice_assert(idx < mixSuite().size(), "bad mix name %s",
                    name.c_str());
        std::vector<WorkloadProfile> profiles = mixSuite()[idx];
        dice_assert(!profiles.empty(), "mix suite %s has no profiles",
                    name.c_str());
        // Copy the fill value out first: resize may reallocate, and
        // passing a reference into the vector being resized would
        // read a dangling element.
        const WorkloadProfile fill = profiles.front();
        profiles.resize(cores, fill);
        return profiles;
    }
    return std::vector<WorkloadProfile>(cores, profileByName(name));
}

unsigned
benchJobs()
{
    return jobsFromEnv("DICE_BENCH_JOBS");
}

const RunResult &
runWorkload(const std::string &workload, const SystemConfig &config,
            const std::string &cache_key)
{
    ResultCache &rc = resultCache();
    const std::string key = workload + "|" + cache_key;
    {
        std::shared_lock lock(rc.mu);
        const auto it = rc.results.find(key);
        if (it != rc.results.end())
            return it->second;
    }

    const std::filesystem::path file =
        cacheDir() / resultFileName(workload, config, cache_key);
    RunResult computed;
    bool loaded = false;
    if (cacheEnabled()) {
        std::error_code ec;
        std::filesystem::create_directories(cacheDir(), ec);
        loaded = detail::loadResult(file, computed);
    }
    if (!loaded) {
        // The per-cell announcement honors DICE_LOG_LEVEL=quiet and
        // yields to the heartbeat line when DICE_PROGRESS is set.
        if (logLevel() >= LogLevel::Warn && !progressEnabled()) {
            std::fprintf(stderr, "[sim] %s / %s ...\n", workload.c_str(),
                         cache_key.c_str());
        }
        const auto usSince =
            [](std::chrono::steady_clock::time_point t) {
                return static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t)
                        .count());
            };
        const std::string stem =
            sanitizeFileStem(workload + "_" + cache_key);
        SweepJournal &jr = SweepJournal::instance();
        SweepMetrics &sm = SweepMetrics::instance();
        const auto cell_t0 = std::chrono::steady_clock::now();
        const std::uint64_t cell_m0 = jr.enabled() ? jr.monoUs() : 0;
        if (jr.enabled())
            jr.begin("cell", stem);
        TraceSpan cell_span("cell", workload + "/" + cache_key,
                            cellArgsJson(workload, cache_key));
        // Each cell generates its reference streams live: a stream
        // costs ~3% of a cell, and holding every stream of a sweep
        // resident would cost more memory than replaying saves time.
        System sys(config, workloadProfiles(workload, config.num_cores));
        {
            const auto sim_t0 = std::chrono::steady_clock::now();
            const std::uint64_t sim_m0 =
                jr.enabled() ? jr.monoUs() : 0;
            if (jr.enabled())
                jr.begin("simulate", stem);
            TraceSpan sim_span("simulate", workload + "/" + cache_key);
            computed = sys.run();
            const std::uint64_t sim_us = usSince(sim_t0);
            sm.sample(SweepPhase::Simulate, sim_us);
            if (jr.enabled())
                jr.phase("simulate", stem, sim_m0, sim_us);
        }
        {
            const auto exp_t0 = std::chrono::steady_clock::now();
            const std::uint64_t exp_m0 =
                jr.enabled() ? jr.monoUs() : 0;
            exportCellStats(sys, workload, cache_key);
            const std::uint64_t exp_us = usSince(exp_t0);
            sm.sample(SweepPhase::Export, exp_us);
            if (jr.enabled())
                jr.phase("export", stem, exp_m0, exp_us);
        }
        const std::uint64_t cell_us = usSince(cell_t0);
        sm.noteCell(stem, cell_us);
        if (jr.enabled())
            jr.phase("cell", stem, cell_m0, cell_us);
        g_simulated_refs.fetch_add(
            (config.warmup_refs_per_core + config.refs_per_core) *
                config.num_cores,
            std::memory_order_relaxed);
    }

    std::pair<std::map<std::string, RunResult>::iterator, bool> pub;
    {
        std::unique_lock lock(rc.mu);
        // First publisher wins; a racing duplicate computed the same
        // bits anyway (the simulation is deterministic).
        pub = rc.results.emplace(key, std::move(computed));
    }
    if (pub.second && !loaded && cacheEnabled())
        detail::saveResult(file, pub.first->second);
    return pub.first->second;
}

void
initSweepMode(int argc, char **argv)
{
    SweepMode &m = sweepMode();
    m = SweepMode{};
    if (argc > 0 && argv[0] != nullptr)
        m.self = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i] != nullptr ? argv[i] : "";
        if (arg == "--serve" && i + 1 < argc) {
            m.role = SweepMode::Role::Coordinator;
            m.workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--worker" && i + 1 < argc) {
            m.role = SweepMode::Role::Worker;
            char *end = nullptr;
            m.worker_index = static_cast<unsigned>(
                std::strtoul(argv[++i], &end, 10));
            m.workers =
                end != nullptr && *end == '/'
                    ? static_cast<unsigned>(
                          std::strtoul(end + 1, nullptr, 10))
                    : 0;
        } else if (arg == "--batch" && i + 1 < argc) {
            m.target_batch = std::strtoul(argv[++i], nullptr, 10);
        } else if (arg == "--join" && i + 1 < argc) {
            m.role = SweepMode::Role::Join;
            m.join_results = argv[i + 1] != nullptr ? argv[i + 1] : "";
            ++i;
        } else {
            m.passthrough.push_back(arg);
        }
    }

    if (m.role == SweepMode::Role::Coordinator && m.workers < 2) {
        // One worker re-running the whole batch is pure overhead.
        m.role = SweepMode::Role::Serial;
    }
    if (m.role == SweepMode::Role::Worker &&
        (m.workers == 0 || m.worker_index >= m.workers)) {
        dice_warn("sweep: bad --worker i/M spec; running serially");
        m.role = SweepMode::Role::Serial;
    }
    if (m.role == SweepMode::Role::Join && m.join_results.empty()) {
        dice_warn("sweep: --join needs a results directory; "
                  "running serially");
        m.role = SweepMode::Role::Serial;
    }
#ifdef _WIN32
    if (m.role != SweepMode::Role::Serial) {
        dice_warn("sweep: --serve/--worker/--join are POSIX-only; "
                  "running serially");
        m.role = SweepMode::Role::Serial;
    }
#else
    if (m.role == SweepMode::Role::Coordinator && !cacheEnabled()) {
        dice_warn("sweep: --serve shares work through the persistent "
                  "cache; unset DICE_BENCH_NO_CACHE. Running serially");
        m.role = SweepMode::Role::Serial;
    }
    if (m.role == SweepMode::Role::Join) {
        // The attached sweep's claim queue lives in its results
        // directory; point this process's sweep plumbing there.
        setenv("DICE_SWEEP_RESULTS", m.join_results.c_str(), 1);
        // Participants exchange results through the persistent bench
        // cache; an attaching worker must share the sweep's cache. By
        // default the results dir is <cache>/results, so infer the
        // cache from the parent unless the caller said otherwise.
        if (std::getenv("DICE_BENCH_CACHE_DIR") == nullptr) {
            const std::filesystem::path parent =
                std::filesystem::path(m.join_results).parent_path();
            if (!parent.empty())
                setenv("DICE_BENCH_CACHE_DIR",
                       parent.string().c_str(), 1);
        }
        if (!cacheEnabled()) {
            dice_warn("sweep: --join shares work through the "
                      "persistent cache; unset DICE_BENCH_NO_CACHE. "
                      "Running serially");
            m.role = SweepMode::Role::Serial;
        } else if (std::freopen("/dev/null", "w", stdout) == nullptr) {
            // The owning coordinator prints the tables; a join worker
            // duplicating them would corrupt redirected sweep output.
            dice_warn("sweep: cannot silence --join stdout");
        }
    }
    if (m.role == SweepMode::Role::Worker ||
        m.role == SweepMode::Role::Join) {
        // Per-participant Chrome trace documents; initSweepMode runs
        // before anything constructs the TraceLog, so the env is
        // still live.
        const char *env = std::getenv("DICE_TRACE_OUT");
        if (env != nullptr && env[0] != '\0') {
            const std::string path =
                std::string(env) +
                (m.role == SweepMode::Role::Worker
                     ? ".worker" + std::to_string(m.worker_index)
                     : ".join" + std::to_string(claimPid()));
            setenv("DICE_TRACE_OUT", path.c_str(), 1);
        }
    }
#endif
}

void
runCells(const std::vector<SimCell> &cells)
{
    // Dedupe by memo key so a racing pair never simulates twice. The
    // resulting first-appearance order is the batch's canonical cell
    // order, shared by every role of a distributed sweep.
    std::unordered_set<std::string> seen;
    std::vector<const SimCell *> work;
    work.reserve(cells.size());
    for (const SimCell &c : cells) {
        if (seen.insert(c.workload + "|" + c.cache_key).second)
            work.push_back(&c);
    }
    registerCells(work);
    const unsigned long batch = g_batch_counter.fetch_add(1);
    maybeOpenSweepJournal();

    const SweepMode &m = sweepMode();
#ifndef _WIN32
    if (m.role == SweepMode::Role::Worker) {
        runCellsWorker(work, batch); // exits after its target batch
        return;
    }
    if (m.role == SweepMode::Role::Join) {
        // The owning coordinator writes the merged document and the
        // sweep summary; a join worker only feeds the queue.
        runCellsJoin(work, batch);
        return;
    }
    if (m.role == SweepMode::Role::Coordinator)
        runCellsCoordinator(work, batch);
    else
        runCellsSerial(work, /*progress_allowed=*/true);
#else
    (void)batch;
    runCellsSerial(work, /*progress_allowed=*/true);
#endif
    writeSweepOutputs();
}

void
runSweep(const std::vector<std::string> &workloads,
         const std::vector<OrgCell> &orgs)
{
    std::vector<SimCell> cells;
    cells.reserve(workloads.size() * orgs.size());
    for (const OrgCell &org : orgs) {
        for (const std::string &w : workloads)
            cells.push_back(SimCell{w, org.config, org.cache_key});
    }
    runCells(cells);
    // Make the Chrome trace durable after every sweep, not only at
    // process exit: each flush appends the new events and re-closes
    // the document, so the file stays valid at every point.
    if (TraceLog::instance().enabled())
        TraceLog::instance().flush();
}

double
speedupOver(const std::string &workload, const SystemConfig &base_cfg,
            const std::string &base_key, const SystemConfig &test_cfg,
            const std::string &test_key)
{
    const RunResult &base = runWorkload(workload, base_cfg, base_key);
    const RunResult &test = runWorkload(workload, test_cfg, test_key);
    return weightedSpeedup(base, test);
}

const std::vector<std::string> &
rateNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &p : specRateSuite())
            v.push_back(p.name);
        return v;
    }();
    return names;
}

const std::vector<std::string> &
mixNames()
{
    static const std::vector<std::string> names = {"mix1", "mix2", "mix3",
                                                   "mix4"};
    return names;
}

const std::vector<std::string> &
gapNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &p : gapSuite())
            v.push_back(p.name);
        return v;
    }();
    return names;
}

std::vector<std::string>
allNames()
{
    std::vector<std::string> all;
    for (const auto *group : {&rateNames(), &mixNames(), &gapNames()})
        all.insert(all.end(), group->begin(), group->end());
    return all;
}

double
geomeanOver(const std::vector<std::string> &names,
            const std::map<std::string, double> &values)
{
    std::vector<double> vals;
    for (const auto &n : names) {
        const auto it = values.find(n);
        dice_assert(it != values.end(), "missing value for %s",
                    n.c_str());
        vals.push_back(it->second);
    }
    return geomean(vals);
}

void
printHeader(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n=============================================="
                "==============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("================================================"
                "============================\n");
}

void
printColumns(const std::vector<std::string> &names)
{
    std::printf("%-12s", "workload");
    for (const auto &n : names)
        std::printf(" %12s", n.c_str());
    std::printf("\n");
}

void
printRow(const std::string &name, const std::vector<double> &values,
         const std::vector<std::string> &suffix)
{
    std::printf("%-12s", name.c_str());
    for (double v : values)
        std::printf(" %12.3f", v);
    for (const auto &s : suffix)
        std::printf(" %s", s.c_str());
    std::printf("\n");
}

} // namespace dice::bench
