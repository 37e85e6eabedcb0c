#include "harness.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <type_traits>
#include <unordered_set>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "common/trace_events.hpp"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace dice::bench
{

namespace
{

/** Bump when simulator or cache-file format changes invalidate
 *  cached results (v6: trailing checksum field; v7: cells keyed by
 *  their full SystemConfig). */
constexpr int kCacheVersion = 7;

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

// Canonical config serialization for cellKey(). Every struct is
// unpacked with a structured binding naming all of its members, so a
// field added to any of them fails to compile here until the key
// covers it.
void keyStruct(std::string &out, const CoreConfig &c);
void keyStruct(std::string &out, const SramCacheConfig &c);
void keyStruct(std::string &out, const DramTiming &t);
void keyStruct(std::string &out, const DramCacheConfig &c);
void keyStruct(std::string &out, const CompressedL4Params &p);
void keyStruct(std::string &out, const BansheeL4Params &p);
void keyStruct(std::string &out, const ToucheL4Params &p);
void keyStruct(std::string &out, const L4Config &c);
void keyStruct(std::string &out, const EnergyParams &e);

/** Append one field, '|'-terminated: strings length-prefixed, doubles
 *  as exact hex floats, integers and bools in decimal, structs braced. */
template <typename T>
void
keyField(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out += std::to_string(v.size());
        out += ':';
        out += v;
    } else if constexpr (std::is_floating_point_v<T>) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%a", static_cast<double>(v));
        out += buf;
    } else if constexpr (std::is_integral_v<T>) {
        out += std::to_string(static_cast<std::uint64_t>(v));
    } else {
        out += '{';
        keyStruct(out, v);
        out += '}';
    }
    out += '|';
}

template <typename... T>
void
keyFields(std::string &out, const T &...v)
{
    (keyField(out, v), ...);
}

void
keyStruct(std::string &out, const CoreConfig &c)
{
    const auto &[issue_width, rob_size, mshrs] = c;
    keyFields(out, issue_width, rob_size, mshrs);
}

void
keyStruct(std::string &out, const SramCacheConfig &c)
{
    const auto &[name, size_bytes, ways, hit_latency] = c;
    keyFields(out, name, size_bytes, ways, hit_latency);
}

void
keyStruct(std::string &out, const DramTiming &t)
{
    const auto &[tCAS, tRCD, tRP, tRAS, channels, banks_per_channel,
                 bus_bytes_per_beat, cpu_cycles_per_beat,
                 write_queue_cycles, row_bytes] = t;
    keyFields(out, tCAS, tRCD, tRP, tRAS, channels, banks_per_channel,
              bus_bytes_per_beat, cpu_cycles_per_beat,
              write_queue_cycles, row_bytes);
}

void
keyStruct(std::string &out, const DramCacheConfig &c)
{
    const auto &[capacity, timing, controller_latency,
                 decompression_latency] = c;
    keyFields(out, capacity, timing, controller_latency,
              decompression_latency);
}

void
keyStruct(std::string &out, const CompressedL4Params &p)
{
    const auto &[threshold_bytes, cip_entries, knl_mode,
                 pair_compression] = p;
    keyFields(out, threshold_bytes, cip_entries, knl_mode,
              pair_compression);
}

void
keyStruct(std::string &out, const BansheeL4Params &p)
{
    const auto &[page_bytes, ways, replace_margin, counter_max] = p;
    keyFields(out, page_bytes, ways, replace_margin, counter_max);
}

void
keyStruct(std::string &out, const ToucheL4Params &p)
{
    const auto &[signature_bits] = p;
    keyFields(out, signature_bits);
}

void
keyStruct(std::string &out, const L4Config &c)
{
    const auto &[organization, base, comp, banshee, touche] = c;
    keyFields(out, organization, base, comp, banshee, touche);
}

void
keyStruct(std::string &out, const EnergyParams &e)
{
    const auto &[l4_pj_per_byte, l4_pj_per_activate, mem_pj_per_byte,
                 mem_pj_per_activate, background_mw, cpu_freq_ghz] = e;
    keyFields(out, l4_pj_per_byte, l4_pj_per_activate, mem_pj_per_byte,
              mem_pj_per_activate, background_mw, cpu_freq_ghz);
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

std::string
cellKey(const std::string &workload, const SystemConfig &config,
        const std::string &label)
{
    std::string canon;
    canon.reserve(512);
    keyFields(canon, kCacheVersion, workload, label);
    const auto &[num_cores, core, use_l1_l2, l1, l2, l3, l4, mem_timing,
                 extra_line_to_l3, l3_nextline_prefetch, l3_wide_fetch,
                 reference_capacity, refs_per_core, warmup_refs_per_core,
                 energy, seed] = config;
    keyFields(canon, num_cores, core, use_l1_l2, l1, l2, l3, l4,
              mem_timing, extra_line_to_l3, l3_nextline_prefetch,
              l3_wide_fetch, reference_capacity, refs_per_core,
              warmup_refs_per_core, energy, seed);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(canon)));
    return hex;
}

} // namespace detail

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
    const std::string key = detail::cellKey(workload, config, cache_key);
    {
        std::shared_lock lock(rc.mu);
        const auto it = rc.results.find(key);
        if (it != rc.results.end())
            return it->second;
    }

    const std::filesystem::path file = cacheDir() / (key + ".result");
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
        TraceSpan cell_span("cell", workload + "/" + cache_key,
                            cellArgsJson(workload, cache_key));
        // Each cell generates its reference streams live: a stream
        // costs ~3% of a cell, and holding every stream of a sweep
        // resident would cost more memory than replaying saves time.
        System sys(config, workloadProfiles(workload, config.num_cores));
        {
            TraceSpan sim_span("simulate", workload + "/" + cache_key);
            computed = sys.run();
        }
        exportCellStats(sys, workload, cache_key);
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
runCells(const std::vector<SimCell> &cells)
{
    // Dedupe by cell key so a racing pair never simulates twice.
    std::unordered_set<std::string> seen;
    std::vector<const SimCell *> work;
    work.reserve(cells.size());
    for (const SimCell &c : cells) {
        if (seen.insert(detail::cellKey(c.workload, c.config, c.cache_key))
                .second)
            work.push_back(&c);
    }

    const bool progress = progressEnabled();
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
