/**
 * @file
 * Benchmark program for the DICE reproduction (run via perfbench/run.py,
 * which builds it, pins the environment and runs the self-test).
 *
 *   dice_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> --digests <file> [--spans-out <file>]
 *                  [--print-digests]
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   dice_read   DICE on 8x cc_twi, repeated for --seconds.
 *   dice_write  DICE on 8x lbm, repeated for --seconds.
 *   alloy_read  uncompressed Alloy on 8x cc_twi, repeated.
 *   fig10       the Figure 10 sweep (ALL26 x {base,tsi,bai,dice,2x2x})
 *               through bench::runSweep, repeated for --seconds.
 *
 * --trace 0 measures host time with nothing traced and prints the
 * end-to-end metrics. --trace 1 runs untraced and traced cells (the
 * traced ones under the timing decorator of timed_l4.hpp) and prints
 * the per-layer metrics, including the tracing overhead between the
 * two. Every cell's RunResult digest is checked: at the default seed
 * against the recorded digests file, at any other seed against this
 * invocation's first untraced run of the same cell. The last stdout
 * line is one JSON object {correct, attempted, failed, metrics}.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "compress/hybrid.hpp"
#include "harness.hpp"
#include "timed_l4.hpp"
#include "workloads/region_plan.hpp"

extern char **environ;

namespace
{

using namespace dice;
using namespace dice::bench;
using perfbench::CellTrace;
using perfbench::nowNs;

constexpr std::uint64_t kDefaultSeed = 2017;

/**
 * Repeats a single-cell run makes at least, whatever --seconds says.
 * The first is a warm-up that the throughput figures leave out.
 */
constexpr std::size_t kMinRepeats = 4;

/** Timed sweeps a fig10 run makes at least, after its warm-up sweep. */
constexpr std::size_t kMinSweeps = 2;

/** Paper Figure 10 ALL26 geomeans: TSI, BAI, DICE, 2xCap+2xBW. */
constexpr double kPaperFig10[4] = {1.07, 1.001, 1.190, 1.219};

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
    std::string spans_out;
    bool print_digests = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dice_perfbench: %s\nusage: dice_perfbench --workload "
                 "dice_read|dice_write|alloy_read|fig10 [--seed N] "
                 "[--seconds S] [--trace 0|1] --digests FILE "
                 "[--spans-out FILE] [--print-digests]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            a.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            errno = 0;
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || errno != 0)
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            const std::string v = value();
            char *end = nullptr;
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0) ||
                a.seconds > 3600)
                usage("--seconds takes a number in (0, 3600]");
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (arg == "--digests") {
            a.digests = value();
        } else if (arg == "--spans-out") {
            a.spans_out = value();
        } else if (arg == "--print-digests") {
            a.print_digests = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.digests.empty())
        usage("--digests is required");
    return a;
}

// ---------------------------------------------------------------------
// Environment pinning

/**
 * Every DICE_* knob changes what is simulated, how it is timed, or
 * what is written; the benchmark accepts exactly these settings.
 */
bool
checkEnvironment(std::string &error)
{
    const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
    bool have_no_cache = false;
    bool have_jobs = false;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("DICE_", 0) != 0)
            continue;
        const std::size_t eq = kv.find('=');
        const std::string name = kv.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : kv.substr(eq + 1);
        if (name == "DICE_BENCH_NO_CACHE" && val == "1") {
            have_no_cache = true;
        } else if (name == "DICE_BENCH_JOBS") {
            char *end = nullptr;
            const unsigned long jobs = std::strtoul(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0' || jobs < 1 || jobs > ncpu) {
                error = "DICE_BENCH_JOBS must be 1.." + std::to_string(ncpu);
                return false;
            }
            have_jobs = true;
        } else if (name == "DICE_LOG_LEVEL" && val == "quiet") {
        } else {
            error = "unpinned knob " + kv;
            return false;
        }
    }
    if (!have_no_cache || !have_jobs) {
        error = "DICE_BENCH_NO_CACHE=1 and DICE_BENCH_JOBS are required";
        return false;
    }
    return true;
}

void
printEnvironment()
{
    const char *knobs[] = {
        "DICE_BENCH_REFS",    "DICE_BENCH_ORGS",        "DICE_BENCH_NO_CACHE",
        "DICE_BENCH_JOBS",    "DICE_TRACE_ARENA",       "DICE_TRACE_ARENA_BYTES",
        "DICE_FORCE_SCALAR",  "DICE_STATS_JSON",        "DICE_STATS_CSV",
        "DICE_STATS_INTERVAL", "DICE_TRACE_OUT",        "DICE_PROGRESS",
        "DICE_DECISION_TRACE", "DICE_LOG_LEVEL",        "DICE_SWEEP_EVENTS",
        "DICE_SWEEP_STATIC",  "DICE_SWEEP_MERGED",      "DICE_SWEEP_RESULTS"};
    std::printf("env");
    for (const char *k : knobs) {
        const char *v = std::getenv(k);
        std::printf(" %s=%s", k, v != nullptr ? v : "(unset)");
    }
    std::printf(" (every other DICE_* unset)\n");
    std::printf("build type=%s simd=%s jobs=%u refs_per_core=%" PRIu64
                " warmup_refs_per_core=%" PRIu64 "\n",
                PERFBENCH_BUILD_TYPE, simd::backendName(), benchJobs(),
                defaultBase().refs_per_core,
                defaultBase().warmup_refs_per_core);
}

// ---------------------------------------------------------------------
// Cells, digests and the correctness gate

/** One organization column: its result key and its timed inner org. */
struct Column
{
    std::string key;
    std::string inner;
    SystemConfig config;
};

std::vector<Column>
fig10Columns(std::uint64_t seed)
{
    std::vector<Column> cols = {
        {"base", "alloy", configureBaseline(defaultBase())},
        {"tsi", "comp-tsi",
         configureCompressed(defaultBase(), CompressionPolicy::TsiOnly)},
        {"bai", "comp-bai",
         configureCompressed(defaultBase(), CompressionPolicy::BaiOnly)},
        {"dice", "dice", configureDice(defaultBase())},
        {"2x2x", "alloy", configure2xBoth(defaultBase())},
    };
    for (Column &c : cols)
        c.config.seed = seed;
    return cols;
}

/** A single-cell workload: one column of fig10 on one trace. */
struct SingleSpec
{
    const char *name;
    const char *column;
    const char *trace_workload;
    const char *org;
};

constexpr SingleSpec kSingles[] = {
    {"dice_read", "dice", "cc_twi", "dice"},
    {"dice_write", "dice", "lbm", "dice"},
    {"alloy_read", "base", "cc_twi", "alloy"},
};

/** Recorded digests: "seed N" then "<section> <cell> <hex>" lines. */
struct Goldens
{
    std::uint64_t seed = 0;
    std::map<std::string, std::uint64_t> digests; // "section cell"

    bool
    load(const std::string &path, std::string &error)
    {
        std::ifstream in(path);
        if (!in) {
            error = "cannot read digests file " + path;
            return false;
        }
        std::string line;
        bool have_seed = false;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream ss(line);
            std::string a, b, c;
            ss >> a >> b;
            if (a == "seed") {
                seed = std::strtoull(b.c_str(), nullptr, 10);
                have_seed = true;
                continue;
            }
            ss >> c;
            char *end = nullptr;
            const std::uint64_t d = std::strtoull(c.c_str(), &end, 16);
            if (a.empty() || b.empty() || c.empty() || *end != '\0') {
                error = "malformed digests line: " + line;
                return false;
            }
            digests[a + " " + b] = d;
        }
        if (!have_seed) {
            error = "digests file has no seed line";
            return false;
        }
        return true;
    }
};

/**
 * Digest gate behind `failed`: a cell fails when its digest differs
 * from the recorded one (default seed) or from this invocation's first
 * untraced run of the same cell (any seed). Nothing is skipped: a cell
 * with no reference at the recorded seed fails too.
 */
class Gate
{
  public:
    Gate(const Goldens &goldens, std::string section, std::uint64_t seed,
         bool print)
        : goldens_(goldens), section_(std::move(section)),
          use_goldens_(seed == goldens.seed), print_(print)
    {
    }

    void
    check(const std::string &cell, std::uint64_t digest, bool untraced)
    {
        ++attempted_;
        if (print_ && untraced && first_.count(cell) == 0)
            std::printf("digest %s %s %016" PRIx64 "\n", section_.c_str(),
                        cell.c_str(), digest);
        std::optional<std::uint64_t> want;
        if (use_goldens_) {
            const auto it = goldens_.digests.find(section_ + " " + cell);
            if (it != goldens_.digests.end())
                want = it->second;
        } else if (const auto it = first_.find(cell); it != first_.end()) {
            want = it->second;
        }
        if (untraced)
            first_.emplace(cell, digest);
        if (want.has_value() ? *want != digest
                             : (use_goldens_ || !untraced)) {
            ++failed_;
            char expected[20] = "(none)";
            if (want)
                std::snprintf(expected, sizeof expected, "%016" PRIx64,
                              *want);
            std::printf("FAILED digest %s %s %s: %016" PRIx64
                        " expected %s\n",
                        section_.c_str(), cell.c_str(),
                        untraced ? "untraced" : "traced", digest, expected);
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    const Goldens &goldens_;
    std::string section_;
    bool use_goldens_;
    bool print_;
    std::map<std::string, std::uint64_t> first_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Small measurement helpers

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/**
 * Restart the process's peak-RSS watermark (Linux clear_refs "5"), so
 * peakRssMb() covers the measured phase only, not the set-up probes.
 */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since resetPeakRss() (or process start), in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
secondsBetween(std::uint64_t a_ns, std::uint64_t b_ns)
{
    return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/** Linear-interpolated quantile (q in [0,1]) of @p v; 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Host references a cell simulates (warmup + measured, all cores). */
std::uint64_t
hostRefs(const SystemConfig &cfg)
{
    return (cfg.warmup_refs_per_core + cfg.refs_per_core) * cfg.num_cores;
}

// ---------------------------------------------------------------------
// Report

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string note;
};

class Report
{
  public:
    void
    add(std::string name, double value, std::string unit,
        std::size_t samples, std::string note = "")
    {
        metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                                  samples, std::move(note)});
    }

    void
    print(const char *kind) const
    {
        for (const Metric &m : metrics_) {
            std::printf("%s %-34s %.9g %s (n=%zu)%s%s\n", kind,
                        m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                        m.note.empty() ? "" : " ", m.note.c_str());
        }
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            std::snprintf(buf, sizeof buf, "%.17g",
                          std::isfinite(m.value) ? m.value : 0.0);
            out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + m.unit + "\"}";
        }
        return out + "}";
    }

  private:
    std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------
// Standalone layer probes (outside any simulation)

/** Keeps the probed calls' results observable to the optimizer. */
volatile std::uint64_t g_sink = 0;

/** Per-core trace streams of a cell, exactly as System generates them. */
struct TraceProbe
{
    std::uint64_t refs = 0;
    double ns = 0.0;
    /** Lines the streams touch, synthesized standalone (see below). */
    std::vector<Line> lines;
    double synth_ns = 0.0;
};

/**
 * Time TraceGenerator::next() over the live per-core streams of each
 * workload, and keep a bounded sample of the lines they touch,
 * synthesized by a DataGenerator laid out like the System's. The
 * sample stands in for the codec probe when an organization
 * synthesizes nothing (Alloy).
 */
TraceProbe
probeTraces(const std::vector<std::string> &workloads,
            const SystemConfig &cfg)
{
    constexpr std::uint64_t kLineStride = 4096;
    constexpr std::size_t kLinesPerWorkload = 256;
    TraceProbe p;
    std::uint64_t sink = 0;
    for (const std::string &w : workloads) {
        const std::vector<WorkloadProfile> profiles =
            workloadProfiles(w, cfg.num_cores);
        const std::vector<CoreRegion> regions = planCoreRegions(
            cfg.num_cores, cfg.reference_capacity, profiles);
        DataGenerator datagen;
        std::vector<LineAddr> touched;
        const std::uint64_t n =
            cfg.warmup_refs_per_core + cfg.refs_per_core + 1;
        for (std::uint32_t cid = 0; cid < cfg.num_cores; ++cid) {
            datagen.addRegion(regions[cid].start,
                              regions[cid].start + regions[cid].lines,
                              profiles[cid]);
            TraceGenerator gen(profiles[cid], regions[cid].start,
                               regions[cid].lines, mix64(cfg.seed, cid));
            const std::uint64_t t0 = nowNs();
            for (std::uint64_t i = 0; i < n; ++i) {
                const MemRef ref = gen.next();
                sink += ref.line ^ ref.pc;
                if (i % kLineStride == 0 &&
                    touched.size() < kLinesPerWorkload)
                    touched.push_back(ref.line);
            }
            p.ns += static_cast<double>(nowNs() - t0);
            p.refs += n;
        }
        const std::uint64_t t0 = nowNs();
        for (LineAddr line : touched)
            p.lines.push_back(datagen.bytes(line, 0));
        p.synth_ns += static_cast<double>(nowNs() - t0);
    }
    g_sink = sink;
    return p;
}

struct CodecProbe
{
    double single_ns = 0.0;
    double pair_ns = 0.0;
    std::size_t lines = 0;
    std::size_t pairs = 0;
};

/** Median-of-passes cost of HybridCodec sizing over the samples. */
CodecProbe
probeCodec(const std::vector<Line> &lines,
           const std::vector<std::array<Line, 2>> &pairs)
{
    const HybridCodec codec;
    CodecProbe p;
    p.lines = lines.size();
    p.pairs = pairs.size();
    std::uint64_t sink = 0;
    const auto timePasses = [&](std::size_t n, auto &&pass) {
        if (n == 0)
            return 0.0;
        std::vector<double> per_item;
        const std::uint64_t begin = nowNs();
        while (per_item.size() < 5 ||
               (nowNs() - begin < 20'000'000 && per_item.size() < 200)) {
            const std::uint64_t t0 = nowNs();
            pass();
            per_item.push_back(static_cast<double>(nowNs() - t0) /
                               static_cast<double>(n));
        }
        return median(per_item);
    };
    p.single_ns = timePasses(lines.size(), [&] {
        for (const Line &l : lines)
            sink += codec.compressedSizeBytes(l);
    });
    p.pair_ns = timePasses(pairs.size(), [&] {
        for (const auto &pr : pairs)
            sink += codec.pairSizeBytes(pr[0], pr[1]);
    });
    g_sink = sink;
    return p;
}

// ---------------------------------------------------------------------
// Per-layer metrics of traced cells

/** A traced cell: its trace, its result, and what the config says. */
struct TracedCell
{
    CellTrace trace;
    RunResult result;
    std::uint64_t host_refs = 0;
    std::uint32_t l4_channels = 0;
};

double
stat(const std::unordered_map<std::string, double> &s, const char *name)
{
    const auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
}

/** Modelled-machine metrics, aggregated over cells as sums of counts. */
void
addModelled(Report &rep, const std::vector<TracedCell> &cells)
{
    double refs = 0, ipc = 0, lat_sum = 0, lat_n = 0, l3_hits = 0,
           l3_miss = 0, l3_dirty = 0, l4_hits = 0, l4_miss = 0,
           second = 0, l4_reads = 0, cip_acc = 0, cip_preds = 0,
           bai = 0, decided = 0, fill = 0, l4_bytes = 0, l4_rowhit = 0,
           l4_act = 0, l4_busy = 0, l4_bus_cap = 0, mem_bytes = 0,
           mem_rowhit = 0, mem_act = 0;
    for (const TracedCell &c : cells) {
        std::unordered_map<std::string, double> s(c.trace.stats.begin(),
                                                  c.trace.stats.end());
        const RunResult &r = c.result;
        refs += stat(s, "system.refs");
        ipc += r.ipc;
        lat_sum += stat(s, "system.l3_miss_latency_avg") *
                   stat(s, "system.l3_misses_timed");
        lat_n += stat(s, "system.l3_misses_timed");
        l3_hits += stat(s, "l3.hits");
        l3_miss += stat(s, "l3.misses");
        l3_dirty += stat(s, "l3.dirty_evictions");
        l4_hits += stat(s, "l4.read_hits");
        l4_miss += stat(s, "l4.read_misses");
        second += static_cast<double>(r.l4_second_probes);
        l4_reads += static_cast<double>(r.l4_reads);
        // Weighted by predictions: policies that never consult the
        // predictor (TSI-only, BAI-only) contribute nothing.
        cip_acc += stat(s, "cip.read_accuracy") *
                   stat(s, "cip.read_predictions");
        cip_preds += stat(s, "cip.read_predictions");
        bai += stat(s, "l4.installs_bai");
        decided += stat(s, "l4.installs_bai") + stat(s, "l4.installs_tsi") +
                   stat(s, "l4.installs_invariant");
        fill += c.trace.fill_at_measure;
        l4_bytes += static_cast<double>(r.l4_bytes);
        l4_rowhit += stat(s, "l4.dram.row_hits");
        l4_act += stat(s, "l4.dram.activations");
        l4_busy += stat(s, "l4.dram.bus_busy_cycles");
        l4_bus_cap += static_cast<double>(r.cycles) * c.l4_channels;
        mem_bytes += static_cast<double>(r.mem_bytes);
        mem_rowhit += stat(s, "mem.dram.row_hits");
        mem_act += stat(s, "mem.dram.activations");
    }
    const std::size_t n = cells.size();
    const double cells_d = static_cast<double>(n);
    rep.add("sim.ipc", ratio(ipc, cells_d), "instr/cycle", n,
            "modelled, mean over cells");
    rep.add("sim.l3_miss_latency_cycles", ratio(lat_sum, lat_n), "cycles",
            n, "modelled");
    rep.add("cache.l3_hit_rate", ratio(l3_hits, l3_hits + l3_miss), "frac",
            n, "modelled");
    rep.add("cache.l3_dirty_evictions_per_ref", ratio(l3_dirty, refs),
            "count", n, "modelled, per measured ref");
    rep.add("core.l4_hit_rate", ratio(l4_hits, l4_hits + l4_miss), "frac",
            n, "modelled");
    rep.add("core.second_probes_per_read", ratio(second, l4_reads),
            "count", n, "modelled");
    rep.add("core.cip_read_accuracy", ratio(cip_acc, cip_preds), "frac",
            static_cast<std::size_t>(cip_preds),
            cip_preds > 0 ? "modelled, over CIP read predictions"
                          : "n/a: no CIP read predictions");
    rep.add("core.frac_bai", ratio(bai, decided), "frac", n,
            decided > 0 ? "modelled, of index-decided installs"
                        : "n/a: no index decisions");
    rep.add("core.l4_fill_at_measure", ratio(fill, cells_d), "frac", n,
            "modelled, valid lines / capacity at warmup end (partly warm)");
    rep.add("dram.l4_bytes_per_ref", ratio(l4_bytes, refs), "B", n,
            "modelled, per measured ref");
    rep.add("dram.l4_row_hit_rate", ratio(l4_rowhit, l4_rowhit + l4_act),
            "frac", n, "modelled, row hits / (hits + activations)");
    rep.add("dram.l4_bus_util", ratio(l4_busy, l4_bus_cap), "frac", n,
            "modelled");
    rep.add("dram.mem_bytes_per_ref", ratio(mem_bytes, refs), "B", n,
            "modelled, per measured ref");
    rep.add("dram.mem_row_hit_rate", ratio(mem_rowhit, mem_rowhit + mem_act),
            "frac", n, "modelled");
}

/** Host-time windows the bench.* metrics are computed over. */
struct Window
{
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    unsigned jobs = 1;
    std::vector<const CellTrace *> cells;
};

/** Wall time after fewer than `jobs` cells are in flight. */
double
tailSeconds(const Window &w)
{
    std::vector<std::pair<std::uint64_t, int>> ev;
    for (const CellTrace *c : w.cells) {
        ev.emplace_back(c->start_ns, +1);
        ev.emplace_back(c->end_ns, -1);
    }
    std::sort(ev.begin(), ev.end());
    int inflight = 0;
    std::uint64_t drop = w.start_ns;
    for (const auto &[t, d] : ev) {
        const bool full = inflight >= static_cast<int>(w.jobs);
        inflight += d;
        if (full && inflight < static_cast<int>(w.jobs))
            drop = t;
    }
    return secondsBetween(drop, w.end_ns);
}

/**
 * Every per-layer host metric. @p windows are the sweeps (fig10) or
 * the traced repeats (single cells) the traced cells ran in.
 */
bool
addHostLayers(Report &rep, const std::vector<TracedCell> &cells,
              const std::vector<Window> &windows, const TraceProbe &tp,
              double construct_s, std::size_t construct_n,
              double overhead_frac, std::size_t overhead_n)
{
    using namespace perfbench;
    bool ok = true;
    const std::size_t n = cells.size();

    double busy = 0, wall_jobs = 0;
    std::vector<double> tails, waits, spans;
    for (const Window &w : windows) {
        wall_jobs += secondsBetween(w.start_ns, w.end_ns) * w.jobs;
        tails.push_back(tailSeconds(w));
        std::uint64_t first = ~std::uint64_t{0};
        for (const CellTrace *c : w.cells) {
            if (c->first_call_ns != 0)
                first = std::min(first, c->first_call_ns);
            if (c->start_ns < w.start_ns || c->end_ns > w.end_ns)
                ok = false;
        }
        waits.push_back(first == ~std::uint64_t{0}
                            ? 0.0
                            : secondsBetween(w.start_ns, first));
    }
    double l4_ns = 0, mirror_ns = 0, synth_ns = 0, reads = 0, installs = 0,
           read_self = 0, install_self = 0, refs = 0, lines = 0,
           singles = 0, pairs = 0;
    std::vector<Line> sample_lines;
    std::vector<std::array<Line, 2>> sample_pairs;
    for (const TracedCell &tc : cells) {
        const CellTrace &t = tc.trace;
        const double span = static_cast<double>(t.end_ns - t.start_ns);
        spans.push_back(span * 1e-9);
        busy += span * 1e-9;
        double cell_l4 = 0;
        for (Layer l : {kL4Read, kL4Install, kL4Fill}) {
            cell_l4 += static_cast<double>(t.layers[l].ns);
            if (t.layers[l].nested_ns > t.layers[l].ns)
                ok = false;
        }
        const double cell_mirror = static_cast<double>(t.layers[kMirror].ns);
        // Self time of the rest must be non-negative: the L4 spans and
        // mirroring are disjoint sub-intervals of the cell span.
        if (cell_l4 + cell_mirror > span)
            ok = false;
        l4_ns += cell_l4;
        mirror_ns += cell_mirror;
        synth_ns += static_cast<double>(t.layers[kSynthLine].ns +
                                        t.layers[kSynthPair].ns);
        reads += static_cast<double>(t.layers[kL4Read].calls);
        installs += static_cast<double>(t.layers[kL4Install].calls);
        read_self += static_cast<double>(t.layers[kL4Read].ns -
                                         t.layers[kL4Read].nested_ns);
        install_self +=
            static_cast<double>(t.layers[kL4Install].ns -
                                t.layers[kL4Install].nested_ns);
        refs += static_cast<double>(tc.host_refs);
        lines += static_cast<double>(t.linesSynthesized());
        singles += static_cast<double>(t.layers[kSynthLine].calls);
        pairs += static_cast<double>(t.layers[kSynthPair].calls);
        for (const Line &l : t.sample_lines)
            if (sample_lines.size() < 4096)
                sample_lines.push_back(l);
        for (const auto &p : t.sample_pairs)
            if (sample_pairs.size() < 2048)
                sample_pairs.push_back(p);
    }
    const double busy_ns = busy * 1e9;
    const double rest_ns = busy_ns - l4_ns - mirror_ns;

    // Organizations that synthesize nothing still get a codec figure:
    // the lines their trace touches, sized standalone.
    const bool standalone = sample_lines.empty();
    if (standalone)
        sample_lines = tp.lines;
    if (sample_pairs.empty()) {
        for (std::size_t i = 0; i + 1 < sample_lines.size(); i += 2)
            sample_pairs.push_back({sample_lines[i], sample_lines[i + 1]});
    }
    const CodecProbe cp = probeCodec(sample_lines, sample_pairs);

    rep.add("bench.parallel_eff", ratio(busy, wall_jobs), "frac", n,
            "sum of cell spans / (jobs x wall)");
    rep.add("bench.tail_s", median(tails), "s", tails.size(),
            "wall after fewer than jobs cells are in flight");
    rep.add("bench.cell_s_p50", quantile(spans, 0.5), "s", n,
            "cell span = timed L4 ctor to dtor");
    rep.add("bench.cell_s_p90", quantile(spans, 0.9), "s", n);
    rep.add("bench.first_cell_wait_s", median(waits), "s", waits.size(),
            "window start to the first L4 call");
    rep.add("workloads.trace_ns_per_ref", ratio(tp.ns, double(tp.refs)),
            "ns", tp.refs, "TraceGenerator::next standalone");
    rep.add("workloads.datagen_lines_per_ref", ratio(lines, refs), "count",
            n, "lines synthesized per host ref");
    if (lines > 0) {
        rep.add("workloads.datagen_ns_per_line", ratio(synth_ns, lines),
                "ns", static_cast<std::size_t>(lines), "in simulation");
    } else {
        rep.add("workloads.datagen_ns_per_line",
                ratio(tp.synth_ns, double(tp.lines.size())), "ns",
                tp.lines.size(),
                "standalone: the organization synthesizes nothing");
    }
    rep.add("core.l4_reads_per_ref", ratio(reads, refs), "count", n);
    rep.add("core.l4_installs_per_ref", ratio(installs, refs), "count", n);
    rep.add("core.l4_read_self_ns", ratio(read_self, reads), "ns",
            static_cast<std::size_t>(reads), "excludes nested synthesis");
    rep.add("core.l4_install_self_ns", ratio(install_self, installs), "ns",
            static_cast<std::size_t>(installs), "excludes nested synthesis");
    rep.add("core.l4_share", ratio(l4_ns, busy_ns), "frac", n,
            "L4 spans incl. synthesis / cell spans");
    rep.add("compress.single_ns_per_line", cp.single_ns, "ns", cp.lines,
            standalone ? "HybridCodec, lines the trace touches"
                       : "HybridCodec, sampled synthesized lines");
    rep.add("compress.pair_ns_per_pair", cp.pair_ns, "ns", cp.pairs,
            "HybridCodec::pairSizeBytes");
    rep.add("compress.est_share",
            ratio(cp.single_ns * singles + cp.pair_ns * pairs, busy_ns),
            "frac", n, "estimate: probe ns x lines synthesized / cell spans");
    rep.add("sim.construct_s", construct_s, "s", construct_n,
            "System construction, untraced");
    rep.add("sim.rest_self_s", ratio(rest_ns * 1e-9, double(n)), "s", n,
            "per cell: span - L4 spans - mirroring");
    rep.add("sim.rest_share", ratio(rest_ns, busy_ns), "frac", n,
            "glue + core model + SRAM + DDR model");
    rep.add("trace.overhead_frac", overhead_frac, "frac", overhead_n,
            "(traced - untraced wall) / untraced");
    rep.add("trace.mirror_share", ratio(mirror_ns, busy_ns), "frac", n,
            "mirroring non-virtual L4 state / cell spans");
    std::printf("account l4=%.6fs rest=%.6fs mirror=%.6fs cells=%.6fs "
                "(l4+rest+mirror-cells=%.3gs)\n",
                l4_ns * 1e-9, rest_ns * 1e-9, mirror_ns * 1e-9, busy,
                (l4_ns + rest_ns + mirror_ns) * 1e-9 - busy);
    return ok;
}

void
addFidelity(Report &rep, const double *gm, std::size_t cells)
{
    const char *names[4] = {"fidelity.err_tsi", "fidelity.err_bai",
                            "fidelity.err_dice", "fidelity.err_2x"};
    for (int i = 0; i < 4; ++i) {
        if (gm == nullptr) {
            rep.add(names[i], 0.0, "x", 0, "n/a: fig10 only");
        } else {
            rep.add(names[i], std::fabs(gm[i] - kPaperFig10[i]), "x", cells,
                    "modelled |ALL26 geomean - paper|");
        }
    }
}

/** Per (cell, layer) aggregates of every traced cell, raw spans of one. */
void
writeSpans(const std::string &path, const Args &a,
           const std::vector<TracedCell> &cells)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "dice_perfbench: cannot write %s\n",
                     path.c_str());
        return;
    }
    out << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
        << ", \"cells\": [";
    const CellTrace *raw = nullptr;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellTrace &t = cells[i].trace;
        if (!t.raw.empty())
            raw = &t;
        out << (i ? ",\n" : "\n") << "{\"id\": " << t.id << ", \"label\": \""
            << t.label << "\", \"org\": \"" << t.inner
            << "\", \"start_ns\": " << t.start_ns
            << ", \"end_ns\": " << t.end_ns << ", \"layers\": {";
        for (int l = 0; l < perfbench::kNumLayers; ++l) {
            const auto &lt = t.layers[l];
            out << (l ? ", " : "") << "\""
                << perfbench::layerName(static_cast<perfbench::Layer>(l))
                << "\": {\"calls\": " << lt.calls << ", \"ns\": " << lt.ns
                << ", \"nested_ns\": " << lt.nested_ns << "}";
        }
        out << "}}";
    }
    out << "\n], \"raw\": ";
    if (raw == nullptr) {
        out << "null";
    } else {
        out << "{\"cell\": " << raw->id << ", \"truncated\": "
            << (raw->raw_truncated ? "true" : "false") << ", \"spans\": [";
        for (std::size_t i = 0; i < raw->raw.size(); ++i) {
            const perfbench::RawSpan &s = raw->raw[i];
            out << (i ? ",\n" : "\n") << "[\""
                << perfbench::layerName(s.layer) << "\", " << s.start_ns
                << ", " << s.end_ns << ", " << s.parent << "]";
        }
        out << "\n]}";
    }
    out << "}\n";
}

// ---------------------------------------------------------------------
// Workloads

struct Outcome
{
    Report report;
    bool ok = true;
};

struct Repeat
{
    double run_s = 0;
    double cpu_s = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    RunResult result;
};

Repeat
runRepeat(const SystemConfig &cfg,
          const std::vector<WorkloadProfile> &profiles)
{
    Repeat r;
    r.start_ns = nowNs();
    {
        System sys(cfg, profiles);
        const std::uint64_t built = nowNs();
        const double cpu0 = cpuSeconds();
        r.result = sys.run();
        const std::uint64_t ran = nowNs();
        r.cpu_s = cpuSeconds() - cpu0;
        r.run_s = secondsBetween(built, ran);
    }
    r.end_ns = nowNs();
    return r;
}

/**
 * Put the allocator in a steady state for the set-up probes, which run
 * last: nothing is handed back to the kernel between constructions, so
 * after the first one no sample pays page faults, whatever heap the
 * measured phase left behind. (Whether glibc trims or re-maps a freed
 * System depends on that history; the two cases differ by 4x.)
 */
void
steadyAllocator()
{
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

/**
 * Set-up cost: @p n constructions of the cell's System back to back,
 * each destroyed before the next. Returns the per-construction seconds.
 */
std::vector<double>
probeSetup(const SystemConfig &cfg,
           const std::vector<WorkloadProfile> &profiles, std::size_t n)
{
    steadyAllocator();
    std::vector<double> out;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t t0 = nowNs();
        const System sys(cfg, profiles);
        out.push_back(secondsBetween(t0, nowNs()));
    }
    return out;
}

/**
 * Host throughput from per-sample rates and CPU costs: the rate that a
 * share @p slow_q of the samples reach and the CPU cost that the same
 * share stay under. Single cells pass 0.9: other tenants of the host
 * make some repeats run up to 1.8x faster, in bursts, never steadily,
 * so the sustained figure is the slow end. Sweeps pass 0.5: each one
 * already averages over 130 cells, and a run holds only a few.
 */
void
addThroughput(Report &rep, const std::vector<double> &rate,
              const std::vector<double> &cpu_ns, double slow_q,
              double peak_mb, const char *what, const char *peak_what)
{
    const auto share = [](double q) {
        return q == 0.5 ? std::string("median")
                        : std::to_string(static_cast<int>(q * 100 + 0.5)) +
                              "th percentile";
    };
    rep.add("refs_per_s", quantile(rate, 1.0 - slow_q), "1/s", rate.size(),
            share(1.0 - slow_q) + " over " + what +
                ", warmup + measured refs");
    rep.add("cpu_ns_per_ref", quantile(cpu_ns, slow_q), "ns", cpu_ns.size(),
            share(slow_q) + " over " + what + ", process CPU");
    rep.add("peak_rss_mb", peak_mb, "MB", 1,
            std::string("process peak over ") + peak_what);
}

/** Constructions the set-up probe makes per run. */
constexpr std::size_t kSetupRepeats = 31;

Outcome
runSingle(const Args &a, const SingleSpec &spec, Gate &gate)
{
    Outcome out;
    SystemConfig cfg = configureOrganization(defaultBase(), spec.org);
    cfg.seed = a.seed;
    const std::string cell =
        std::string(spec.column) + "/" + spec.trace_workload;
    const std::vector<WorkloadProfile> profiles =
        workloadProfiles(spec.trace_workload, cfg.num_cores);
    const double refs = static_cast<double>(hostRefs(cfg));
    SystemConfig timed = cfg;
    if (a.trace) {
        timed.l4.organization = perfbench::registerTimed(spec.org, cell);
        perfbench::TraceCollector::instance().armRaw(cell);
    }
    // Traced and untraced repeats alternate so drift hits both alike.
    std::vector<Repeat> plain, traced;
    resetPeakRss();
    const std::uint64_t begin = nowNs();
    while (plain.size() < kMinRepeats ||
           secondsBetween(begin, nowNs()) < a.seconds) {
        plain.push_back(runRepeat(cfg, profiles));
        gate.check(cell, detail::resultDigest(plain.back().result), true);
        if (a.trace) {
            traced.push_back(runRepeat(timed, profiles));
            gate.check(cell, detail::resultDigest(traced.back().result),
                       false);
        }
    }

    const double peak_mb = peakRssMb();
    // Last, so neither its heap nor its allocator settings reach the
    // measured repeats.
    const std::vector<double> setup =
        probeSetup(cfg, profiles, kSetupRepeats);

    std::vector<double> rate, cpu, run_plain;
    for (std::size_t i = 1; i < plain.size(); ++i) {
        const Repeat &r = plain[i];
        rate.push_back(refs / r.run_s);
        cpu.push_back(r.cpu_s * 1e9 / refs);
        run_plain.push_back(r.run_s);
    }
    if (!a.trace) {
        out.report.add("setup_s", median(setup), "s", setup.size(),
                       "median System construction");
        addThroughput(out.report, rate, cpu, 0.9, peak_mb,
                      "repeats after the first", "the repeats");
        return out;
    }

    std::vector<CellTrace> traces =
        perfbench::TraceCollector::instance().take();
    if (traces.size() != traced.size()) {
        std::printf("FAILED %zu traced repeats but %zu cell traces\n",
                    traced.size(), traces.size());
        out.ok = false;
        return out;
    }
    std::vector<TracedCell> cells;
    std::vector<double> run_traced;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        cells.push_back(TracedCell{std::move(traces[i]), traced[i].result,
                                   hostRefs(cfg),
                                   cfg.l4.base.timing.channels});
        run_traced.push_back(traced[i].run_s);
    }
    std::vector<Window> windows;
    for (std::size_t i = 0; i < traced.size(); ++i)
        windows.push_back(Window{traced[i].start_ns, traced[i].end_ns, 1,
                                 {&cells[i].trace}});
    const TraceProbe tp = probeTraces({spec.trace_workload}, cfg);
    const double untraced_s = median(run_plain);
    out.ok = addHostLayers(out.report, cells, windows, tp, median(setup),
                           setup.size(),
                           ratio(median(run_traced) - untraced_s, untraced_s),
                           traced.size());
    addModelled(out.report, cells);
    addFidelity(out.report, nullptr, 0);
    writeSpans(a.spans_out, a, cells);
    return out;
}

/** Passes the sweep set-up probe makes over the base cells. */
constexpr std::size_t kSweepSetupPasses = 3;

/**
 * Set-up before a sweep cell's first reference: the arena generating
 * its streams, then System construction, for every base cell. Each of
 * kSweepSetupPasses passes starts from an empty arena, which is emptied
 * again afterwards. Generation runs on one thread here: with a pool,
 * vCPU time lost to other tenants on any one thread stalls the whole
 * set-up. Returns, per base cell, the median over the passes of
 * {set-up s, construction s}.
 */
std::pair<std::vector<double>, std::vector<double>>
probeSweepSetup(const std::vector<std::string> &names,
                const SystemConfig &base)
{
    steadyAllocator();
    std::vector<std::vector<double>> setup(names.size()),
        construct(names.size());
    for (std::size_t pass = 0; pass < kSweepSetupPasses; ++pass) {
        TraceArena::instance().clear();
        for (std::size_t i = 0; i < names.size(); ++i) {
            const std::vector<WorkloadProfile> profiles =
                workloadProfiles(names[i], base.num_cores);
            const std::uint64_t t0 = nowNs();
            std::shared_ptr<const TraceSet> replay =
                TraceArena::instance().acquire(
                    names[i], base.seed, base.num_cores,
                    base.reference_capacity,
                    base.warmup_refs_per_core + base.refs_per_core + 1,
                    profiles, 1);
            const std::uint64_t t1 = nowNs();
            const System sys(base, profiles, std::move(replay));
            const std::uint64_t t2 = nowNs();
            setup[i].push_back(secondsBetween(t0, t2));
            construct[i].push_back(secondsBetween(t1, t2));
        }
    }
    TraceArena::instance().clear();
    std::pair<std::vector<double>, std::vector<double>> out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        out.first.push_back(median(setup[i]));
        out.second.push_back(median(construct[i]));
    }
    return out;
}

Outcome
runFig10(const Args &a, Gate &gate)
{
    Outcome out;
    const std::vector<Column> cols = fig10Columns(a.seed);
    const std::vector<std::string> names = allNames();
    const unsigned jobs = benchJobs();
    const SystemConfig &base = cols[0].config;

    // Whole sweeps through the public engine, each from a cold arena
    // and under fresh result keys (the in-process memo would otherwise
    // serve the repeats). The first sweep warms the heap and is not
    // timed; the timed ones follow while the next can end within
    // --seconds of the start. Traced runs make exactly one.
    const double refs =
        static_cast<double>(hostRefs(base)) * names.size() * cols.size();
    std::vector<double> rate, cpu_ns, walls;
    double first_peak_mb = 0.0;
    TraceArena::instance().clear();
    resetPeakRss();
    const std::uint64_t begin = nowNs();
    const auto another = [&] {
        const double elapsed = secondsBetween(begin, nowNs());
        return !a.trace && (walls.size() < 1 + kMinSweeps ||
                            elapsed + walls.back() <= a.seconds);
    };
    for (std::size_t k = 0; k == 0 || another(); ++k) {
        const std::string suffix = k == 0 ? "" : "#" + std::to_string(k);
        std::vector<OrgCell> orgs;
        for (const Column &c : cols)
            orgs.push_back(OrgCell{c.config, c.key + suffix});
        TraceArena::instance().clear();
        const double cpu0 = cpuSeconds();
        const std::uint64_t t0 = nowNs();
        runSweep(names, orgs);
        const double wall = secondsBetween(t0, nowNs());
        const double cpu = cpuSeconds() - cpu0;
        if (k == 0)
            first_peak_mb = peakRssMb();
        walls.push_back(wall);
        if (k > 0) {
            rate.push_back(refs / wall);
            cpu_ns.push_back(cpu * 1e9 / refs);
        }
        for (const Column &c : cols) {
            for (const std::string &w : names)
                gate.check(c.key + "/" + w,
                           detail::resultDigest(
                               runWorkload(w, c.config, c.key + suffix)),
                           true);
        }
    }

    double gm[4];
    for (int i = 0; i < 4; ++i) {
        std::map<std::string, double> s;
        for (const std::string &w : names)
            s[w] = speedupOver(w, base, "base", cols[i + 1].config,
                               cols[i + 1].key);
        gm[i] = geomeanOver(names, s);
    }
    std::printf("fig10 ALL26 geomean: TSI %.3f BAI %.3f DICE %.3f "
                "2xCap+2xBW %.3f (paper 1.07 1.001 1.190 1.219)\n",
                gm[0], gm[1], gm[2], gm[3]);

    if (!a.trace) {
        // Last, so neither its heap nor its allocator settings reach
        // the measured sweeps.
        // The mean, not the median, over base cells: their set-up
        // costs differ, and a median would jump between cells.
        const std::vector<double> setup = probeSweepSetup(names, base).first;
        out.report.add("setup_s",
                       std::accumulate(setup.begin(), setup.end(), 0.0) /
                           static_cast<double>(setup.size()),
                       "s", setup.size() * kSweepSetupPasses,
                       "mean over base cells of their median over 3 "
                       "passes: arena generation + System construction");
        addThroughput(out.report, rate, cpu_ns, 0.5, first_peak_mb,
                      "sweeps after the first",
                      "the first sweep (later ones reuse its heap)");
        return out;
    }

    // The traced twin sweep: same engine, same cell order (runSweep
    // enumerates columns outermost), each cell under its own timed
    // organization so the trace knows which cell it is.
    TraceArena::instance().clear();
    std::vector<SimCell> cells;
    for (const Column &c : cols) {
        for (const std::string &w : names) {
            SimCell sc{w, c.config, "timed:" + c.key};
            sc.config.l4.organization =
                perfbench::registerTimed(c.inner, c.key + "/" + w);
            cells.push_back(std::move(sc));
        }
    }
    perfbench::TraceCollector::instance().armRaw("dice/cc_twi");
    const std::uint64_t tt0 = nowNs();
    runCells(cells);
    const std::uint64_t tt1 = nowNs();
    const double traced_wall = secondsBetween(tt0, tt1);

    std::vector<CellTrace> traces =
        perfbench::TraceCollector::instance().take();
    std::map<std::string, CellTrace> by_label;
    for (CellTrace &t : traces)
        by_label.emplace(t.label, std::move(t));
    std::vector<TracedCell> traced;
    for (const Column &c : cols) {
        for (const std::string &w : names) {
            const std::string label = c.key + "/" + w;
            const RunResult &r =
                runWorkload(w, c.config, "timed:" + c.key);
            gate.check(label, detail::resultDigest(r), false);
            auto it = by_label.find(label);
            if (it == by_label.end()) {
                std::printf("FAILED no trace for %s\n", label.c_str());
                out.ok = false;
                continue;
            }
            traced.push_back(TracedCell{std::move(it->second), r,
                                        hostRefs(c.config),
                                        c.config.l4.base.timing.channels});
        }
    }
    Window win{tt0, tt1, jobs, {}};
    for (const TracedCell &c : traced)
        win.cells.push_back(&c.trace);
    const TraceProbe tp = probeTraces(names, base);
    const std::vector<double> construct =
        probeSweepSetup(names, base).second;
    out.ok = addHostLayers(out.report, traced, {win}, tp, median(construct),
                           construct.size(),
                           ratio(traced_wall - walls[0], walls[0]), 1) &&
             out.ok;
    addModelled(out.report, traced);
    addFidelity(out.report, gm, traced.size());
    writeSpans(a.spans_out, a, traced);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    std::string error;
    if (!checkEnvironment(error)) {
        std::fprintf(stderr, "dice_perfbench: %s\n", error.c_str());
        return 2;
    }
    Goldens goldens;
    if (!goldens.load(a.digests, error)) {
        std::fprintf(stderr, "dice_perfbench: %s\n", error.c_str());
        return 2;
    }
    const SingleSpec *single = nullptr;
    for (const SingleSpec &s : kSingles) {
        if (a.workload == s.name)
            single = &s;
    }
    if (single == nullptr && a.workload != "fig10")
        usage(("unknown workload " + a.workload).c_str());

    std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
                "digests=%s\n",
                a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
                a.seed == goldens.seed ? "recorded" : "first-run");
    printEnvironment();
    std::fflush(stdout);

    Gate gate(goldens, a.workload, a.seed, a.print_digests);
    Outcome out = single != nullptr ? runSingle(a, *single, gate)
                                    : runFig10(a, gate);
    out.report.print(a.trace ? "layer" : "metric");
    std::printf("cells attempted=%" PRIu64 " failed=%" PRIu64
                " failed_frac=%.6f\n",
                gate.attempted(), gate.failed(),
                ratio(double(gate.failed()), double(gate.attempted())));
    const bool correct = out.ok && gate.failed() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", gate.attempted(), gate.failed(),
                out.report.json().c_str());
    return 0;
}
