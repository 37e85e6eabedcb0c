/**
 * @file
 * Outside-in tracing hooks for the benchmark: a timing decorator
 * around any registered L4 organization, and a timing wrapper around
 * the LineDataSource the organization synthesizes line bytes from.
 *
 * Nothing inside the simulator is instrumented. registerTimed() adds
 * an L4Registry entry "timed.<inner>@<label>" whose factory builds the
 * real <inner> organization through L4Registry::create(), hands it a
 * timing LineDataSource, and forwards every DramCache call to it while
 * timing the call. Each decorator instance is one traced cell; when it
 * is destroyed its CellTrace (per-layer totals, a bounded sample of
 * the synthesized lines, the cell's flattened stat registry and, for
 * one armed cell, raw per-call spans) goes to the TraceCollector.
 *
 * System reads the non-virtual DramCache::device(), hitRate(),
 * readHits(), readMisses() and extraLinesSupplied() straight from the
 * decorator's base object, so the decorator copies them from the inner
 * organization after every forwarded call ("mirroring"). Mirroring is
 * timed as its own layer and reported as tracing overhead.
 */

#ifndef PERFBENCH_TIMED_L4_HPP
#define PERFBENCH_TIMED_L4_HPP

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "compress/compressor.hpp" // Line

namespace perfbench
{

/** Steady-clock nanoseconds since the first call in this process. */
std::uint64_t nowNs();

/** What a traced cell attributes host time to. */
enum Layer : std::uint8_t
{
    kCell,       ///< Decorator construction to destruction.
    kL4Read,     ///< DramCache::read (includes nested synthesis).
    kL4Install,  ///< DramCache::install (includes nested synthesis).
    kL4Fill,     ///< DramCache::completeFill (includes nested synthesis).
    kSynthLine,  ///< LineDataSource::bytes.
    kSynthPair,  ///< LineDataSource::bytesPair.
    kMirror,     ///< Copying the non-virtual state after a call.
    kNumLayers
};

/** Span name of @p layer ("l4.read", "datagen.bytes", ...). */
const char *layerName(Layer layer);

/** Call count and inclusive time of one layer in one cell. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    /** Part of ns spent in nested synthesis calls (L4 layers only). */
    std::uint64_t nested_ns = 0;
};

/** One raw per-call span; parent indexes the same cell's span list. */
struct RawSpan
{
    Layer layer = kCell;
    std::int32_t parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
};

/** Raw spans kept for the armed cell (the rest are aggregated). */
constexpr std::size_t kMaxRawSpans = 1u << 15;

/** Everything one traced cell recorded. */
struct CellTrace
{
    std::uint64_t id = 0;
    std::string label; ///< "<column>/<workload>".
    std::string inner; ///< The organization that was timed.
    std::uint64_t start_ns = 0;
    std::uint64_t first_call_ns = 0; ///< First read/install (0: none).
    std::uint64_t end_ns = 0;
    std::array<LayerTotals, kNumLayers> layers{};
    /** L4 valid lines / capacity lines at the warmup boundary. */
    double fill_at_measure = 0.0;
    /** The cell's StatRegistry::flatten(), taken at the end of run(). */
    std::vector<std::pair<std::string, double>> stats;
    /** Bounded sample of synthesized lines and pairs. */
    std::vector<dice::Line> sample_lines;
    std::vector<std::array<dice::Line, 2>> sample_pairs;
    /** Raw spans (armed cell only); index 0 is the cell span. */
    std::vector<RawSpan> raw;
    bool raw_truncated = false;

    /** Lines synthesized: one per bytes() call, two per bytesPair(). */
    std::uint64_t
    linesSynthesized() const
    {
        return layers[kSynthLine].calls + 2 * layers[kSynthPair].calls;
    }
};

/** Process-wide sink of finished cell traces. */
class TraceCollector
{
  public:
    static TraceCollector &instance();

    /** The next cell constructed with @p label records raw spans. */
    void armRaw(const std::string &label);

    /** Finished cells, in completion order; empties the collector. */
    std::vector<CellTrace> take();

    /** Claim the raw-span slot for a new cell; assigns its id. */
    bool begin(const std::string &label, std::uint64_t &id);

    void add(CellTrace trace);

  private:
    std::mutex mu_;
    std::string raw_label_;
    bool raw_armed_ = false;
    std::uint64_t next_id_ = 0;
    std::vector<CellTrace> cells_;
};

/**
 * Register the decorator organization "timed.<inner>" (empty @p label)
 * or "timed.<inner>@<label>" once, and return its name. Call before
 * simulation threads start: the registry is not synchronized.
 */
std::string registerTimed(const std::string &inner,
                          const std::string &label);

} // namespace perfbench

#endif // PERFBENCH_TIMED_L4_HPP
