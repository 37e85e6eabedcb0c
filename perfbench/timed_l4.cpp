#include "timed_l4.hpp"

#include <chrono>
#include <memory>

#include "common/log.hpp"
#include "common/telemetry.hpp"
#include "core/data_source.hpp"
#include "core/dram_cache.hpp"
#include "core/l4_registry.hpp"

namespace perfbench
{

using namespace dice;

std::uint64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

const char *
layerName(Layer layer)
{
    switch (layer) {
    case kCell: return "cell";
    case kL4Read: return "l4.read";
    case kL4Install: return "l4.install";
    case kL4Fill: return "l4.complete_fill";
    case kSynthLine: return "datagen.bytes";
    case kSynthPair: return "datagen.bytes_pair";
    case kMirror: return "trace.mirror";
    case kNumLayers: break;
    }
    return "?";
}

TraceCollector &
TraceCollector::instance()
{
    static TraceCollector collector;
    return collector;
}

void
TraceCollector::armRaw(const std::string &label)
{
    std::lock_guard lock(mu_);
    raw_label_ = label;
    raw_armed_ = true;
}

bool
TraceCollector::begin(const std::string &label, std::uint64_t &id)
{
    std::lock_guard lock(mu_);
    id = next_id_++;
    if (!raw_armed_ || label != raw_label_)
        return false;
    raw_armed_ = false;
    return true;
}

void
TraceCollector::add(CellTrace trace)
{
    std::lock_guard lock(mu_);
    cells_.push_back(std::move(trace));
}

std::vector<CellTrace>
TraceCollector::take()
{
    std::lock_guard lock(mu_);
    return std::exchange(cells_, {});
}

namespace
{

/** Every 64th synthesis call is sampled, up to these many per cell. */
constexpr std::uint64_t kSampleStride = 64;
constexpr std::size_t kMaxSampleLines = 512;
constexpr std::size_t kMaxSamplePairs = 256;

/** One cell's accumulating trace plus the open-span bookkeeping. */
class Recorder
{
  public:
    Recorder(const std::string &label, const std::string &inner)
    {
        trace_.start_ns = nowNs();
        trace_.label = label;
        trace_.inner = inner;
        if (TraceCollector::instance().begin(label, trace_.id)) {
            trace_.raw.reserve(kMaxRawSpans);
            trace_.raw.push_back(RawSpan{kCell, -1, trace_.start_ns, 0});
            raw_on_ = true;
        }
    }

    CellTrace &trace() { return trace_; }

    /** Nested synthesis time recorded so far (for self time). */
    std::uint64_t synthNs() const { return synth_ns_; }

    /** Start an L4 call span; returns its raw index (or -1). */
    std::int32_t
    openL4(std::uint64_t t0)
    {
        if (trace_.first_call_ns == 0)
            trace_.first_call_ns = t0;
        open_ = pushRaw(kL4Read, 0, t0);
        return open_;
    }

    void
    closeL4(Layer layer, std::int32_t span, std::uint64_t t0,
            std::uint64_t t1, std::uint64_t synth0)
    {
        LayerTotals &l = trace_.layers[layer];
        ++l.calls;
        l.ns += t1 - t0;
        l.nested_ns += synth_ns_ - synth0;
        if (span >= 0) {
            trace_.raw[span].layer = layer;
            trace_.raw[span].end_ns = t1;
        }
        open_ = -1;
    }

    void
    synth(Layer layer, std::uint64_t t0, std::uint64_t t1)
    {
        LayerTotals &l = trace_.layers[layer];
        ++l.calls;
        l.ns += t1 - t0;
        synth_ns_ += t1 - t0;
        const std::int32_t span = pushRaw(layer, open_ < 0 ? 0 : open_, t0);
        if (span >= 0)
            trace_.raw[span].end_ns = t1;
    }

    void
    mirror(std::uint64_t t0, std::uint64_t t1)
    {
        LayerTotals &l = trace_.layers[kMirror];
        ++l.calls;
        l.ns += t1 - t0;
        const std::int32_t span = pushRaw(kMirror, 0, t0);
        if (span >= 0)
            trace_.raw[span].end_ns = t1;
    }

    bool
    sampleLine(std::uint64_t calls)
    {
        return calls % kSampleStride == 0 &&
               trace_.sample_lines.size() < kMaxSampleLines;
    }

    bool
    samplePair(std::uint64_t calls)
    {
        return calls % kSampleStride == 0 &&
               trace_.sample_pairs.size() < kMaxSamplePairs;
    }

  private:
    std::int32_t
    pushRaw(Layer layer, std::int32_t parent, std::uint64_t t0)
    {
        if (!raw_on_)
            return -1;
        if (trace_.raw.size() >= kMaxRawSpans) {
            trace_.raw_truncated = true;
            return -1;
        }
        trace_.raw.push_back(RawSpan{layer, parent, t0, 0});
        return static_cast<std::int32_t>(trace_.raw.size() - 1);
    }

    CellTrace trace_;
    bool raw_on_ = false;
    std::int32_t open_ = -1;
    std::uint64_t synth_ns_ = 0;
};

/** Times every line synthesis the organization asks for. */
class TimingSource final : public LineDataSource
{
  public:
    TimingSource(const LineDataSource &inner, Recorder &rec)
        : inner_(inner), rec_(rec)
    {
    }

    Line
    bytes(LineAddr line, std::uint64_t version) const override
    {
        const std::uint64_t t0 = nowNs();
        Line out = inner_.bytes(line, version);
        rec_.synth(kSynthLine, t0, nowNs());
        if (rec_.sampleLine(rec_.trace().layers[kSynthLine].calls))
            rec_.trace().sample_lines.push_back(out);
        return out;
    }

    void
    bytesPair(LineAddr base, std::uint64_t even_version,
              std::uint64_t odd_version, Line out[2]) const override
    {
        const std::uint64_t t0 = nowNs();
        inner_.bytesPair(base, even_version, odd_version, out);
        rec_.synth(kSynthPair, t0, nowNs());
        if (rec_.samplePair(rec_.trace().layers[kSynthPair].calls))
            rec_.trace().sample_pairs.push_back({out[0], out[1]});
    }

  private:
    const LineDataSource &inner_;
    Recorder &rec_;
};

/** Transparent timing decorator around one L4 organization. */
class TimedL4 final : public DramCache
{
  public:
    TimedL4(const L4Config &config, const std::string &inner,
            const std::string &label, const LineDataSource &source)
        : DramCache(config.base, inner),
          rec_(std::make_unique<Recorder>(label, inner)),
          source_(source, *rec_)
    {
        L4Config inner_config = config;
        inner_config.organization = inner;
        inner_ = L4Registry::instance().create(inner_config, source_);
        dice_assert(inner_ != nullptr,
                    "timed decorator needs a real organization, got '%s'",
                    inner.c_str());
        mirror();
    }

    TimedL4(const TimedL4 &) = delete;
    TimedL4 &operator=(const TimedL4 &) = delete;

    ~TimedL4() override
    {
        // The cell span covers the inner organization's teardown.
        inner_.reset();
        CellTrace &t = rec_->trace();
        t.end_ns = nowNs();
        if (!t.raw.empty())
            t.raw[0].end_ns = t.end_ns;
        TraceCollector::instance().add(std::move(t));
    }

    L4ReadResult
    read(LineAddr line, Cycle now) override
    {
        const std::uint64_t synth0 = rec_->synthNs();
        const std::uint64_t t0 = nowNs();
        const std::int32_t span = rec_->openL4(t0);
        const L4ReadResult r = inner_->read(line, now);
        rec_->closeL4(kL4Read, span, t0, nowNs(), synth0);
        mirror();
        return r;
    }

    L4WriteResult
    install(LineAddr line, std::uint64_t payload, bool dirty, Cycle now,
            bool after_read_miss) override
    {
        const std::uint64_t synth0 = rec_->synthNs();
        const std::uint64_t t0 = nowNs();
        const std::int32_t span = rec_->openL4(t0);
        L4WriteResult r =
            inner_->install(line, payload, dirty, now, after_read_miss);
        rec_->closeL4(kL4Install, span, t0, nowNs(), synth0);
        mirror();
        return r;
    }

    void
    completeFill(LineAddr line, std::uint64_t payload, Cycle now) override
    {
        const std::uint64_t synth0 = rec_->synthNs();
        const std::uint64_t t0 = nowNs();
        const std::int32_t span = rec_->openL4(t0);
        inner_->completeFill(line, payload, now);
        rec_->closeL4(kL4Fill, span, t0, nowNs(), synth0);
        mirror();
    }

    bool contains(LineAddr line) const override
    {
        return inner_->contains(line);
    }

    std::uint64_t validLines() const override
    {
        return inner_->validLines();
    }

    std::uint64_t bytesUsed() const override { return inner_->bytesUsed(); }

    const char *organization() const override
    {
        return inner_->organization();
    }

    /**
     * System calls this once, at the end of run(), with every counter
     * final: the moment to snapshot the cell's stat registry.
     */
    L4Metrics
    metrics() const override
    {
        if (registry_ != nullptr && rec_->trace().stats.empty())
            rec_->trace().stats = registry_->flatten();
        return inner_->metrics();
    }

    void
    registerExtraStats(StatRegistry &registry) const override
    {
        registry_ = &registry;
        inner_->registerExtraStats(registry);
    }

    /** Called at the warmup/measurement boundary. */
    void
    resetStats() override
    {
        const std::uint64_t capacity_lines =
            inner_->config().capacity / kLineSize;
        rec_->trace().fill_at_measure =
            capacity_lines == 0
                ? 0.0
                : static_cast<double>(inner_->validLines()) /
                      static_cast<double>(capacity_lines);
        inner_->resetStats();
        mirror();
    }

    StatGroup stats() const override { return inner_->stats(); }

  private:
    void
    mirror()
    {
        const std::uint64_t t0 = nowNs();
        device_ = inner_->device();
        read_hits_ = inner_->readHits();
        read_misses_ = inner_->readMisses();
        extra_lines_ = inner_->extraLinesSupplied();
        rec_->mirror(t0, nowNs());
    }

    // Declaration order is construction order: the source refers to
    // the recorder, and the inner organization to the source.
    std::unique_ptr<Recorder> rec_;
    TimingSource source_;
    std::unique_ptr<DramCache> inner_;
    mutable StatRegistry *registry_ = nullptr;
};

} // namespace

std::string
registerTimed(const std::string &inner, const std::string &label)
{
    const std::string name =
        "timed." + inner + (label.empty() ? "" : "@" + label);
    L4Registry &registry = L4Registry::instance();
    if (!registry.known(name)) {
        // The decorator accepts every parameter group; the inner
        // create() validates the config against the real organization.
        registry.add(name,
                     L4Registry::kUsesComp | L4Registry::kUsesBanshee |
                         L4Registry::kUsesTouche,
                     [inner, label](const L4Config &config,
                                    const LineDataSource &source)
                         -> std::unique_ptr<DramCache> {
                         return std::make_unique<TimedL4>(config, inner,
                                                          label, source);
                     });
    }
    return name;
}

} // namespace perfbench
