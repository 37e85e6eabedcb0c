/**
 * @file
 * Chrome trace-event output (viewable in Perfetto / chrome://tracing).
 *
 * The process-wide TraceLog collects complete ("ph":"X") events —
 * spans with a start timestamp and a duration — and writes them as one
 * trace-event JSON document. Flushing is incremental: each flush
 * appends only the events recorded since the previous one and then
 * re-writes the closing "]}"'s position, so the output file is a
 * complete, valid document after every flush while total flush cost
 * stays O(events), not O(events²). The bench harness wraps each sweep
 * cell and its simulate phase in TraceSpans, so a fig10-style run
 * produces a per-worker timeline where load imbalance is directly
 * visible.
 *
 * Cost model: when DICE_TRACE_OUT is unset the log is disabled and a
 * TraceSpan is two branch tests; when enabled, recording takes a
 * mutex, but spans are only created at phase granularity (a handful
 * per simulation cell), never per reference, so the hot loop is
 * unaffected either way.
 */

#ifndef DICE_COMMON_TRACE_EVENTS_HPP
#define DICE_COMMON_TRACE_EVENTS_HPP

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace dice
{

/** Process-wide collector of Chrome trace-event spans. */
class TraceLog
{
  public:
    /** The singleton; enabled iff DICE_TRACE_OUT names a file. */
    static TraceLog &instance();

    /** Flushes any pending events (best effort). */
    ~TraceLog();

    TraceLog(const TraceLog &) = delete;
    TraceLog &operator=(const TraceLog &) = delete;

    bool enabled() const { return enabled_; }

    /** Microseconds since the log was created (the trace epoch). */
    std::uint64_t nowUs() const;

    /**
     * Record a complete event: @p name in category @p cat spanning
     * [@p ts_us, @p ts_us + @p dur_us] on the calling thread's lane.
     * @p args_json, when non-empty, must be a rendered JSON object
     * ("{\"workload\": \"mcf\"}"). No-op when disabled.
     */
    void complete(const char *cat, std::string name, std::uint64_t ts_us,
                  std::uint64_t dur_us, std::string args_json = {});

    /**
     * Record an instant event ("ph":"i", thread scope): a point-in-time
     * marker at the current trace clock — arena evictions, budget
     * trips, and similar one-shot occurrences that have no duration.
     * No-op when disabled.
     */
    void instant(const char *cat, std::string name,
                 std::string args_json = {});

    /** Events recorded since the last flush. */
    std::size_t pendingEvents() const;

    /**
     * Append every event recorded since the previous flush to the
     * output document and re-close it, leaving a complete, valid
     * trace-event JSON file (repeatable; the first flush writes the
     * header). False on I/O failure or when disabled.
     */
    bool flush();

    const std::string &outputPath() const { return path_; }

    /** Redirect to @p path and enable (tests); drops pending events. */
    void setOutputForTest(const std::string &path);

  private:
    TraceLog();

    struct Event
    {
        std::string name;
        const char *cat;
        std::uint64_t ts_us;
        std::uint64_t dur_us; ///< Unused (0) for instant events.
        std::uint32_t tid;
        char ph; ///< 'X' = complete span, 'i' = instant marker.
        std::string args_json;
    };

    mutable std::mutex mu_;
    std::vector<Event> events_; ///< Recorded but not yet flushed.
    std::string path_;
    bool enabled_ = false;
    std::uint64_t epoch_ns_ = 0;

    /** Open output document (first flush opens it). The terminator
     *  "\n]}\n" lives at body_end_; the next flush seeks back there,
     *  appends the new events, and re-writes it. */
    std::ofstream out_;
    std::uint64_t body_end_ = 0;
    bool wrote_event_ = false;
};

/**
 * Stable small integer id for the calling thread (Perfetto lanes).
 * Assigned on first use in increasing spawn order; the main thread,
 * which touches telemetry first, is normally lane 0.
 */
std::uint32_t traceTid();

/** RAII span: records a complete event from construction to scope
 *  exit. All construction work is skipped when tracing is off. */
class TraceSpan
{
  public:
    TraceSpan(const char *cat, std::string name,
              std::string args_json = {});
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    bool active_ = false;
    const char *cat_ = nullptr;
    std::uint64_t start_us_ = 0;
    std::string name_;
    std::string args_json_;
};

} // namespace dice

#endif // DICE_COMMON_TRACE_EVENTS_HPP
