/**
 * @file
 * Process-wide store of pre-generated reference streams.
 *
 * The reference stream a simulation consumes depends only on
 * (workload, seed, num_cores, reference_capacity, stream length), so
 * it can be generated once into packed SoA buffers (PackedTrace,
 * ~12 B/reference) and replayed by any number of Systems through
 * ReplayTraceSource, bit-identically to live generation. Bench sweep
 * cells do not use the arena: they generate live, which keeps a
 * sweep's memory flat (DESIGN §5d). What remains of it serves the
 * benchmark's fig10 set-up probe and the replay-equals-live tests.
 *
 * Concurrency: requests are deduplicated with per-key futures, so
 * racing callers never generate a stream twice. Memory: resident sets
 * are LRU-evicted past a byte budget (DICE_TRACE_ARENA_BYTES; callers
 * keep shared_ptr ownership, so eviction only drops the cache entry,
 * never a stream in use).
 */

#ifndef DICE_WORKLOADS_TRACE_ARENA_HPP
#define DICE_WORKLOADS_TRACE_ARENA_HPP

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "workloads/packed_trace.hpp"
#include "workloads/profile.hpp"

namespace dice
{

/** All per-core streams of one (workload, seed, ...) key. */
struct TraceSet
{
    std::vector<PackedTrace> streams; // one per core

    /** Aliasing view of one core's stream (shares ownership). */
    static std::shared_ptr<const PackedTrace>
    stream(const std::shared_ptr<const TraceSet> &set,
           std::uint32_t cid)
    {
        return std::shared_ptr<const PackedTrace>(
            set, &set->streams.at(cid));
    }

    std::size_t
    bytes() const
    {
        std::size_t total = 0;
        for (const PackedTrace &t : streams)
            total += t.bytes();
        return total;
    }
};

/**
 * Generate @p refs_per_core references for every core, one parallelFor
 * task per core across @p jobs threads. Pure function of its inputs;
 * the arena calls it on a miss, and tests/benchmarks call it directly
 * to build replay sets without touching the process-wide cache.
 */
std::shared_ptr<const TraceSet>
generateTraceSet(const std::vector<WorkloadProfile> &profiles,
                 std::uint32_t num_cores,
                 std::uint64_t reference_capacity, std::uint64_t seed,
                 std::uint64_t refs_per_core, unsigned jobs);

/** Keyed, LRU-bounded, thread-safe cache of TraceSets. */
class TraceArena
{
  public:
    /** The process-wide instance. */
    static TraceArena &instance();

    /** Byte budget from DICE_TRACE_ARENA_BYTES (default 512 MiB). */
    TraceArena();

    /**
     * Return the streams for the key, generating them (once, even
     * under concurrent requests) on first use. @p profiles must be
     * the per-core profiles the key's workload name denotes.
     */
    std::shared_ptr<const TraceSet>
    acquire(const std::string &workload, std::uint64_t seed,
            std::uint32_t num_cores, std::uint64_t reference_capacity,
            std::uint64_t refs_per_core,
            const std::vector<WorkloadProfile> &profiles, unsigned jobs);

    /** Monotonic counters (exactly-once generation is testable). */
    struct Stats
    {
        std::uint64_t generations = 0; ///< Streams built from scratch.
        std::uint64_t hits = 0;        ///< Served resident or in-flight.
        std::uint64_t evictions = 0;   ///< Entries dropped by the LRU.
        std::uint64_t resident_bytes = 0;
        std::uint64_t entries = 0;
    };

    Stats stats() const;

    /** Override the byte budget (tests); evicts down immediately. */
    void setByteBudget(std::uint64_t bytes);

    /** Drop every resident entry and zero the counters. */
    void clear();

  private:
    using Key = std::tuple<std::string, std::uint64_t, std::uint32_t,
                           std::uint64_t, std::uint64_t>;

    struct Entry
    {
        std::shared_future<std::shared_ptr<const TraceSet>> future;
        std::uint64_t lru_tick = 0;
        std::size_t bytes = 0; ///< 0 until generation completes.
    };

    /** Evict LRU-complete entries until the budget holds. Locked. */
    void evictOverBudgetLocked();

    mutable std::mutex mu_;
    std::map<Key, Entry> entries_;
    std::uint64_t budget_bytes_;
    std::uint64_t resident_bytes_ = 0;
    std::uint64_t lru_clock_ = 0;
    std::uint64_t generations_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace dice

#endif // DICE_WORKLOADS_TRACE_ARENA_HPP
