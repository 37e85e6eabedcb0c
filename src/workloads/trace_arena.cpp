#include "trace_arena.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "common/rng.hpp"
#include "common/trace_events.hpp"
#include "workloads/region_plan.hpp"

namespace dice
{

namespace
{

/** Default resident budget when DICE_TRACE_ARENA_BYTES is unset. */
constexpr std::uint64_t kDefaultBudgetBytes = 512_MiB;

} // namespace

std::shared_ptr<const TraceSet>
generateTraceSet(const std::vector<WorkloadProfile> &profiles,
                 std::uint32_t num_cores,
                 std::uint64_t reference_capacity, std::uint64_t seed,
                 std::uint64_t refs_per_core, unsigned jobs)
{
    dice_assert(profiles.size() == num_cores,
                "expected %u per-core profiles, got %zu", num_cores,
                profiles.size());
    const std::vector<CoreRegion> regions =
        planCoreRegions(num_cores, reference_capacity, profiles);

    auto set = std::make_shared<TraceSet>();
    set->streams.resize(num_cores);
    parallelFor(num_cores, jobs, [&](std::size_t cid) {
        TraceGenerator gen(profiles[cid], regions[cid].start,
                           regions[cid].lines,
                           mix64(seed, static_cast<std::uint64_t>(cid)));
        PackedTrace &trace = set->streams[cid];
        trace.reserve(refs_per_core);
        for (std::uint64_t r = 0; r < refs_per_core; ++r)
            trace.append(gen.next());
        trace.seal();
    });
    return set;
}

TraceArena &
TraceArena::instance()
{
    static TraceArena arena;
    return arena;
}

TraceArena::TraceArena() : budget_bytes_(kDefaultBudgetBytes)
{
    if (const char *env = std::getenv("DICE_TRACE_ARENA_BYTES"))
        budget_bytes_ = std::strtoull(env, nullptr, 10);
}

std::shared_ptr<const TraceSet>
TraceArena::acquire(const std::string &workload, std::uint64_t seed,
                    std::uint32_t num_cores,
                    std::uint64_t reference_capacity,
                    std::uint64_t refs_per_core,
                    const std::vector<WorkloadProfile> &profiles,
                    unsigned jobs)
{
    const Key key{workload, seed, num_cores, reference_capacity,
                  refs_per_core};

    std::promise<std::shared_ptr<const TraceSet>> promise;
    {
        std::unique_lock lock(mu_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            // Resident or in flight either way: the requester shares
            // the one generation instead of starting its own.
            ++hits_;
            it->second.lru_tick = ++lru_clock_;
            auto future = it->second.future;
            lock.unlock();
            return future.get();
        }
        Entry entry;
        entry.future = promise.get_future().share();
        entry.lru_tick = ++lru_clock_;
        entries_.emplace(key, std::move(entry));
    }

    // Generate outside the lock; waiters block on the shared future.
    const std::shared_ptr<const TraceSet> set = generateTraceSet(
        profiles, num_cores, reference_capacity, seed, refs_per_core,
        jobs);
    promise.set_value(set);

    {
        std::unique_lock lock(mu_);
        ++generations_;
        // clear() may have raced the generation; the set is still
        // handed to every waiter through the future either way.
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.bytes = set->bytes();
            resident_bytes_ += it->second.bytes;
            evictOverBudgetLocked();
        }
    }
    return set;
}

void
TraceArena::evictOverBudgetLocked()
{
    while (resident_bytes_ > budget_bytes_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.bytes == 0)
                continue; // still generating; nothing resident yet
            if (victim == entries_.end() ||
                it->second.lru_tick < victim->second.lru_tick)
                victim = it;
        }
        if (victim == entries_.end())
            return;
        resident_bytes_ -= victim->second.bytes;
        // Mark the eviction on the trace timeline: budget-driven
        // stream drops are exactly the events that explain a sweep
        // regenerating a trace it already paid for.
        TraceLog &log = TraceLog::instance();
        if (log.enabled()) {
            std::string args = "{\"workload\": \"";
            appendJsonEscaped(args, std::get<0>(victim->first));
            char buf[96];
            std::snprintf(
                buf, sizeof buf,
                "\", \"bytes\": %llu, \"resident_bytes\": %llu}",
                static_cast<unsigned long long>(victim->second.bytes),
                static_cast<unsigned long long>(resident_bytes_));
            args += buf;
            log.instant("arena", "arena_evict", std::move(args));
        }
        entries_.erase(victim);
        ++evictions_;
    }
}

TraceArena::Stats
TraceArena::stats() const
{
    std::unique_lock lock(mu_);
    Stats s;
    s.generations = generations_;
    s.hits = hits_;
    s.evictions = evictions_;
    s.resident_bytes = resident_bytes_;
    s.entries = entries_.size();
    return s;
}

void
TraceArena::setByteBudget(std::uint64_t bytes)
{
    std::unique_lock lock(mu_);
    budget_bytes_ = bytes;
    evictOverBudgetLocked();
}

void
TraceArena::clear()
{
    std::unique_lock lock(mu_);
    entries_.clear();
    resident_bytes_ = 0;
    generations_ = 0;
    hits_ = 0;
    evictions_ = 0;
    lru_clock_ = 0;
}

} // namespace dice
