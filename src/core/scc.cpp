#include "scc.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace dice
{

SccCache::SccCache(const DramCacheConfig &config,
                   const LineDataSource &source, std::string name)
    : DramCache(config, std::move(name)),
      num_sets_(config.capacity / kLineSize / kWays),
      mapper_(config.timing), source_(source),
      sets_(config.capacity / kLineSize / kWays,
            TadGeometry{/*budget_bytes=*/kWays * kTadSetBytes,
                        /*max_lines=*/kWays * 4,
                        /*tag_bytes=*/2})
{
    dice_assert(num_sets_ > 0, "SCC cache too small");
}

std::uint64_t
SccCache::setOf(LineAddr line) const
{
    return (line / kSuperblockLines) % num_sets_;
}

Cycle
SccCache::probeTags(std::uint64_t set, Cycle now, std::uint32_t &accesses,
                    bool demand)
{
    // Three tag probes, issued in parallel. The tag arrays live in
    // contiguous DRAM regions, so a set's probes land in consecutive
    // locations of one row (row-buffer friendly) rather than scattering
    // activations. Install-side probes are posted (write-queue)
    // traffic; tag reads are narrow (a 16-B burst carries several
    // superblock tags) — only the data access moves a full TAD.
    const AccessKind kind =
        demand ? AccessKind::DemandRead : AccessKind::PostedRead;
    const std::uint64_t base = (mix64(set) % (num_sets_ * kWays)) &
                               ~std::uint64_t{3};
    Cycle done = now;
    for (std::uint32_t i = 0; i < kTagProbes; ++i) {
        const DramResult r =
            device_.access(mapper_.coord(base + i), 16, now, kind);
        done = std::max(done, r.done);
        ++accesses;
    }
    return done;
}

L4ReadResult
SccCache::read(LineAddr line, Cycle now)
{
    const std::uint64_t set = setOf(line);

    L4ReadResult res;
    res.dram_accesses = 0;
    const Cycle tags_done = probeTags(set, now, res.dram_accesses, true);

    TadSetRef state = sets_[set];
    const TadLookup lk = state.lookup(line);
    if (!lk.found) {
        res.done = tags_done + config_.controller_latency;
        ++read_misses_;
        return res;
    }

    // Data access only after the tags identified the location.
    const DramResult data = device_.access(
        mapper_.coord(mix64(set, 7) % (num_sets_ * kWays)), 72,
        tags_done, false);
    ++res.dram_accesses;

    res.hit = true;
    res.done = data.done + config_.controller_latency +
               config_.decompression_latency;
    res.payload = lk.payload;
    state.touch(line, ++lru_clock_);
    ++read_hits_;
    return res;
}

L4WriteResult
SccCache::install(LineAddr line, std::uint64_t payload, bool dirty,
                  Cycle now, bool after_read_miss)
{
    ++installs_;
    const std::uint64_t set = setOf(line);

    L4WriteResult res;
    res.dram_accesses = 0;
    Cycle when = now;
    if (!after_read_miss)
        when = probeTags(set, now, res.dram_accesses, false);

    TadSetRef state = sets_[set];
    const std::uint32_t lines_before = state.lineCount();
    const std::uint32_t size =
        codec_.compressedSizeBytes(source_.bytes(line, payload));

    if (state.contains(line))
        state.remove(line, 0);
    while (!state.fits(size, 1)) {
        if (!state.evictLru(line, res.writebacks))
            dice_panic("SCC set cannot make room");
    }
    state.insertSingle(line, size, dirty, payload, false, ++lru_clock_);

    device_.access(mapper_.coord(mix64(set, 7) % (num_sets_ * kWays)), 72,
                   when, true);
    ++res.dram_accesses;

    valid_lines_ += state.lineCount();
    valid_lines_ -= lines_before;
    return res;
}

void
SccCache::prefetch(LineAddr line) const
{
    sets_.prefetch(setOf(line));
}

bool
SccCache::contains(LineAddr line) const
{
    return sets_[setOf(line)].contains(line);
}

std::uint64_t
SccCache::validLines() const
{
    return valid_lines_;
}

StatGroup
SccCache::stats() const
{
    StatGroup g = DramCache::stats();
    g.addFormula("spilled_sets",
                 [this]() { return double(sets_.spilledSets()); });
    g.addFormula("overflow_pool_bytes",
                 [this]() { return double(sets_.poolBytes()); });
    return g;
}

} // namespace dice
