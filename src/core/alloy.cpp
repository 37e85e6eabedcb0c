#include "alloy.hpp"

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace dice
{

namespace
{

/** Bytes streamed per Alloy access: one 72-B TAD + 8-B neighbor tag. */
constexpr std::uint32_t kReadBytes = 80;
/** Bytes written when a TAD is (re)filled. */
constexpr std::uint32_t kWriteBytes = 72;

} // namespace

AlloyCache::AlloyCache(const DramCacheConfig &config, std::string name)
    : DramCache(config, std::move(name)),
      indexer_(floorLog2(config.capacity / kLineSize)),
      mapper_(config.timing), sets_(config.capacity / kLineSize)
{
    dice_assert(isPowerOfTwo(config.capacity / kLineSize),
                "Alloy capacity must give a power-of-two set count");
}

L4ReadResult
AlloyCache::read(LineAddr line, Cycle now)
{
    const std::uint64_t set = indexer_.tsi(line);
    const DramResult dram =
        device_.access(mapper_.coord(set), kReadBytes, now, false);

    L4ReadResult res;
    res.dram_accesses = 1;
    res.done = dram.done + config_.controller_latency;

    const Entry &e = sets_[set];
    if (e.valid && e.line == line) {
        res.hit = true;
        res.payload = e.payload;
        ++read_hits_;
    } else {
        ++read_misses_;
    }
    return res;
}

L4WriteResult
AlloyCache::install(LineAddr line, std::uint64_t payload, bool dirty,
                    Cycle now, bool after_read_miss)
{
    ++installs_;
    const std::uint64_t set = indexer_.tsi(line);

    L4WriteResult res;
    res.dram_accesses = 0;
    Cycle when = now;

    // A writeback (or an install not preceded by a demand probe) must
    // first read the TAD to learn the victim's tag/dirty state.
    if (!after_read_miss) {
        const DramResult probe =
            device_.access(mapper_.coord(set), kReadBytes, when,
                           AccessKind::PostedRead);
        when = probe.done;
        ++res.dram_accesses;
    }

    Entry &e = sets_[set];
    if (e.valid && e.line == line) {
        e.dirty = e.dirty || dirty;
        e.payload = payload;
    } else {
        if (e.valid && e.dirty) {
            res.writebacks.push_back(
                EvictedLine{e.line, true, e.payload});
        }
        if (!e.valid)
            ++valid_count_;
        e = Entry{line, payload, true, dirty};
    }

    device_.access(mapper_.coord(set), kWriteBytes, when, true);
    ++res.dram_accesses;
    return res;
}

void
AlloyCache::prefetch(LineAddr line) const
{
    __builtin_prefetch(&sets_[indexer_.tsi(line)]);
}

bool
AlloyCache::contains(LineAddr line) const
{
    const Entry &e = sets_[indexer_.tsi(line)];
    return e.valid && e.line == line;
}

std::uint64_t
AlloyCache::validLines() const
{
    return valid_count_;
}

DramCacheConfig
doubledCapacity(DramCacheConfig config)
{
    config.capacity *= 2;
    return config;
}

DramCacheConfig
doubledBandwidth(DramCacheConfig config)
{
    config.timing.channels *= 2;
    return config;
}

DramCacheConfig
halvedLatency(DramCacheConfig config)
{
    config.timing.tCAS /= 2;
    config.timing.tRCD /= 2;
    config.timing.tRP /= 2;
    config.timing.tRAS /= 2;
    return config;
}

} // namespace dice
