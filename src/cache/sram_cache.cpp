#include "sram_cache.hpp"

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace dice
{

SramCache::SramCache(const SramCacheConfig &config) : config_(config)
{
    dice_assert(config.ways > 0, "cache %s with zero ways",
                config.name.c_str());
    const std::uint64_t lines = config.size_bytes / kLineSize;
    dice_assert(lines % config.ways == 0,
                "cache %s: %llu lines not divisible by %u ways",
                config.name.c_str(),
                static_cast<unsigned long long>(lines), config.ways);
    num_sets_ = static_cast<std::uint32_t>(lines / config.ways);
    dice_assert(isPowerOfTwo(num_sets_), "cache %s: %u sets not 2^k",
                config.name.c_str(), num_sets_);
    set_bits_ = floorLog2(num_sets_);
    ways_.resize(static_cast<std::size_t>(num_sets_) * config.ways);
}

std::uint32_t
SramCache::setOf(LineAddr line) const
{
    return static_cast<std::uint32_t>(line & (num_sets_ - 1));
}

std::uint64_t
SramCache::tagOf(LineAddr line) const
{
    return line >> set_bits_;
}

SramCache::Way *
SramCache::findWay(LineAddr line)
{
    const std::uint64_t tag = tagOf(line);
    Way *set = &ways_[static_cast<std::size_t>(setOf(line)) * config_.ways];
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return &set[w];
    }
    return nullptr;
}

const SramCache::Way *
SramCache::findWay(LineAddr line) const
{
    return const_cast<SramCache *>(this)->findWay(line);
}

bool
SramCache::access(LineAddr line, AccessType type, std::uint64_t payload)
{
    Way *way = findWay(line);
    if (!way) {
        ++misses_;
        return false;
    }
    ++hits_;
    way->lru = ++lru_clock_;
    if (type == AccessType::Write || type == AccessType::Writeback) {
        way->dirty = true;
        way->payload = payload;
    }
    return true;
}

std::optional<EvictedLine>
SramCache::install(LineAddr line, bool dirty, std::uint64_t payload)
{
    ++installs_;

    if (Way *way = findWay(line)) {
        // Refill of a resident line (e.g. upgrade): refresh in place.
        way->lru = ++lru_clock_;
        way->dirty = way->dirty || dirty;
        way->payload = payload;
        return std::nullopt;
    }

    Way *set = &ways_[static_cast<std::size_t>(setOf(line)) * config_.ways];
    Way *victim = &set[0];
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lru < victim->lru)
            victim = &set[w];
    }

    std::optional<EvictedLine> evicted;
    if (victim->valid) {
        ++evictions_;
        if (victim->dirty)
            ++dirty_evictions_;
        const std::uint64_t set_idx =
            static_cast<std::uint64_t>(setOf(line));
        evicted = EvictedLine{
            (victim->tag << set_bits_) | set_idx,
            victim->dirty, victim->payload};
    }

    victim->tag = tagOf(line);
    victim->payload = payload;
    victim->lru = ++lru_clock_;
    victim->valid = true;
    victim->dirty = dirty;
    return evicted;
}

bool
SramCache::contains(LineAddr line) const
{
    return findWay(line) != nullptr;
}

std::optional<std::uint64_t>
SramCache::payloadOf(LineAddr line) const
{
    const Way *way = findWay(line);
    if (!way)
        return std::nullopt;
    return way->payload;
}

std::optional<EvictedLine>
SramCache::invalidate(LineAddr line)
{
    Way *way = findWay(line);
    if (!way)
        return std::nullopt;
    way->valid = false;
    std::optional<EvictedLine> out;
    if (way->dirty)
        out = EvictedLine{line, true, way->payload};
    way->dirty = false;
    return out;
}

double
SramCache::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

std::uint64_t
SramCache::validLines() const
{
    std::uint64_t n = 0;
    for (const Way &w : ways_) {
        if (w.valid)
            ++n;
    }
    return n;
}

void
SramCache::resetStats()
{
    hits_ = misses_ = evictions_ = dirty_evictions_ = installs_ = 0;
}

StatGroup
SramCache::stats() const
{
    StatGroup g(config_.name);
    g.addFormula("hits", [this]() { return double(hits_); });
    g.addFormula("misses", [this]() { return double(misses_); });
    g.addFormula("hit_rate", [this]() { return hitRate(); });
    g.addFormula("evictions", [this]() { return double(evictions_); });
    g.addFormula("dirty_evictions",
                 [this]() { return double(dirty_evictions_); });
    g.addFormula("installs", [this]() { return double(installs_); });
    return g;
}

} // namespace dice
