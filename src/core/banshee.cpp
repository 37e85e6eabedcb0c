#include "banshee.hpp"

#include "common/log.hpp"

namespace dice
{

BansheeCache::BansheeCache(const DramCacheConfig &config,
                           const BansheeL4Params &params, std::string name)
    : DramCache(config, std::move(name)), params_(params),
      page_lines_(params.page_bytes / kLineSize),
      rows_per_page_(params.page_bytes > config.timing.row_bytes
                         ? params.page_bytes / config.timing.row_bytes
                         : 1),
      lines_per_row_(config.timing.row_bytes / kLineSize),
      num_sets_(config.capacity / params.page_bytes / params.ways),
      candidates_(/*expected_keys=*/1 << 14)
{
    dice_assert(params.page_bytes % kLineSize == 0 && page_lines_ > 0,
                "page size %u is not a multiple of the line size",
                params.page_bytes);
    dice_assert(page_lines_ <= 64,
                "page of %u lines exceeds the 64-line dirty bitmask",
                page_lines_);
    dice_assert(params.ways > 0, "Banshee needs at least one way");
    dice_assert(num_sets_ > 0, "Banshee cache smaller than one set");

    const std::size_t frames = num_sets_ * params_.ways;
    tags_.assign(frames, 0);
    valid_.assign(frames, 0);
    counters_.assign(frames, 0);
    dirty_.assign(frames, 0);
    payloads_.assign(frames * page_lines_, 0);
}

std::uint32_t
BansheeCache::findWay(std::uint32_t set, std::uint64_t page) const
{
    for (std::uint32_t way = 0; way < params_.ways; ++way) {
        const std::uint32_t frame = frameOf(set, way);
        if (valid_[frame] && tags_[frame] == page)
            return way;
    }
    return params_.ways;
}

DramCoord
BansheeCache::frameCoord(std::uint32_t frame,
                         std::uint32_t row_in_page) const
{
    const DramTiming &t = device_.timing();
    const std::uint64_t global_row =
        std::uint64_t{frame} * rows_per_page_ + row_in_page;
    DramCoord c;
    c.channel = static_cast<std::uint32_t>(global_row % t.channels);
    c.bank = static_cast<std::uint32_t>((global_row / t.channels) %
                                        t.banks_per_channel);
    c.row = global_row /
            (static_cast<std::uint64_t>(t.channels) * t.banks_per_channel);
    return c;
}

void
BansheeCache::bumpResident(std::uint32_t set, std::uint32_t way)
{
    std::uint32_t &c = counters_[frameOf(set, way)];
    if (c < params_.counter_max) {
        ++c;
        return;
    }
    // Aging: a saturated set halves together, preserving relative heat
    // while letting new candidates catch up.
    for (std::uint32_t w = 0; w < params_.ways; ++w)
        counters_[frameOf(set, w)] /= 2;
}

L4ReadResult
BansheeCache::read(LineAddr line, Cycle now)
{
    const std::uint64_t page = pageOf(line);
    const std::uint32_t set = setOf(page);
    const std::uint32_t way = findWay(set, page);

    L4ReadResult res;
    if (way == params_.ways) {
        // Tags live with the page tables (SRAM side): the miss verdict
        // is immediate and costs no DRAM-cache traffic.
        res.dram_accesses = 0;
        res.done = now + config_.controller_latency;
        ++read_misses_;
        return res;
    }

    const std::uint32_t frame = frameOf(set, way);
    const auto off = static_cast<std::uint32_t>(line % page_lines_);
    const DramResult dr =
        device_.access(frameCoord(frame, off / lines_per_row_), kLineSize,
                       now, AccessKind::DemandRead);
    bumpResident(set, way);

    res.hit = true;
    res.done = dr.done + config_.controller_latency;
    res.payload = payloads_[std::size_t{frame} * page_lines_ + off];
    ++read_hits_;
    return res;
}

L4WriteResult
BansheeCache::install(LineAddr line, std::uint64_t payload, bool dirty,
                      Cycle now, bool after_read_miss)
{
    (void)after_read_miss; // probes are SRAM-side: nothing was streamed
    ++installs_;

    const std::uint64_t page = pageOf(line);
    const std::uint32_t set = setOf(page);
    const auto off = static_cast<std::uint32_t>(line % page_lines_);

    L4WriteResult res;
    res.dram_accesses = 0;

    const std::uint32_t hit_way = findWay(set, page);
    if (hit_way != params_.ways) {
        // Resident page: in-place line update.
        const std::uint32_t frame = frameOf(set, hit_way);
        payloads_[std::size_t{frame} * page_lines_ + off] = payload;
        if (dirty)
            dirty_[frame] |= std::uint64_t{1} << off;
        device_.access(frameCoord(frame, off / lines_per_row_), kLineSize,
                       now, AccessKind::PostedWrite);
        res.dram_accesses = 1;
        bumpResident(set, hit_way);
        return res;
    }

    // Candidate heat: every touch of a missing page counts toward its
    // eventual admission.
    std::uint32_t cand_count;
    {
        std::uint32_t &c = candidates_[page];
        if (c < params_.counter_max)
            ++c;
        cand_count = c;
    }

    // Victim: any invalid way, else the coldest counter.
    std::uint32_t victim = 0;
    bool have_invalid = false;
    for (std::uint32_t way = 0; way < params_.ways; ++way) {
        const std::uint32_t frame = frameOf(set, way);
        if (!valid_[frame]) {
            victim = way;
            have_invalid = true;
            break;
        }
        if (counters_[frame] < counters_[frameOf(set, victim)])
            victim = way;
    }

    const std::uint32_t frame = frameOf(set, victim);
    const bool admit =
        have_invalid ||
        cand_count > counters_[frame] + params_.replace_margin;
    if (!admit) {
        // Bandwidth-aware bypass: the page is not hot enough to pay a
        // full page fill. A dirty line flows through to main memory.
        res.bypassed = true;
        ++fills_bypassed_;
        if (dirty)
            res.writebacks.push_back(EvictedLine{line, true, payload});
        return res;
    }

    if (!have_invalid) {
        const std::uint64_t old_page = tags_[frame];
        std::uint64_t d = dirty_[frame];
        for (; d != 0; d &= d - 1) {
            const auto o =
                static_cast<std::uint32_t>(__builtin_ctzll(d));
            res.writebacks.push_back(EvictedLine{
                old_page * page_lines_ + o, true,
                payloads_[std::size_t{frame} * page_lines_ + o]});
        }
        // The loser keeps half its heat so it can contend again
        // without immediately thrashing the set.
        candidates_[old_page] = counters_[frame] / 2;
        ++pages_evicted_;
        --resident_pages_;
    }

    candidates_.erase(page);
    tags_[frame] = page;
    valid_[frame] = 1;
    counters_[frame] = cand_count;
    dirty_[frame] = 0;
    ++resident_pages_;
    ++pages_admitted_;

    payloads_[std::size_t{frame} * page_lines_ + off] = payload;
    if (dirty)
        dirty_[frame] |= std::uint64_t{1} << off;

    // The demand line arrived with the install; the rest of the page
    // streams from main memory (the system charges that traffic and
    // calls completeFill per line) ...
    res.fill_fetches.reserve(page_lines_ - 1);
    const LineAddr base = page * page_lines_;
    for (std::uint32_t o = 0; o < page_lines_; ++o) {
        if (o != off)
            res.fill_fetches.push_back(base + o);
    }
    page_fill_lines_ += page_lines_ - 1;

    // ... and the whole page is written into the cache rows as posted
    // row-sized bursts — the fill bandwidth Banshee's filter rations.
    const std::uint32_t chunk_bytes =
        params_.page_bytes / rows_per_page_;
    for (std::uint32_t r = 0; r < rows_per_page_; ++r) {
        device_.access(frameCoord(frame, r), chunk_bytes, now,
                       AccessKind::PostedWrite);
        ++res.dram_accesses;
    }
    return res;
}

void
BansheeCache::completeFill(LineAddr line, std::uint64_t payload, Cycle now)
{
    (void)now;
    const std::uint64_t page = pageOf(line);
    const std::uint32_t way = findWay(setOf(page), page);
    dice_assert(way != params_.ways,
                "completeFill of a line whose page is not resident");
    const std::uint32_t frame = frameOf(setOf(page), way);
    const auto off = static_cast<std::uint32_t>(line % page_lines_);
    payloads_[std::size_t{frame} * page_lines_ + off] = payload;
}

void
BansheeCache::prefetch(LineAddr line) const
{
    const std::uint32_t frame = frameOf(setOf(pageOf(line)), 0);
    __builtin_prefetch(&tags_[frame]);
    __builtin_prefetch(&valid_[frame]);
    __builtin_prefetch(&counters_[frame]);
}

bool
BansheeCache::contains(LineAddr line) const
{
    const std::uint64_t page = pageOf(line);
    return findWay(setOf(page), page) != params_.ways;
}

std::uint64_t
BansheeCache::validLines() const
{
    return resident_pages_ * page_lines_;
}

void
BansheeCache::resetStats()
{
    DramCache::resetStats();
    pages_admitted_ = pages_evicted_ = 0;
    fills_bypassed_ = page_fill_lines_ = 0;
}

StatGroup
BansheeCache::stats() const
{
    StatGroup g = DramCache::stats();
    g.addFormula("pages_admitted",
                 [this]() { return double(pages_admitted_); });
    g.addFormula("pages_evicted",
                 [this]() { return double(pages_evicted_); });
    g.addFormula("fills_bypassed",
                 [this]() { return double(fills_bypassed_); });
    g.addFormula("page_fill_lines",
                 [this]() { return double(page_fill_lines_); });
    g.addFormula("candidate_pages",
                 [this]() { return double(candidates_.size()); });
    return g;
}

} // namespace dice
