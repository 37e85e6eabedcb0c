/**
 * @file
 * Banshee-style page-granularity DRAM cache (Yu et al., MICRO 2017 —
 * see PAPERS.md): the bandwidth-efficiency competitor to
 * line-granularity designs like Alloy/DICE.
 *
 * Model:
 *
 *  - The cache is organized as set-associative 4-KiB page frames. Page
 *    tags live with the page-table/TLB entries (SRAM side), so a probe
 *    costs no DRAM traffic at all: a hit issues exactly one 64-B data
 *    access and a miss is known immediately — Banshee's headline win
 *    over tag-in-DRAM designs.
 *
 *  - Replacement is frequency-based and bandwidth-aware. Every page
 *    (resident or not) accrues a saturating frequency counter;
 *    a missing page displaces the coldest resident way only when its
 *    counter exceeds the victim's by more than a margin, because a
 *    page replacement costs a full page of fill bandwidth. Counters
 *    age by halving a set when a resident counter saturates.
 *
 *  - Admitting a page streams the whole page: the demand line's
 *    payload arrives with the install, the remaining lines are
 *    requested from main memory through L4WriteResult::fill_fetches
 *    (the system charges the DDR traffic and hands payloads back via
 *    completeFill()), and the page write into the cache rows is
 *    charged to this device as posted row-sized bursts. This fill
 *    bloat is exactly what the bandwidth-aware filter exists to
 *    limit.
 *
 *  - A declined install (bypass) forwards a dirty line straight to
 *    main memory via the writeback list; clean bypasses cost nothing.
 */

#ifndef DICE_CORE_BANSHEE_HPP
#define DICE_CORE_BANSHEE_HPP

#include <vector>

#include "common/flat_map.hpp"
#include "core/dram_cache.hpp"
#include "core/l4_registry.hpp"

namespace dice
{

/** Page-granularity Banshee-style DRAM cache. */
class BansheeCache : public DramCache
{
  public:
    BansheeCache(const DramCacheConfig &config,
                 const BansheeL4Params &params,
                 std::string name = "banshee_l4");

    L4ReadResult read(LineAddr line, Cycle now) override;
    L4WriteResult install(LineAddr line, std::uint64_t payload, bool dirty,
                          Cycle now, bool after_read_miss) override;
    void completeFill(LineAddr line, std::uint64_t payload,
                      Cycle now) override;
    /** Prefetches the tag, valid and counter planes of the page's set. */
    void prefetch(LineAddr line) const override;
    bool contains(LineAddr line) const override;
    std::uint64_t validLines() const override;
    const char *organization() const override { return "banshee"; }

    void resetStats() override;
    StatGroup stats() const override;

    /** Whole-page admissions / evictions (white-box for tests). */
    std::uint64_t pagesAdmitted() const { return pages_admitted_; }
    std::uint64_t pagesEvicted() const { return pages_evicted_; }
    /** Installs the bandwidth-aware filter declined. */
    std::uint64_t fillsBypassed() const { return fills_bypassed_; }
    /** Non-demand lines streamed from memory by page fills. */
    std::uint64_t pageFillLines() const { return page_fill_lines_; }

  private:
    std::uint64_t pageOf(LineAddr line) const { return line / page_lines_; }
    std::uint32_t setOf(std::uint64_t page) const
    {
        return static_cast<std::uint32_t>(page % num_sets_);
    }
    std::uint32_t frameOf(std::uint32_t set, std::uint32_t way) const
    {
        return set * params_.ways + way;
    }

    /** Way holding @p page in its set, or ways (absent). */
    std::uint32_t findWay(std::uint32_t set, std::uint64_t page) const;

    /** DRAM coordinates of row @p row_in_page of frame @p frame. */
    DramCoord frameCoord(std::uint32_t frame,
                         std::uint32_t row_in_page) const;

    /** Saturating bump of a resident counter, aging the set at max. */
    void bumpResident(std::uint32_t set, std::uint32_t way);

    BansheeL4Params params_;
    std::uint32_t page_lines_;
    std::uint32_t rows_per_page_;
    std::uint32_t lines_per_row_;
    std::uint64_t num_sets_;

    /** Per-frame SoA planes, indexed by frameOf(set, way). */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint32_t> counters_;
    /** Per-frame dirty bitmask, one bit per line (page_lines <= 64). */
    std::vector<std::uint64_t> dirty_;
    /** Per-line payloads, frame-major ([frame * page_lines + off]). */
    std::vector<std::uint64_t> payloads_;

    /** Frequency counters of non-resident candidate pages. */
    FlatMap<std::uint64_t, std::uint32_t> candidates_;

    std::uint64_t resident_pages_ = 0;

    std::uint64_t pages_admitted_ = 0;
    std::uint64_t pages_evicted_ = 0;
    std::uint64_t fills_bypassed_ = 0;
    std::uint64_t page_fill_lines_ = 0;
};

} // namespace dice

#endif // DICE_CORE_BANSHEE_HPP
