/**
 * @file
 * Flexible tag-and-data (TAD) set layout for the compressed DRAM cache
 * (paper Figure 5).
 *
 * Each physical set provides 72 bytes that the controller may interpret
 * freely as tag or data. Every resident item pays one 4-B tag (18-b tag,
 * valid/dirty/BAI/shared-tag/next-tag-valid flags, and up to 9 bits of
 * FPC/BDI metadata) plus its compressed payload. A spatially-contiguous
 * pair compressed together shares a single tag ("shared tag" bit) and,
 * under BDI, a single base — that is what lets two lines fit when their
 * joint payload is <= 68 B. At most 28 logical lines fit in one set.
 *
 * Storage: one cache's sets live in a TadSetArray — a lazily committed,
 * zero-filled array of fixed 128-B TadSet records plus one TadPool per
 * cache. A record carries its counters and, inline, the five
 * structure-of-arrays planes (scan keys, LRU stamps, data-version
 * payloads, payload byte counts, flag bytes) of its first
 * kTadInlineItems items: in practice a 72-B set holds only a few
 * compressed items, so a probe touches one record and nothing else.
 * The rare set that grows past the inline capacity moves its planes,
 * in order, into a full-capacity block of the pool, and moves them
 * back once it shrinks well below it. All-zero record bytes are an
 * empty inline set, so a fresh array needs no per-set initialization.
 *
 * Inline and spilled planes are scanned by the same dispatched
 * simd::matchMaskU64 / simd::minIndexU64 kernels (see
 * common/simd.hpp), and a spill preserves item order, so where a
 * set's planes live never changes a lookup, an eviction choice, or a
 * tie-break.
 *
 * Sets are operated on through TadSetView (read-only) and TadSetRef
 * handles that pair a record with its cache's pool and geometry.
 */

#ifndef DICE_CORE_TAD_HPP
#define DICE_CORE_TAD_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "cache/sram_cache.hpp" // EvictedLine
#include "common/log.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"

namespace dice
{

/** Physical bytes available per set (the Alloy 72-B TAD). */
inline constexpr std::uint32_t kTadSetBytes = 72;

/** Bytes charged per (possibly shared) tag entry. */
inline constexpr std::uint32_t kTadTagBytes = 4;

/** Maximum logical lines one set may hold (Figure 5). */
inline constexpr std::uint32_t kTadMaxLines = 28;

/** Tag size of the baseline uncompressed Alloy TAD (Figure 2). */
inline constexpr std::uint32_t kAlloyTagBytes = 8;

/** Items a TadSet record holds inline before it spills to the pool. */
inline constexpr std::uint32_t kTadInlineItems = 3;

/** Result of looking a line up within a set. */
struct TadLookup
{
    bool found = false;
    bool dirty = false;
    bool bai = false;
    /** True when the line lives inside a shared-tag pair item. */
    bool in_pair = false;
    std::uint64_t payload = 0;
    /**
     * Payload bytes stored for the holding item: the line's own
     * compressed size for a single, the joint size for a pair.
     */
    std::uint32_t item_bytes = 0;
    /** True when the spatial neighbor (line^1) is also in this set. */
    bool neighbor_present = false;
    std::uint64_t neighbor_payload = 0;
    /**
     * Index of the holding item when found. Valid until the set next
     * mutates; lets touchAt()/removeAt() skip a second key scan.
     */
    std::uint32_t item = 0;
};

/** Byte budget, line cap and tag price shared by one cache's sets. */
struct TadGeometry
{
    /** Physical bytes per set (72 for the Alloy TAD; more for SCC). */
    std::uint32_t budget_bytes = kTadSetBytes;
    /** Logical-line cap (28 for the Alloy TAD format). */
    std::uint32_t max_lines = kTadMaxLines;
    /** Bytes charged per (possibly shared) tag. */
    std::uint32_t tag_bytes = kTadTagBytes;

    /**
     * Item capacity: every item consumes at least one tag and holds at
     * least one line, so this bound can never be exceeded.
     */
    std::uint32_t
    capacity() const
    {
        const std::uint32_t by_tags = budget_bytes / tag_bytes;
        return by_tags < max_lines ? by_tags : max_lines;
    }
};

/**
 * One set's storage record: counters plus the first kTadInlineItems
 * items' planes. Fixed-size, cache-line aligned and trivially
 * copyable; all-zero bytes are an empty set. Only the TadSetView /
 * TadSetRef handles interpret it.
 */
class alignas(64) TadSet
{
  private:
    friend class TadSetView;
    friend class TadSetRef;

    /** Data-version payloads of slots [0]=even and [1]=odd half. */
    struct PayloadPair
    {
        std::uint64_t p[2];
    };

    std::uint16_t bytes_used_;
    std::uint8_t line_count_;
    /** Resident item count (live prefix length of every plane). */
    std::uint8_t n_;
    /** 0 while the planes are inline; else the pool block index + 1. */
    std::uint32_t spill_;
    // Inline planes. Keys and flags lead, so a probe that misses (or
    // hits, up to its payload) stays in the record's first line.
    std::uint64_t keys_[kTadInlineItems];
    std::uint8_t flags_[kTadInlineItems];
    std::uint16_t data_bytes_[kTadInlineItems];
    std::uint64_t lru_[kTadInlineItems];
    PayloadPair payloads_[kTadInlineItems];
};

static_assert(sizeof(TadSet) == 128, "TadSet record must be two lines");
static_assert(std::is_trivially_copyable_v<TadSet>);

/**
 * A cache's overflow pool: full-capacity plane blocks for the sets
 * that outgrow their inline planes, addressed by index so growing the
 * pool never invalidates a set. Freed blocks are reused; the pool's
 * footprint is its high-water mark.
 */
class TadPool
{
  public:
    explicit TadPool(const TadGeometry &geometry);

    const TadGeometry &geometry() const { return geometry_; }

    /** Items one block holds (the geometry's item capacity). */
    std::uint32_t capacity() const { return capacity_; }

    /** Claim a block (reusing a freed one first); returns its index. */
    std::uint32_t acquire();

    /** Return block @p block to the pool. */
    void release(std::uint32_t block);

    /** First word of block @p b (valid until the pool next grows). */
    std::uint64_t *
    block(std::uint32_t b)
    {
        return words_.data() + std::size_t{b} * block_words_;
    }

    /** Blocks currently held by a set (= spilled sets). */
    std::uint32_t
    blocksInUse() const
    {
        return blocks_ - static_cast<std::uint32_t>(free_.size());
    }

    /** True when @p b is a block some set currently holds. */
    bool inUse(std::uint32_t b) const;

    /** Bytes of block storage the pool has grown to. */
    std::size_t bytes() const { return words_.size() * sizeof(words_[0]); }

  private:
    TadGeometry geometry_;
    std::uint32_t capacity_;
    /** 64-bit words per block (35 bytes per item, rounded up). */
    std::size_t block_words_;
    std::uint32_t blocks_ = 0;
    std::vector<std::uint64_t> words_;
    std::vector<std::uint32_t> free_;
};

/** Read-only handle on one set: a record plus its cache's pool. */
class TadSetView
{
  public:
    TadSetView(const TadSet &record, const TadPool &pool)
        : rec_(&record), pool_(&pool)
    {
    }

    /**
     * Bytes currently consumed by tags + payloads. Maintained
     * incrementally: fits() runs inside every install's eviction loop,
     * so the answer must not cost a scan of the items.
     */
    std::uint32_t bytesUsed() const { return rec_->bytes_used_; }

    /** Valid logical lines resident (incremental, like bytesUsed). */
    std::uint32_t lineCount() const { return rec_->line_count_; }

    /** Resident items (a shared-tag pair counts once). */
    std::uint32_t itemCount() const { return rec_->n_; }

    /** True when the planes live in a pool block, not the record. */
    bool spilled() const { return rec_->spill_ != 0; }

    /**
     * Base line address of resident item @p i (the even half for a
     * shared-tag pair). For organizations that scan resident tags —
     * e.g. signature-tag aliasing checks.
     */
    LineAddr
    itemLine(std::uint32_t i) const
    {
        dice_assert(i < rec_->n_, "itemLine past live items");
        return baseOf(planes(), i);
    }

    /**
     * True when an item with @p extra_data payload bytes (plus one
     * tag) holding @p extra_lines lines would still fit.
     */
    bool
    fits(std::uint32_t extra_data, std::uint32_t extra_lines) const
    {
        const TadGeometry &g = pool_->geometry();
        return bytesUsed() + g.tag_bytes + extra_data <= g.budget_bytes &&
               lineCount() + extra_lines <= g.max_lines;
    }

    /**
     * Look up @p line; also reports a co-resident spatial neighbor.
     * Inline (with findIndex/contains below): these run on every cache
     * probe, and the scans are short enough that the call overhead
     * would rival the work.
     */
    TadLookup
    lookup(LineAddr line) const
    {
        // One key scan resolves both the line and its spatial
        // neighbor (they share a key; the neighbor is reported only
        // when the line itself is resident).
        TadLookup res;
        const Planes p = planes();
        const std::uint32_t n = rec_->n_;
        std::uint64_t m = matchMask(p, keyOf(line));
        std::uint32_t it = n;
        std::uint32_t nb = n;
        for (; m != 0; m &= m - 1) {
            const auto i = static_cast<std::uint32_t>(
                __builtin_ctzll(m));
            if (it == n && holdsAt(p, i, line))
                it = i;
            if (nb == n && holdsAt(p, i, line ^ 1))
                nb = i;
            if (it != n && nb != n)
                break;
        }
        if (it == n)
            return res;

        const std::uint8_t f = p.flags[it];
        const std::uint32_t slot =
            (f & kPair) ? static_cast<std::uint32_t>(line & 1) : 0u;
        res.found = true;
        res.item = it;
        res.dirty = (f & dirtyBit(slot)) != 0;
        res.bai = (f & kBai) != 0;
        res.in_pair = (f & kPair) != 0;
        res.payload = p.payloads[it].p[slot];
        res.item_bytes = p.data_bytes[it];

        if (nb != n) {
            const std::uint8_t nf = p.flags[nb];
            const std::uint32_t nslot =
                (nf & kPair) ? static_cast<std::uint32_t>(~line & 1)
                             : 0u;
            res.neighbor_present = true;
            res.neighbor_payload = p.payloads[nb].p[nslot];
        }
        return res;
    }

    /** True when @p line is resident. */
    bool
    contains(LineAddr line) const
    {
        return findIndex(planes(), line) != rec_->n_;
    }

    /**
     * Recompute byte/line accounting from the planes and check it
     * against the incremental counters, plus per-item flag sanity and
     * the record's inline/spilled state. O(items) — for tests and
     * debug sweeps, not the hot loop.
     */
    bool auditStorage() const;

  protected:
    // flags bit layout. Singles keep their line in slot 0 and record
    // the address low bit in kOdd; pairs use slot = line & 1 and an
    // always-even base, so kOdd stays clear.
    static constexpr std::uint8_t kValid0 = 1u << 0;
    static constexpr std::uint8_t kValid1 = 1u << 1;
    static constexpr std::uint8_t kDirty0 = 1u << 2;
    static constexpr std::uint8_t kDirty1 = 1u << 3;
    static constexpr std::uint8_t kPair = 1u << 4;
    static constexpr std::uint8_t kBai = 1u << 5;
    static constexpr std::uint8_t kOdd = 1u << 6;

    using PayloadPair = TadSet::PayloadPair;

    static constexpr std::uint8_t
    validBit(std::uint32_t slot)
    {
        return slot != 0 ? kValid1 : kValid0;
    }

    static constexpr std::uint8_t
    dirtyBit(std::uint32_t slot)
    {
        return slot != 0 ? kDirty1 : kDirty0;
    }

    /** The five planes of a set, wherever they currently live. */
    struct Planes
    {
        std::uint64_t *keys;
        std::uint64_t *lru;
        PayloadPair *payloads;
        std::uint16_t *data_bytes;
        std::uint8_t *flags;
    };

    /**
     * Planes of a pool block of @p cap items. Layout: [0, 8c) keys |
     * [8c, 16c) lru | [16c, 32c) payloads | [32c, 34c) data_bytes |
     * [34c, 35c) flags; every plane start suits its element type.
     */
    static Planes
    blockPlanes(std::uint64_t *b, std::uint32_t cap)
    {
        auto *data_bytes = reinterpret_cast<std::uint16_t *>(b + 4 * cap);
        return Planes{b, b + cap,
                      reinterpret_cast<PayloadPair *>(b + 2 * cap),
                      data_bytes,
                      reinterpret_cast<std::uint8_t *>(data_bytes + cap)};
    }

    /** Planes of the inline storage of record @p r. */
    static Planes
    inlinePlanes(TadSet &r)
    {
        return Planes{r.keys_, r.lru_, r.payloads_, r.data_bytes_,
                      r.flags_};
    }

    /**
     * The set's planes. The handles only ever point at non-const
     * storage (a TadSetArray's records and pool); a view merely
     * promises not to write through them.
     */
    Planes
    planes() const
    {
        TadSet &r = const_cast<TadSet &>(*rec_);
        if (r.spill_ == 0)
            return inlinePlanes(r);
        auto &pool = const_cast<TadPool &>(*pool_);
        return blockPlanes(pool.block(r.spill_ - 1), pool.capacity());
    }

    /** Bit i set iff item i's key is @p key. */
    std::uint64_t
    matchMask(const Planes &p, std::uint64_t key) const
    {
        return simd::matchMaskU64(p.keys, rec_->n_, key);
    }

    /** First index of the minimum LRU stamp, never @p skip. */
    std::uint32_t
    minLruIndex(const Planes &p, std::uint32_t skip) const
    {
        return static_cast<std::uint32_t>(
            simd::minIndexU64(p.lru, rec_->n_, skip));
    }

    /** True when item @p i (whose key already matched) holds @p line. */
    static bool
    holdsAt(const Planes &p, std::uint32_t i, LineAddr line)
    {
        const std::uint8_t f = p.flags[i];
        if (f & kPair)
            return (f & validBit(static_cast<std::uint32_t>(line & 1))) !=
                   0;
        return (f & kValid0) != 0 &&
               ((f & kOdd) != 0) == ((line & 1) != 0);
    }

    /** Index of the item holding @p line, or itemCount() when absent. */
    std::uint32_t
    findIndex(const Planes &p, LineAddr line) const
    {
        for (std::uint64_t m = matchMask(p, keyOf(line)); m != 0;
             m &= m - 1) {
            const auto i = static_cast<std::uint32_t>(
                __builtin_ctzll(m));
            if (holdsAt(p, i, line))
                return i;
        }
        return rec_->n_;
    }

    /** Base line address of item @p i (even line for pairs). */
    static LineAddr
    baseOf(const Planes &p, std::uint32_t i)
    {
        const LineAddr even = p.keys[i] << 1;
        return (p.flags[i] & kOdd) ? (even | 1) : even;
    }

    /** Scan key of an item: a line and its pair neighbor share one. */
    static std::uint64_t
    keyOf(LineAddr line)
    {
        return line >> 1;
    }

    const TadSet *rec_;
    const TadPool *pool_;
};

/** Mutable handle on one set (see TadSetView). */
class TadSetRef : public TadSetView
{
  public:
    TadSetRef(TadSet &record, TadPool &pool) : TadSetView(record, pool) {}

    /** Refresh LRU state of the item holding @p line. */
    void
    touch(LineAddr line, std::uint64_t lru_stamp) const
    {
        const Planes p = planes();
        const std::uint32_t i = findIndex(p, line);
        if (i != rec_->n_)
            p.lru[i] = lru_stamp;
    }

    /**
     * Refresh LRU state of item @p item — a TadLookup::item from a
     * lookup with no intervening mutation; skips the key re-scan.
     */
    void
    touchAt(std::uint32_t item, std::uint64_t lru_stamp) const
    {
        dice_assert(item < rec_->n_, "touchAt past live items");
        planes().lru[item] = lru_stamp;
    }

    /** Mark a resident line dirty and replace its payload. */
    bool
    markDirty(LineAddr line, std::uint64_t payload) const
    {
        const Planes p = planes();
        const std::uint32_t i = findIndex(p, line);
        if (i == rec_->n_)
            return false;
        const std::uint32_t slot =
            (p.flags[i] & kPair) ? static_cast<std::uint32_t>(line & 1)
                                 : 0u;
        p.flags[i] |= dirtyBit(slot);
        p.payloads[i].p[slot] = payload;
        return true;
    }

    /**
     * Remove @p line. A pair containing it keeps its other half (the
     * item reverts to a single with @p remaining_bytes payload bytes).
     * @return the removed line's state when it was dirty.
     */
    std::optional<EvictedLine> remove(LineAddr line,
                                      std::uint32_t remaining_bytes) const;

    /**
     * remove() for a line whose item index is already known (a
     * TadLookup::item with no intervening mutation): skips the scan.
     */
    std::optional<EvictedLine> removeAt(std::uint32_t item, LineAddr line,
                                        std::uint32_t remaining_bytes) const;

    /**
     * Evict the least-recently-used whole item, never the item holding
     * @p protect. Dirty halves are appended to @p writebacks.
     * @return false when nothing evictable remains.
     */
    bool evictLru(LineAddr protect, WritebackList &writebacks) const;

    /** Insert a single-line item; caller must have made room. */
    void insertSingle(LineAddr line, std::uint32_t data_bytes, bool dirty,
                      std::uint64_t payload, bool bai,
                      std::uint64_t lru_stamp) const;

    /**
     * Insert (or replace the singles with) a shared-tag pair for lines
     * (base, base^1); caller must have made room *after* accounting for
     * the removal of any existing singles of the pair.
     */
    void insertPair(LineAddr base, std::uint32_t data_bytes,
                    bool dirty0, std::uint64_t payload0, bool dirty1,
                    std::uint64_t payload1, bool bai,
                    std::uint64_t lru_stamp) const;

  private:
    TadSet &rec() const { return const_cast<TadSet &>(*rec_); }
    TadPool &pool() const { return const_cast<TadPool &>(*pool_); }

    /** Append one item (spilling first when the inline planes are full). */
    void append(LineAddr key_line, std::uint8_t flags,
                std::uint32_t data_bytes, PayloadPair payload,
                std::uint32_t lines, std::uint64_t lru_stamp) const;

    void eraseAt(const Planes &p, std::uint32_t i) const;

    /** Move the planes between the record and a pool block. */
    void spill() const;
    void unspill() const;
};

/**
 * All sets of one cache: a zero-filled record array committed lazily
 * by the OS (an anonymous mapping: building a cache writes nothing per
 * set, and untouched sets cost no memory), plus the cache's pool.
 */
class TadSetArray
{
  public:
    explicit TadSetArray(std::size_t sets,
                         const TadGeometry &geometry = TadGeometry{});
    ~TadSetArray();

    TadSetArray(const TadSetArray &) = delete;
    TadSetArray &operator=(const TadSetArray &) = delete;

    std::size_t size() const { return size_; }

    TadSetRef operator[](std::size_t i) { return {recs_[i], pool_}; }
    TadSetView operator[](std::size_t i) const { return {recs_[i], pool_}; }

    /**
     * Start loading set @p i's record (both of its lines) into the
     * host caches ahead of a probe. A spilled set's pool block is not
     * prefetched: finding it means reading the record first.
     */
    void
    prefetch(std::size_t i) const
    {
        const char *rec = reinterpret_cast<const char *>(recs_ + i);
        __builtin_prefetch(rec);
        __builtin_prefetch(rec + 64);
    }

    /** Bytes of tags + payloads resident across all sets. O(sets). */
    std::uint64_t bytesUsed() const;

    /** Sets whose planes currently live in the overflow pool. */
    std::uint32_t spilledSets() const { return pool_.blocksInUse(); }

    /** Bytes the overflow pool has grown to. */
    std::size_t poolBytes() const { return pool_.bytes(); }

  private:
    TadSet *recs_ = nullptr;
    std::size_t size_;
    TadPool pool_;
};

} // namespace dice

#endif // DICE_CORE_TAD_HPP
