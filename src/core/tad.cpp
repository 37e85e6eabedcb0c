#include "tad.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace dice
{

TadPool::TadPool(const TadGeometry &geometry)
    : geometry_(geometry), capacity_(geometry.capacity()),
      block_words_((35u * capacity_ + 7u) / 8u)
{
    // The record's counters and the 64-bit match masks bound the
    // geometries a set can represent.
    dice_assert(geometry.tag_bytes > 0, "zero-byte tags");
    dice_assert(geometry.budget_bytes <= 0xFFFF,
                "set budget %u exceeds the record's byte counter",
                geometry.budget_bytes);
    dice_assert(geometry.max_lines <= 0xFF,
                "line cap %u exceeds the record's line counter",
                geometry.max_lines);
    dice_assert(capacity_ <= 64, "set capacity %u exceeds a match mask",
                capacity_);
}

std::uint32_t
TadPool::acquire()
{
    if (!free_.empty()) {
        const std::uint32_t b = free_.back();
        free_.pop_back();
        return b;
    }
    words_.resize(words_.size() + block_words_);
    return blocks_++;
}

void
TadPool::release(std::uint32_t block)
{
    dice_assert(block < blocks_, "release of unknown pool block %u",
                block);
    free_.push_back(block);
}

bool
TadPool::inUse(std::uint32_t b) const
{
    return b < blocks_ &&
           std::find(free_.begin(), free_.end(), b) == free_.end();
}

void
TadSetRef::spill() const
{
    TadSet &r = rec();
    const Planes from = inlinePlanes(r);
    const std::uint32_t block = pool().acquire();
    r.spill_ = block + 1;
    // Planes move in order, so item indices (and with them every
    // lookup and LRU tie-break) are unchanged.
    const Planes to = planes();
    const std::uint32_t n = r.n_;
    std::memcpy(to.keys, from.keys, n * sizeof(std::uint64_t));
    std::memcpy(to.lru, from.lru, n * sizeof(std::uint64_t));
    std::memcpy(to.payloads, from.payloads, n * sizeof(PayloadPair));
    std::memcpy(to.data_bytes, from.data_bytes, n * sizeof(std::uint16_t));
    std::memcpy(to.flags, from.flags, n);
}

void
TadSetRef::unspill() const
{
    TadSet &r = rec();
    const Planes from = planes();
    const Planes to = inlinePlanes(r);
    const std::uint32_t n = r.n_;
    std::memcpy(to.keys, from.keys, n * sizeof(std::uint64_t));
    std::memcpy(to.lru, from.lru, n * sizeof(std::uint64_t));
    std::memcpy(to.payloads, from.payloads, n * sizeof(PayloadPair));
    std::memcpy(to.data_bytes, from.data_bytes, n * sizeof(std::uint16_t));
    std::memcpy(to.flags, from.flags, n);
    pool().release(r.spill_ - 1);
    r.spill_ = 0;
}

void
TadSetRef::eraseAt(const Planes &p, std::uint32_t i) const
{
    TadSet &r = rec();
    const std::uint32_t tail = r.n_ - i - 1;
    if (tail != 0) {
        std::memmove(p.keys + i, p.keys + i + 1,
                     tail * sizeof(std::uint64_t));
        std::memmove(p.lru + i, p.lru + i + 1,
                     tail * sizeof(std::uint64_t));
        std::memmove(p.payloads + i, p.payloads + i + 1,
                     tail * sizeof(PayloadPair));
        std::memmove(p.data_bytes + i, p.data_bytes + i + 1,
                     tail * sizeof(std::uint16_t));
        std::memmove(p.flags + i, p.flags + i + 1, tail);
    }
    --r.n_;
    // Move back inline only once a spare inline slot remains, so a
    // full set churning one item never ping-pongs through the pool.
    if (r.spill_ != 0 && r.n_ < kTadInlineItems)
        unspill();
}

std::optional<EvictedLine>
TadSetRef::remove(LineAddr line, std::uint32_t remaining_bytes) const
{
    const std::uint32_t i = findIndex(planes(), line);
    if (i == rec_->n_)
        return std::nullopt;
    return removeAt(i, line, remaining_bytes);
}

std::optional<EvictedLine>
TadSetRef::removeAt(std::uint32_t i, LineAddr line,
                    std::uint32_t remaining_bytes) const
{
    TadSet &r = rec();
    const Planes p = planes();
    dice_assert(i < r.n_ && holdsAt(p, i, line), "removeAt of absent line");
    const std::uint32_t tag_bytes = pool_->geometry().tag_bytes;

    std::optional<EvictedLine> out;
    const std::uint8_t f = p.flags[i];
    if (!(f & kPair)) {
        if (f & kDirty0)
            out = EvictedLine{baseOf(p, i), true, p.payloads[i].p[0]};
        r.bytes_used_ = static_cast<std::uint16_t>(
            r.bytes_used_ - tag_bytes - p.data_bytes[i]);
        --r.line_count_;
        eraseAt(p, i);
        return out;
    }

    const auto slot = static_cast<std::uint32_t>(line & 1);
    if (f & dirtyBit(slot))
        out = EvictedLine{line, true, p.payloads[i].p[slot]};
    p.flags[i] &= static_cast<std::uint8_t>(
        ~(validBit(slot) | dirtyBit(slot)));
    --r.line_count_;

    const std::uint32_t other = slot ^ 1u;
    if (!(p.flags[i] & validBit(other))) {
        r.bytes_used_ = static_cast<std::uint16_t>(
            r.bytes_used_ - tag_bytes - p.data_bytes[i]);
        eraseAt(p, i);
        return out;
    }
    // The pair's payload shrinks to the survivor's single-line size.
    r.bytes_used_ = static_cast<std::uint16_t>(
        r.bytes_used_ + remaining_bytes - p.data_bytes[i]);
    // The survivor becomes a single-line item (same key, same LRU).
    const bool survivor_dirty = (p.flags[i] & dirtyBit(other)) != 0;
    std::uint8_t nf = kValid0;
    if (survivor_dirty)
        nf |= kDirty0;
    if (p.flags[i] & kBai)
        nf |= kBai;
    if (other != 0)
        nf |= kOdd;
    p.flags[i] = nf;
    p.payloads[i].p[0] = p.payloads[i].p[other];
    p.payloads[i].p[1] = 0;
    p.data_bytes[i] = static_cast<std::uint16_t>(remaining_bytes);
    return out;
}

bool
TadSetRef::evictLru(LineAddr protect, WritebackList &writebacks) const
{
    TadSet &r = rec();
    const Planes p = planes();
    const std::uint32_t n = r.n_;

    // At most one item is unevictable: the one holding `protect`, or
    // the pair over `protect`'s key (which may only be skipped, never
    // split). Those share one key, and a pair excludes co-resident
    // singles of its key, so a single key scan finds the one skip.
    std::uint32_t skip = n;
    for (std::uint64_t m = matchMask(p, keyOf(protect)); m != 0;
         m &= m - 1) {
        const auto i = static_cast<std::uint32_t>(__builtin_ctzll(m));
        if ((p.flags[i] & kPair) || holdsAt(p, i, protect)) {
            skip = i;
            break;
        }
    }

    const std::uint32_t victim = minLruIndex(p, skip);
    if (victim == n)
        return false;

    const std::uint8_t f = p.flags[victim];
    const LineAddr base = baseOf(p, victim);
    std::uint32_t valid_lines = 0;
    for (std::uint32_t slot = 0; slot < 2; ++slot) {
        if (!(f & validBit(slot)))
            continue;
        ++valid_lines;
        if (f & dirtyBit(slot)) {
            writebacks.push_back(EvictedLine{
                base | slot, true, p.payloads[victim].p[slot]});
        }
    }
    r.bytes_used_ = static_cast<std::uint16_t>(
        r.bytes_used_ - pool_->geometry().tag_bytes -
        p.data_bytes[victim]);
    r.line_count_ = static_cast<std::uint8_t>(r.line_count_ - valid_lines);
    eraseAt(p, victim);
    return true;
}

void
TadSetRef::append(LineAddr key_line, std::uint8_t flags,
                  std::uint32_t data_bytes, PayloadPair payload,
                  std::uint32_t lines, std::uint64_t lru_stamp) const
{
    // Uniqueness (no duplicate resident line) is the caller's contract;
    // auditStorage() checks it off the hot path.
    TadSet &r = rec();
    const TadGeometry &g = pool_->geometry();
    dice_assert(r.n_ < pool_->capacity(), "set overfull: %u items",
                r.n_ + 1);
    if (r.spill_ == 0 && r.n_ == kTadInlineItems)
        spill();
    const Planes p = planes();
    const std::uint32_t i = r.n_++;
    p.keys[i] = keyOf(key_line);
    p.lru[i] = lru_stamp;
    p.payloads[i] = payload;
    p.data_bytes[i] = static_cast<std::uint16_t>(data_bytes);
    p.flags[i] = flags;
    const std::uint32_t bytes = r.bytes_used_ + g.tag_bytes + data_bytes;
    const std::uint32_t total_lines = r.line_count_ + lines;
    dice_assert(bytes <= g.budget_bytes, "set overfull: %u bytes", bytes);
    dice_assert(total_lines <= g.max_lines, "set overfull: %u lines",
                total_lines);
    r.bytes_used_ = static_cast<std::uint16_t>(bytes);
    r.line_count_ = static_cast<std::uint8_t>(total_lines);
}

void
TadSetRef::insertSingle(LineAddr line, std::uint32_t data_bytes, bool dirty,
                        std::uint64_t payload, bool bai,
                        std::uint64_t lru_stamp) const
{
    std::uint8_t f = kValid0;
    if (dirty)
        f |= kDirty0;
    if (bai)
        f |= kBai;
    if (line & 1)
        f |= kOdd;
    append(line, f, data_bytes, PayloadPair{{payload, 0}}, 1, lru_stamp);
}

void
TadSetRef::insertPair(LineAddr base, std::uint32_t data_bytes,
                      bool dirty0, std::uint64_t payload0, bool dirty1,
                      std::uint64_t payload1, bool bai,
                      std::uint64_t lru_stamp) const
{
    dice_assert((base & 1) == 0, "pair base must be even");
    std::uint8_t f = kPair | kValid0 | kValid1;
    if (dirty0)
        f |= kDirty0;
    if (dirty1)
        f |= kDirty1;
    if (bai)
        f |= kBai;
    append(base, f, data_bytes, PayloadPair{{payload0, payload1}}, 2,
           lru_stamp);
}

bool
TadSetView::auditStorage() const
{
    const TadGeometry &g = pool_->geometry();
    const std::uint32_t n = rec_->n_;
    if (n > pool_->capacity())
        return false;
    // Inline planes hold at most kTadInlineItems; a spilled set owns
    // a live pool block and holds at least kTadInlineItems.
    if (rec_->spill_ == 0 ? n > kTadInlineItems
                          : (n < kTadInlineItems ||
                             !pool_->inUse(rec_->spill_ - 1)))
        return false;

    const Planes p = planes();
    const std::uint32_t payload_bytes = simd::sumU16(p.data_bytes, n);
    const std::uint32_t bytes = payload_bytes + g.tag_bytes * n;
    std::uint32_t lines = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint8_t f = p.flags[i];
        lines += popcount64(f & (kValid0 | kValid1));
        // Items must hold at least one valid line; singles keep theirs
        // in slot 0 and pairs keep an even base (kOdd clear).
        if (!(f & (kValid0 | kValid1)))
            return false;
        if (!(f & kPair) && ((f & kValid1) || !(f & kValid0)))
            return false;
        if ((f & kPair) && (f & kOdd))
            return false;
        // No line may be resident twice: items sharing a key must be
        // singles of opposite halves (a pair claims both halves).
        for (std::uint32_t j = 0; j < i; ++j) {
            if (p.keys[j] != p.keys[i])
                continue;
            const std::uint8_t h = p.flags[j];
            if ((f & kPair) || (h & kPair))
                return false;
            if ((f & kOdd) == (h & kOdd))
                return false;
        }
    }
    return bytes == bytesUsed() && lines == lineCount() &&
           bytesUsed() <= g.budget_bytes && lineCount() <= g.max_lines;
}

TadSetArray::TadSetArray(std::size_t sets, const TadGeometry &geometry)
    : size_(sets), pool_(geometry)
{
    if (sets == 0)
        return;
    // An anonymous private mapping is zero-filled and committed page
    // by page on first touch, which is exactly an array of empty sets.
    // (A std::vector or calloc would write every byte when the
    // allocator serves the request from the heap.)
    void *p = ::mmap(nullptr, sets * sizeof(TadSet), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        dice_panic("cannot map %zu TAD sets", sets);
    recs_ = static_cast<TadSet *>(p);
    // Probes land on random records across the whole array, so with
    // 4-KiB pages nearly every probe also misses the TLB. Huge pages
    // are only a hint: where the kernel declines, nothing changes.
    ::madvise(p, sets * sizeof(TadSet), MADV_HUGEPAGE);
}

TadSetArray::~TadSetArray()
{
    if (recs_ != nullptr)
        ::munmap(recs_, size_ * sizeof(TadSet));
}

std::uint64_t
TadSetArray::bytesUsed() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < size_; ++i)
        total += (*this)[i].bytesUsed();
    return total;
}

} // namespace dice
