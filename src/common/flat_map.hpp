/**
 * @file
 * Cache-friendly associative storage for the simulation hot loop.
 *
 * The simulator's per-reference state (line versions, write counts)
 * used to live in node-based std::unordered_map instances — one
 * pointer chase plus one heap allocation per new key, repeated
 * billions of times across a sweep. FlatMap<K, V> replaces them: an
 * open-addressed hash map over contiguous arrays with power-of-two
 * capacity, linear probing, and tombstone-free backward-shift erasure.
 * Inserts allocate only on (amortized, doubling) growth, so a
 * `reserve`d map runs allocation-free. It is deterministic: identical
 * operation sequences produce identical contents, so simulation
 * results stay bit-reproducible.
 */

#ifndef DICE_COMMON_FLAT_MAP_HPP
#define DICE_COMMON_FLAT_MAP_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace dice
{

/** Default FlatMap hash: full-avalanche mixing of integral keys. */
struct Mix64Hash
{
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return mix64(key);
    }
};

/**
 * Open-addressed hash map with linear probing.
 *
 * Supports exactly what the simulator needs — find / operator[] /
 * insert_or_assign / erase / clear / reserve — over one flat slot
 * array that interleaves key, value, and occupancy byte, so a probe
 * run touches consecutive bytes of one or two cache lines instead of
 * three parallel arrays. Erasure backward-shifts the displaced run
 * instead of leaving tombstones, keeping probe lengths tight on
 * erase-heavy workloads. References returned by find()/operator[] are
 * invalidated by any mutating call (growth rehashes in place).
 */
template <typename K, typename V, typename Hash = Mix64Hash>
class FlatMap
{
  public:
    /** @param expected_keys Pre-sizes the table (see reserve()). */
    explicit FlatMap(std::size_t expected_keys = 0)
    {
        if (expected_keys > 0)
            reserve(expected_keys);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Current slot count (always a power of two, or zero). */
    std::size_t capacity() const { return slots_.size(); }

    /** Grow so @p expected_keys fit without further rehashing. */
    void
    reserve(std::size_t expected_keys)
    {
        std::size_t want = 16;
        // Max load factor 3/4: grow until the budget fits.
        while (want * 3 / 4 < expected_keys)
            want *= 2;
        if (want > capacity())
            rehash(want);
    }

    /** Drop all entries; keeps the allocated slots. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.used = 0;
        size_ = 0;
    }

    /** Pointer to the value of @p key, or nullptr when absent. */
    V *
    find(const K &key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = Hash{}(key)&mask_;; i = (i + 1) & mask_) {
            if (!slots_[i].used)
                return nullptr;
            if (slots_[i].key == key)
                return &slots_[i].val;
        }
    }

    const V *
    find(const K &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(const K &key) const { return find(key) != nullptr; }

    /**
     * Hint the cache to load @p key's home slot. Behavior-neutral: use
     * when the lookup is known to follow other long work it can hide
     * under (e.g. the main-memory version probe behind an L4 read).
     */
    void
    prefetch(const K &key) const
    {
        if (!slots_.empty())
            __builtin_prefetch(slots_.data() + (Hash{}(key) & mask_));
    }

    /** Value of @p key, or @p fallback when absent. */
    V
    valueOr(const K &key, V fallback) const
    {
        const V *v = find(key);
        return v ? *v : fallback;
    }

    /** Reference to the value of @p key, value-initialized if new. */
    V &
    operator[](const K &key)
    {
        growIfNeeded();
        Slot &s = slots_[probe(key)];
        if (!s.used) {
            s.used = 1;
            s.key = key;
            s.val = V{};
            ++size_;
        }
        return s.val;
    }

    /** Insert or overwrite; returns true when the key was new. */
    bool
    insert_or_assign(const K &key, V value)
    {
        growIfNeeded();
        Slot &s = slots_[probe(key)];
        const bool inserted = !s.used;
        if (inserted) {
            s.used = 1;
            s.key = key;
            ++size_;
        }
        s.val = std::move(value);
        return inserted;
    }

    /**
     * Remove @p key, backward-shifting the displaced probe run so no
     * tombstone is left behind. Returns true when the key was present.
     */
    bool
    erase(const K &key)
    {
        if (size_ == 0)
            return false;
        std::size_t i = Hash{}(key)&mask_;
        for (;; i = (i + 1) & mask_) {
            if (!slots_[i].used)
                return false;
            if (slots_[i].key == key)
                break;
        }
        // Shift successors whose home slot precedes the emptied hole
        // back into it, preserving every probe chain.
        std::size_t hole = i;
        for (std::size_t j = (hole + 1) & mask_; slots_[j].used;
             j = (j + 1) & mask_) {
            const std::size_t home = Hash{}(slots_[j].key) & mask_;
            // Move j into the hole unless j's home lies after the hole
            // (cyclically), in which case the chain stays intact.
            const bool reachable =
                ((j - home) & mask_) >= ((j - hole) & mask_);
            if (reachable) {
                slots_[hole].key = std::move(slots_[j].key);
                slots_[hole].val = std::move(slots_[j].val);
                hole = j;
            }
        }
        slots_[hole].used = 0;
        --size_;
        return true;
    }

  private:
    /** One probe slot: key, value, and occupancy interleaved. */
    struct Slot
    {
        K key;
        V val;
        std::uint8_t used;
    };

    /** Slot where @p key lives or must be inserted (table non-empty). */
    std::size_t
    probe(const K &key) const
    {
        std::size_t i = Hash{}(key)&mask_;
        while (slots_[i].used && !(slots_[i].key == key))
            i = (i + 1) & mask_;
        return i;
    }

    void
    growIfNeeded()
    {
        if (capacity() == 0 || (size_ + 1) * 4 > capacity() * 3)
            rehash(capacity() == 0 ? 16 : capacity() * 2);
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Slot> old = std::move(slots_);

        slots_.assign(new_capacity, Slot{});
        mask_ = new_capacity - 1;

        for (Slot &s : old) {
            if (!s.used)
                continue;
            const std::size_t j = probe(s.key);
            slots_[j].used = 1;
            slots_[j].key = std::move(s.key);
            slots_[j].val = std::move(s.val);
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace dice

#endif // DICE_COMMON_FLAT_MAP_HPP
