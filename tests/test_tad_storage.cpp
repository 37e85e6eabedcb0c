/**
 * @file
 * TAD set storage tests: a fresh set array starts all-empty without
 * per-set initialization, and driving the DICE organization allocates
 * no heap memory per set — counted with a replaced global operator
 * new (the micro_simloop allocation-gate scheme), which is why these
 * tests own a binary.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/compressed.hpp"
#include "workloads/datagen.hpp"

namespace
{
std::atomic<std::size_t> g_heap_allocs{0};
} // namespace

// GCC cannot see that the replaced operator new below is the matching
// malloc-based allocator for these frees.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dice
{
namespace
{

/** Lines of mixed compressibility, so sets hold one to many items. */
class MixedClassSource : public LineDataSource
{
  public:
    Line
    bytes(LineAddr line, std::uint64_t version) const override
    {
        constexpr CompClass kClasses[] = {
            CompClass::Zero, CompClass::Ptr,  CompClass::Int,
            CompClass::C36,  CompClass::Half, CompClass::Rand,
        };
        return DataGenerator::synthesize(kClasses[mix64(line) % 6], line,
                                         version);
    }
};

TEST(TadSetArray, FreshArrayIsAllEmpty)
{
    // The DICE default cell's set count (8 MiB / 64 B).
    const std::size_t kSets = std::size_t{1} << 17;
    const TadSetArray sets(kSets);
    ASSERT_EQ(sets.size(), kSets);
    for (std::size_t i = 0; i < kSets; ++i) {
        const TadSetView s = sets[i];
        ASSERT_EQ(s.itemCount(), 0u) << "set " << i;
        ASSERT_EQ(s.bytesUsed(), 0u) << "set " << i;
        ASSERT_EQ(s.lineCount(), 0u) << "set " << i;
        ASSERT_FALSE(s.spilled()) << "set " << i;
        ASSERT_FALSE(s.contains(i)) << "set " << i;
        ASSERT_TRUE(s.auditStorage()) << "set " << i;
    }
    EXPECT_EQ(sets.bytesUsed(), 0u);
    EXPECT_EQ(sets.spilledSets(), 0u);
    EXPECT_EQ(sets.poolBytes(), 0u);
}

TEST(TadSetArray, DiceStreamMakesNoPerSetAllocation)
{
    // A short DICE access stream the way System drives the L4: a read
    // per reference, a fill after every miss, and dirty writebacks.
    const MixedClassSource src;
    CompressedCacheConfig cfg;
    cfg.base.capacity = 1_MiB; // 16 Ki sets
    CompressedDramCache l4(cfg, src);

    constexpr int kRefs = 40'000;
    Rng rng(2017);
    std::vector<LineAddr> stream(kRefs);
    std::vector<bool> writes(kRefs);
    for (int i = 0; i < kRefs; ++i) {
        stream[i] = rng.below(std::uint64_t{1} << 18);
        writes[i] = rng.chance(0.2);
    }

    const std::size_t start = g_heap_allocs.load();
    Cycle now = 0;
    std::uint64_t version = 1;
    for (int i = 0; i < kRefs; ++i) {
        now += 50;
        if (writes[i]) {
            l4.install(stream[i], ++version, true, now, false);
        } else if (!l4.read(stream[i], now).hit) {
            l4.install(stream[i], ++version, false, now, true);
        }
    }
    const std::size_t allocs = g_heap_allocs.load() - start;

    std::unordered_set<std::uint64_t> touched;
    for (const LineAddr line : stream) {
        touched.insert(l4.indexer().tsi(line));
        touched.insert(l4.indexer().bai(line));
    }
    ASSERT_GT(touched.size(), 8000u);
    ASSERT_GT(l4.validLines(), 8000u);
    // Only the overflow pool grows, geometrically, and only for the
    // few sets that outgrow their inline items (the stream does make
    // some); one heap block per touched set would be thousands.
    const StatGroup g = l4.stats();
    EXPECT_GT(g.get("overflow_pool_bytes"), 0.0);
    EXPECT_LT(g.get("spilled_sets"), 0.05 * double(touched.size()));
    EXPECT_LE(allocs, 64u) << "sets touched: " << touched.size();
}

} // namespace
} // namespace dice
