/**
 * @file
 * TAD set-layout tests: capacity accounting, shared-tag pairs, LRU
 * eviction, and the 72-B / 28-line invariants of Figure 5.
 */

#include <gtest/gtest.h>

#include "core/tad.hpp"

namespace dice
{
namespace
{

TEST(TadSet, EmptySet)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    EXPECT_EQ(s.bytesUsed(), 0u);
    EXPECT_EQ(s.lineCount(), 0u);
    EXPECT_FALSE(s.lookup(5).found);
    EXPECT_FALSE(s.contains(5));
}

TEST(TadSet, SingleInsertAccounting)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertSingle(10, 20, false, 1, true, 1);
    EXPECT_EQ(s.bytesUsed(), 24u); // 4-B tag + 20-B payload
    EXPECT_EQ(s.lineCount(), 1u);
    const TadLookup lk = s.lookup(10);
    EXPECT_TRUE(lk.found);
    EXPECT_FALSE(lk.dirty);
    EXPECT_TRUE(lk.bai);
    EXPECT_FALSE(lk.in_pair);
    EXPECT_EQ(lk.payload, 1u);
}

TEST(TadSet, UncompressedSingleFitsExactlyOnce)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    EXPECT_TRUE(s.fits(64, 1));
    s.insertSingle(10, 64, false, 0, false, 1);
    EXPECT_EQ(s.bytesUsed(), 68u);
    // 68 + 4 (tag) = 72 fits exactly; any payload byte would not.
    EXPECT_TRUE(s.fits(0, 1));
    EXPECT_FALSE(s.fits(1, 1));
}

TEST(TadSet, ZeroByteLineSharesTheLastFourBytes)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertSingle(10, 64, false, 0, false, 1);
    EXPECT_TRUE(s.fits(0, 1));
    s.insertSingle(42, 0, false, 0, false, 2);
    EXPECT_EQ(s.bytesUsed(), 72u);
    EXPECT_EQ(s.lineCount(), 2u);
}

TEST(TadSet, PairInsertAndLookup)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertPair(20, 68, true, 11, false, 22, true, 1);
    EXPECT_EQ(s.bytesUsed(), 72u);
    EXPECT_EQ(s.lineCount(), 2u);

    const TadLookup even = s.lookup(20);
    EXPECT_TRUE(even.found);
    EXPECT_TRUE(even.dirty);
    EXPECT_TRUE(even.in_pair);
    EXPECT_EQ(even.payload, 11u);
    EXPECT_TRUE(even.neighbor_present);
    EXPECT_EQ(even.neighbor_payload, 22u);

    const TadLookup odd = s.lookup(21);
    EXPECT_TRUE(odd.found);
    EXPECT_FALSE(odd.dirty);
    EXPECT_EQ(odd.payload, 22u);
}

TEST(TadSet, NeighborAcrossSeparateItems)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertSingle(30, 16, false, 5, true, 1);
    s.insertSingle(31, 16, false, 6, true, 2);
    const TadLookup lk = s.lookup(30);
    EXPECT_TRUE(lk.neighbor_present);
    EXPECT_EQ(lk.neighbor_payload, 6u);
    EXPECT_FALSE(lk.in_pair);
}

TEST(TadSet, RemoveSingle)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertSingle(10, 20, true, 9, false, 1);
    const auto wb = s.remove(10, 0);
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(wb->line, 10u);
    EXPECT_EQ(wb->payload, 9u);
    EXPECT_EQ(s.lineCount(), 0u);
    EXPECT_EQ(s.bytesUsed(), 0u);
}

TEST(TadSet, RemoveCleanReturnsNothing)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertSingle(10, 20, false, 9, false, 1);
    EXPECT_FALSE(s.remove(10, 0).has_value());
}

TEST(TadSet, RemoveHalfOfPairLeavesSurvivorSingle)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertPair(20, 68, false, 11, true, 22, true, 1);
    const auto wb = s.remove(20, 36); // survivor re-sized to 36 B
    EXPECT_FALSE(wb.has_value());     // even half was clean
    EXPECT_FALSE(s.contains(20));
    EXPECT_TRUE(s.contains(21));
    EXPECT_EQ(s.bytesUsed(), 40u); // 4 + 36
    const TadLookup lk = s.lookup(21);
    EXPECT_TRUE(lk.dirty);
    EXPECT_FALSE(lk.in_pair);
    EXPECT_EQ(lk.payload, 22u);
}

TEST(TadSet, LookupReportsStoredItemBytes)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    // A single reports its own size; both halves of a pair report the
    // pair's joint size.
    s.insertSingle(10, 20, false, 1, false, 1);
    s.insertPair(20, 30, false, 11, false, 22, false, 2);
    EXPECT_EQ(s.lookup(10).item_bytes, 20u);
    EXPECT_EQ(s.lookup(20).item_bytes, 30u);
    EXPECT_EQ(s.lookup(21).item_bytes, 30u);

    // removeAt splitting the pair leaves the survivor a single of the
    // size it was handed.
    const TadLookup even = s.lookup(20);
    s.removeAt(even.item, 20, 17);
    const TadLookup survivor = s.lookup(21);
    ASSERT_TRUE(survivor.found);
    EXPECT_FALSE(survivor.in_pair);
    EXPECT_EQ(survivor.item_bytes, 17u);
    EXPECT_EQ(s.lookup(10).item_bytes, 20u);
    EXPECT_TRUE(s.auditStorage());
}

TEST(TadSet, RemoveDirtyHalfOfPairWritesBack)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertPair(20, 68, false, 11, true, 22, true, 1);
    const auto wb = s.remove(21, 36);
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(wb->line, 21u);
    EXPECT_EQ(wb->payload, 22u);
}

TEST(TadSet, EvictLruPicksOldestWholeItem)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertSingle(10, 10, false, 0, false, /*lru=*/5);
    s.insertSingle(42, 10, true, 7, false, /*lru=*/2);
    WritebackList wbs;
    EXPECT_TRUE(s.evictLru(/*protect=*/10, wbs));
    EXPECT_FALSE(s.contains(42));
    ASSERT_EQ(wbs.size(), 1u);
    EXPECT_EQ(wbs[0].line, 42u);
    EXPECT_EQ(wbs[0].payload, 7u);
}

TEST(TadSet, EvictLruNeverEvictsProtectedLine)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertSingle(10, 10, false, 0, false, 1);
    WritebackList wbs;
    EXPECT_FALSE(s.evictLru(10, wbs));
    EXPECT_TRUE(s.contains(10));
}

TEST(TadSet, EvictLruProtectsThePairOfTheProtectedLine)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertPair(20, 30, false, 0, false, 0, true, 1);
    WritebackList wbs;
    // Protecting line 21 protects the whole (20,21) item.
    EXPECT_FALSE(s.evictLru(21, wbs));
}

TEST(TadSet, EvictingPairWritesBackBothDirtyHalves)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertPair(20, 30, true, 1, true, 2, true, 1);
    WritebackList wbs;
    EXPECT_TRUE(s.evictLru(99, wbs));
    ASSERT_EQ(wbs.size(), 2u);
    EXPECT_EQ(wbs[0].line, 20u);
    EXPECT_EQ(wbs[1].line, 21u);
}

TEST(TadSet, TouchUpdatesLruOrder)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertSingle(10, 10, false, 0, false, 1);
    s.insertSingle(42, 10, false, 0, false, 2);
    s.touch(10, 3); // 10 becomes MRU; 42 is now LRU
    WritebackList wbs;
    EXPECT_TRUE(s.evictLru(999, wbs));
    EXPECT_TRUE(s.contains(10));
    EXPECT_FALSE(s.contains(42));
}

TEST(TadSet, MarkDirtyReplacesPayload)
{
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    s.insertSingle(10, 10, false, 1, false, 1);
    EXPECT_TRUE(s.markDirty(10, 99));
    EXPECT_FALSE(s.markDirty(11, 0));
    const TadLookup lk = s.lookup(10);
    EXPECT_TRUE(lk.dirty);
    EXPECT_EQ(lk.payload, 99u);
}

TEST(TadSet, ManyTinyLinesUpTo28)
{
    // 28 zero-byte (ZCA) lines cost 28 tags = 112 B > 72 B, so the
    // byte budget binds first; with 2-B... with 4-B tags 17 lines fit.
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    std::uint32_t inserted = 0;
    for (LineAddr l = 0; l < 100; l += 2) {
        if (!s.fits(0, 1))
            break;
        s.insertSingle(l, 0, false, 0, false, l);
        ++inserted;
    }
    EXPECT_EQ(inserted, 18u); // 18 * 4 = 72
    EXPECT_EQ(s.bytesUsed(), 72u);
}

TEST(TadSet, LineCapBindsWithSharedTags)
{
    // With shared-tag pairs of ZCA lines (4 B per 2 lines), the
    // 28-line cap binds before the byte budget.
    TadSetArray sets(1);
    TadSetRef s = sets[0];
    std::uint32_t lines = 0;
    for (LineAddr base = 0; base < 200; base += 2) {
        if (!s.fits(0, 2))
            break;
        s.insertPair(base, 0, false, 0, false, 0, true, base);
        lines += 2;
    }
    EXPECT_EQ(lines, 28u);
    EXPECT_EQ(s.bytesUsed(), 14u * 4u);
}

TEST(TadSet, CustomBudgetForAssociativeOrganizations)
{
    TadSetArray sets(1, TadGeometry{8 * 72, 32, 2}); // SCC-style set
    TadSetRef s = sets[0];
    for (LineAddr l = 0; l < 64; l += 2) {
        if (!s.fits(16, 1))
            break;
        s.insertSingle(l, 16, false, 0, false, l);
    }
    EXPECT_EQ(s.lineCount(), 32u); // line cap binds
}

} // namespace
} // namespace dice
