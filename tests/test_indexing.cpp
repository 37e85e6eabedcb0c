/**
 * @file
 * Indexing-scheme invariants (paper Section 4.5, Figure 6): spatial
 * pairing, the 50% TSI-invariance of BAI, the neighbor-set property,
 * and DRAM-row co-location of the two candidate sets; plus the DRAM
 * coordinate decode of the cache mapper and of main memory.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/indexing.hpp"
#include "sim/memory.hpp"

namespace dice
{
namespace
{

/** Timing presets, doubled channels, and one geometry whose channel,
 *  bank and per-row counts are none of them powers of two. */
std::vector<DramTiming>
decodeGeometries()
{
    DramTiming doubled = DramTiming::stackedL4();
    doubled.channels *= 2;
    DramTiming odd = DramTiming::stackedL4();
    odd.channels = 3;
    odd.banks_per_channel = 12;
    odd.row_bytes = 1536;
    return {DramTiming::stackedL4(), DramTiming::mainMemoryDdr(), doubled,
            odd};
}

/** The division-based decode the shift/mask path must reproduce. */
DramCoord
divisionCoord(const DramTiming &t, std::uint32_t unit_bytes,
              std::uint64_t unit)
{
    const std::uint64_t group = unit / (t.row_bytes / unit_bytes);
    DramCoord c;
    c.channel = static_cast<std::uint32_t>(group % t.channels);
    c.bank = static_cast<std::uint32_t>((group / t.channels) %
                                        t.banks_per_channel);
    c.row = group / (std::uint64_t{t.channels} * t.banks_per_channel);
    return c;
}

/** Random units of every magnitude, plus the 32-bit boundary. */
std::vector<std::uint64_t>
decodeSamples()
{
    std::vector<std::uint64_t> units = {0, 1, 27, 28, UINT32_MAX,
                                        std::uint64_t{UINT32_MAX} + 1,
                                        ~std::uint64_t{0}};
    Rng rng(7);
    for (int i = 0; i < 20000; ++i)
        units.push_back(rng.next() >> rng.below(64));
    return units;
}


TEST(Indexing, PaperFigure6Example)
{
    // 8 sets, lines A0..A15 — exactly the paper's worked example.
    SetIndexer idx(3);

    // TSI: consecutive lines to consecutive sets.
    for (LineAddr l = 0; l < 16; ++l)
        EXPECT_EQ(idx.tsi(l), l % 8);

    // NSI: pairs share a set, sets walk sequentially.
    for (LineAddr l = 0; l < 16; ++l)
        EXPECT_EQ(idx.nsi(l), (l / 2) % 8);

    // BAI (Figure 6c): set0={A0,A1}, set1={A8,A9}, set2={A2,A3},
    // set3={A10,A11}, set4={A4,A5}, set5={A12,A13}, set6={A6,A7},
    // set7={A14,A15}.
    const std::uint64_t expected[16] = {0, 0, 2, 2, 4, 4, 6, 6,
                                        1, 1, 3, 3, 5, 5, 7, 7};
    for (LineAddr l = 0; l < 16; ++l)
        EXPECT_EQ(idx.bai(l), expected[l]) << "line " << l;
}

TEST(Indexing, BaiMapsSpatialPairsTogether)
{
    SetIndexer idx(14);
    for (LineAddr l = 0; l < 100000; l += 17) {
        const LineAddr even = l & ~LineAddr{1};
        EXPECT_EQ(idx.bai(even), idx.bai(even | 1));
    }
}

TEST(Indexing, ExactlyHalfTheLinesKeepTheirTsiSet)
{
    SetIndexer idx(10);
    std::uint64_t same = 0;
    const std::uint64_t n = 1u << 16; // full period of the relevant bits
    for (LineAddr l = 0; l < n; ++l) {
        if (idx.bai(l) == idx.tsi(l))
            ++same;
        EXPECT_EQ(idx.bai(l) == idx.tsi(l), idx.baiInvariant(l));
    }
    EXPECT_EQ(same, n / 2);
}

TEST(Indexing, BaiAndTsiDifferOnlyInSetBitZero)
{
    SetIndexer idx(12);
    for (LineAddr l = 0; l < 100000; l += 13) {
        const std::uint64_t t = idx.tsi(l);
        const std::uint64_t b = idx.bai(l);
        EXPECT_TRUE(t == b || (t ^ b) == 1) << "line " << l;
        if (t != b)
            EXPECT_EQ(SetIndexer::alternateSet(t), b);
    }
}

TEST(Indexing, NsiMovesNearlyEveryLine)
{
    // The motivation for BAI: NSI leaves almost no line in its TSI set.
    SetIndexer idx(10);
    std::uint64_t same = 0;
    const std::uint64_t n = 1u << 16;
    for (LineAddr l = 0; l < n; ++l) {
        if (idx.nsi(l) == idx.tsi(l))
            ++same;
    }
    EXPECT_LT(static_cast<double>(same) / n, 0.01);
}

TEST(Indexing, SchemeDispatch)
{
    SetIndexer idx(8);
    const LineAddr l = 0x12345;
    EXPECT_EQ(idx.set(l, IndexScheme::TSI), idx.tsi(l));
    EXPECT_EQ(idx.set(l, IndexScheme::NSI), idx.nsi(l));
    EXPECT_EQ(idx.set(l, IndexScheme::BAI), idx.bai(l));
}

TEST(Indexing, PairHelpers)
{
    EXPECT_EQ(SetIndexer::pairBase(7), 6u);
    EXPECT_EQ(SetIndexer::pairBase(6), 6u);
    EXPECT_EQ(SetIndexer::spatialNeighbor(6), 7u);
    EXPECT_EQ(SetIndexer::spatialNeighbor(7), 6u);
}

TEST(Indexing, MapperPacks28TadsPerRow)
{
    DramCacheAddressMapper mapper(DramTiming::stackedL4());
    EXPECT_EQ(mapper.tadsPerRow(), 28u); // 2048 / 72
}

TEST(Indexing, CandidateSetsShareADramRow)
{
    // The BAI/TSI alternate sets (s, s^1) must decode to the same
    // channel/bank/row so the second probe is a row-buffer hit.
    DramCacheAddressMapper mapper(DramTiming::stackedL4());
    for (std::uint64_t set = 0; set < 200000; set += 2) {
        const DramCoord a = mapper.coord(set);
        const DramCoord b = mapper.coord(set ^ 1);
        EXPECT_EQ(a.channel, b.channel);
        EXPECT_EQ(a.bank, b.bank);
        EXPECT_EQ(a.row, b.row);
    }
}

TEST(Indexing, MapperStripesRowGroupsAcrossChannels)
{
    DramCacheAddressMapper mapper(DramTiming::stackedL4());
    const DramCoord a = mapper.coord(0);
    const DramCoord b = mapper.coord(28); // next row group
    EXPECT_NE(a.channel, b.channel);
}

TEST(Indexing, MapperMatchesDivisionReference)
{
    for (const DramTiming &t : decodeGeometries()) {
        const DramCacheAddressMapper mapper(t);
        for (const std::uint64_t set : decodeSamples()) {
            const DramCoord got = mapper.coord(set);
            const DramCoord want = divisionCoord(t, 72, set);
            ASSERT_EQ(got.channel, want.channel) << t.channels << " " << set;
            ASSERT_EQ(got.bank, want.bank) << t.channels << " " << set;
            ASSERT_EQ(got.row, want.row) << t.channels << " " << set;
        }
    }
}

TEST(MainMemory, CoordMatchesDivisionReference)
{
    for (const DramTiming &t : decodeGeometries()) {
        const MainMemory mem(t);
        for (const std::uint64_t line : decodeSamples()) {
            const DramCoord got = mem.coordOf(line);
            const DramCoord want = divisionCoord(t, kLineSize, line);
            ASSERT_EQ(got.channel, want.channel) << t.channels << " " << line;
            ASSERT_EQ(got.bank, want.bank) << t.channels << " " << line;
            ASSERT_EQ(got.row, want.row) << t.channels << " " << line;
        }
    }
}

TEST(Indexing, IndexSchemeNames)
{
    EXPECT_STREQ(indexSchemeName(IndexScheme::TSI), "TSI");
    EXPECT_STREQ(indexSchemeName(IndexScheme::NSI), "NSI");
    EXPECT_STREQ(indexSchemeName(IndexScheme::BAI), "BAI");
}

/** Parameterized: the invariants hold at every cache size. */
class IndexingAtSize : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(IndexingAtSize, CoreInvariants)
{
    SetIndexer idx(GetParam());
    const std::uint64_t sets = idx.numSets();
    for (LineAddr l = 0; l < 4096; ++l) {
        EXPECT_LT(idx.tsi(l), sets);
        EXPECT_LT(idx.bai(l), sets);
        EXPECT_LT(idx.nsi(l), sets);
        EXPECT_EQ(idx.bai(l & ~LineAddr{1}), idx.bai(l | 1));
        const std::uint64_t t = idx.tsi(l);
        const std::uint64_t b = idx.bai(l);
        EXPECT_TRUE(t == b || (t ^ b) == 1);
    }
}

INSTANTIATE_TEST_SUITE_P(SetBits, IndexingAtSize,
                         ::testing::Values(3u, 6u, 10u, 14u, 20u, 24u));

} // namespace
} // namespace dice
