/**
 * @file
 * Property tests for the allocation-free size-only codec routes: for
 * every codec and every line we can synthesize, compressedSizeBytes()
 * must equal the size of the fully-materialized encoding, and
 * pairSizeBytes() must equal compressPair().sizeBytes(). The cache
 * model steers placement with the size-only routes, so a divergence
 * would silently change simulation results.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "compress/hybrid.hpp"
#include "workloads/datagen.hpp"

namespace dice
{
namespace
{

constexpr CompClass kClasses[] = {CompClass::Zero, CompClass::Ptr,
                                  CompClass::Int,  CompClass::C36,
                                  CompClass::Half, CompClass::Rand};

/** Synthesized lines of every class plus random and edge patterns. */
std::vector<Line>
sampleLines()
{
    std::vector<Line> lines;
    for (const CompClass cls : kClasses) {
        for (LineAddr salt = 1; salt <= 40; ++salt)
            lines.push_back(DataGenerator::synthesize(cls, salt * 97, 0));
    }
    Rng rng(0xD1CEull);
    for (int i = 0; i < 200; ++i) {
        Line l{};
        for (std::size_t off = 0; off < kLineSize; off += 8) {
            const std::uint64_t v = rng.next();
            std::memcpy(l.data() + off, &v, 8);
        }
        lines.push_back(l);
    }
    // Edge patterns: all-zero, all-ones, single set bit, repeating.
    lines.emplace_back();
    Line ones;
    ones.fill(0xFF);
    lines.push_back(ones);
    for (std::size_t byte = 0; byte < kLineSize; byte += 7) {
        Line l{};
        l[byte] = 0x80;
        lines.push_back(l);
    }
    return lines;
}

template <typename CodecT>
void
expectSizeMatchesEncoding(const CodecT &codec)
{
    for (const Line &l : sampleLines()) {
        const Encoded enc = codec.compress(l);
        EXPECT_EQ(codec.compressedSizeBytes(l), enc.sizeBytes());
    }
}

TEST(SizeOnly, ZcaMatchesFullCompress)
{
    expectSizeMatchesEncoding(ZcaCodec{});
}

TEST(SizeOnly, FpcMatchesFullCompress)
{
    expectSizeMatchesEncoding(FpcCodec{});
}

TEST(SizeOnly, BdiMatchesFullCompress)
{
    expectSizeMatchesEncoding(BdiCodec{});
}

TEST(SizeOnly, HybridMatchesFullCompress)
{
    expectSizeMatchesEncoding(HybridCodec{});
}

TEST(SizeOnly, PairSizeMatchesCompressPair)
{
    HybridCodec codec;
    // Same-class pairs (the common adjacent-line case) ...
    for (const CompClass cls : kClasses) {
        for (LineAddr salt = 1; salt <= 30; ++salt) {
            const Line a = DataGenerator::synthesize(cls, 2 * salt, 0);
            const Line b = DataGenerator::synthesize(cls, 2 * salt + 1, 0);
            EXPECT_EQ(codec.pairSizeBytes(a, b),
                      codec.compressPair(a, b).sizeBytes());
        }
    }
    // ... and every cross-class combination.
    for (const CompClass ca : kClasses) {
        for (const CompClass cb : kClasses) {
            const Line a = DataGenerator::synthesize(ca, 11, 0);
            const Line b = DataGenerator::synthesize(cb, 12, 0);
            EXPECT_EQ(codec.pairSizeBytes(a, b),
                      codec.compressPair(a, b).sizeBytes());
        }
    }
}

} // namespace
} // namespace dice
