/**
 * @file
 * Randomized stress tests with reference oracles: the compressed cache
 * is driven with thousands of random install/read/writeback operations
 * against a simple map-based model, checking functional correctness
 * (payloads), the single-residency invariant, and writeback integrity
 * under every policy.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "core/compressed.hpp"
#include "workloads/datagen.hpp"

namespace dice
{
namespace
{

/** Data whose class varies per line and per version (worst case). */
class ChaoticSource : public LineDataSource
{
  public:
    Line
    bytes(LineAddr line, std::uint64_t version) const override
    {
        const auto cls = static_cast<CompClass>(
            mix64(line >> 1, version) % 6);
        return DataGenerator::synthesize(cls, line, version);
    }
};

CompressedCacheConfig
config(CompressionPolicy policy, bool knl = false)
{
    CompressedCacheConfig c;
    c.base.capacity = 256_KiB; // 4096 sets: small enough to stress
    c.policy = policy;
    c.knl_mode = knl;
    return c;
}

/**
 * Oracle: tracks, for every line, the latest payload accepted by the
 * cache and whether the cache or memory owns the newest version.
 */
class Oracle
{
  public:
    void
    installed(LineAddr line, std::uint64_t payload, bool dirty)
    {
        resident_[line] = Entry{payload, dirty};
    }

    void
    evicted(const WritebackList &wbs)
    {
        for (const EvictedLine &wb : wbs) {
            const auto it = resident_.find(wb.line);
            ASSERT_NE(it, resident_.end())
                << "writeback of non-resident line " << wb.line;
            EXPECT_TRUE(it->second.dirty)
                << "writeback of clean line " << wb.line;
            EXPECT_EQ(wb.payload, it->second.payload);
            memory_[wb.line] = wb.payload;
            resident_.erase(it);
        }
    }

    struct Entry
    {
        std::uint64_t payload;
        bool dirty;
    };

    std::map<LineAddr, Entry> resident_;
    std::map<LineAddr, std::uint64_t> memory_;
};

class CompressedStress
    : public ::testing::TestWithParam<std::pair<CompressionPolicy, bool>>
{
};

TEST_P(CompressedStress, RandomOperationsAgainstOracle)
{
    const auto [policy, knl] = GetParam();
    ChaoticSource src;
    CompressedDramCache l4(config(policy, knl), src);
    Oracle oracle;
    Rng rng(static_cast<std::uint64_t>(policy) * 7 + (knl ? 3 : 0) + 1);

    std::map<LineAddr, std::uint64_t> versions;
    Cycle now = 0;

    for (int op = 0; op < 30000; ++op) {
        now += rng.between(1, 50);
        // Cluster lines so sets get contested.
        const LineAddr line = rng.below(3000) + (rng.below(4) << 16);

        // The oracle over-approximates residency: clean evictions are
        // legitimately silent, so a "resident" clean line may in fact
        // be gone. The checkable invariants are:
        //  - a hit never returns stale data;
        //  - a dirty line never disappears without a writeback;
        //  - a line the oracle never installed never hits.
        const int action = static_cast<int>(rng.below(10));
        if (action < 4) { // demand read
            const L4ReadResult r = l4.read(line, now);
            const auto it = oracle.resident_.find(line);
            if (it == oracle.resident_.end()) {
                EXPECT_FALSE(r.hit) << "line " << line;
            } else if (r.hit) {
                EXPECT_EQ(r.payload, it->second.payload)
                    << "line " << line;
                if (r.has_extra) {
                    const auto nb =
                        oracle.resident_.find(r.extra_line);
                    ASSERT_NE(nb, oracle.resident_.end());
                    EXPECT_EQ(r.extra_payload, nb->second.payload);
                }
            } else {
                EXPECT_FALSE(it->second.dirty)
                    << "dirty line " << line
                    << " vanished without a writeback";
                oracle.resident_.erase(it); // clean silent eviction
            }
        } else if (action < 7) { // clean fill (as after a miss)
            if (l4.contains(line))
                continue; // fills only happen for non-resident lines
            const std::uint64_t ver = versions[line];
            const L4WriteResult w =
                l4.install(line, ver, false, now, true);
            oracle.installed(line, ver, false);
            oracle.evicted(w.writebacks);
        } else { // dirty writeback from L3 (new version)
            const std::uint64_t ver = ++versions[line];
            const L4WriteResult w =
                l4.install(line, ver, true, now, false);
            oracle.installed(line, ver, true);
            oracle.evicted(w.writebacks);
        }

        if (op % 4096 == 0) {
            // The cache can only shrink relative to the oracle's
            // over-approximation.
            EXPECT_LE(l4.validLines(), oracle.resident_.size());
        }
    }

    // Final sweep: every hit agrees with the oracle, and every dirty
    // oracle line is still present (it could not leave silently).
    for (const auto &[line, entry] : oracle.resident_) {
        if (entry.dirty) {
            ASSERT_TRUE(l4.contains(line))
                << "dirty line " << line << " lost";
        }
        if (l4.contains(line)) {
            const L4ReadResult r = l4.read(line, now);
            ASSERT_TRUE(r.hit);
            EXPECT_EQ(r.payload, entry.payload);
        }
    }
    EXPECT_LE(l4.validLines(), oracle.resident_.size());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CompressedStress,
    ::testing::Values(
        std::make_pair(CompressionPolicy::TsiOnly, false),
        std::make_pair(CompressionPolicy::NsiOnly, false),
        std::make_pair(CompressionPolicy::BaiOnly, false),
        std::make_pair(CompressionPolicy::Dice, false),
        std::make_pair(CompressionPolicy::Dice, true)));

TEST(TadSetStress, RandomInsertRemoveKeepsAccountingExact)
{
    TadSetArray sets(1);
    TadSetRef set = sets[0];
    Rng rng(99);
    std::map<LineAddr, std::uint32_t> model; // line -> its share seen

    for (int op = 0; op < 20000; ++op) {
        const LineAddr line = rng.below(64);
        if (rng.chance(0.5) && !set.contains(line)) {
            const auto size =
                static_cast<std::uint32_t>(rng.below(65));
            if (set.fits(size, 1)) {
                set.insertSingle(line, size, rng.chance(0.3),
                                 rng.next(), rng.chance(0.5),
                                 static_cast<std::uint64_t>(op));
                model[line] = size;
            }
        } else if (set.contains(line)) {
            set.remove(line, 0);
            model.erase(line);
        }

        // Exact accounting: bytes = sum(tag + size), lines = count.
        std::uint32_t bytes = 0;
        for (const auto &[l, sz] : model)
            bytes += kTadTagBytes + sz;
        ASSERT_EQ(set.bytesUsed(), bytes);
        ASSERT_EQ(set.lineCount(), model.size());
        ASSERT_LE(bytes, kTadSetBytes);
    }
}

} // namespace
} // namespace dice
