/**
 * @file
 * SIMD bit-identity enforcement (see common/simd.hpp's contract):
 *
 *  1. Kernel fuzz: every dispatched scan kernel against its scalar
 *     reference, under both DICE_FORCE_SCALAR settings.
 *  2. TadSet model check: randomized operation sequences against a
 *     plain array-of-structs reference model, with auditStorage() and
 *     byte accounting re-verified after every eviction (the per-set
 *     byte invariant regression pin).
 *  3. Codec size fuzz: the size-only compressedSizeBytes() route
 *     against compress().sizeBytes(), for every codec.
 *
 * Everything here runs twice — wide kernels active and forced scalar —
 * so a divergence is attributed to the kernel, not the model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "compress/bdi.hpp"
#include "compress/fpc.hpp"
#include "compress/hybrid.hpp"
#include "compress/zca.hpp"
#include "core/tad.hpp"
#include "workloads/datagen.hpp"

namespace dice
{
namespace
{

/** Deterministic splitmix-style fuzz source. */
class Fuzz
{
  public:
    explicit Fuzz(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        state_ += 0x9E3779B97F4A7C15ull;
        return mix64(state_);
    }

    /** Uniform in [0, bound). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    bool chance(std::uint32_t percent) { return below(100) < percent; }

  private:
    std::uint64_t state_;
};

/** Runs @p body under both force-scalar settings, restoring the env
 *  default afterwards. */
template <typename F>
void
underBothBackends(F body)
{
    simd::setForceScalarForTest(false);
    body(false);
    simd::setForceScalarForTest(true);
    body(true);
    simd::setForceScalarForTest(false);
}

// ---------------------------------------------------------------------
// 1. Kernel fuzz: dispatched vs scalar reference.
// ---------------------------------------------------------------------

TEST(SimdParity, FindAndMatchMaskMatchScalar)
{
    underBothBackends([](bool) {
        Fuzz fz(0xF1AD);
        for (int round = 0; round < 400; ++round) {
            const std::size_t n = fz.below(65); // mask kernels cap at 64
            std::vector<std::uint64_t> v(n);
            // A tiny alphabet forces frequent (and multiple) matches.
            for (auto &x : v)
                x = fz.below(8);
            const std::uint64_t key = fz.below(10);
            const std::size_t start = n != 0 ? fz.below(n + 1) : 0;

            EXPECT_EQ(simd::findU64(v.data(), n, key, start),
                      simd::scalar::findU64(v.data(), n, key, start));
            EXPECT_EQ(simd::matchMaskU64(v.data(), n, key),
                      simd::scalar::matchMaskU64(v.data(), n, key));
        }
    });
}

TEST(SimdParity, MinIndexMatchesScalarIncludingTiesAndSkip)
{
    underBothBackends([](bool) {
        Fuzz fz(0x317D);
        for (int round = 0; round < 400; ++round) {
            const std::size_t n = fz.below(40);
            std::vector<std::uint64_t> v(n);
            for (auto &x : v) {
                // Duplicated small values make first-index tie-breaks
                // load-bearing; occasional UINT64_MAX hits the
                // sentinel path.
                x = fz.chance(10) ? ~std::uint64_t{0} : fz.below(6);
            }
            // skip in range, out of range, and == n.
            const std::size_t skip = fz.below(n + 3);
            EXPECT_EQ(simd::minIndexU64(v.data(), n, skip),
                      simd::scalar::minIndexU64(v.data(), n, skip))
                << "n=" << n << " skip=" << skip;
        }
    });
}

TEST(SimdParity, SumAndAllZeroMatchScalar)
{
    underBothBackends([](bool) {
        Fuzz fz(0x50FA);
        for (int round = 0; round < 400; ++round) {
            const std::size_t n = fz.below(100);
            std::vector<std::uint16_t> v(n);
            for (auto &x : v)
                x = static_cast<std::uint16_t>(fz.next());
            EXPECT_EQ(simd::sumU16(v.data(), n),
                      simd::scalar::sumU16(v.data(), n));

            std::vector<std::uint8_t> bytes(fz.below(200), 0);
            if (!bytes.empty() && fz.chance(60))
                bytes[fz.below(bytes.size())] =
                    static_cast<std::uint8_t>(1 + fz.below(255));
            EXPECT_EQ(
                simd::allZero(bytes.data(), bytes.size()),
                simd::scalar::allZero(bytes.data(), bytes.size()));
        }
    });
}

TEST(SimdParity, DeltasFitMatchesScalar)
{
    underBothBackends([](bool) {
        Fuzz fz(0xDE17A);
        const std::uint32_t widths[] = {8, 16, 32};
        for (int round = 0; round < 600; ++round) {
            const std::uint32_t n = 4 * (1 + fz.below(4)); // 4..16
            const std::uint32_t bits = widths[fz.below(3)];
            std::vector<std::int64_t> elems(n);
            for (auto &e : elems) {
                // Mix immediates, near-base clusters, and outliers so
                // both accept and reject paths fire.
                switch (fz.below(3)) {
                  case 0:
                    e = static_cast<std::int64_t>(fz.below(100)) - 50;
                    break;
                  case 1:
                    e = 1'000'000 +
                        static_cast<std::int64_t>(fz.below(300)) - 150;
                    break;
                  default:
                    e = static_cast<std::int64_t>(fz.next());
                }
            }
            EXPECT_EQ(simd::deltasFitI64(elems.data(), n, bits),
                      simd::scalar::deltasFitI64(elems.data(), n, bits))
                << "n=" << n << " bits=" << bits;
        }
    });
}

// ---------------------------------------------------------------------
// 2. TadSet vs array-of-structs reference model.
// ---------------------------------------------------------------------

/** Transparent reference implementation of TadSet's contract. */
class RefTadSet
{
  public:
    RefTadSet(std::uint32_t budget, std::uint32_t max_lines,
              std::uint32_t tag_bytes)
        : budget_(budget), max_lines_(max_lines), tag_bytes_(tag_bytes)
    {
    }

    struct Item
    {
        std::uint64_t key;
        std::uint64_t lru;
        std::uint64_t payload[2];
        std::uint32_t data_bytes;
        bool pair;
        bool valid[2];
        bool dirty[2];
        bool bai;
        bool odd; // singles: line's low bit
    };

    std::uint32_t
    bytesUsed() const
    {
        std::uint32_t b = 0;
        for (const Item &it : items_)
            b += tag_bytes_ + it.data_bytes;
        return b;
    }

    std::uint32_t
    lineCount() const
    {
        std::uint32_t l = 0;
        for (const Item &it : items_)
            l += (it.valid[0] ? 1 : 0) + (it.valid[1] ? 1 : 0);
        return l;
    }

    std::uint32_t itemCount() const
    {
        return static_cast<std::uint32_t>(items_.size());
    }

    bool
    fits(std::uint32_t extra_data, std::uint32_t extra_lines) const
    {
        return bytesUsed() + tag_bytes_ + extra_data <= budget_ &&
               lineCount() + extra_lines <= max_lines_;
    }

    TadLookup
    lookup(LineAddr line) const
    {
        TadLookup res;
        const std::size_t it = holderOf(line);
        if (it == items_.size())
            return res;
        const Item &item = items_[it];
        const std::uint32_t slot =
            item.pair ? static_cast<std::uint32_t>(line & 1) : 0u;
        res.found = true;
        res.item = static_cast<std::uint32_t>(it);
        res.dirty = item.dirty[slot];
        res.bai = item.bai;
        res.in_pair = item.pair;
        res.payload = item.payload[slot];
        const std::size_t nb = holderOf(line ^ 1);
        if (nb != items_.size()) {
            const Item &nitem = items_[nb];
            const std::uint32_t nslot =
                nitem.pair ? static_cast<std::uint32_t>(~line & 1) : 0u;
            res.neighbor_present = true;
            res.neighbor_payload = nitem.payload[nslot];
        }
        return res;
    }

    void
    touch(LineAddr line, std::uint64_t stamp)
    {
        const std::size_t it = holderOf(line);
        if (it != items_.size())
            items_[it].lru = stamp;
    }

    bool
    markDirty(LineAddr line, std::uint64_t payload)
    {
        const std::size_t it = holderOf(line);
        if (it == items_.size())
            return false;
        Item &item = items_[it];
        const std::uint32_t slot =
            item.pair ? static_cast<std::uint32_t>(line & 1) : 0u;
        item.dirty[slot] = true;
        item.payload[slot] = payload;
        return true;
    }

    std::optional<EvictedLine>
    remove(LineAddr line, std::uint32_t remaining_bytes)
    {
        const std::size_t i = holderOf(line);
        if (i == items_.size())
            return std::nullopt;
        Item &item = items_[i];
        std::optional<EvictedLine> out;
        if (!item.pair) {
            if (item.dirty[0])
                out = EvictedLine{line, true, item.payload[0]};
            items_.erase(items_.begin() +
                         static_cast<std::ptrdiff_t>(i));
            return out;
        }
        const auto slot = static_cast<std::uint32_t>(line & 1);
        if (item.dirty[slot])
            out = EvictedLine{line, true, item.payload[slot]};
        item.valid[slot] = false;
        item.dirty[slot] = false;
        const std::uint32_t other = slot ^ 1u;
        if (!item.valid[other]) {
            items_.erase(items_.begin() +
                         static_cast<std::ptrdiff_t>(i));
            return out;
        }
        // Pair shrinks to a single holding the survivor.
        Item single = item;
        single.pair = false;
        single.odd = other != 0;
        single.valid[0] = true;
        single.valid[1] = false;
        single.dirty[0] = item.dirty[other];
        single.dirty[1] = false;
        single.payload[0] = item.payload[other];
        single.payload[1] = 0;
        single.data_bytes = remaining_bytes;
        items_[i] = single;
        return out;
    }

    bool
    evictLru(LineAddr protect, WritebackList &writebacks)
    {
        // The one unevictable item: first index whose key matches
        // protect and that is a pair or actually holds protect.
        std::size_t skip = items_.size();
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (items_[i].key != (protect >> 1))
                continue;
            if (items_[i].pair || holds(items_[i], protect)) {
                skip = i;
                break;
            }
        }
        std::size_t victim = items_.size();
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i == skip)
                continue;
            if (victim == items_.size() ||
                items_[i].lru < items_[victim].lru)
                victim = i;
        }
        if (victim == items_.size())
            return false;
        const Item &item = items_[victim];
        for (std::uint32_t slot = 0; slot < 2; ++slot) {
            if (item.valid[slot] && item.dirty[slot]) {
                writebacks.push_back(EvictedLine{
                    baseOf(item) | slot, true, item.payload[slot]});
            }
        }
        items_.erase(items_.begin() +
                     static_cast<std::ptrdiff_t>(victim));
        return true;
    }

    void
    insertSingle(LineAddr line, std::uint32_t data_bytes, bool dirty,
                 std::uint64_t payload, bool bai, std::uint64_t stamp)
    {
        Item it{};
        it.key = line >> 1;
        it.lru = stamp;
        it.payload[0] = payload;
        it.data_bytes = data_bytes;
        it.valid[0] = true;
        it.dirty[0] = dirty;
        it.bai = bai;
        it.odd = (line & 1) != 0;
        items_.push_back(it);
    }

    void
    insertPair(LineAddr base, std::uint32_t data_bytes, bool dirty0,
               std::uint64_t payload0, bool dirty1,
               std::uint64_t payload1, bool bai, std::uint64_t stamp)
    {
        Item it{};
        it.key = base >> 1;
        it.lru = stamp;
        it.payload[0] = payload0;
        it.payload[1] = payload1;
        it.data_bytes = data_bytes;
        it.pair = true;
        it.valid[0] = it.valid[1] = true;
        it.dirty[0] = dirty0;
        it.dirty[1] = dirty1;
        it.bai = bai;
        items_.push_back(it);
    }

    /** Data bytes of the item holding @p line (0 when absent). */
    std::uint32_t
    dataBytesOf(LineAddr line) const
    {
        const std::size_t it = holderOf(line);
        return it != items_.size() ? items_[it].data_bytes : 0;
    }

  private:
    static bool
    holds(const Item &it, LineAddr line)
    {
        if (it.key != (line >> 1))
            return false;
        if (it.pair)
            return it.valid[line & 1];
        return it.valid[0] && (it.odd == ((line & 1) != 0));
    }

    static LineAddr
    baseOf(const Item &it)
    {
        return (it.key << 1) | (it.odd ? 1 : 0);
    }

    std::size_t
    holderOf(LineAddr line) const
    {
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (holds(items_[i], line))
                return i;
        }
        return items_.size();
    }

    std::uint32_t budget_;
    std::uint32_t max_lines_;
    std::uint32_t tag_bytes_;
    std::vector<Item> items_;
};

void
expectSameLookup(const TadLookup &a, const TadLookup &b, LineAddr line)
{
    EXPECT_EQ(a.found, b.found) << "line " << line;
    if (!a.found || !b.found)
        return;
    EXPECT_EQ(a.dirty, b.dirty) << "line " << line;
    EXPECT_EQ(a.bai, b.bai) << "line " << line;
    EXPECT_EQ(a.in_pair, b.in_pair) << "line " << line;
    EXPECT_EQ(a.payload, b.payload) << "line " << line;
    EXPECT_EQ(a.neighbor_present, b.neighbor_present) << "line " << line;
    EXPECT_EQ(a.neighbor_payload, b.neighbor_payload) << "line " << line;
    EXPECT_EQ(a.item, b.item) << "line " << line;
}

void
expectSameEviction(const std::optional<EvictedLine> &a,
                   const std::optional<EvictedLine> &b)
{
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a)
        return;
    EXPECT_EQ(a->line, b->line);
    EXPECT_EQ(a->dirty, b->dirty);
    EXPECT_EQ(a->payload, b->payload);
}

/**
 * Payload bytes of a fuzzed item: mostly zero-byte or tiny, and only
 * those while @p grow (so the set can fill to its item cap).
 */
std::uint32_t
fuzzDataBytes(Fuzz &fz, std::uint32_t max, bool grow)
{
    if (grow)
        return fz.chance(85) ? 0 : static_cast<std::uint32_t>(
                                       1 + fz.below(2));
    switch (fz.below(4)) {
      case 0:
      case 1:
        return 0;
      case 2:
        return static_cast<std::uint32_t>(1 + fz.below(8));
      default:
        return static_cast<std::uint32_t>(fz.below(max + 1));
    }
}

/** How far one fuzz run got through the set's storage states. */
struct TadFuzzCoverage
{
    std::uint32_t max_items = 0;
    std::uint32_t spills = 0;   ///< inline -> pool transitions
    std::uint32_t unspills = 0; ///< pool -> inline transitions
    std::uint32_t spilled_evictions = 0;
};

/**
 * Random operation soup over one (set, model) pair. A small address
 * universe guarantees key collisions, pair merges and splits, and
 * constant eviction pressure; mostly zero-byte and tiny payloads let
 * a set grow to its item cap, so runs alternate between a growth
 * phase (no removals) that drives the set across the inline/pool
 * boundary up to the cap, and a mixed phase that drains it back.
 * auditStorage() runs after every operation.
 */
TadFuzzCoverage
fuzzTadSetAgainstModel(const TadGeometry &g, std::uint64_t seed)
{
    TadSetArray sets(1, g);
    TadSetRef set = sets[0];
    RefTadSet model(g.budget_bytes, g.max_lines, g.tag_bytes);
    Fuzz fz(seed);
    std::uint64_t stamp = 0;
    WritebackList wb_set, wb_model;
    TadFuzzCoverage cov;
    constexpr LineAddr kUniverse = 72; // 36 keys: room for 32 items

    auto evictBoth = [&](LineAddr protect) {
        wb_set.clear();
        wb_model.clear();
        const bool spilled = set.spilled();
        const bool a = set.evictLru(protect, wb_set);
        const bool b = model.evictLru(protect, wb_model);
        EXPECT_EQ(a, b);
        EXPECT_EQ(wb_set.size(), wb_model.size());
        for (std::size_t i = 0;
             i < std::min(wb_set.size(), wb_model.size()); ++i) {
            EXPECT_EQ(wb_set[i].line, wb_model[i].line);
            EXPECT_EQ(wb_set[i].dirty, wb_model[i].dirty);
            EXPECT_EQ(wb_set[i].payload, wb_model[i].payload);
        }
        if (a && spilled)
            ++cov.spilled_evictions;
        return a && b;
    };

    for (int op = 0; op < 6000; ++op) {
        const bool grow = (op / 300) % 2 == 0;
        const LineAddr line = fz.below(kUniverse);
        const bool was_spilled = set.spilled();
        // Growth phases skip removals and mostly install singles.
        const std::uint64_t kind =
            grow ? (fz.chance(60) ? 0 : 1 + fz.below(3)) : fz.below(6);
        switch (kind) {
          case 0: { // single install, cache-style make-room first
            const std::uint32_t data = fuzzDataBytes(fz, 64, grow);
            set.remove(line, 0);
            model.remove(line, 0);
            bool ok = true;
            while (ok && !set.fits(data, 1))
                ok = evictBoth(line);
            if (!ok)
                break;
            const std::uint64_t payload = fz.next();
            const bool dirty = fz.chance(40);
            const bool bai = fz.chance(30);
            ++stamp;
            set.insertSingle(line, data, dirty, payload, bai, stamp);
            model.insertSingle(line, data, dirty, payload, bai, stamp);
            break;
          }
          case 1: { // pair merge over an even base (replaces singles)
            const LineAddr base = line & ~LineAddr{1};
            const std::uint32_t data = fuzzDataBytes(fz, 128, grow);
            set.remove(base, 0);
            model.remove(base, 0);
            set.remove(base | 1, 0);
            model.remove(base | 1, 0);
            bool ok = true;
            while (ok && !set.fits(data, 2))
                ok = evictBoth(base);
            if (!ok)
                break;
            const std::uint64_t p0 = fz.next(), p1 = fz.next();
            const bool d0 = fz.chance(40), d1 = fz.chance(40);
            const bool bai = fz.chance(30);
            ++stamp;
            set.insertPair(base, data, d0, p0, d1, p1, bai, stamp);
            model.insertPair(base, data, d0, p0, d1, p1, bai, stamp);
            break;
          }
          case 2: { // LRU touch
            ++stamp;
            set.touch(line, stamp);
            model.touch(line, stamp);
            break;
          }
          case 3: { // dirty-mark with payload replacement
            const std::uint64_t payload = fz.next();
            EXPECT_EQ(set.markDirty(line, payload),
                      model.markDirty(line, payload));
            break;
          }
          case 4: { // removal (a pair splits to the survivor's size)
            const std::uint32_t cur = model.dataBytesOf(line);
            const auto remaining = static_cast<std::uint32_t>(
                cur != 0 ? fz.below(cur + 1) : 0);
            expectSameEviction(set.remove(line, remaining),
                               model.remove(line, remaining));
            break;
          }
          default: // LRU eviction under protection
            evictBoth(line);
            break;
        }
        if (::testing::Test::HasFailure())
            return cov; // report the first divergence, not a flood

        // The regression this pins: every mutation must leave the
        // incremental byte/line accounting exactly consistent with
        // the planes, wherever they live.
        EXPECT_TRUE(set.auditStorage()) << "op " << op;
        expectSameLookup(set.lookup(line), model.lookup(line), line);
        EXPECT_EQ(set.bytesUsed(), model.bytesUsed());
        EXPECT_EQ(set.lineCount(), model.lineCount());
        EXPECT_EQ(set.itemCount(), model.itemCount());
        EXPECT_EQ(sets.spilledSets(), set.spilled() ? 1u : 0u);
        cov.max_items = std::max(cov.max_items, set.itemCount());
        cov.spills += !was_spilled && set.spilled();
        cov.unspills += was_spilled && !set.spilled();
        if (op % 64 == 0) {
            for (LineAddr probe = 0; probe < kUniverse; ++probe) {
                expectSameLookup(set.lookup(probe),
                                 model.lookup(probe), probe);
            }
        }
    }
    return cov;
}

TEST(TadSetModel, RandomOpsMatchReferenceModel)
{
    // The three organizations' geometries — DICE TAD (18 items), the
    // Touché 1-B signature tags (28), SCC's eight 72-B ways (32) —
    // plus Alloy-priced tags for a narrow set.
    const TadGeometry kGeometries[] = {
        {kTadSetBytes, kTadMaxLines, kTadTagBytes},
        {kTadSetBytes, kTadMaxLines, 1},
        {8 * kTadSetBytes, 32, 2},
        {kTadSetBytes, kTadMaxLines, kAlloyTagBytes},
    };
    underBothBackends([&](bool scalar) {
        std::uint64_t seed = scalar ? 0x5CA1A4 : 0x51D4;
        for (const TadGeometry &g : kGeometries) {
            SCOPED_TRACE(::testing::Message()
                         << "geometry " << g.budget_bytes << "/"
                         << g.max_lines << "/" << g.tag_bytes
                         << (scalar ? " scalar" : " dispatched"));
            const TadFuzzCoverage cov = fuzzTadSetAgainstModel(g, seed++);
            if (::testing::Test::HasFailure())
                return;
            // The run must have filled the set to its item cap and
            // crossed the inline/pool boundary both ways, evicting
            // from a spilled set along the way.
            EXPECT_EQ(cov.max_items, g.capacity());
            if (g.capacity() > kTadInlineItems) {
                EXPECT_GT(cov.spills, 0u);
                EXPECT_GT(cov.unspills, 0u);
                EXPECT_GT(cov.spilled_evictions, 0u);
            }
        }
    });
}

// ---------------------------------------------------------------------
// 3. Codec size-only route vs compress().
// ---------------------------------------------------------------------

Line
randomLine(Fuzz &fz)
{
    Line line;
    switch (fz.below(4)) {
      case 0: { // synthesized class: hits real FPC/BDI encodings
        constexpr CompClass kClasses[] = {
            CompClass::Zero, CompClass::Ptr,  CompClass::Int,
            CompClass::C36,  CompClass::Half, CompClass::Rand,
        };
        return DataGenerator::synthesize(kClasses[fz.below(6)],
                                         fz.below(1 << 20), fz.next());
      }
      case 1: // random bytes (usually incompressible)
        for (auto &b : line)
            b = static_cast<std::uint8_t>(fz.next());
        return line;
      case 2: // all zero with occasional single set byte
        line.fill(0);
        if (fz.chance(50))
            line[fz.below(kLineSize)] =
                static_cast<std::uint8_t>(fz.next());
        return line;
      default: // small sign-extended words: FPC prefix classes
        for (std::uint32_t w = 0; w < kLineSize / 4; ++w) {
            const auto v = static_cast<std::int32_t>(
                static_cast<std::int64_t>(fz.below(512)) - 256);
            std::memcpy(line.data() + 4 * w, &v, 4);
        }
        return line;
    }
}

TEST(CodecSizeParity, SizeOnlyRouteMatchesCompress)
{
    const ZcaCodec zca;
    const FpcCodec fpc;
    const BdiCodec bdi;
    const HybridCodec hybrid;
    const Codec *codecs[] = {&zca, &fpc, &bdi, &hybrid};

    underBothBackends([&](bool scalar) {
        Fuzz fz(scalar ? 0xBA7C4 : 0xC0DEC);
        for (int round = 0; round < 24; ++round) {
            const std::size_t n = 1 + fz.below(33);
            std::vector<Line> lines(n);
            for (auto &line : lines)
                line = randomLine(fz);

            for (const Codec *codec : codecs) {
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(codec->compressedSizeBytes(lines[i]),
                              codec->compress(lines[i]).sizeBytes())
                        << codec->name() << " line " << i;
                }
            }
        }
    });
}

} // namespace
} // namespace dice
