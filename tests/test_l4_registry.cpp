/**
 * @file
 * L4 organization registry tests: factory round-trip for every
 * registered name, the unknown-name and mismatched-parameter error
 * paths, the cross-organization stat contract (every organization's
 * stats()/resetStats() behave identically with respect to the base
 * counters), a polymorphic smoke simulation per organization
 * asserting structural invariants through the DramCache interface
 * alone, and the prefetch() contract (a hint never changes state).
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/l4_registry.hpp"
#include "sim/system.hpp"
#include "workloads/datagen.hpp"

namespace dice
{
namespace
{

/** Small config every test builds from (1 MiB keeps sets contended). */
L4Config
smallL4(const std::string &organization)
{
    L4Config cfg;
    cfg.organization = organization;
    cfg.base.capacity = 1_MiB;
    return cfg;
}

/** Mildly compressible data so compressed organizations exercise both
 *  index paths. */
class IntSource : public LineDataSource
{
  public:
    Line
    bytes(LineAddr line, std::uint64_t version) const override
    {
        return DataGenerator::synthesize(CompClass::Int, line, version);
    }
};

/** All registered organizations that build a cache (excludes "none"). */
std::vector<std::string>
cacheNames()
{
    std::vector<std::string> out;
    for (const std::string &name : L4Registry::instance().names()) {
        if (name != "none")
            out.push_back(name);
    }
    return out;
}

TEST(L4Registry, RoundTripsEveryRegisteredName)
{
    IntSource src;
    const std::vector<std::string> names =
        L4Registry::instance().names();
    // The zoo: baseline, four compressed policies, SCC, Banshee,
    // Touché, plus the disabled organization.
    EXPECT_GE(names.size(), 9u);
    for (const std::string &name : names) {
        ASSERT_TRUE(L4Registry::instance().known(name));
        const auto l4 = L4Registry::instance().create(smallL4(name), src);
        if (name == "none") {
            EXPECT_EQ(l4, nullptr);
            continue;
        }
        ASSERT_NE(l4, nullptr) << name;
        // The registry key IS the organization's self-reported name, so
        // reports and configs can never drift apart.
        EXPECT_EQ(std::string(l4->organization()), name);
    }
}

TEST(L4Registry, UnknownNameDies)
{
    IntSource src;
    EXPECT_DEATH(
        L4Registry::instance().create(smallL4("no-such-org"), src),
        "unknown L4 organization");
}

TEST(L4Registry, RejectsUnconsumedParameterGroups)
{
    IntSource src;
    // Alloy consumes no parameter group: any customized group is a
    // config bug.
    L4Config bad_alloy = smallL4("alloy");
    bad_alloy.comp.threshold_bytes = 24;
    EXPECT_DEATH(L4Registry::instance().create(bad_alloy, src),
                 "does not consume");

    // DICE consumes the compressed group but not Banshee's.
    L4Config bad_dice = smallL4("dice");
    bad_dice.banshee.ways = 8;
    EXPECT_DEATH(L4Registry::instance().create(bad_dice, src),
                 "does not consume");

    // Banshee consumes its own group but not Touché's.
    L4Config bad_banshee = smallL4("banshee");
    bad_banshee.touche.signature_bits = 4;
    EXPECT_DEATH(L4Registry::instance().create(bad_banshee, src),
                 "does not consume");
}

TEST(L4Registry, AcceptsConsumedParameterGroups)
{
    IntSource src;
    L4Config dice_cfg = smallL4("dice");
    dice_cfg.comp.threshold_bytes = 24;
    EXPECT_NE(L4Registry::instance().create(dice_cfg, src), nullptr);

    L4Config banshee_cfg = smallL4("banshee");
    banshee_cfg.banshee.ways = 8;
    EXPECT_NE(L4Registry::instance().create(banshee_cfg, src), nullptr);

    L4Config touche_cfg = smallL4("touche");
    touche_cfg.touche.signature_bits = 6;
    EXPECT_NE(L4Registry::instance().create(touche_cfg, src), nullptr);
}

/**
 * The stat contract every organization honors:
 *  - the stats() group is named after the organization and always
 *    exposes the base counters;
 *  - the exported values equal the white-box accessors;
 *  - resetStats() zeroes event counters but does not disturb contents
 *    (validLines is occupancy, not an event count).
 */
TEST(L4Registry, StatContractAcrossOrganizations)
{
    IntSource src;
    for (const std::string &name : cacheNames()) {
        SCOPED_TRACE(name);
        const auto l4 = L4Registry::instance().create(smallL4(name), src);

        for (LineAddr line = 0; line < 256; ++line) {
            if (!l4->read(line, 0).hit)
                l4->install(line, line + 1, (line & 3) == 0, 0, true);
        }
        for (LineAddr line = 0; line < 256; ++line)
            l4->read(line, 100);

        const StatGroup g = l4->stats();
        EXPECT_EQ(g.name(), name);
        EXPECT_EQ(g.get("read_hits"), double(l4->readHits()));
        EXPECT_EQ(g.get("read_misses"), double(l4->readMisses()));
        EXPECT_EQ(g.get("valid_lines"), double(l4->validLines()));
        EXPECT_GT(l4->readHits() + l4->readMisses(), 0u);
        EXPECT_GT(g.get("installs"), 0.0);

        const std::uint64_t occupancy = l4->validLines();
        l4->resetStats();
        EXPECT_EQ(l4->readHits(), 0u);
        EXPECT_EQ(l4->readMisses(), 0u);
        EXPECT_EQ(l4->stats().get("installs"), 0.0);
        EXPECT_EQ(l4->validLines(), occupancy);
    }
}

/**
 * Structural invariants through the polymorphic interface alone, on a
 * deterministic pseudo-random stream that overflows the 1-MiB cache:
 *  - a non-bypassed install makes the line resident;
 *  - re-installing a resident line never grows occupancy;
 *  - occupancy stays within the organization's physical bound (4x for
 *    compressed organizations, 1x for uncompressed ones).
 */
TEST(L4Registry, PolymorphicInvariantSmoke)
{
    IntSource src;
    for (const std::string &name : cacheNames()) {
        SCOPED_TRACE(name);
        const L4Config cfg = smallL4(name);
        const auto l4 = L4Registry::instance().create(cfg, src);
        const std::uint64_t max_lines =
            4 * cfg.base.capacity / kLineSize;

        for (std::uint64_t i = 0; i < 20'000; ++i) {
            const LineAddr line = mix64(i) % (1u << 16);
            const Cycle now = i * 4;
            if (l4->read(line, now).hit)
                continue;
            const L4WriteResult w =
                l4->install(line, i + 1, (i & 7) == 0, now, true);
            if (!w.bypassed) {
                EXPECT_TRUE(l4->contains(line)) << "line " << line;
            }
            for (const LineAddr fetch : w.fill_fetches)
                l4->completeFill(fetch, fetch + 1, now);
            EXPECT_LE(l4->validLines(), max_lines);

            // Duplicate install of a resident line must not grow
            // occupancy (no duplicate tags).
            if (!w.bypassed) {
                const std::uint64_t before = l4->validLines();
                const L4WriteResult dup =
                    l4->install(line, i + 2, false, now, true);
                EXPECT_TRUE(dup.fill_fetches.empty());
                EXPECT_EQ(l4->validLines(), before);
            }
        }
        EXPECT_GT(l4->validLines(), 0u);
    }
}

/**
 * prefetch() is a host-side hint: two instances fed the same read and
 * install stream must end in the same state when only one of them is
 * also handed prefetch() calls, including lines it never held and
 * lines far outside the stream's footprint.
 */
TEST(L4Registry, PrefetchHintNeverChangesState)
{
    IntSource src;
    for (const std::string &name : cacheNames()) {
        SCOPED_TRACE(name);
        const auto plain = L4Registry::instance().create(smallL4(name), src);
        const auto hinted =
            L4Registry::instance().create(smallL4(name), src);

        auto drive = [](DramCache &l4, LineAddr line,
                        std::uint64_t i) -> std::uint64_t {
            const Cycle now = i * 4;
            const L4ReadResult r = l4.read(line, now);
            if (r.hit)
                return r.payload ^ (r.done << 1);
            const L4WriteResult w =
                l4.install(line, i + 1, (i & 7) == 0, now, true);
            for (const LineAddr fetch : w.fill_fetches)
                l4.completeFill(fetch, fetch + 1, now);
            std::uint64_t h = r.done;
            for (const EvictedLine &wb : w.writebacks)
                h = mix64(h, wb.line ^ (wb.payload << 20));
            return h;
        };

        for (std::uint64_t i = 0; i < 20'000; ++i) {
            const LineAddr line = mix64(i) % (1u << 16);
            hinted->prefetch(mix64(i, 1) % (1u << 16));  // near the stream
            hinted->prefetch(mix64(i, 2));               // anywhere
            hinted->prefetch(LineAddr{1} << 40 | i);     // never installed
            ASSERT_EQ(drive(*plain, line, i), drive(*hinted, line, i))
                << "reference " << i;
        }

        EXPECT_EQ(plain->stats().collect(), hinted->stats().collect());
        EXPECT_EQ(plain->device().stats().collect(),
                  hinted->device().stats().collect());
        EXPECT_EQ(plain->validLines(), hinted->validLines());
        EXPECT_GT(plain->validLines(), 0u);
        for (LineAddr line = 0; line < (1u << 16); ++line)
            ASSERT_EQ(plain->contains(line), hinted->contains(line))
                << "line " << line;
    }
}

/** Every organization runs end-to-end under the unmodified System. */
TEST(L4Registry, EveryOrganizationRunsUnderSystem)
{
    for (const std::string &name : cacheNames()) {
        SCOPED_TRACE(name);
        SystemConfig cfg;
        cfg.num_cores = 2;
        cfg.refs_per_core = 5'000;
        cfg.reference_capacity = 4_MiB;
        cfg.l3.size_bytes = 64_KiB;
        cfg.l4.organization = name;
        cfg.l4.base.capacity = 4_MiB;
        cfg.seed = 3;
        System sys(cfg, std::vector<WorkloadProfile>(
                            2, profileByName("gcc")));
        const RunResult r = sys.run();
        EXPECT_GT(r.cycles, 0u);
        EXPECT_GT(r.l4_reads, 0u);
        EXPECT_GE(r.l4_hit_rate, 0.0);
        EXPECT_LE(r.l4_hit_rate, 1.0);
    }
}

} // namespace
} // namespace dice
