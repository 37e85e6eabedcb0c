/**
 * @file
 * Figure 4: fraction of lines that compress to <=32 B, <=36 B, and of
 * adjacent pairs that compress (jointly, with shared tag/base) to
 * <=68 B, per workload — measured by sampling the real data generator
 * through the real FPC+BDI codec.
 *
 * Paper result: wide spread (mcf/omnetpp/astar high; lbm/libq/Gems
 * low); on average 52% of adjacent pairs fit a 72-B TAD.
 */

#include <cstdio>

#include "common/parallel.hpp"
#include "compress/hybrid.hpp"
#include "harness.hpp"
#include "workloads/address_space.hpp"
#include "workloads/datagen.hpp"

using namespace dice;
using namespace dice::bench;

namespace
{

struct Fractions
{
    double single32 = 0;
    double single36 = 0;
    double pair68 = 0;
};

Fractions
measure(const WorkloadProfile &profile)
{
    DataGenerator gen;
    const std::uint64_t lines = 1 << 20;
    gen.addRegion(kLinesPerPage, kLinesPerPage + lines, profile);

    HybridCodec codec;
    std::uint64_t n32 = 0, n36 = 0, p68 = 0, n = 0, pairs = 0;
    for (LineAddr base = kLinesPerPage; base < kLinesPerPage + 40000;
         base += 2) {
        const Line a = gen.bytes(base, 0);
        const Line b = gen.bytes(base + 1, 0);
        for (const Line *l : {&a, &b}) {
            const std::uint32_t size = codec.compressedSizeBytes(*l);
            n32 += size <= 32;
            n36 += size <= 36;
            ++n;
        }
        p68 += codec.pairSizeBytes(a, b) <= 68;
        ++pairs;
    }
    return {100.0 * n32 / n, 100.0 * n36 / n, 100.0 * p68 / pairs};
}

} // namespace

int
main()
{
    printHeader("Compressibility of lines installed in the DRAM cache",
                "DICE (ISCA'17) Figure 4");
    printColumns({"Single<=32", "Single<=36", "Double<=68"});

    std::vector<const WorkloadProfile *> profiles;
    for (const auto *suite : {&specRateSuite(), &gapSuite()}) {
        for (const WorkloadProfile &p : *suite)
            profiles.push_back(&p);
    }

    // Each measure() samples an independent generator; fan the
    // workloads across the thread pool and print in order afterwards.
    std::vector<Fractions> fracs(profiles.size());
    parallelFor(profiles.size(), benchJobs(),
                [&](std::size_t i) { fracs[i] = measure(*profiles[i]); });

    double sum32 = 0, sum36 = 0, sum68 = 0;
    int count = 0;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const Fractions &f = fracs[i];
        printRow(profiles[i]->name, {f.single32, f.single36, f.pair68});
        sum32 += f.single32;
        sum36 += f.single36;
        sum68 += f.pair68;
        ++count;
    }
    std::printf("\n");
    printRow("AVG", {sum32 / count, sum36 / count, sum68 / count});
    std::printf("\nPaper: 52%% of adjacent pairs compress to <=68 B "
                "on average.\n");
    return 0;
}
