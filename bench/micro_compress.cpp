/**
 * @file
 * google-benchmark microbenchmarks of the compression substrate:
 * codec throughput per data class, the size-only fast paths the cache
 * model uses, and pair compression. These support the simulator's
 * premise that FPC/BDI decompression is off the critical path.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "compress/hybrid.hpp"
#include "workloads/datagen.hpp"

// Global heap-allocation counter. The size-only codec routes must be
// allocation-free; the benchmarks below report allocations/iteration
// so a regression shows up as a nonzero counter, not just a slowdown.
static std::atomic<std::size_t> g_heap_allocs{0};

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

namespace
{

/// Reports heap allocations per benchmark iteration as a counter.
class AllocScope
{
public:
    explicit AllocScope(benchmark::State &state)
        : state_(state),
          start_(g_heap_allocs.load(std::memory_order_relaxed))
    {
    }

    ~AllocScope()
    {
        const std::size_t n =
            g_heap_allocs.load(std::memory_order_relaxed) - start_;
        state_.counters["heap_allocs_per_iter"] = benchmark::Counter(
            static_cast<double>(n) /
            static_cast<double>(state_.iterations()));
    }

private:
    benchmark::State &state_;
    std::size_t start_;
};

using dice::BdiCodec;
using dice::CompClass;
using dice::DataGenerator;
using dice::Encoded;
using dice::FpcCodec;
using dice::HybridCodec;
using dice::Line;
using dice::LineAddr;

Line
lineOfClass(CompClass cls, LineAddr salt)
{
    return DataGenerator::synthesize(cls, salt, 0);
}

void
BM_FpcCompress(benchmark::State &state)
{
    FpcCodec fpc;
    const Line l =
        lineOfClass(static_cast<CompClass>(state.range(0)), 1234);
    for (auto _ : state)
        benchmark::DoNotOptimize(fpc.compress(l));
}
BENCHMARK(BM_FpcCompress)->DenseRange(0, 5);

void
BM_BdiCompress(benchmark::State &state)
{
    BdiCodec bdi;
    const Line l =
        lineOfClass(static_cast<CompClass>(state.range(0)), 1234);
    for (auto _ : state)
        benchmark::DoNotOptimize(bdi.compress(l));
}
BENCHMARK(BM_BdiCompress)->DenseRange(0, 5);

void
BM_HybridSizeOnly(benchmark::State &state)
{
    HybridCodec codec;
    const Line l =
        lineOfClass(static_cast<CompClass>(state.range(0)), 1234);
    AllocScope allocs(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.compressedSizeBytes(l));
}
BENCHMARK(BM_HybridSizeOnly)->DenseRange(0, 5);

void
BM_HybridFullEncode(benchmark::State &state)
{
    HybridCodec codec;
    const Line l =
        lineOfClass(static_cast<CompClass>(state.range(0)), 1234);
    AllocScope allocs(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.compress(l));
}
BENCHMARK(BM_HybridFullEncode)->DenseRange(0, 5);

void
BM_HybridDecompress(benchmark::State &state)
{
    HybridCodec codec;
    const Line l =
        lineOfClass(static_cast<CompClass>(state.range(0)), 1234);
    const Encoded enc = codec.compress(l);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.decompress(enc));
}
BENCHMARK(BM_HybridDecompress)->DenseRange(0, 5);

void
BM_PairSizeOnly(benchmark::State &state)
{
    HybridCodec codec;
    const Line a =
        lineOfClass(static_cast<CompClass>(state.range(0)), 2000);
    const Line b =
        lineOfClass(static_cast<CompClass>(state.range(0)), 2001);
    AllocScope allocs(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.pairSizeBytes(a, b));
}
BENCHMARK(BM_PairSizeOnly)->DenseRange(0, 5);

void
BM_DataSynthesis(benchmark::State &state)
{
    LineAddr line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(DataGenerator::synthesize(
            static_cast<CompClass>(state.range(0)), ++line, 0));
    }
}
BENCHMARK(BM_DataSynthesis)->DenseRange(0, 5);

} // namespace

BENCHMARK_MAIN();
