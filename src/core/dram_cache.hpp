/**
 * @file
 * Common interface of every L4 DRAM-cache organization in the study:
 * the uncompressed Alloy baseline (and its ideal 2x variants), the
 * compressed cache under TSI / NSI / BAI / DICE policies, the KNL-style
 * tags-in-ECC variant, and the SCC baseline.
 *
 * The cache owns its DRAM timing substrate (a DramDevice); the system
 * model calls read() for demand accesses and install() for fills and
 * writebacks, and forwards the returned dirty victims to main memory.
 */

#ifndef DICE_CORE_DRAM_CACHE_HPP
#define DICE_CORE_DRAM_CACHE_HPP

#include <memory>
#include <vector>

#include "cache/sram_cache.hpp" // EvictedLine
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/dram.hpp"
#include "dram/timing.hpp"

namespace dice
{

/** Configuration shared by all DRAM-cache organizations. */
struct DramCacheConfig
{
    /** Data capacity (bytes); sets = capacity / 64 B. */
    std::uint64_t capacity = 64_MiB;
    /** Timing/geometry of the stacked-DRAM substrate. */
    DramTiming timing = DramTiming::stackedL4();
    /** Fixed controller overhead added to every access (cycles). */
    Cycle controller_latency = 6;
    /** Decompression latency charged on compressed hits (cycles). */
    Cycle decompression_latency = 2;
};

/** Outcome of a demand read presented to the L4. */
struct L4ReadResult
{
    bool hit = false;
    /** Cycle the requested data (or the miss verdict) is available. */
    Cycle done = 0;
    /** DRAM-cache accesses consumed (1, or 2 on CIP misprediction). */
    std::uint32_t dram_accesses = 1;
    /** Data version of the requested line (valid on hit). */
    std::uint64_t payload = 0;
    /** True when a useful spatial neighbor came along for free. */
    bool has_extra = false;
    LineAddr extra_line = 0;
    std::uint64_t extra_payload = 0;
};

/** Outcome of an install (fill from memory or writeback from L3). */
struct L4WriteResult
{
    /** DRAM-cache accesses consumed. */
    std::uint32_t dram_accesses = 1;
    /** Dirty victims that must now be written to main memory. */
    WritebackList writebacks;
    /**
     * True when the organization declined to cache the line (e.g. a
     * bandwidth-aware replacement kept the resident page). A declined
     * dirty line is carried out through `writebacks`; the system
     * otherwise needs no special handling.
     */
    bool bypassed = false;
    /**
     * Lines the organization wants streamed from main memory to
     * complete a coarse-granularity fill (page-based policies admit a
     * whole page on one demand line). The system charges the memory
     * read traffic and returns each payload via completeFill().
     * Empty for line-granularity organizations — the common case pays
     * no allocation (a default-constructed vector does not allocate).
     */
    std::vector<LineAddr> fill_fetches;
};

/**
 * Aggregate policy metrics the system folds into its RunResult. The
 * defaults match RunResult's: an organization without the concept
 * (no index predictor, no second probes) inherits them unchanged.
 */
struct L4Metrics
{
    /** Reads that needed a second DRAM access (index misprediction). */
    std::uint64_t second_probes = 0;
    /** Install-index decision counters (Figure 11). */
    std::uint64_t installs_invariant = 0;
    std::uint64_t installs_bai = 0;
    std::uint64_t installs_tsi = 0;
    /** Index-predictor accuracies (1.0 when there is no predictor). */
    double cip_read_accuracy = 1.0;
    double cip_write_accuracy = 1.0;
};

class StatRegistry;

/** Abstract L4 DRAM cache. */
class DramCache
{
  public:
    explicit DramCache(const DramCacheConfig &config, std::string name)
        : config_(config), device_(std::move(name), config.timing)
    {
    }

    virtual ~DramCache() = default;

    /** Demand read of @p line arriving at cycle @p now. */
    virtual L4ReadResult read(LineAddr line, Cycle now) = 0;

    /**
     * Install @p line (demand fill when @p dirty is false, writeback
     * from L3 when true). @p after_read_miss marks fills that directly
     * follow a read() miss of the same line, whose probe already
     * streamed the victim set.
     */
    virtual L4WriteResult install(LineAddr line, std::uint64_t payload,
                                  bool dirty, Cycle now,
                                  bool after_read_miss) = 0;

    /**
     * Deliver the payload of a line the last install() requested via
     * fill_fetches (the system has charged the memory read). Only
     * coarse-granularity organizations override this.
     */
    virtual void completeFill(LineAddr line, std::uint64_t payload,
                              Cycle now)
    {
        (void)line;
        (void)payload;
        (void)now;
    }

    /**
     * Host-side hint that @p line is likely to be read or installed
     * soon: an organization may start pulling the simulator state a
     * lookup of @p line will touch into the host caches. A hint has no
     * effect on the model (it reads and writes no modelled state), so
     * any line is valid, resident or not. Default: nothing.
     */
    virtual void prefetch(LineAddr line) const { (void)line; }

    /** True when @p line is resident (functional check, no timing). */
    virtual bool contains(LineAddr line) const = 0;

    /** Number of valid logical lines (for effective-capacity studies). */
    virtual std::uint64_t validLines() const = 0;

    /** Bytes of payload + tags currently resident. */
    virtual std::uint64_t bytesUsed() const
    {
        return validLines() * kLineSize;
    }

    /** Organization name for reports. */
    virtual const char *organization() const = 0;

    /**
     * Policy metrics for the run result. The base implementation's
     * defaults are the "organization has no such concept" values.
     */
    virtual L4Metrics metrics() const { return {}; }

    /**
     * Register organization-specific stat groups beyond the "l4" /
     * "l4.dram" pair the system always exports (e.g. the compressed
     * cache's index predictor registers "cip"). Default: none.
     */
    virtual void registerExtraStats(StatRegistry &registry) const
    {
        (void)registry;
    }

    virtual void resetStats();

    virtual StatGroup stats() const;

    DramDevice &device() { return device_; }
    const DramDevice &device() const { return device_; }
    const DramCacheConfig &config() const { return config_; }

    std::uint64_t readHits() const { return read_hits_; }
    std::uint64_t readMisses() const { return read_misses_; }
    std::uint64_t extraLinesSupplied() const { return extra_lines_; }

    /** Demand-read hit rate. */
    double hitRate() const;

  protected:
    DramCacheConfig config_;
    DramDevice device_;

    std::uint64_t read_hits_ = 0;
    std::uint64_t read_misses_ = 0;
    std::uint64_t extra_lines_ = 0;
    std::uint64_t installs_ = 0;
};

} // namespace dice

#endif // DICE_CORE_DRAM_CACHE_HPP
