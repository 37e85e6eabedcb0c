#include "dram.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace dice
{

DramRowDecoder::DramRowDecoder(const DramTiming &timing,
                               std::uint32_t unit_bytes)
    : units_per_row_(timing.row_bytes / unit_bytes),
      unit_shift_(isPowerOfTwo(units_per_row_)
                      ? static_cast<int>(floorLog2(units_per_row_))
                      : -1),
      channels_(timing.channels), banks_(timing.banks_per_channel),
      stripe_shifts_(isPowerOfTwo(channels_) && isPowerOfTwo(banks_)),
      channel_bits_(floorLog2(channels_)), channel_mask_(channels_ - 1),
      bank_mask_(banks_ - 1),
      stripe_bits_(floorLog2(channels_) + floorLog2(banks_))
{
    dice_assert(units_per_row_ > 0, "row of %u B holds no %u-B unit",
                timing.row_bytes, unit_bytes);
    dice_assert(channels_ > 0 && banks_ > 0, "DRAM without banks");
}

DramDevice::DramDevice(std::string name, const DramTiming &timing)
    : name_(std::move(name)), timing_(timing),
      banks_(timing.channels * timing.banks_per_channel),
      bus_free_(timing.channels, 0), write_backlog_(timing.channels, 0)
{
    dice_assert(timing.channels > 0 && timing.banks_per_channel > 0,
                "DRAM device %s has no banks", name_.c_str());
}

DramResult
DramDevice::access(const DramCoord &coord, std::uint32_t bytes, Cycle when,
                   AccessKind kind)
{
    dice_assert(coord.channel < timing_.channels, "channel %u out of range",
                coord.channel);
    dice_assert(coord.bank < timing_.banks_per_channel,
                "bank %u out of range", coord.bank);

    Bank &bank = banks_[coord.channel * timing_.banks_per_channel +
                        coord.bank];
    Cycle &bus_free = bus_free_[coord.channel];

    const Cycle xfer_w = timing_.transferCycles(bytes);

    if (kind != AccessKind::DemandRead) {
        // Posted traffic under a read-priority controller: it enters
        // the per-channel write queue (installs' read-modify-write
        // probes included) and drains into idle bus slots. Its
        // bandwidth is charged when a later demand read finds the
        // backlog (opportunistic drain below) or immediately once the
        // queue exceeds its high watermark — at which point posted
        // traffic steals read slots, which is exactly the saturation
        // behavior the compression-for-bandwidth study measures.
        write_backlog_[coord.channel] += xfer_w;
        bus_busy_cycles_ += xfer_w;
        if (bank.open_row != coord.row)
            ++activations_; // energy accounting
        bytes_moved_ += bytes;
        if (kind == AccessKind::PostedWrite)
            ++writes_;
        else
            ++posted_reads_;
        DramResult res;
        res.done = when + xfer_w;
        res.first_data = when + timing_.cpu_cycles_per_beat;
        res.row_hit = bank.open_row == coord.row;
        return res;
    }

    // The next command cannot start before the request arrives or
    // before the bank can accept another column command.
    Cycle start = std::max(when, bank.ready);

    // Column commands to an open row pipeline at the burst rate
    // (tCCD ~= the data-transfer time); activations serialize behind
    // tRCD, and conflicts additionally pay precharge honoring tRAS.
    const Cycle xfer = xfer_w;
    Cycle cas_at;
    Cycle activate_at = 0;
    bool row_hit = false;
    if (bank.open_row == coord.row) {
        cas_at = start;
        row_hit = true;
        ++row_hits_;
    } else if (bank.open_row == kNoRow) {
        activate_at = start;
        cas_at = activate_at + timing_.tRCD;
        ++activations_;
    } else {
        const Cycle pre_at = std::max(start, bank.ras_done);
        activate_at = pre_at + timing_.tRP;
        cas_at = activate_at + timing_.tRCD;
        ++activations_;
        ++row_conflicts_;
    }

    // Opportunistically drain the write backlog into the idle bus
    // time before this read's data slot; once the backlog exceeds the
    // write-queue watermark, the excess drains ahead of the read and
    // delays it.
    Cycle &backlog = write_backlog_[coord.channel];
    const Cycle ready_time = cas_at + timing_.tCAS;
    if (bus_free < ready_time) {
        const Cycle drained = std::min(backlog, ready_time - bus_free);
        backlog -= drained;
        bus_free += drained;
    }
    if (backlog > timing_.write_queue_cycles) {
        const Cycle forced = backlog - timing_.write_queue_cycles;
        backlog = timing_.write_queue_cycles;
        bus_free += forced;
    }

    // Data transfer needs the channel bus; it begins when the column
    // access completes and the bus is free.
    const Cycle data_start = std::max(ready_time, bus_free);
    const Cycle data_end = data_start + xfer;

    bus_free = data_end;
    bus_busy_cycles_ += xfer;

    if (!row_hit) {
        bank.open_row = coord.row;
        bank.ras_done = activate_at + timing_.tRAS;
    }
    // The bank can take its next column command one burst slot later;
    // channel-level serialization is enforced by the data bus.
    bank.ready = cas_at + xfer;

    bytes_moved_ += bytes;
    ++reads_;
    read_latency_sum_ += data_end - when;

    DramResult res;
    res.done = data_end;
    res.first_data = data_start + timing_.cpu_cycles_per_beat;
    res.row_hit = row_hit;
    return res;
}

double
DramDevice::busUtilization(Cycle elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(bus_busy_cycles_) /
           (static_cast<double>(elapsed) * timing_.channels);
}

void
DramDevice::reset()
{
    std::fill(banks_.begin(), banks_.end(), Bank{});
    std::fill(bus_free_.begin(), bus_free_.end(), Cycle{0});
    std::fill(write_backlog_.begin(), write_backlog_.end(), Cycle{0});
    resetStats();
}

void
DramDevice::resetStats()
{
    row_hits_ = row_conflicts_ = 0;
    reads_ = writes_ = posted_reads_ = 0;
    bytes_moved_ = activations_ = bus_busy_cycles_ = 0;
    read_latency_sum_ = 0;
}

StatGroup
DramDevice::stats() const
{
    StatGroup g(name_);
    g.addFormula("reads", [this]() { return double(reads_); });
    g.addFormula("writes", [this]() { return double(writes_); });
    g.addFormula("row_hits", [this]() { return double(row_hits_); });
    g.addFormula("row_conflicts",
                 [this]() { return double(row_conflicts_); });
    g.addFormula("activations", [this]() { return double(activations_); });
    g.addFormula("bytes_moved", [this]() { return double(bytes_moved_); });
    g.addFormula("bus_busy_cycles",
                 [this]() { return double(bus_busy_cycles_); });
    g.addFormula("avg_read_latency", [this]() { return avgReadLatency(); });
    return g;
}

} // namespace dice
