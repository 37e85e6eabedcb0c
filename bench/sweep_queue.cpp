#include "sweep_queue.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <unordered_set>

#include "common/claim_file.hpp"
#include "common/log.hpp"

namespace dice::bench
{

namespace
{

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Microseconds since @p t0. */
std::uint64_t
elapsedUs(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

std::uint64_t
SweepQueue::leaseStaleSeconds()
{
    if (const char *env = std::getenv("DICE_SWEEP_LEASE_STALE_S")) {
        const std::uint64_t v = std::strtoull(env, nullptr, 10);
        if (v > 0)
            return v;
    }
    return 30;
}

std::filesystem::path
SweepQueue::docPath(const std::filesystem::path &results_dir,
                    const std::string &stem)
{
    return results_dir / (stem + ".cell.json");
}

std::filesystem::path
SweepQueue::leasePath(const std::filesystem::path &results_dir,
                      const std::string &stem)
{
    return results_dir / "leases" / (stem + ".lease");
}

void
SweepQueue::resetCell(const std::filesystem::path &results_dir,
                      const std::string &stem)
{
    std::error_code ec;
    std::filesystem::remove(docPath(results_dir, stem), ec);
    std::filesystem::remove(leasePath(results_dir, stem), ec);
}

SweepQueue::SweepQueue(std::filesystem::path results_dir,
                       std::vector<QueueCell> cells, unsigned home_shard,
                       unsigned shard_count)
    : results_dir_(std::move(results_dir)),
      lease_dir_(results_dir_ / "leases"), cells_(std::move(cells)),
      home_shard_(home_shard), shard_count_(shard_count),
      state_(cells_.size(), State::Pending)
{
    std::error_code ec;
    std::filesystem::create_directories(lease_dir_, ec);

    // Longest-expected-first hands the batch's expensive tail out
    // immediately; ties fall back to canonical order so the schedule
    // is deterministic across participants.
    cost_order_.resize(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i)
        cost_order_[i] = i;
    std::stable_sort(cost_order_.begin(), cost_order_.end(),
                     [this](std::size_t a, std::size_t b) {
                         if (cells_[a].cost != cells_[b].cost)
                             return cells_[a].cost > cells_[b].cost;
                         return cells_[a].canonical_index <
                                cells_[b].canonical_index;
                     });

    refresher_ = std::thread([this] { refresherLoop(); });
}

SweepQueue::~SweepQueue()
{
    {
        std::lock_guard lock(mu_);
        stop_ = true;
    }
    refresher_cv_.notify_all();
    if (refresher_.joinable())
        refresher_.join();

    // Leases still held name cells this participant claimed but never
    // published (an exiting worker mid-teardown): release them so
    // peers reclaim immediately instead of waiting out staleness.
    std::error_code ec;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (state_[i] == State::Held) {
            std::filesystem::remove(leasePath(results_dir_,
                                              cells_[i].stem),
                                    ec);
            SweepJournal::instance().lease("release", cells_[i].stem,
                                           0);
        }
    }
}

void
SweepQueue::markDoneLocked(std::size_t idx)
{
    if (state_[idx] != State::Done) {
        state_[idx] = State::Done;
        ++done_;
    }
}

std::optional<std::size_t>
SweepQueue::claimNext(std::uint64_t wait_us)
{
    std::lock_guard lock(mu_);
    const std::uint64_t stale_s = leaseStaleSeconds();
    for (const std::size_t idx : cost_order_) {
        if (state_[idx] != State::Pending)
            continue;
        const QueueCell &c = cells_[idx];
        if (std::filesystem::exists(docPath(results_dir_, c.stem))) {
            markDoneLocked(idx);
            continue;
        }

        const std::filesystem::path lease =
            leasePath(results_dir_, c.stem);
        const auto acquire_t0 = std::chrono::steady_clock::now();
        ClaimAttempt attempt = createClaimFile(lease);
        bool via_requeue = false;
        if (attempt == ClaimAttempt::Busy) {
            if (claimFileLive(lease, stale_s))
                continue; // live holder: steal something else
            // The lease is gone or stale — but publish() writes the
            // document *before* releasing the lease, so a holder that
            // just finished is distinguishable from one that crashed:
            // recheck the document before declaring a requeue.
            if (std::filesystem::exists(
                    docPath(results_dir_, c.stem))) {
                markDoneLocked(idx);
                continue;
            }
            // Expired lease: the holder crashed or wedged. Break it
            // and retake via O_EXCL so racing breakers cannot both
            // win; losing the retake means a peer got there first.
            dice_warn("sweep: requeueing cell %s (lease holder "
                      "dead or stale)",
                      c.stem.c_str());
            SweepJournal::instance().lease("break", c.stem, 0);
            std::error_code ec;
            std::filesystem::remove(lease, ec);
            attempt = createClaimFile(lease);
            via_requeue = attempt == ClaimAttempt::Acquired;
            if (attempt == ClaimAttempt::Busy)
                continue;
        }
        // Acquired — or Error (unclaimable results dir: read-only or
        // no O_EXCL). On Error every participant degrades to claiming
        // everything in-process; they duplicate work but each still
        // completes the batch by itself.
        state_[idx] = State::Held;
        ++stats_.claimed;
        if (via_requeue)
            ++stats_.requeued;
        const bool stolen =
            shard_count_ == 0 ||
            c.canonical_index % shard_count_ != home_shard_;
        if (stolen)
            ++stats_.stolen;
        SweepMetrics::instance().sample(SweepPhase::LeaseAcquire,
                                        elapsedUs(acquire_t0));
        SweepMetrics::instance().sample(SweepPhase::ClaimWait, wait_us);
        SweepJournal::instance().claim(c.stem, stolen, via_requeue,
                                       wait_us);
        return idx;
    }
    return std::nullopt;
}

void
SweepQueue::publish(std::size_t idx, const std::string &doc)
{
    dice_assert(idx < cells_.size(), "bad queue cell index");
    const QueueCell &c = cells_[idx];
    if (!atomicWriteFile(docPath(results_dir_, c.stem), doc))
        dice_warn("sweep: cannot publish cell doc %s", c.stem.c_str());
    std::error_code ec;
    std::filesystem::remove(leasePath(results_dir_, c.stem), ec);
    SweepJournal::instance().publish(c.stem);
    SweepJournal::instance().lease("release", c.stem, 0);

    std::lock_guard lock(mu_);
    dice_assert(state_[idx] == State::Held,
                "publishing a cell that was not claimed");
    ++stats_.published;
    markDoneLocked(idx);
}

std::size_t
SweepQueue::doneCount()
{
    std::lock_guard lock(mu_);
    if (done_ == cells_.size())
        return done_;
    // Throttle the filesystem rescan: idle claim loops poll complete()
    // every ~50 ms, and one exists() per pending cell per poll adds up
    // on large batches.
    const double now = monotonicSeconds();
    if (last_scan_s_ >= 0.0 && now - last_scan_s_ < 0.2)
        return done_;
    last_scan_s_ = now;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (state_[i] == State::Pending &&
            std::filesystem::exists(
                docPath(results_dir_, cells_[i].stem)))
            markDoneLocked(i);
    }
    return done_;
}

QueueStats
SweepQueue::stats() const
{
    std::lock_guard lock(mu_);
    return stats_;
}

void
SweepQueue::refresherLoop()
{
    // Refresh held leases well under the staleness threshold so a
    // long-simulating holder is never mistaken for a dead one.
    std::unique_lock lock(mu_);
    for (;;) {
        const auto interval = std::chrono::milliseconds(
            std::min<std::uint64_t>(5'000,
                                    leaseStaleSeconds() * 1'000 / 3) +
            1);
        if (refresher_cv_.wait_for(lock, interval,
                                   [this] { return stop_; }))
            return;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (state_[i] == State::Held) {
                const auto t0 = std::chrono::steady_clock::now();
                refreshClaimFile(
                    leasePath(results_dir_, cells_[i].stem));
                const std::uint64_t us = elapsedUs(t0);
                SweepMetrics::instance().sample(
                    SweepPhase::LeaseRefresh, us);
                SweepJournal::instance().lease("refresh",
                                               cells_[i].stem, us);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Participant heartbeat / summary files.

std::string
renderHeartbeat(const HeartbeatRecord &hb)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "batch %lu done %zu total %zu stolen %llu requeued "
                  "%llu busy_ms %llu\n",
                  hb.batch, hb.done, hb.total,
                  static_cast<unsigned long long>(hb.stolen),
                  static_cast<unsigned long long>(hb.requeued),
                  static_cast<unsigned long long>(hb.busy_ms));
    return buf;
}

bool
parseHeartbeat(const std::string &content, HeartbeatRecord &out)
{
    out = HeartbeatRecord{};
    unsigned long long stolen = 0, requeued = 0, busy = 0;
    if (std::sscanf(content.c_str(),
                    "batch %lu done %zu total %zu stolen %llu "
                    "requeued %llu busy_ms %llu",
                    &out.batch, &out.done, &out.total, &stolen,
                    &requeued, &busy) != 6 ||
        out.done > out.total)
        return false;
    out.stolen = stolen;
    out.requeued = requeued;
    out.busy_ms = busy;
    return true;
}

std::string
renderSummary(const SummaryRecord &s)
{
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "batch %lu cells %llu stolen %llu requeued %llu busy_ms %llu "
        "span_ms %llu jobs %u\n",
        s.batch, static_cast<unsigned long long>(s.cells),
        static_cast<unsigned long long>(s.stolen),
        static_cast<unsigned long long>(s.requeued),
        static_cast<unsigned long long>(s.busy_ms),
        static_cast<unsigned long long>(s.span_ms), s.jobs);
    std::string out = buf;
    for (const auto &[name, h] : s.hists)
        appendHistText(out, name, h);
    if (!s.slowest_cell.empty()) {
        out += "slowest " + s.slowest_cell + " " +
               std::to_string(s.slowest_us) + "\n";
    }
    return out;
}

bool
parseSummary(const std::string &content, SummaryRecord &out)
{
    out = SummaryRecord{};
    std::istringstream in(content);
    std::string line;
    if (!std::getline(in, line))
        return false;
    unsigned long long cells = 0, stolen = 0, requeued = 0;
    unsigned long long busy = 0, span = 0;
    if (std::sscanf(line.c_str(),
                    "batch %lu cells %llu stolen %llu requeued "
                    "%llu busy_ms %llu span_ms %llu jobs %u",
                    &out.batch, &cells, &stolen, &requeued, &busy,
                    &span, &out.jobs) != 7 ||
        out.jobs == 0)
        return false;
    out.cells = cells;
    out.stolen = stolen;
    out.requeued = requeued;
    out.busy_ms = busy;
    out.span_ms = span;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line.rfind("hist ", 0) == 0) {
            std::string name;
            LogHistogram h;
            // A hist line that fails to parse fails the whole
            // summary: the file kinds are written atomically, so this
            // is garbage, and half-accumulating it would skew totals.
            if (!parseHistLine(line, name, h))
                return false;
            out.hists.emplace_back(std::move(name), h);
        } else if (line.rfind("slowest ", 0) == 0) {
            std::istringstream sl(line);
            std::string tag;
            if (!(sl >> tag >> out.slowest_cell >> out.slowest_us))
                return false;
        }
        // Unknown lines: a newer writer; ignore.
    }
    return true;
}

void
forEachParticipantFile(
    const std::filesystem::path &dir, const std::string &extension,
    bool remove_garbled,
    const std::function<bool(const std::filesystem::path &path,
                             const std::string &content)> &consume)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return;
    std::vector<std::filesystem::path> files;
    for (const auto &entry : it) {
        if (entry.path().extension() == extension)
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const std::filesystem::path &path : files) {
        std::ifstream in(path);
        if (!in)
            continue;
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        if (consume(path, content))
            continue;
        // Warn once per path per process: pollers (progress loops,
        // sweep_top) revisit the same directory several times a
        // second, and one foreign file must not flood stderr.
        static std::mutex warned_mu;
        static std::unordered_set<std::string> warned;
        bool fresh = false;
        {
            std::lock_guard lock(warned_mu);
            fresh = warned.insert(path.string()).second;
        }
        if (fresh) {
            dice_warn("sweep: %s garbled participant file %s",
                      remove_garbled ? "removing" : "ignoring",
                      path.string().c_str());
        }
        if (remove_garbled)
            std::filesystem::remove(path, ec);
    }
}

} // namespace dice::bench
