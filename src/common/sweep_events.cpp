#include "sweep_events.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/claim_file.hpp"
#include "common/log.hpp"
#include "common/telemetry.hpp"

namespace dice
{

namespace
{

std::uint64_t
wallMicroseconds()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

} // namespace

// ---------------------------------------------------------------------
// SweepMetrics.

const char *
sweepPhaseName(SweepPhase p)
{
    switch (p) {
      case SweepPhase::ClaimWait:
        return "claim_wait_us";
      case SweepPhase::Simulate:
        return "simulate_us";
      case SweepPhase::Export:
        return "export_us";
      case SweepPhase::Cell:
        return "cell_us";
      case SweepPhase::LeaseAcquire:
        return "lease_acquire_us";
      case SweepPhase::LeaseRefresh:
        return "lease_refresh_us";
    }
    return "unknown";
}

SweepMetrics &
SweepMetrics::instance()
{
    static SweepMetrics metrics;
    return metrics;
}

void
SweepMetrics::sample(SweepPhase p, std::uint64_t us)
{
    std::lock_guard lock(mu_);
    hists_[static_cast<unsigned>(p)].sample(us);
}

void
SweepMetrics::noteCell(const std::string &cell, std::uint64_t us)
{
    std::lock_guard lock(mu_);
    hists_[static_cast<unsigned>(SweepPhase::Cell)].sample(us);
    if (us > slowest_us_) {
        slowest_us_ = us;
        slowest_cell_ = cell;
    }
}

LogHistogram
SweepMetrics::snapshot(SweepPhase p) const
{
    std::lock_guard lock(mu_);
    return hists_[static_cast<unsigned>(p)];
}

std::array<LogHistogram, kSweepPhases>
SweepMetrics::snapshotAll() const
{
    std::lock_guard lock(mu_);
    return hists_;
}

std::pair<std::string, std::uint64_t>
SweepMetrics::slowestCell() const
{
    std::lock_guard lock(mu_);
    return {slowest_cell_, slowest_us_};
}

void
SweepMetrics::resetForTest()
{
    std::lock_guard lock(mu_);
    for (LogHistogram &h : hists_)
        h.reset();
    slowest_cell_.clear();
    slowest_us_ = 0;
}

// ---------------------------------------------------------------------
// SweepJournal.

SweepJournal &
SweepJournal::instance()
{
    static SweepJournal journal;
    return journal;
}

bool
SweepJournal::open(const std::filesystem::path &events_dir,
                   const std::string &participant)
{
    std::lock_guard lock(mu_);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
        enabled_.store(false, std::memory_order_relaxed);
    }
    std::error_code ec;
    std::filesystem::create_directories(events_dir, ec);
    const std::filesystem::path path =
        events_dir / (sanitizeFileStem(participant) + ".jsonl");
    file_ = std::fopen(path.string().c_str(), "a");
    if (file_ == nullptr) {
        dice_warn("sweep: cannot open event journal %s",
                  path.string().c_str());
        return false;
    }
    participant_ = sanitizeFileStem(participant);
    mono_epoch_ = std::chrono::steady_clock::now();

    std::string host;
    appendJsonEscaped(host, claimHost());
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"ev\":\"epoch\",\"participant\":\"%s\","
                  "\"pid\":%ld,\"host\":\"%s\","
                  "\"wall_us\":%" PRIu64 ",\"mono_us\":0}\n",
                  participant_.c_str(), claimPid(), host.c_str(),
                  wallMicroseconds());
    std::fputs(buf, file_);
    std::fflush(file_);
    enabled_.store(true, std::memory_order_relaxed);
    return true;
}

void
SweepJournal::close()
{
    std::lock_guard lock(mu_);
    enabled_.store(false, std::memory_order_relaxed);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

std::uint64_t
SweepJournal::monoUs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - mono_epoch_)
            .count());
}

void
SweepJournal::writeRecord(const char *body)
{
    // One record per line, flushed immediately: a SIGKILLed worker's
    // journal is complete up to its final event, which is exactly
    // what the post-mortem timeline needs.
    std::lock_guard lock(mu_);
    if (file_ == nullptr)
        return;
    std::fputs(body, file_);
    std::fflush(file_);
}

void
SweepJournal::mark(const char *name, const std::string &detail)
{
    if (!enabled())
        return;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"ev\":\"mark\",\"name\":\"%s\",\"detail\":\"%s\","
                  "\"wall_us\":%" PRIu64 ",\"mono_us\":%" PRIu64 "}\n",
                  name, detail.c_str(), wallMicroseconds(), monoUs());
    writeRecord(buf);
}

void
SweepJournal::claim(const std::string &cell, bool stolen, bool requeued,
                    std::uint64_t wait_us)
{
    if (!enabled())
        return;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"ev\":\"claim\",\"cell\":\"%s\",\"stolen\":%d,"
                  "\"requeued\":%d,\"wait_us\":%" PRIu64
                  ",\"wall_us\":%" PRIu64 ",\"mono_us\":%" PRIu64 "}\n",
                  cell.c_str(), stolen ? 1 : 0, requeued ? 1 : 0,
                  wait_us, wallMicroseconds(), monoUs());
    writeRecord(buf);
}

void
SweepJournal::begin(const char *phase, const std::string &cell)
{
    if (!enabled())
        return;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"ev\":\"begin\",\"phase\":\"%s\",\"cell\":\"%s\","
                  "\"wall_us\":%" PRIu64 ",\"mono_us\":%" PRIu64 "}\n",
                  phase, cell.c_str(), wallMicroseconds(), monoUs());
    writeRecord(buf);
}

void
SweepJournal::phase(const char *phase, const std::string &cell,
                    std::uint64_t start_mono_us, std::uint64_t dur_us)
{
    if (!enabled())
        return;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"ev\":\"phase\",\"phase\":\"%s\",\"cell\":\"%s\","
                  "\"start_us\":%" PRIu64 ",\"dur_us\":%" PRIu64
                  ",\"wall_us\":%" PRIu64 ",\"mono_us\":%" PRIu64 "}\n",
                  phase, cell.c_str(), start_mono_us, dur_us,
                  wallMicroseconds(), monoUs());
    writeRecord(buf);
}

void
SweepJournal::publish(const std::string &cell)
{
    if (!enabled())
        return;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"ev\":\"publish\",\"cell\":\"%s\","
                  "\"wall_us\":%" PRIu64 ",\"mono_us\":%" PRIu64 "}\n",
                  cell.c_str(), wallMicroseconds(), monoUs());
    writeRecord(buf);
}

void
SweepJournal::lease(const char *op, const std::string &cell,
                    std::uint64_t dur_us)
{
    if (!enabled())
        return;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"ev\":\"lease\",\"op\":\"%s\",\"cell\":\"%s\","
                  "\"dur_us\":%" PRIu64 ",\"wall_us\":%" PRIu64
                  ",\"mono_us\":%" PRIu64 "}\n",
                  op, cell.c_str(), dur_us, wallMicroseconds(),
                  monoUs());
    writeRecord(buf);
}

// ---------------------------------------------------------------------
// Journal parsing.

namespace
{

/**
 * Scan one journal line as a flat JSON object of string / integer /
 * bool-ish values into @p fields. Only what SweepJournal emits (plus
 * the mini_json subset the tests hand-write) — not a general parser.
 */
bool
scanFlatObject(const std::string &line,
               std::vector<std::pair<std::string, std::string>> &fields)
{
    std::size_t i = 0;
    const auto skipWs = [&] {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t' || line[i] == '\r'))
            ++i;
    };
    skipWs();
    if (i >= line.size() || line[i] != '{')
        return false;
    ++i;
    for (;;) {
        skipWs();
        if (i < line.size() && line[i] == '}')
            return true;
        if (i >= line.size() || line[i] != '"')
            return false;
        ++i;
        std::string key;
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\')
                return false; // journal keys are never escaped
            key += line[i++];
        }
        if (i >= line.size())
            return false;
        ++i;
        skipWs();
        if (i >= line.size() || line[i] != ':')
            return false;
        ++i;
        skipWs();
        std::string value;
        if (i < line.size() && line[i] == '"') {
            ++i;
            while (i < line.size() && line[i] != '"') {
                if (line[i] == '\\' && i + 1 < line.size()) {
                    // Journal strings only ever escape via
                    // appendJsonEscaped; unescape the simple cases
                    // and keep \uXXXX verbatim (identity is all the
                    // merge needs).
                    const char c = line[i + 1];
                    if (c == '"' || c == '\\')
                        value += c;
                    else if (c == 'n')
                        value += '\n';
                    else if (c == 't')
                        value += '\t';
                    else if (c == 'r')
                        value += '\r';
                    else {
                        value += line[i];
                        value += c;
                    }
                    i += 2;
                    continue;
                }
                value += line[i++];
            }
            if (i >= line.size())
                return false;
            ++i;
        } else {
            while (i < line.size() && line[i] != ',' && line[i] != '}')
                value += line[i++];
            while (!value.empty() &&
                   (value.back() == ' ' || value.back() == '\t'))
                value.pop_back();
            if (value.empty())
                return false;
        }
        fields.emplace_back(std::move(key), std::move(value));
        skipWs();
        if (i < line.size() && line[i] == ',') {
            ++i;
            continue;
        }
        if (i < line.size() && line[i] == '}')
            return true;
        return false;
    }
}

std::uint64_t
toU64(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 10);
}

} // namespace

bool
parseJournalLine(const std::string &line, JournalEvent &out)
{
    std::vector<std::pair<std::string, std::string>> fields;
    if (!scanFlatObject(line, fields))
        return false;
    out = JournalEvent{};
    for (const auto &[key, value] : fields) {
        if (key == "ev")
            out.ev = value;
        else if (key == "cell")
            out.cell = value;
        else if (key == "phase")
            out.phase = value;
        else if (key == "op")
            out.op = value;
        else if (key == "name")
            out.name = value;
        else if (key == "detail")
            out.detail = value;
        else if (key == "participant")
            ; // redundant with the file stem
        else if (key == "host")
            out.name = out.ev == "epoch" ? value : out.name;
        else if (key == "wall_us")
            out.wall_us = toU64(value);
        else if (key == "mono_us")
            out.mono_us = toU64(value);
        else if (key == "start_us")
            out.start_us = toU64(value);
        else if (key == "dur_us")
            out.dur_us = toU64(value);
        else if (key == "wait_us")
            out.wait_us = toU64(value);
        else if (key == "pid")
            out.pid = std::strtol(value.c_str(), nullptr, 10);
        else if (key == "stolen")
            out.stolen = value == "1" || value == "true";
        else if (key == "requeued")
            out.requeued = value == "1" || value == "true";
        // Unknown keys are ignored: a newer writer must not break an
        // older reader.
    }
    return !out.ev.empty();
}

bool
readJournal(const std::filesystem::path &path, ParticipantJournal &out,
            std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr)
            *error = "cannot read " + path.string();
        return false;
    }
    out = ParticipantJournal{};
    out.name = path.stem().string();
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JournalEvent e;
        if (!parseJournalLine(line, e))
            continue; // torn final line of a killed writer
        if (e.ev == "epoch") {
            JournalSegment seg;
            seg.epoch_wall_us = e.wall_us;
            seg.epoch_mono_us = e.mono_us;
            seg.pid = e.pid;
            seg.offset_us = static_cast<double>(e.wall_us) -
                            static_cast<double>(e.mono_us);
            out.segments.push_back(seg);
            if (!e.name.empty())
                out.host = e.name; // parse stashes host in name
            continue;
        }
        if (out.segments.empty())
            continue; // pre-epoch garbage
        e.segment = static_cast<int>(out.segments.size()) - 1;
        out.events.push_back(std::move(e));
    }
    if (out.segments.empty()) {
        if (error != nullptr)
            *error = path.string() + " has no epoch record";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Timeline merge.

namespace
{

double
alignedUs(const ParticipantJournal &p, int segment, std::uint64_t mono)
{
    return p.segments[static_cast<std::size_t>(segment)].offset_us +
           static_cast<double>(mono);
}

/**
 * Causal constraint relaxation. Epoch-record offsets are only as good
 * as each host's wall clock; two classes of events give hard
 * happens-before edges that survive any skew:
 *
 *  - spawn marks: a spawned worker's epoch cannot precede the
 *    coordinator's mark (the k-th spawn mark naming participant q
 *    pairs with q's k-th journal segment — workers are respawned per
 *    batch, appending one segment each);
 *  - requeued claims: a claim acquired by breaking a dead holder's
 *    lease cannot precede the cell's first (non-requeued) claim.
 *
 * Violations are repaired by pushing the *later* party's segment
 * offset forward (never backward: a forward-only shift cannot break a
 * previously-satisfied constraint of the same kind on that segment's
 * own earlier events). Bounded passes; the constraint graph is tiny.
 */
void
relaxOffsets(std::vector<ParticipantJournal> &journals)
{
    struct Constraint
    {
        // aligned(before) <= aligned(after)
        std::size_t before_j;
        int before_seg;
        std::uint64_t before_mono;
        std::size_t after_j;
        int after_seg;
        std::uint64_t after_mono;
    };
    std::vector<Constraint> constraints;

    std::map<std::string, std::size_t> by_name;
    for (std::size_t j = 0; j < journals.size(); ++j)
        by_name[journals[j].name] = j;

    // Spawn marks -> target segments, pairing k-th with k-th.
    std::map<std::string, std::size_t> spawn_seen;
    for (std::size_t j = 0; j < journals.size(); ++j) {
        for (const JournalEvent &e : journals[j].events) {
            if (e.ev != "mark" || e.name != "spawn")
                continue;
            const auto it = by_name.find(e.detail);
            if (it == by_name.end())
                continue;
            const std::size_t k = spawn_seen[e.detail]++;
            const ParticipantJournal &q = journals[it->second];
            if (k >= q.segments.size())
                continue;
            constraints.push_back(
                {j, e.segment, e.mono_us, it->second,
                 static_cast<int>(k), q.segments[k].epoch_mono_us});
        }
    }

    // First non-requeued claim of each cell -> its requeued claims.
    struct ClaimRef
    {
        std::size_t j;
        int seg;
        std::uint64_t mono;
    };
    std::map<std::string, ClaimRef> first_claim;
    std::vector<std::pair<std::string, ClaimRef>> requeued_claims;
    for (std::size_t j = 0; j < journals.size(); ++j) {
        for (const JournalEvent &e : journals[j].events) {
            if (e.ev != "claim")
                continue;
            const ClaimRef ref{j, e.segment, e.mono_us};
            if (e.requeued) {
                requeued_claims.emplace_back(e.cell, ref);
            } else if (first_claim.find(e.cell) == first_claim.end()) {
                first_claim.emplace(e.cell, ref);
            }
        }
    }
    for (const auto &[cell, r] : requeued_claims) {
        const auto it = first_claim.find(cell);
        if (it == first_claim.end())
            continue;
        const ClaimRef &f = it->second;
        constraints.push_back(
            {f.j, f.seg, f.mono, r.j, r.seg, r.mono});
    }

    for (int pass = 0; pass < 16; ++pass) {
        bool changed = false;
        for (const Constraint &c : constraints) {
            const double before = alignedUs(journals[c.before_j],
                                            c.before_seg, c.before_mono);
            const double after = alignedUs(journals[c.after_j],
                                           c.after_seg, c.after_mono);
            if (after < before) {
                journals[c.after_j]
                    .segments[static_cast<std::size_t>(c.after_seg)]
                    .offset_us += before - after;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
}

void
appendTraceEvent(std::string &out, bool &first, const char *name,
                 const char *cat, const char *ph, double ts,
                 std::size_t pid, const std::string &args_json,
                 std::uint64_t dur_us = 0)
{
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"";
    out += name;
    out += "\", \"cat\": \"";
    out += cat;
    out += "\", \"ph\": \"";
    out += ph;
    out += "\", \"ts\": ";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", std::max(0.0, ts));
    out += buf;
    if (std::strcmp(ph, "X") == 0) {
        out += ", \"dur\": ";
        out += std::to_string(dur_us);
    }
    if (std::strcmp(ph, "i") == 0)
        out += ", \"s\": \"t\"";
    out += ", \"pid\": ";
    out += std::to_string(pid);
    out += ", \"tid\": 0";
    if (!args_json.empty()) {
        out += ", \"args\": ";
        out += args_json;
    }
    out += "}";
}

std::string
cellArg(const std::string &cell)
{
    std::string args = "{\"cell\": \"";
    appendJsonEscaped(args, cell);
    args += "\"}";
    return args;
}

} // namespace

bool
mergeSweepTimeline(const std::filesystem::path &events_dir,
                   const std::filesystem::path &out_path,
                   std::string *error, TimelineStats *stats)
{
    std::error_code ec;
    std::vector<std::filesystem::path> files;
    std::filesystem::directory_iterator it(events_dir, ec);
    if (ec) {
        if (error != nullptr)
            *error = "cannot list " + events_dir.string();
        return false;
    }
    for (const auto &entry : it) {
        if (entry.path().extension() == ".jsonl")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    std::vector<ParticipantJournal> journals;
    for (const std::filesystem::path &f : files) {
        ParticipantJournal p;
        if (readJournal(f, p))
            journals.push_back(std::move(p));
    }
    if (journals.empty()) {
        if (error != nullptr)
            *error = "no readable journals under " +
                     events_dir.string();
        return false;
    }

    relaxOffsets(journals);

    // Normalize: the earliest aligned instant (epochs included)
    // becomes t=0 of the merged timeline.
    double t0 = std::numeric_limits<double>::max();
    for (const ParticipantJournal &p : journals) {
        for (std::size_t s = 0; s < p.segments.size(); ++s)
            t0 = std::min(t0, alignedUs(p, static_cast<int>(s),
                                        p.segments[s].epoch_mono_us));
        for (const JournalEvent &e : p.events) {
            t0 = std::min(t0, alignedUs(p, e.segment, e.mono_us));
            if (e.ev == "phase")
                t0 = std::min(t0,
                              alignedUs(p, e.segment, e.start_us));
        }
    }

    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    std::size_t n_events = 0;
    for (std::size_t j = 0; j < journals.size(); ++j) {
        const ParticipantJournal &p = journals[j];
        // Lane metadata: chrome://tracing shows the participant name
        // instead of a bare pid index.
        std::string lane = "{\"name\": \"";
        appendJsonEscaped(lane, p.name +
                                    (p.host.empty() ? ""
                                                    : " (" + p.host + ")"));
        lane += "\"}";
        out += first ? "\n" : ",\n";
        first = false;
        out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
        out += std::to_string(j);
        out += ", \"tid\": 0, \"args\": ";
        out += lane;
        out += "}";

        for (const JournalEvent &e : p.events) {
            const double ts = alignedUs(p, e.segment, e.mono_us) - t0;
            if (e.ev == "phase") {
                const double start =
                    alignedUs(p, e.segment, e.start_us) - t0;
                appendTraceEvent(out, first, e.phase.c_str(), "phase",
                                 "X", start, j, cellArg(e.cell),
                                 e.dur_us);
            } else if (e.ev == "claim") {
                const char *name = e.requeued ? "requeue"
                                   : e.stolen ? "steal"
                                              : "claim";
                std::string args = "{\"cell\": \"";
                appendJsonEscaped(args, e.cell);
                args += "\", \"wait_us\": ";
                args += std::to_string(e.wait_us);
                args += "}";
                appendTraceEvent(out, first, name, "sweep", "i", ts, j,
                                 args);
            } else if (e.ev == "publish") {
                appendTraceEvent(out, first, "publish", "sweep", "i",
                                 ts, j, cellArg(e.cell));
            } else if (e.ev == "lease") {
                const std::string name = "lease_" + e.op;
                appendTraceEvent(out, first, name.c_str(), "lease",
                                 "i", ts, j, cellArg(e.cell));
            } else if (e.ev == "mark") {
                std::string args = "{\"detail\": \"";
                appendJsonEscaped(args, e.detail);
                args += "\"}";
                appendTraceEvent(out, first, e.name.c_str(), "sweep",
                                 "i", ts, j, args);
            } else {
                continue; // begin/unknown: live-status only
            }
            ++n_events;
        }
    }
    out += "\n]}\n";

    if (!atomicWriteFile(out_path, out)) {
        if (error != nullptr)
            *error = "cannot write " + out_path.string();
        return false;
    }
    if (stats != nullptr) {
        stats->participants = journals.size();
        stats->events = n_events;
    }
    return true;
}

// ---------------------------------------------------------------------
// Histogram transport + anomaly detection.

void
appendHistText(std::string &out, const std::string &name,
               const LogHistogram &h)
{
    out += "hist ";
    out += name;
    out += " count " + std::to_string(h.count());
    out += " sum " + std::to_string(h.sum());
    out += " max " + std::to_string(h.max());
    out += " min " + std::to_string(h.min());
    out += " buckets ";
    bool first = true;
    for (std::uint32_t i = 0; i < LogHistogram::kBuckets; ++i) {
        const std::uint64_t c = h.bucket(i);
        if (c == 0)
            continue;
        if (!first)
            out += ',';
        first = false;
        out += std::to_string(i) + ":" + std::to_string(c);
    }
    if (first)
        out += '-'; // empty histogram placeholder
    out += '\n';
}

bool
parseHistLine(const std::string &line, std::string &name,
              LogHistogram &out)
{
    std::istringstream in(line);
    std::string tag, word;
    std::uint64_t count = 0, sum = 0, max = 0, min = 0;
    std::string buckets_text;
    if (!(in >> tag >> name) || tag != "hist")
        return false;
    if (!(in >> word >> count) || word != "count")
        return false;
    if (!(in >> word >> sum) || word != "sum")
        return false;
    if (!(in >> word >> max) || word != "max")
        return false;
    if (!(in >> word >> min) || word != "min")
        return false;
    if (!(in >> word >> buckets_text) || word != "buckets")
        return false;

    std::array<std::uint64_t, LogHistogram::kBuckets> buckets{};
    std::uint64_t seen = 0;
    if (buckets_text != "-") {
        const char *p = buckets_text.c_str();
        while (*p != '\0') {
            char *end = nullptr;
            const unsigned long idx = std::strtoul(p, &end, 10);
            if (end == p || *end != ':' ||
                idx >= LogHistogram::kBuckets)
                return false;
            p = end + 1;
            const std::uint64_t c = std::strtoull(p, &end, 10);
            if (end == p)
                return false;
            buckets[idx] += c;
            seen += c;
            p = end;
            if (*p == ',')
                ++p;
            else if (*p != '\0')
                return false;
        }
    }
    if (seen != count)
        return false; // torn/garbled line
    out = LogHistogram::fromParts(buckets, sum, max, min);
    return true;
}

std::vector<std::string>
sweepAnomalyWarnings(const LogHistogram &cell_us,
                     const std::string &slowest_cell,
                     std::uint64_t slowest_us, std::uint64_t requeued,
                     std::uint64_t cells, double k)
{
    std::vector<std::string> warnings;
    char buf[256];
    // Straggler: the slowest cell is far out on the batch's own
    // latency distribution. Needs a minimum population — with 3 cells
    // the "p90" is just the max and everything self-flags.
    if (cell_us.count() >= 4 && slowest_us > 0) {
        const double p90 = cell_us.percentile(0.90);
        if (static_cast<double>(slowest_us) > k * p90) {
            std::snprintf(
                buf, sizeof buf,
                "straggler: cell %s took %.1f ms vs p90 %.1f ms "
                "(more than %.3gx p90)",
                slowest_cell.empty() ? "?" : slowest_cell.c_str(),
                static_cast<double>(slowest_us) / 1000.0,
                p90 / 1000.0, k);
            warnings.emplace_back(buf);
        }
    }
    // Requeue storm: dead-holder requeues are expected at crash
    // scale (a handful), not at batch scale — a quarter of the batch
    // coming back through broken leases means lease churn (workers
    // dying repeatedly, or a staleness threshold far below real cell
    // latency).
    if (cells > 0 && requeued >= 4 && requeued * 4 >= cells) {
        std::snprintf(buf, sizeof buf,
                      "lease churn: %llu of %llu cells were requeued "
                      "from dead or stale holders",
                      static_cast<unsigned long long>(requeued),
                      static_cast<unsigned long long>(cells));
        warnings.emplace_back(buf);
    }
    return warnings;
}

} // namespace dice
