/**
 * @file
 * Shared-filesystem claim/lease files.
 *
 * The sweep scheduler's per-cell leases (`bench/sweep_queue.cpp`)
 * coordinate exactly-once work across processes — possibly on
 * different hosts sharing one filesystem — through small marker files
 * created with O_EXCL. This module is the implementation of that
 * protocol.
 *
 * A claim file's body is `pid <pid> host <host>\n`. Liveness is
 * decided in two tiers:
 *  - same host: the pid is probed directly (kill(pid, 0)), so a
 *    crashed holder's claim is breakable immediately;
 *  - different host (or unparseable body): the claim is presumed live
 *    until its mtime outlives the caller's staleness threshold — the
 *    shared-filesystem fallback. Holders of long-running work keep
 *    their claims fresh by periodically rewriting them
 *    (refreshClaimFile), so only a dead or wedged holder ever goes
 *    stale.
 *
 * Breakers remove the stale file and retake it via O_EXCL, so two
 * breakers racing on the same stale claim cannot both win.
 */

#ifndef DICE_COMMON_CLAIM_FILE_HPP
#define DICE_COMMON_CLAIM_FILE_HPP

#include <cstdint>
#include <filesystem>
#include <string>

namespace dice
{

/** This process's pid, as written into claim bodies. */
long claimPid();

/** This machine's hostname ("unknown" if unavailable). */
const std::string &claimHost();

/** Whether a same-host pid still names a live process. */
bool claimPidAlive(long pid);

/** Parse a `pid <pid> host <host>` claim body; false on garbage. */
bool parseClaimBody(const std::string &content, long &pid,
                    std::string &host);

/** Seconds since @p path was last written (0 on stat failure). */
std::uint64_t fileAgeSeconds(const std::filesystem::path &path);

/** Outcome of an O_EXCL claim-file creation attempt. */
enum class ClaimAttempt
{
    Acquired, ///< The file was created; this process holds the claim.
    Busy,     ///< The file already exists (someone else holds it).
    Error     ///< Unclaimable (read-only dir, no O_EXCL support, ...).
};

/**
 * Atomically create @p path with this process's `pid/host` body.
 * Never blocks; Busy means the caller should check liveness and
 * either wait or break the claim.
 */
ClaimAttempt createClaimFile(const std::filesystem::path &path);

/**
 * Whether @p path names a claim whose holder is presumed alive:
 * the file exists, its same-host pid (if parseable) is live, and its
 * mtime is younger than @p stale_seconds. False means the claim is
 * safe to break (or was already released).
 */
bool claimFileLive(const std::filesystem::path &path,
                   std::uint64_t stale_seconds);

/**
 * Rewrite @p path's body (atomic replace) to push its mtime forward —
 * the holder's heartbeat. Only the claim holder may call this; false
 * on I/O failure (the claim then ages toward staleness as if the
 * holder had died, which is the safe direction).
 */
bool refreshClaimFile(const std::filesystem::path &path);

/**
 * Crash- and race-safe small-file publish: @p content goes to a
 * unique temp name in @p path's directory, then renames into place,
 * so concurrent writers never collide and readers never observe a
 * torn file. False on I/O failure.
 */
bool atomicWriteFile(const std::filesystem::path &path,
                     const std::string &content);

} // namespace dice

#endif // DICE_COMMON_CLAIM_FILE_HPP
