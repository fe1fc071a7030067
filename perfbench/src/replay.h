/**
 * @file
 * The traced run's in-process half.
 *
 * Two passes over requests generated exactly like the measured run's,
 * both recorded into one cobra::TraceSession (spans.h):
 *
 *  - an in-process BatchServer pass: BatchServer::call with no socket.
 *    Requests alternate between traced (the session installed) and
 *    untraced calls. The traced calls yield the program's own spans:
 *    server.request / server.mutate / server.snapshot around execution,
 *    supervisor.attempt, pb.run, the PhaseRecorder's init / binning /
 *    accumulate brackets and server.checkpoint. For mutate_durable the
 *    server first recovers from the WAL directory the daemon left.
 *  - a replay that drives each request through the public functions
 *    the server composes — frame codec, kernel construction,
 *    RunSupervisor, the DynamicGraph trial commit, WalWriter, the
 *    incremental maintainers and their certification — with a
 *    benchmark span around each step the program does not trace
 *    itself. The program's spans fire inside it as well.
 *
 * Both passes number requests alike, so request r of the replay can be
 * set beside request r of the in-process pass: the replay's
 * server.execute span must take about as long as the program's own
 * execution span (kReplayTolerance), or the replay no longer does what
 * the server does.
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/obs/trace.h"

namespace perfbench {

/** Root span names of the two passes (spans.h). */
inline constexpr const char *kInprocRoot = "inproc.call";
inline constexpr const char *kCheckpointRoot = "inproc.checkpoint";
inline constexpr const char *kReplayRoot = "replay.request";

/** Largest relative difference allowed between the replay's execution
 * time and the program's, summed over the compared requests. */
inline constexpr double kReplayTolerance = 0.35;

struct ReplayResult
{
    /** BatchServer::call wall time by request id, traced or not. */
    std::map<uint64_t, double> tracedCallMs, untracedCallMs;
    /** Kind of every request id (both passes). */
    std::map<uint64_t, Kind> kinds;
    /** Updates the PB phases of each request process. */
    std::map<uint64_t, double> pbUpdates;

    // Counts and ratios measured where the work happens.
    std::vector<double> frameBytes; ///< encoded request bytes
    std::vector<double> pbBytes;    ///< computed bytes moved by PB phases
    std::vector<double> dirtyFrac;  ///< incremental dirty vertices / |V|
    std::vector<double> walBytesPerOp;
    uint64_t compactions = 0;

    double recoveryMs = 0.0;
    double checkpointBytes = 0.0;

    /** Replayed or in-process answers checked against a reference. */
    uint64_t checks = 0;
    uint64_t mismatches = 0;
};

/** run_large / mixed_small: every distinct frame through two
 * BatchServer::call (one traced), then once through the replay. */
ReplayResult replayRuns(const Inputs &in, cobra::TraceSession &session);

/**
 * mutate_durable, after the daemon stopped: recover an in-process
 * BatchServer from @p wal_dir, checkpoint it, and continue each
 * tenant's stream from request @p next_request[t] through
 * BatchServer::call; then replay the same requests from the state the
 * daemon checkpointed, checking every answer against the server's.
 */
ReplayResult replayMutations(const Inputs &in, const std::string &wal_dir,
                             const std::string &scratch_dir,
                             const std::vector<uint64_t> &next_request,
                             cobra::TraceSession &session);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
