/**
 * @file
 * Durability configuration and the recovery report.
 *
 * The contract this subsystem adds to the batch server (DESIGN.md §16):
 * with durability enabled, a mutation is acknowledged only after its
 * WAL record is on disk (per the fsync policy), and on restart the
 * server either reconstructs *exactly* the acknowledged state —
 * checkpoint + WAL-suffix replay through the normal PB-binned mutation
 * path, certified record-by-record against the logged fingerprints —
 * or refuses to start with a typed error. Serving divergent state is
 * never an outcome.
 */

#ifndef COBRA_DURABILITY_DURABILITY_H
#define COBRA_DURABILITY_DURABILITY_H

#include <chrono>
#include <cstdint>
#include <string>

#include "src/durability/wal.h"

namespace cobra {

/** Knobs for the server's durability layer. */
struct DurabilityConfig
{
    /** WAL + checkpoint directory; empty disables durability (the
     * server then behaves exactly like the memory-only PR it grew
     * from — the A/B baseline). */
    std::string walDir;

    FsyncPolicy fsync;

    /** Version of the WAL records live batches append (wal.h): v1
     * stamps the O(V + E) ordered snapshotFingerprint(), v2 the
     * O(batch) edgeSetHash(). Recovery reads either, whatever this
     * says. v1 stays the default so a log this server writes still
     * recovers on a server that reads only v1; set v2 once no such
     * server has to read the log. */
    uint16_t walStampVersion = kWalVersionSnapshotStamp;

    /** Background checkpoint cadence; zero means checkpoint only at
     * graceful shutdown. */
    std::chrono::milliseconds checkpointInterval{0};

    /** Write a final checkpoint during stop(). Disabled by crash tests
     * to model kill -9 in-process: stop() then tears down without the
     * checkpoint, leaving exactly what a dead process leaves. */
    bool checkpointOnShutdown = true;

    /** Replay watchdog: recovery that cannot finish inside this bound
     * is refused typed (kDeadlineExceeded). Zero = unbounded. */
    std::chrono::milliseconds recoveryDeadline{0};

    /** Cap on bytes recovery may materialize (checkpoint CSRs + replay
     * payloads). Zero = unbounded. */
    uint64_t recoveryBudgetBytes = 0;

    bool enabled() const { return !walDir.empty(); }
};

/** What startup recovery found and did (surfaced via server stats and
 * the durability.recovery.* metrics). */
struct RecoveryReport
{
    bool ran = false;               ///< durability enabled at startup
    bool checkpointLoaded = false;
    uint64_t checkpointLsn = 0;     ///< capture lsn of the loaded ckpt
    uint64_t checkpointTenants = 0;
    uint64_t walRecords = 0;        ///< verified records found on disk
    uint64_t replayedBatches = 0;   ///< records replayed past the ckpt
    uint64_t replayedV1Records = 0; ///< of those: snapshot-stamped (v1)
    uint64_t replayedV2Records = 0; ///< of those: edge-set-stamped (v2)
    uint64_t replayedOps = 0;       ///< mutation ops inside those
    uint64_t skippedRecords = 0;    ///< already covered by the ckpt
    uint64_t tornTailBytes = 0;     ///< truncated from the final segment
    uint64_t durationMicros = 0;
};

} // namespace cobra

#endif // COBRA_DURABILITY_DURABILITY_H
