/**
 * @file
 * Write-ahead log for the batch server's mutable tenant graphs.
 *
 * The paper treats the irregular update stream as the first-class
 * object; this log persists exactly that stream. One record = one
 * admitted kMutate batch, payload = the already-hardened wire frame
 * encoding (src/server/frame.h) reused byte-for-byte — the WAL never
 * invents a second mutation format, so every replay goes back through
 * the same validated decode path the live server used.
 *
 * Record layout (little-endian, 40-byte header + payload):
 *
 *   +0   u32  magic   "CWAL"
 *   +4   u16  version
 *   +6   u16  flags   (must be zero)
 *   +8   u64  lsn     strictly sequential, starts at 1
 *   +16  u32  payloadLen
 *   +20  u32  crc32c  over the header with this field zeroed, then
 *                     the payload — header lies and payload rot are
 *                     one check. v1 covers bytes [8,40); v2 covers
 *                     [4,40), version and flags too, so a version
 *                     field flipped between two valid values fails
 *                     the CRC of the version it claims
 *   +24  u64  postFingerprint   the post-batch graph stamp:
 *                               v1 DynamicGraph::snapshotFingerprint(),
 *                               v2 DynamicGraph::edgeSetHash()
 *   +32  u64  postLiveEdges     live-edge count after the batch
 *
 * The post-state stamps make every record self-certifying: recovery
 * replays the batch through the normal PB-binned mutation path and
 * compares the resulting stamp against what the no-crash server
 * computed before acknowledging — a divergent replay is refused, never
 * served. The two versions differ in which stamp they carry (and in
 * the CRC's first covered byte). v2's O(batch) multiset hash keeps
 * the per-batch stamp off the O(V + E) ordered hash. The reader
 * accepts both, so a log written before v2 (or mixing the two) still
 * replays, each record checked against its own version's stamp. The
 * server writes DurabilityConfig::walStampVersion (default v1, which
 * a reader without v2 support can still recover).
 *
 * Segments: records append to `wal-<firstLsn>.log`; a checkpoint
 * rotates to a fresh segment so fully-covered segments can be deleted
 * (truncateWalBehind). The reader's contract is the crash-consistency
 * core: an *incomplete* record at the tail of the final segment is a
 * torn write (crash mid-append) and is truncated and reported; a
 * *complete* record that fails magic/version/CRC/LSN anywhere — or any
 * incomplete record before the final tail — is corruption and comes
 * back as a typed kCorruptFile. Acknowledged state is recoverable or
 * the error is loud; there is no silent third outcome.
 *
 * Fsync policy trades durability for throughput (EXPERIMENTS.md has
 * the A/B template): `always` fsyncs per record (acked => on disk),
 * `group:N` fsyncs every N records (a crash may lose up to N-1 acked
 * batches), `none` never fsyncs (the OS page cache decides).
 */

#ifndef COBRA_DURABILITY_WAL_H
#define COBRA_DURABILITY_WAL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace cobra {

inline constexpr uint32_t kWalMagic = 0x4C415743u; // "CWAL"
/** Record versions: which post-batch stamp postFingerprint holds. */
inline constexpr uint16_t kWalVersionSnapshotStamp = 1;
inline constexpr uint16_t kWalVersionEdgeSetStamp = 2;
inline constexpr size_t kWalHeaderBytes = 40;

/** Payload cap, mirroring the wire frame cap the payload came from. */
inline constexpr uint64_t kWalMaxPayloadBytes = 64ull << 20;

/** When appends reach the platter (see file comment for trade-offs). */
struct FsyncPolicy
{
    enum class Mode
    {
        kAlways,
        kGroup,
        kNone,
    };

    Mode mode = Mode::kAlways;
    uint32_t groupN = 8; ///< records per fsync under kGroup
};

/** Parse "always" | "group:N" | "none"; nullopt on anything else. */
std::optional<FsyncPolicy> parseFsyncPolicy(std::string_view spec);

std::string to_string(const FsyncPolicy &p);

/** One logged mutation batch plus its self-certification stamps. */
struct WalRecord
{
    uint16_t version = kWalVersionSnapshotStamp;
    uint64_t lsn = 0;
    uint64_t postFingerprint = 0;
    uint64_t postLiveEdges = 0;
    std::vector<uint8_t> payload; ///< encodeRequest() of the kMutate frame
};

/** Serialize one record (header + payload, CRC filled in). Throws
 * kInvalidArgument for a version the reader would not accept. */
std::vector<uint8_t> encodeWalRecord(const WalRecord &rec);

/**
 * Parse and fully validate one record from the front of @p data.
 * Never throws; any violation — truncation included — is a typed
 * Status (the fuzz harness holds it to that). On success @p consumed
 * receives the record's byte size.
 */
Status decodeWalRecord(const uint8_t *data, size_t len, WalRecord *out,
                       size_t *consumed);

/** Segment file name for a segment whose first record is @p lsn. */
std::string walSegmentName(uint64_t first_lsn);

/**
 * Appender for one WAL directory. Not thread-safe: the server
 * serializes appends under its own mutex (LSN assignment and the file
 * append must be atomic together anyway).
 *
 * Failure model: any append that cannot guarantee the record is
 * durable returns a typed error AND either rolls the file back to the
 * pre-append offset or poisons the writer (when even the rollback is
 * uncertain, e.g. an injected torn write). A poisoned writer fails
 * every later append with kUnavailable: after a write-path fault the
 * server keeps serving reads but stops acknowledging mutations it
 * could no longer recover.
 */
class WalWriter
{
  public:
    /**
     * Open (creating the directory if needed) the segment whose first
     * record will carry @p next_lsn. Throws Error(kIoError) when the
     * directory or segment cannot be created.
     */
    WalWriter(std::string dir, FsyncPolicy policy, uint64_t next_lsn);

    ~WalWriter();

    WalWriter(const WalWriter &) = delete;
    WalWriter &operator=(const WalWriter &) = delete;

    /**
     * Append @p rec (whose lsn the caller assigned) and apply the
     * fsync policy. Consults an active FaultInjector at the
     * wal-torn-write / wal-crc-flip / wal-fsync-fail seams.
     */
    Status append(const WalRecord &rec);

    /** Flush any group-pending records to disk now. */
    Status sync();

    /**
     * Close the current segment and start `wal-<next_lsn>.log` — the
     * checkpoint path calls this so covered segments become deletable.
     */
    Status rotate(uint64_t next_lsn);

    bool poisoned() const { return poisoned_; }

    const std::string &segmentPath() const { return segmentPath_; }

    uint64_t appendedBytes() const { return offset_; }

    /** Final sync + close (idempotent; the dtor calls it). */
    void close();

  private:
    Status openSegment(uint64_t first_lsn);
    Status doSync();
    void poison(const std::string &why);

    std::string dir_;
    FsyncPolicy policy_;
    std::string segmentPath_;
    int fd_ = -1;
    uint64_t offset_ = 0;   ///< bytes in the current segment
    uint32_t pending_ = 0;  ///< records appended since the last fsync
    bool poisoned_ = false;
    std::string poisonReason_;
};

/** What a full scan of a WAL directory found. */
struct WalReadResult
{
    std::vector<WalRecord> records; ///< lsn-ordered, CRC-verified
    size_t segments = 0;
    uint64_t tornTailBytes = 0;    ///< truncated from the final segment
    std::string tornSegment;       ///< path holding the torn tail
};

/**
 * Scan every segment in @p dir, oldest first. Returns Ok with the
 * verified records (and the torn-tail report) or a typed kCorruptFile
 * for mid-log damage. With @p repair_torn_tail the torn bytes are
 * physically truncated from the final segment, so a later writer can
 * reopen the directory with clean invariants.
 */
Status readWal(const std::string &dir, WalReadResult *out,
               bool repair_torn_tail = false);

/**
 * Delete segments whose every record has lsn <= @p covered_lsn (never
 * the newest segment). Called after a checkpoint covering those LSNs
 * has been durably renamed into place.
 */
Status truncateWalBehind(const std::string &dir, uint64_t covered_lsn);

} // namespace cobra

#endif // COBRA_DURABILITY_WAL_H
