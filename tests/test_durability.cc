/**
 * @file
 * Crash-injection certification of the durability subsystem
 * (DESIGN.md §16): WAL record codec, writer fault semantics, the
 * torn-tail-vs-corruption classification matrix, checkpoint
 * write/load/prune atomicity, and the server-level contract — after
 * any modeled crash, recovery reconstructs exactly the acknowledged
 * state or refuses with a typed error. Serving divergent state is
 * never an outcome, and the matrices here hold the code to it:
 *
 *  - the final segment truncated at EVERY byte boundary must read
 *    back as the complete-record prefix plus a reported torn tail;
 *  - EVERY single-byte flip of a complete record must be rejected
 *    typed (kCorruptFile), at the tail or mid-log;
 *  - every checkpoint/WAL interleaving the server can produce
 *    (no checkpoint, one, two, corrupt-newest, lost suffix) must
 *    recover to the no-crash fingerprint or refuse;
 *  - both record versions — v1 (snapshotFingerprint stamp, what
 *    older servers wrote) and v2 (edgeSetHash stamp, what the server
 *    writes) — run through the codec and reader matrices, a v1 log
 *    and a v1-then-v2 log recover, and a lying stamp of either
 *    version refuses startup.
 *
 * The in-process crash model: cfg.durability.checkpointOnShutdown =
 * false makes stop() tear down without the final checkpoint, leaving
 * on disk exactly what a kill -9 after the last acknowledged fsync
 * leaves. scripts/soak.sh --crash runs the same matrix against the
 * real daemon with real SIGKILL.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/check/fault_injector.h"
#include "src/durability/checkpoint.h"
#include "src/durability/durability.h"
#include "src/durability/wal.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/generators.h"
#include "src/server/batch_server.h"
#include "src/server/frame.h"
#include "src/util/thread_pool.h"

namespace fs = std::filesystem;

namespace cobra {
namespace {

fs::path
freshDir(const std::string &name)
{
    const fs::path p = fs::temp_directory_path() /
                       ("cobra_durability_" +
                        std::to_string(::getpid()) + "_" + name);
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream is(p, std::ios::binary);
    std::ostringstream oss;
    oss << is.rdbuf();
    return oss.str();
}

void
spit(const fs::path &p, const std::string &bytes)
{
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

WalRecord
makeRecord(uint64_t lsn, size_t payload_bytes,
           uint16_t version = kWalVersionSnapshotStamp)
{
    WalRecord rec;
    rec.version = version;
    rec.lsn = lsn;
    rec.postFingerprint = 0x1000 + lsn;
    rec.postLiveEdges = 10 * lsn;
    rec.payload.resize(payload_bytes);
    for (size_t i = 0; i < payload_bytes; ++i)
        rec.payload[i] = static_cast<uint8_t>(lsn * 31 + i);
    return rec;
}

// ------------------------------------------------- fsync policy

TEST(FsyncPolicy, ParseAndRoundTrip)
{
    auto p = parseFsyncPolicy("always");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->mode, FsyncPolicy::Mode::kAlways);
    EXPECT_EQ(to_string(*p), "always");

    p = parseFsyncPolicy("none");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->mode, FsyncPolicy::Mode::kNone);
    EXPECT_EQ(to_string(*p), "none");

    p = parseFsyncPolicy("group:16");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->mode, FsyncPolicy::Mode::kGroup);
    EXPECT_EQ(p->groupN, 16u);
    EXPECT_EQ(to_string(*p), "group:16");

    EXPECT_TRUE(parseFsyncPolicy("group:1").has_value());
    for (const char *bad :
         {"", "Always", "group", "group:", "group:0", "group:x",
          "group:-1", "always ", "none:1", "group:1048577"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(parseFsyncPolicy(bad).has_value());
    }
}

// ------------------------------------------------- record codec

/** Both record versions the reader accepts (v1: snapshot stamp, v2:
 * edge-set stamp); the codec and reader matrices run over each. */
constexpr uint16_t kVersions[] = {kWalVersionSnapshotStamp,
                                  kWalVersionEdgeSetStamp};

TEST(WalRecord, RoundTripIncludingEmptyPayload)
{
    for (uint16_t version : kVersions)
        for (size_t payload : {size_t{0}, size_t{1}, size_t{48},
                               size_t{1000}}) {
            SCOPED_TRACE(payload);
            SCOPED_TRACE(version);
            const WalRecord rec = makeRecord(7, payload, version);
            const std::vector<uint8_t> buf = encodeWalRecord(rec);
            ASSERT_EQ(buf.size(), kWalHeaderBytes + payload);
            WalRecord got;
            size_t consumed = 0;
            ASSERT_TRUE(
                decodeWalRecord(buf.data(), buf.size(), &got, &consumed)
                    .ok());
            EXPECT_EQ(consumed, buf.size());
            EXPECT_EQ(got.version, version);
            EXPECT_EQ(got.lsn, rec.lsn);
            EXPECT_EQ(got.postFingerprint, rec.postFingerprint);
            EXPECT_EQ(got.postLiveEdges, rec.postLiveEdges);
            EXPECT_EQ(got.payload, rec.payload);
        }
}

TEST(WalRecord, DefaultIsVersionOneAndUnknownVersionsDoNotEncode)
{
    EXPECT_EQ(WalRecord{}.version, kWalVersionSnapshotStamp);
    const std::vector<uint8_t> buf = encodeWalRecord(makeRecord(1, 4));
    EXPECT_EQ(buf[4], kWalVersionSnapshotStamp);
    EXPECT_EQ(buf[5], 0u);
    for (uint16_t bad : {uint16_t{0}, uint16_t{3}, uint16_t{9}}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(encodeWalRecord(makeRecord(1, 4, bad)), Error);
    }
}

// The corruption matrix at its finest grain: every single-byte flip of
// a complete record — header, stamps, and payload alike — must come
// back as a typed kCorruptFile, never as a silently different record.
TEST(WalRecord, EveryByteFlipIsRejectedTyped)
{
    for (uint16_t version : kVersions) {
        SCOPED_TRACE(version);
        const std::vector<uint8_t> buf =
            encodeWalRecord(makeRecord(3, 21, version));
        for (size_t site = 0; site < buf.size(); ++site) {
            SCOPED_TRACE(site);
            std::vector<uint8_t> bad = buf;
            bad[site] ^= 0xFF;
            WalRecord got;
            size_t consumed = 0;
            const Status s =
                decodeWalRecord(bad.data(), bad.size(), &got, &consumed);
            ASSERT_FALSE(s.ok());
            EXPECT_EQ(s.code(), ErrorCode::kCorruptFile) << s.toString();
        }
    }
}

// ^0xFF above never turns one valid version into the other; ^0x03 on
// the version byte swaps 1 and 2. v2's CRC covers the version field,
// so the swap fails the CRC of whichever version the record claims.
TEST(WalRecord, VersionSwapIsRejectedTyped)
{
    for (uint16_t version : kVersions) {
        SCOPED_TRACE(version);
        std::vector<uint8_t> bad =
            encodeWalRecord(makeRecord(3, 21, version));
        bad[4] ^= 0x03;
        ASSERT_NE(bad[4], version);
        const Status s =
            decodeWalRecord(bad.data(), bad.size(), nullptr, nullptr);
        ASSERT_FALSE(s.ok());
        EXPECT_EQ(s.code(), ErrorCode::kCorruptFile) << s.toString();
        EXPECT_NE(s.message().find("CRC"), std::string::npos)
            << s.toString();
    }
}

TEST(WalRecord, StructuralViolationsAreTyped)
{
    const std::vector<uint8_t> buf = encodeWalRecord(makeRecord(1, 16));

    // Truncation at any point is a typed reject (the *reader* decides
    // whether a truncated tail is survivable, not the codec).
    for (size_t len : {size_t{0}, size_t{7}, size_t{39},
                       buf.size() - 1}) {
        SCOPED_TRACE(len);
        WalRecord got;
        size_t consumed = 0;
        EXPECT_EQ(decodeWalRecord(buf.data(), len, &got, &consumed)
                      .code(),
                  ErrorCode::kCorruptFile);
    }

    // A payloadLen past the cap must reject before any allocation.
    std::vector<uint8_t> lying = buf;
    const uint64_t absurd = kWalMaxPayloadBytes + 1;
    for (int i = 0; i < 4; ++i)
        lying[16 + i] = static_cast<uint8_t>(absurd >> (8 * i));
    WalRecord got;
    size_t consumed = 0;
    const Status s =
        decodeWalRecord(lying.data(), lying.size(), &got, &consumed);
    EXPECT_EQ(s.code(), ErrorCode::kCorruptFile);
    EXPECT_NE(s.message().find("payload"), std::string::npos)
        << s.message();
}

TEST(WalRecord, SegmentNameIsZeroPadded)
{
    EXPECT_EQ(walSegmentName(1), "wal-00000000000000000001.log");
    EXPECT_EQ(walSegmentName(123456), "wal-00000000000000123456.log");
}

// ------------------------------------------------- writer + reader

TEST(WalWriter, AppendedRecordsReadBackInOrder)
{
    const fs::path dir = freshDir("append_read");
    {
        WalWriter w(dir.string(), *parseFsyncPolicy("always"), 1);
        for (uint64_t lsn = 1; lsn <= 5; ++lsn)
            ASSERT_TRUE(w.append(makeRecord(lsn, 8 * lsn)).ok());
        EXPECT_FALSE(w.poisoned());
        EXPECT_GT(w.appendedBytes(), 5 * kWalHeaderBytes);
    }
    WalReadResult rr;
    ASSERT_TRUE(readWal(dir.string(), &rr).ok());
    EXPECT_EQ(rr.segments, 1u);
    EXPECT_EQ(rr.tornTailBytes, 0u);
    ASSERT_EQ(rr.records.size(), 5u);
    for (uint64_t lsn = 1; lsn <= 5; ++lsn) {
        EXPECT_EQ(rr.records[lsn - 1].lsn, lsn);
        EXPECT_EQ(rr.records[lsn - 1].payload,
                  makeRecord(lsn, 8 * lsn).payload);
    }
}

TEST(WalWriter, RotationStitchesSegments)
{
    const fs::path dir = freshDir("rotate");
    {
        WalWriter w(dir.string(), *parseFsyncPolicy("group:4"), 1);
        ASSERT_TRUE(w.append(makeRecord(1, 10)).ok());
        ASSERT_TRUE(w.append(makeRecord(2, 10)).ok());
        ASSERT_TRUE(w.rotate(3).ok());
        ASSERT_TRUE(w.append(makeRecord(3, 10)).ok());
        ASSERT_TRUE(w.rotate(4).ok()); // empty segment is legal
        ASSERT_TRUE(w.rotate(4).ok()); // rotate with no traffic: same name
        ASSERT_TRUE(w.append(makeRecord(4, 10)).ok());
        ASSERT_TRUE(w.sync().ok());
    }
    EXPECT_TRUE(fs::exists(dir / walSegmentName(1)));
    EXPECT_TRUE(fs::exists(dir / walSegmentName(3)));
    EXPECT_TRUE(fs::exists(dir / walSegmentName(4)));
    WalReadResult rr;
    ASSERT_TRUE(readWal(dir.string(), &rr).ok());
    EXPECT_EQ(rr.segments, 3u);
    ASSERT_EQ(rr.records.size(), 4u);
    for (uint64_t lsn = 1; lsn <= 4; ++lsn)
        EXPECT_EQ(rr.records[lsn - 1].lsn, lsn);
}

// The crash-consistency core, exhaustively: one segment of three
// records (record i has version versions[i]), truncated at EVERY byte
// length. Each prefix must read back as exactly the complete records
// that fit, with the remainder reported as the torn tail — Ok at every
// single length, because a crash mid-append can produce any of these
// files.
void
tornTailMatrix(const std::vector<uint16_t> &versions)
{
    const fs::path ref = freshDir("torn_ref");
    {
        WalWriter w(ref.string(), *parseFsyncPolicy("none"), 1);
        ASSERT_TRUE(w.append(makeRecord(1, 30, versions[0])).ok());
        ASSERT_TRUE(w.append(makeRecord(2, 0, versions[1])).ok());
        ASSERT_TRUE(w.append(makeRecord(3, 17, versions[2])).ok());
    }
    const std::string full = slurp(ref / walSegmentName(1));
    const size_t b1 = kWalHeaderBytes + 30;
    const size_t b2 = b1 + kWalHeaderBytes + 0;
    const size_t b3 = b2 + kWalHeaderBytes + 17;
    ASSERT_EQ(full.size(), b3);

    const fs::path dir = freshDir("torn_matrix");
    for (size_t len = 0; len <= full.size(); ++len) {
        SCOPED_TRACE(len);
        spit(dir / walSegmentName(1), full.substr(0, len));
        WalReadResult rr;
        ASSERT_TRUE(readWal(dir.string(), &rr).ok());
        const size_t boundary = len >= b3 ? b3
                                : len >= b2 ? b2
                                : len >= b1 ? b1
                                            : 0;
        EXPECT_EQ(rr.records.size(),
                  boundary == b3   ? 3u
                  : boundary == b2 ? 2u
                  : boundary == b1 ? 1u
                                   : 0u);
        for (size_t i = 0; i < rr.records.size(); ++i)
            EXPECT_EQ(rr.records[i].version, versions[i]);
        EXPECT_EQ(rr.tornTailBytes, len - boundary);
        if (len != boundary)
            EXPECT_FALSE(rr.tornSegment.empty());
    }
}

// All-v1, all-v2, and a segment that switches from v1 to v2.
TEST(WalReader, TornTailAtEveryByteBoundaryIsSurvivable)
{
    using Pattern = std::vector<uint16_t>;
    for (const Pattern &versions :
         {Pattern{1, 1, 1}, Pattern{2, 2, 2}, Pattern{1, 2, 2}}) {
        SCOPED_TRACE(::testing::PrintToString(versions));
        tornTailMatrix(versions);
    }
}

TEST(WalReader, RepairPhysicallyTruncatesTheTornTail)
{
    const fs::path dir = freshDir("torn_repair");
    {
        WalWriter w(dir.string(), *parseFsyncPolicy("none"), 1);
        ASSERT_TRUE(w.append(makeRecord(1, 30)).ok());
        ASSERT_TRUE(w.append(makeRecord(2, 12)).ok());
    }
    const fs::path seg = dir / walSegmentName(1);
    const std::string full = slurp(seg);
    const size_t boundary = kWalHeaderBytes + 30;
    spit(seg, full.substr(0, boundary + 25)); // mid-record-2 crash

    WalReadResult rr;
    ASSERT_TRUE(readWal(dir.string(), &rr, /*repair=*/true).ok());
    ASSERT_EQ(rr.records.size(), 1u);
    EXPECT_EQ(rr.tornTailBytes, 25u);
    EXPECT_EQ(fs::file_size(seg), boundary);

    // Second read: the invariants are clean again, nothing torn.
    WalReadResult rr2;
    ASSERT_TRUE(readWal(dir.string(), &rr2).ok());
    EXPECT_EQ(rr2.records.size(), 1u);
    EXPECT_EQ(rr2.tornTailBytes, 0u);
}

// A COMPLETE record that fails validation is corruption even at the
// tail: a crash can only produce a prefix, so a full-length bad record
// means the bytes rotted (or were tampered with) after the ack.
TEST(WalReader, CompleteBadRecordAtTailIsCorruptionNotTorn)
{
    const fs::path dir = freshDir("bad_tail");
    {
        WalWriter w(dir.string(), *parseFsyncPolicy("none"), 1);
        ASSERT_TRUE(w.append(makeRecord(1, 8)).ok());
        ASSERT_TRUE(w.append(makeRecord(2, 8)).ok());
    }
    const fs::path seg = dir / walSegmentName(1);
    std::string bytes = slurp(seg);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
    spit(seg, bytes);
    WalReadResult rr;
    EXPECT_EQ(readWal(dir.string(), &rr).code(),
              ErrorCode::kCorruptFile);
}

// Mid-log damage matrix: flip every byte of the FIRST record while a
// record follows it. The reader's invariant: the outcome is either a
// typed kCorruptFile, or Ok with a VERIFIED prefix of the original
// records plus a torn tail covering every remaining byte — never
// silently different records. (The Ok case is real: inflating
// payloadLen makes the record claim bytes past EOF, which is
// byte-for-byte indistinguishable from a crash mid-append of a larger
// record. The reader must treat it as torn; the server-level LSN
// continuity and fingerprint certification catch the loss whenever a
// checkpoint proves the records existed.)
TEST(WalReader, EveryMidLogFlipRefusesOrTruncatesNeverMisreads)
{
    for (uint16_t version : kVersions) {
        SCOPED_TRACE(version);
        const fs::path ref = freshDir("midlog_ref");
        {
            WalWriter w(ref.string(), *parseFsyncPolicy("none"), 1);
            ASSERT_TRUE(w.append(makeRecord(1, 48, version)).ok());
            ASSERT_TRUE(w.append(makeRecord(2, 8, version)).ok());
        }
        const std::string full = slurp(ref / walSegmentName(1));
        const size_t rec1 = kWalHeaderBytes + 48;

        const fs::path dir = freshDir("midlog_matrix");
        for (size_t site = 0; site < rec1; ++site) {
            SCOPED_TRACE(site);
            std::string bytes = full;
            bytes[site] = static_cast<char>(bytes[site] ^ 0xFF);
            spit(dir / walSegmentName(1), bytes);
            WalReadResult rr;
            const Status s = readWal(dir.string(), &rr);
            if (!s.ok()) {
                EXPECT_EQ(s.code(), ErrorCode::kCorruptFile)
                    << s.toString();
                continue;
            }
            // Only the length fields can reach here, and only by
            // making the record incomplete — which must surface as
            // zero records and the whole file reported torn, never as
            // a misread.
            EXPECT_GE(site, 16u);
            EXPECT_LT(site, 20u);
            EXPECT_EQ(rr.records.size(), 0u);
            EXPECT_EQ(rr.tornTailBytes, bytes.size());
        }
    }
}

TEST(WalReader, TornTailInNonFinalSegmentIsCorruption)
{
    const fs::path dir = freshDir("torn_nonfinal");
    {
        WalWriter w(dir.string(), *parseFsyncPolicy("none"), 1);
        ASSERT_TRUE(w.append(makeRecord(1, 20)).ok());
        ASSERT_TRUE(w.rotate(2).ok());
        ASSERT_TRUE(w.append(makeRecord(2, 20)).ok());
    }
    const fs::path seg1 = dir / walSegmentName(1);
    const std::string bytes = slurp(seg1);
    spit(seg1, bytes.substr(0, bytes.size() - 5));
    WalReadResult rr;
    const Status s = readWal(dir.string(), &rr);
    EXPECT_EQ(s.code(), ErrorCode::kCorruptFile);
    EXPECT_NE(s.message().find("crash"), std::string::npos)
        << s.message();
}

TEST(WalReader, MissingMiddleSegmentIsCorruption)
{
    const fs::path dir = freshDir("missing_segment");
    {
        WalWriter w(dir.string(), *parseFsyncPolicy("none"), 1);
        ASSERT_TRUE(w.append(makeRecord(1, 4)).ok());
        ASSERT_TRUE(w.rotate(2).ok());
        ASSERT_TRUE(w.append(makeRecord(2, 4)).ok());
        ASSERT_TRUE(w.rotate(3).ok());
        ASSERT_TRUE(w.append(makeRecord(3, 4)).ok());
    }
    fs::remove(dir / walSegmentName(2));
    WalReadResult rr;
    const Status s = readWal(dir.string(), &rr);
    EXPECT_EQ(s.code(), ErrorCode::kCorruptFile);
    EXPECT_NE(s.message().find("missing"), std::string::npos)
        << s.message();
}

TEST(WalReader, LsnDiscontinuityInsideSegmentIsCorruption)
{
    const fs::path dir = freshDir("lsn_gap");
    const std::vector<uint8_t> r1 = encodeWalRecord(makeRecord(1, 4));
    const std::vector<uint8_t> r3 = encodeWalRecord(makeRecord(3, 4));
    std::string bytes(r1.begin(), r1.end());
    bytes.append(r3.begin(), r3.end());
    spit(dir / walSegmentName(1), bytes);
    WalReadResult rr;
    EXPECT_EQ(readWal(dir.string(), &rr).code(),
              ErrorCode::kCorruptFile);
}

TEST(WalReader, TruncateBehindDeletesOnlyFullyCoveredSegments)
{
    const fs::path dir = freshDir("truncate_behind");
    {
        WalWriter w(dir.string(), *parseFsyncPolicy("none"), 1);
        ASSERT_TRUE(w.append(makeRecord(1, 4)).ok());
        ASSERT_TRUE(w.append(makeRecord(2, 4)).ok());
        ASSERT_TRUE(w.rotate(3).ok());
        ASSERT_TRUE(w.append(makeRecord(3, 4)).ok());
        ASSERT_TRUE(w.rotate(4).ok());
        ASSERT_TRUE(w.append(makeRecord(4, 4)).ok());
    }
    // lsn 1 covered: segment [1,2] still holds the uncovered record 2.
    ASSERT_TRUE(truncateWalBehind(dir.string(), 1).ok());
    EXPECT_TRUE(fs::exists(dir / walSegmentName(1)));

    // lsn 2 covered: segment [1,2] is now fully behind the cover;
    // segment [3] is not (record 3 > 2).
    ASSERT_TRUE(truncateWalBehind(dir.string(), 2).ok());
    EXPECT_FALSE(fs::exists(dir / walSegmentName(1)));
    EXPECT_TRUE(fs::exists(dir / walSegmentName(3)));

    // The newest segment survives any cover, even total.
    ASSERT_TRUE(truncateWalBehind(dir.string(), 1000).ok());
    EXPECT_FALSE(fs::exists(dir / walSegmentName(3)));
    EXPECT_TRUE(fs::exists(dir / walSegmentName(4)));
}

// ------------------------------------------------- writer faults

TEST(WalWriterFaults, TornWritePoisonsAndReaderSurvives)
{
    const fs::path dir = freshDir("fault_torn");
    WalWriter w(dir.string(), *parseFsyncPolicy("always"), 1);
    ASSERT_TRUE(w.append(makeRecord(1, 16)).ok());
    {
        FaultInjector fi(FaultSite::kWalTornWrite, 1);
        FaultInjector::Scope scope(fi);
        const Status s = w.append(makeRecord(2, 16));
        ASSERT_FALSE(s.ok());
        EXPECT_EQ(s.code(), ErrorCode::kIoError);
        EXPECT_NE(s.message().find("not acknowledged"),
                  std::string::npos)
            << s.message();
    }
    EXPECT_TRUE(w.poisoned());
    // Poison is sticky: the writer refuses to take acks it could not
    // recover, but never crashes the process.
    EXPECT_EQ(w.append(makeRecord(3, 16)).code(),
              ErrorCode::kUnavailable);
    EXPECT_EQ(w.sync().code(), ErrorCode::kUnavailable);

    // On disk: record 1 complete, record 2 torn — exactly the file a
    // crash leaves, so recovery reads it with the torn-tail rule.
    WalReadResult rr;
    ASSERT_TRUE(readWal(dir.string(), &rr, /*repair=*/true).ok());
    ASSERT_EQ(rr.records.size(), 1u);
    EXPECT_EQ(rr.records[0].lsn, 1u);
    EXPECT_GT(rr.tornTailBytes, 0u);
}

TEST(WalWriterFaults, FsyncFailureRollsBackTheUnackedRecord)
{
    const fs::path dir = freshDir("fault_fsync");
    WalWriter w(dir.string(), *parseFsyncPolicy("always"), 1);
    ASSERT_TRUE(w.append(makeRecord(1, 16)).ok());
    const uint64_t before = w.appendedBytes();
    {
        FaultInjector fi(FaultSite::kWalFsyncFail, 1);
        FaultInjector::Scope scope(fi);
        EXPECT_EQ(w.append(makeRecord(2, 16)).code(),
                  ErrorCode::kIoError);
    }
    EXPECT_TRUE(w.poisoned());
    EXPECT_EQ(w.appendedBytes(), before);
    // The rollback leaves a clean prefix: no torn tail at all.
    WalReadResult rr;
    ASSERT_TRUE(readWal(dir.string(), &rr).ok());
    ASSERT_EQ(rr.records.size(), 1u);
    EXPECT_EQ(rr.tornTailBytes, 0u);
}

TEST(WalWriterFaults, CrcFlipIsSilentAtWriteLoudAtRead)
{
    const fs::path dir = freshDir("fault_crc");
    WalWriter w(dir.string(), *parseFsyncPolicy("always"), 1);
    {
        FaultInjector fi(FaultSite::kWalCrcFlip, 1);
        FaultInjector::Scope scope(fi);
        // Silent data corruption by design: the write path cannot see
        // it (that is what makes it the nastiest fault in the matrix).
        ASSERT_TRUE(w.append(makeRecord(1, 16)).ok());
    }
    EXPECT_FALSE(w.poisoned());
    w.close();
    WalReadResult rr;
    EXPECT_EQ(readWal(dir.string(), &rr).code(),
              ErrorCode::kCorruptFile);
}

// ------------------------------------------------- checkpoints

Checkpoint
makeCheckpoint(uint64_t lsn, const std::vector<uint64_t> &tenants)
{
    Checkpoint ck;
    ck.lsn = lsn;
    const EdgeList edges = generateUniform(1 << 6, 1 << 8, 11);
    for (uint64_t t : tenants) {
        DynamicGraph g(1 << 6);
        MutationBatch batch;
        for (size_t i = 0; i < 64 + t; ++i) {
            const Edge &e = edges[(t * 17 + i) % edges.size()];
            batch.insert(e.src, e.dst);
        }
        g.applyBatch(batch);
        TenantCheckpoint tc;
        tc.tenantId = t;
        tc.coveredLsn = lsn;
        tc.numIndices = 1 << 6;
        tc.fingerprint = g.snapshotFingerprint();
        tc.csr = g.snapshotCsr();
        ck.tenants.push_back(std::move(tc));
    }
    return ck;
}

TEST(Checkpoints, WriteLoadRoundTrip)
{
    const fs::path dir = freshDir("ckpt_roundtrip");
    const Checkpoint ck = makeCheckpoint(42, {3, 9});
    std::string path;
    ASSERT_TRUE(writeCheckpoint(dir.string(), ck, &path).ok());
    EXPECT_EQ(fs::path(path).filename().string(), checkpointName(42));

    Checkpoint got;
    bool found = false;
    std::string loaded;
    ASSERT_TRUE(loadNewestValidCheckpoint(dir.string(), &got, &found, 0,
                                          &loaded)
                    .ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(loaded, path);
    EXPECT_EQ(got.lsn, 42u);
    ASSERT_EQ(got.tenants.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(got.tenants[i].tenantId, ck.tenants[i].tenantId);
        EXPECT_EQ(got.tenants[i].coveredLsn, 42u);
        EXPECT_EQ(got.tenants[i].fingerprint,
                  ck.tenants[i].fingerprint);
        EXPECT_EQ(got.tenants[i].csr.offsetsArray(),
                  ck.tenants[i].csr.offsetsArray());
        EXPECT_EQ(got.tenants[i].csr.neighborsArray(),
                  ck.tenants[i].csr.neighborsArray());
    }
}

TEST(Checkpoints, EmptyDirectoryIsFoundFalseNotError)
{
    const fs::path dir = freshDir("ckpt_empty");
    Checkpoint got;
    bool found = true;
    ASSERT_TRUE(
        loadNewestValidCheckpoint(dir.string(), &got, &found).ok());
    EXPECT_FALSE(found);
}

TEST(Checkpoints, CoveredLsnPastCaptureIsRejected)
{
    const fs::path dir = freshDir("ckpt_badcover");
    Checkpoint ck = makeCheckpoint(5, {1});
    ck.tenants[0].coveredLsn = 6;
    EXPECT_EQ(writeCheckpoint(dir.string(), ck).code(),
              ErrorCode::kInvalidArgument);
}

TEST(Checkpoints, CorruptNewestFallsBackToOlder)
{
    const fs::path dir = freshDir("ckpt_fallback");
    ASSERT_TRUE(writeCheckpoint(dir.string(), makeCheckpoint(5, {1}))
                    .ok());
    ASSERT_TRUE(writeCheckpoint(dir.string(), makeCheckpoint(9, {1}))
                    .ok());
    // Rot a payload byte of the newest; its CRC now lies.
    const fs::path newest = dir / checkpointName(9);
    std::string bytes = slurp(newest);
    bytes[bytes.size() - 3] =
        static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
    spit(newest, bytes);

    Checkpoint got;
    bool found = false;
    std::string loaded;
    ASSERT_TRUE(loadNewestValidCheckpoint(dir.string(), &got, &found, 0,
                                          &loaded)
                    .ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(got.lsn, 5u);
    EXPECT_EQ(fs::path(loaded).filename().string(), checkpointName(5));
}

TEST(Checkpoints, AllCorruptRefusesToGuess)
{
    const fs::path dir = freshDir("ckpt_allbad");
    ASSERT_TRUE(writeCheckpoint(dir.string(), makeCheckpoint(5, {1}))
                    .ok());
    const fs::path p = dir / checkpointName(5);
    std::string bytes = slurp(p);
    bytes[10] = static_cast<char>(bytes[10] ^ 0xFF);
    spit(p, bytes);
    Checkpoint got;
    bool found = false;
    const Status s =
        loadNewestValidCheckpoint(dir.string(), &got, &found);
    EXPECT_EQ(s.code(), ErrorCode::kCorruptFile);
}

TEST(Checkpoints, BudgetExhaustionRefusesOutrightNoFallback)
{
    const fs::path dir = freshDir("ckpt_budget");
    ASSERT_TRUE(writeCheckpoint(dir.string(), makeCheckpoint(5, {1}))
                    .ok());
    ASSERT_TRUE(writeCheckpoint(dir.string(), makeCheckpoint(9, {1}))
                    .ok());
    Checkpoint got;
    bool found = false;
    // A 1-byte recovery budget: the older checkpoint would be exactly
    // as over-budget, so falling back would just burn time — refuse.
    const Status s = loadNewestValidCheckpoint(dir.string(), &got,
                                               &found, /*budget=*/1);
    EXPECT_EQ(s.code(), ErrorCode::kResourceExhausted) << s.toString();
}

TEST(Checkpoints, RenameFaultLeavesPreviousAuthoritative)
{
    const fs::path dir = freshDir("ckpt_rename");
    ASSERT_TRUE(writeCheckpoint(dir.string(), makeCheckpoint(5, {1}))
                    .ok());
    {
        FaultInjector fi(FaultSite::kCkptRenameFail, 1);
        FaultInjector::Scope scope(fi);
        const Status s =
            writeCheckpoint(dir.string(), makeCheckpoint(9, {1}));
        ASSERT_FALSE(s.ok());
        EXPECT_EQ(s.code(), ErrorCode::kIoError);
        EXPECT_NE(s.message().find("previous checkpoint"),
                  std::string::npos)
            << s.message();
    }
    // No half-written artifacts: neither the final name nor the tmp.
    EXPECT_FALSE(fs::exists(dir / checkpointName(9)));
    size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);

    Checkpoint got;
    bool found = false;
    ASSERT_TRUE(
        loadNewestValidCheckpoint(dir.string(), &got, &found).ok());
    ASSERT_TRUE(found);
    EXPECT_EQ(got.lsn, 5u);
}

TEST(Checkpoints, PruneKeepsTheNewestTwo)
{
    const fs::path dir = freshDir("ckpt_prune");
    for (uint64_t lsn : {3u, 7u, 11u, 15u})
        ASSERT_TRUE(
            writeCheckpoint(dir.string(), makeCheckpoint(lsn, {1}))
                .ok());
    ASSERT_TRUE(pruneCheckpoints(dir.string(), 2).ok());
    EXPECT_FALSE(fs::exists(dir / checkpointName(3)));
    EXPECT_FALSE(fs::exists(dir / checkpointName(7)));
    EXPECT_TRUE(fs::exists(dir / checkpointName(11)));
    EXPECT_TRUE(fs::exists(dir / checkpointName(15)));
}

// ------------------------------------------------- server recovery
//
// The crash model: checkpointOnShutdown=false makes stop() skip the
// final checkpoint, so the WAL directory afterwards holds exactly
// what a kill -9 after the last acknowledged fsync leaves behind.

constexpr uint64_t kN = 1 << 10;
constexpr size_t kOps = 256;

RequestFrame
mutateRequest(const EdgeList &edges, uint64_t tenant, size_t b)
{
    RequestFrame req;
    req.tenantId = tenant;
    req.requestId = b + 1;
    req.kernel = ServerKernel::kDegreeCount;
    req.engine = PbEngineKind::kWriteCombine;
    req.op = RequestOp::kMutate;
    req.bins = 64;
    req.numIndices = kN;
    for (size_t j = 0; j < kOps; ++j) {
        const size_t pos = b * kOps + j;
        if (j % 4 == 3 && pos >= kOps) {
            const Edge &d = edges[(pos - kOps) % edges.size()];
            req.payload.push_back(d.src | kMutateDeleteBit);
            req.payload.push_back(d.dst);
        } else {
            const Edge &e = edges[pos % edges.size()];
            req.payload.push_back(e.src);
            req.payload.push_back(e.dst);
        }
    }
    return req;
}

uint64_t
snapshotChecksum(BatchServer &server, uint64_t tenant, uint64_t id)
{
    RequestFrame req;
    req.tenantId = tenant;
    req.requestId = id;
    req.kernel = ServerKernel::kDegreeCount;
    req.engine = PbEngineKind::kWriteCombine;
    req.op = RequestOp::kSnapshot;
    req.bins = 64;
    req.numIndices = kN;
    const ResponseFrame resp = server.call(std::move(req));
    EXPECT_EQ(resp.code, ErrorCode::kOk) << resp.message;
    return resp.resultChecksum;
}

/** A crash-test server config. It writes v2 records unless @p stamp
 * says otherwise; ServerConfig's own default is v1 (see
 * DefaultConfigWritesVersionOneRecords). */
ServerConfig
durableConfig(const fs::path &dir, const char *fsync = "always",
              uint16_t stamp = kWalVersionEdgeSetStamp)
{
    ServerConfig cfg;
    cfg.durability.walDir = dir.string();
    cfg.durability.fsync = *parseFsyncPolicy(fsync);
    cfg.durability.walStampVersion = stamp;
    cfg.durability.checkpointOnShutdown = false; // the crash knob
    return cfg;
}

/** The no-crash oracle: the same batches on a memory-only server. */
uint64_t
referenceChecksum(ThreadPool &pool, const EdgeList &edges,
                  uint64_t tenant, size_t batches)
{
    BatchServer ref(ServerConfig{}, pool);
    for (size_t b = 0; b < batches; ++b)
        EXPECT_EQ(ref.call(mutateRequest(edges, tenant, b)).code,
                  ErrorCode::kOk);
    const uint64_t sum = snapshotChecksum(ref, tenant, 900);
    ref.stop();
    return sum;
}

/**
 * The log a server from before version-2 records left behind:
 * @p batches mutateRequest() batches of @p tenant, each logged as a
 * default (version-1) WalRecord stamped with the ordered
 * snapshotFingerprint() of a replica graph the batches were applied to.
 */
void
writeV1Log(const fs::path &dir, const EdgeList &edges, uint64_t tenant,
           size_t batches)
{
    DynamicGraph g(static_cast<NodeId>(kN));
    WalWriter w(dir.string(), *parseFsyncPolicy("always"), 1);
    for (size_t b = 0; b < batches; ++b) {
        const RequestFrame req = mutateRequest(edges, tenant, b);
        MutationBatch batch;
        for (size_t i = 0; i + 1 < req.payload.size(); i += 2) {
            const uint32_t sw = req.payload[i];
            batch.ops.push_back(MutationBatch::Op{
                sw & ~kMutateDeleteBit, req.payload[i + 1],
                (sw & kMutateDeleteBit) != 0});
        }
        g.applyBatch(batch);
        WalRecord rec;
        rec.lsn = b + 1;
        rec.postFingerprint = g.snapshotFingerprint();
        rec.postLiveEdges = g.numEdges();
        rec.payload = encodeRequest(req);
        ASSERT_TRUE(w.append(rec).ok());
    }
}

TEST(ServerRecovery, DisabledDurabilityStaysMemoryOnly)
{
    ThreadPool pool(4);
    BatchServer server(ServerConfig{}, pool);
    EXPECT_FALSE(server.recovery().ran);
    EXPECT_EQ(server.checkpointNow().code(),
              ErrorCode::kFailedPrecondition);
    server.stop();
}

TEST(ServerRecovery, AckedEqualsRecoveredAcrossFsyncPolicies)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 21);
    const uint64_t want = referenceChecksum(pool, edges, 1, 4);

    // In-process teardown does not drop the page cache, so even
    // fsync=none recovers here; the policies differ only under a real
    // SIGKILL (scripts/soak.sh --crash covers that with fsync=always).
    for (uint16_t version : kVersions) {
        for (const char *fsync : {"always", "group:2", "none"}) {
            SCOPED_TRACE(fsync);
            SCOPED_TRACE(version);
            const fs::path dir = freshDir(std::string("srv_ack_") + fsync +
                                          "_v" + std::to_string(version));
            uint64_t acked = 0;
            {
                BatchServer server(durableConfig(dir, fsync, version), pool);
                for (size_t b = 0; b < 4; ++b)
                    ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                              ErrorCode::kOk);
                acked = snapshotChecksum(server, 1, 901);
                server.stop(); // crash: no shutdown checkpoint
            }
            EXPECT_EQ(acked, want);

            BatchServer revived(durableConfig(dir, fsync, version), pool);
            const RecoveryReport &rr = revived.recovery();
            EXPECT_TRUE(rr.ran);
            EXPECT_FALSE(rr.checkpointLoaded);
            EXPECT_EQ(rr.walRecords, 4u);
            EXPECT_EQ(rr.replayedBatches, 4u);
            const bool v2 = version == kWalVersionEdgeSetStamp;
            EXPECT_EQ(rr.replayedV2Records, v2 ? 4u : 0u);
            EXPECT_EQ(rr.replayedV1Records, v2 ? 0u : 4u);
            EXPECT_EQ(rr.replayedOps, 4u * kOps);
            EXPECT_EQ(snapshotChecksum(revived, 1, 902), want);

            // The revived server is fully live: new acks append past the
            // recovered LSN frontier and the books still close.
            ASSERT_EQ(revived.call(mutateRequest(edges, 1, 4)).code,
                      ErrorCode::kOk);
            revived.stop();
            EXPECT_TRUE(revived.stats().conserved());
        }
    }
}

TEST(ServerRecovery, CheckpointBoundsReplayToTheSuffix)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 22);
    const fs::path dir = freshDir("srv_ckpt_suffix");
    const uint64_t want = referenceChecksum(pool, edges, 1, 6);
    {
        BatchServer server(durableConfig(dir), pool);
        for (size_t b = 0; b < 3; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        ASSERT_TRUE(server.checkpointNow().ok());
        for (size_t b = 3; b < 6; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        server.stop();
    }
    BatchServer revived(durableConfig(dir), pool);
    const RecoveryReport &rr = revived.recovery();
    EXPECT_TRUE(rr.checkpointLoaded);
    EXPECT_GE(rr.checkpointLsn, 3u);
    EXPECT_EQ(rr.checkpointTenants, 1u);
    // Replay is the post-checkpoint suffix only; the pre-checkpoint
    // records still on disk (the first truncation frontier trails the
    // previous checkpoint, and there was none) are skipped as covered.
    EXPECT_EQ(rr.replayedBatches, 3u);
    EXPECT_EQ(rr.skippedRecords, 3u);
    EXPECT_EQ(snapshotChecksum(revived, 1, 903), want);
    revived.stop();
}

TEST(ServerRecovery, GracefulShutdownCheckpointCoversEverything)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 23);
    const fs::path dir = freshDir("srv_graceful");
    const uint64_t want = referenceChecksum(pool, edges, 1, 3);
    {
        ServerConfig cfg = durableConfig(dir);
        cfg.durability.checkpointOnShutdown = true; // graceful
        BatchServer server(cfg, pool);
        for (size_t b = 0; b < 3; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        server.stop();
    }
    BatchServer revived(durableConfig(dir), pool);
    const RecoveryReport &rr = revived.recovery();
    EXPECT_TRUE(rr.checkpointLoaded);
    EXPECT_EQ(rr.replayedBatches, 0u);
    EXPECT_EQ(rr.skippedRecords, rr.walRecords);
    EXPECT_EQ(snapshotChecksum(revived, 1, 904), want);
    revived.stop();
}

TEST(ServerRecovery, MultiTenantStateAllRecovers)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 24);
    const fs::path dir = freshDir("srv_multitenant");
    const uint64_t want1 = referenceChecksum(pool, edges, 1, 2);
    const uint64_t want2 = referenceChecksum(pool, edges, 2, 3);
    {
        BatchServer server(durableConfig(dir), pool);
        for (uint64_t t : {1ull, 2ull, 3ull})
            for (size_t b = 0; b < 1 + (size_t)t; ++b)
                ASSERT_EQ(server.call(mutateRequest(edges, t, b)).code,
                          ErrorCode::kOk);
        ASSERT_TRUE(server.checkpointNow().ok());
        // Tenant 3 keeps mutating past the checkpoint.
        ASSERT_EQ(server.call(mutateRequest(edges, 3, 4)).code,
                  ErrorCode::kOk);
        server.stop();
    }
    const uint64_t want3after = [&] {
        BatchServer ref(ServerConfig{}, pool);
        for (size_t b = 0; b < 5; ++b)
            EXPECT_EQ(ref.call(mutateRequest(edges, 3, b)).code,
                      ErrorCode::kOk);
        const uint64_t sum = snapshotChecksum(ref, 3, 905);
        ref.stop();
        return sum;
    }();

    BatchServer revived(durableConfig(dir), pool);
    EXPECT_EQ(revived.recovery().checkpointTenants, 3u);
    EXPECT_EQ(snapshotChecksum(revived, 1, 906), want1);
    EXPECT_EQ(snapshotChecksum(revived, 2, 907), want2);
    EXPECT_EQ(snapshotChecksum(revived, 3, 908), want3after);
    revived.stop();
}

TEST(ServerRecovery, MidLogCorruptionRefusesStartup)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 25);
    const fs::path dir = freshDir("srv_corrupt");
    {
        BatchServer server(durableConfig(dir), pool);
        for (size_t b = 0; b < 3; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        server.stop();
    }
    const fs::path seg = dir / walSegmentName(1);
    std::string bytes = slurp(seg);
    bytes[kWalHeaderBytes + 3] =
        static_cast<char>(bytes[kWalHeaderBytes + 3] ^ 0x40);
    spit(seg, bytes);
    try {
        BatchServer revived(durableConfig(dir), pool);
        FAIL() << "corrupt WAL must refuse startup";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::kCorruptFile) << e.what();
    }
}

TEST(ServerRecovery, VersionOneLogRecovers)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 34);
    const fs::path dir = freshDir("srv_v1_log");
    const uint64_t want = referenceChecksum(pool, edges, 1, 4);
    writeV1Log(dir, edges, 1, 4);

    BatchServer revived(durableConfig(dir), pool);
    const RecoveryReport &rr = revived.recovery();
    EXPECT_EQ(rr.replayedBatches, 4u);
    EXPECT_EQ(rr.replayedV1Records, 4u);
    EXPECT_EQ(rr.replayedV2Records, 0u);
    EXPECT_EQ(snapshotChecksum(revived, 1, 913), want);
    revived.stop();
}

// An upgrade: v1 records from an older server, the v2 records a
// server configured for v2 appends on top of them, then a crash. Each record is
// certified against its own version's stamp.
TEST(ServerRecovery, VersionOneThenVersionTwoLogRecovers)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 35);
    const fs::path dir = freshDir("srv_v1_then_v2");
    const uint64_t want = referenceChecksum(pool, edges, 1, 6);
    writeV1Log(dir, edges, 1, 3);
    {
        BatchServer server(durableConfig(dir), pool);
        EXPECT_EQ(server.recovery().replayedV1Records, 3u);
        for (size_t b = 3; b < 6; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        server.stop(); // crash: no shutdown checkpoint
    }
    WalReadResult wr;
    ASSERT_TRUE(readWal(dir.string(), &wr).ok());
    ASSERT_EQ(wr.records.size(), 6u);
    for (size_t i = 0; i < wr.records.size(); ++i)
        EXPECT_EQ(wr.records[i].version,
                  i < 3 ? kWalVersionSnapshotStamp
                        : kWalVersionEdgeSetStamp)
            << "record " << i;

    BatchServer revived(durableConfig(dir), pool);
    const RecoveryReport &rr = revived.recovery();
    EXPECT_EQ(rr.replayedBatches, 6u);
    EXPECT_EQ(rr.replayedV1Records, 3u);
    EXPECT_EQ(rr.replayedV2Records, 3u);
    EXPECT_EQ(snapshotChecksum(revived, 1, 914), want);
    revived.stop();
}

TEST(ServerRecovery, DefaultConfigWritesVersionOneRecords)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 36);
    const fs::path dir = freshDir("srv_default_v1");
    ServerConfig cfg;
    cfg.durability.walDir = dir.string();
    cfg.durability.checkpointOnShutdown = false;
    EXPECT_EQ(cfg.durability.walStampVersion, kWalVersionSnapshotStamp);
    {
        BatchServer server(cfg, pool);
        for (size_t b = 0; b < 2; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        server.stop();
    }
    WalReadResult wr;
    ASSERT_TRUE(readWal(dir.string(), &wr).ok());
    ASSERT_EQ(wr.records.size(), 2u);
    for (const WalRecord &rec : wr.records)
        EXPECT_EQ(rec.version, kWalVersionSnapshotStamp);

    for (uint16_t bad : {uint16_t{0}, uint16_t{3}}) {
        SCOPED_TRACE(bad);
        cfg.durability.walStampVersion = bad;
        try {
            BatchServer refused(cfg, pool);
            FAIL() << "an unknown stamp version must not start";
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
        }
    }
}

// A rollback of the writer: v2 records, then a server configured back
// to v1 appends on top of them, then a crash.
TEST(ServerRecovery, VersionTwoThenVersionOneLogRecovers)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 37);
    const fs::path dir = freshDir("srv_v2_then_v1");
    const uint64_t want = referenceChecksum(pool, edges, 1, 4);
    for (uint16_t version :
         {kWalVersionEdgeSetStamp, kWalVersionSnapshotStamp}) {
        BatchServer server(durableConfig(dir, "always", version), pool);
        const size_t first = version == kWalVersionEdgeSetStamp ? 0 : 2;
        for (size_t b = first; b < first + 2; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        server.stop(); // crash: no shutdown checkpoint
    }
    BatchServer revived(durableConfig(dir), pool);
    const RecoveryReport &rr = revived.recovery();
    EXPECT_EQ(rr.replayedBatches, 4u);
    EXPECT_EQ(rr.replayedV2Records, 2u);
    EXPECT_EQ(rr.replayedV1Records, 2u);
    EXPECT_EQ(snapshotChecksum(revived, 1, 915), want);
    revived.stop();
}

TEST(ServerRecovery, FingerprintDivergenceRefusesStartup)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 26);
    for (uint16_t version : kVersions) {
        SCOPED_TRACE(version);
        const fs::path dir =
            freshDir("srv_diverge_v" + std::to_string(version));
        if (version == kWalVersionSnapshotStamp) {
            writeV1Log(dir, edges, 1, 2);
        } else {
            BatchServer server(durableConfig(dir), pool);
            for (size_t b = 0; b < 2; ++b)
                ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                          ErrorCode::kOk);
            server.stop();
        }
        // Re-stamp the last record with a lying post-state stamp —
        // CRC-valid, structurally perfect, semantically divergent.
        // Replay must notice the replayed graph does not match the
        // ack, whichever stamp the record carries.
        WalReadResult rr;
        ASSERT_TRUE(readWal(dir.string(), &rr).ok());
        ASSERT_EQ(rr.records.size(), 2u);
        ASSERT_EQ(rr.records[1].version, version);
        WalRecord lying = rr.records[1];
        lying.postFingerprint ^= 1;
        const std::vector<uint8_t> b0 = encodeWalRecord(rr.records[0]);
        const std::vector<uint8_t> b1 = encodeWalRecord(lying);
        std::string bytes(b0.begin(), b0.end());
        bytes.append(b1.begin(), b1.end());
        spit(dir / walSegmentName(1), bytes);

        try {
            BatchServer revived(durableConfig(dir), pool);
            FAIL() << "divergent replay must refuse startup";
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::kDataLoss) << e.what();
            EXPECT_NE(std::string(e.what()).find("refusing"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ServerRecovery, OlderCheckpointPlusWalSurvivesCorruptNewest)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 27);
    const fs::path dir = freshDir("srv_older_ckpt");
    const uint64_t want = referenceChecksum(pool, edges, 1, 9);
    {
        BatchServer server(durableConfig(dir), pool);
        for (size_t b = 0; b < 3; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        ASSERT_TRUE(server.checkpointNow().ok());
        for (size_t b = 3; b < 6; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        ASSERT_TRUE(server.checkpointNow().ok());
        for (size_t b = 6; b < 9; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        server.stop();
    }
    // Rot the newest checkpoint: WAL truncation trails the OLDER
    // retained checkpoint precisely so this combination still covers
    // everything acknowledged.
    std::vector<fs::path> ckpts;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".ckpt")
            ckpts.push_back(e.path());
    std::sort(ckpts.begin(), ckpts.end());
    ASSERT_EQ(ckpts.size(), 2u);
    std::string bytes = slurp(ckpts.back());
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x04);
    spit(ckpts.back(), bytes);

    BatchServer revived(durableConfig(dir), pool);
    const RecoveryReport &rr = revived.recovery();
    EXPECT_TRUE(rr.checkpointLoaded);
    EXPECT_EQ(rr.replayedBatches, 6u); // batches 4..9 via the WAL
    EXPECT_EQ(snapshotChecksum(revived, 1, 909), want);
    revived.stop();
}

TEST(ServerRecovery, LostAckedSuffixRefusesStartup)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 28);
    const fs::path dir = freshDir("srv_lost_suffix");
    {
        BatchServer server(durableConfig(dir), pool);
        for (size_t b = 0; b < 3; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        ASSERT_TRUE(server.checkpointNow().ok());
        for (size_t b = 3; b < 6; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        ASSERT_TRUE(server.checkpointNow().ok());
        for (size_t b = 6; b < 9; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        server.stop();
    }
    // Corrupt the newest checkpoint AND delete the WAL segment the
    // older one needs: acked batches 4..6 are now genuinely
    // unrecoverable, and startup must say so — typed — not serve the
    // older state as if nothing happened.
    std::vector<fs::path> ckpts;
    std::vector<fs::path> segs;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".ckpt")
            ckpts.push_back(e.path());
        else
            segs.push_back(e.path());
    }
    std::sort(ckpts.begin(), ckpts.end());
    std::sort(segs.begin(), segs.end());
    ASSERT_EQ(ckpts.size(), 2u);
    ASSERT_GE(segs.size(), 2u);
    std::string bytes = slurp(ckpts.back());
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x04);
    spit(ckpts.back(), bytes);
    fs::remove(segs.front());

    try {
        BatchServer revived(durableConfig(dir), pool);
        FAIL() << "lost acked suffix must refuse startup";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::kDataLoss) << e.what();
    }
}

TEST(ServerRecovery, WalFaultBouncesBatchAndStopsFurtherAcks)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 29);
    const fs::path dir = freshDir("srv_wal_fault");
    const uint64_t want = referenceChecksum(pool, edges, 1, 1);
    {
        BatchServer server(durableConfig(dir), pool);
        ASSERT_EQ(server.call(mutateRequest(edges, 1, 0)).code,
                  ErrorCode::kOk);
        const uint64_t before = snapshotChecksum(server, 1, 908);

        // The request carries its own fault plan: the fsync under its
        // append fails, so the batch must bounce typed and UNcommitted.
        RequestFrame doomed = mutateRequest(edges, 1, 1);
        doomed.injectSite =
            static_cast<uint32_t>(FaultSite::kWalFsyncFail);
        doomed.injectFireAt = 1;
        ResponseFrame resp = server.call(std::move(doomed));
        EXPECT_EQ(resp.code, ErrorCode::kIoError);
        EXPECT_NE(resp.message.find("not committed"),
                  std::string::npos)
            << resp.message;
        // The healthy apply was rolled back out of the served graph.
        EXPECT_EQ(snapshotChecksum(server, 1, 909), before);

        // The writer is poisoned: further mutations are refused (the
        // server will not acknowledge what it cannot recover) while
        // reads keep serving the last durable state.
        EXPECT_EQ(server.call(mutateRequest(edges, 1, 2)).code,
                  ErrorCode::kUnavailable);
        EXPECT_EQ(snapshotChecksum(server, 1, 910), want);
        server.stop();
        EXPECT_TRUE(server.stats().conserved());
    }
    // Restart: exactly the one acknowledged batch comes back, and the
    // fresh writer accepts mutations again.
    BatchServer revived(durableConfig(dir), pool);
    EXPECT_EQ(revived.recovery().replayedBatches, 1u);
    EXPECT_EQ(snapshotChecksum(revived, 1, 911), want);
    EXPECT_EQ(revived.call(mutateRequest(edges, 1, 1)).code,
              ErrorCode::kOk);
    revived.stop();
}

TEST(ServerRecovery, RecoveryBudgetRefusesTyped)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 30);
    const fs::path dir = freshDir("srv_budget");
    {
        BatchServer server(durableConfig(dir), pool);
        for (size_t b = 0; b < 3; ++b)
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
        server.stop();
    }
    ServerConfig cfg = durableConfig(dir);
    cfg.durability.recoveryBudgetBytes = 16;
    try {
        BatchServer revived(cfg, pool);
        FAIL() << "over-budget recovery must refuse startup";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted) << e.what();
    }
}

TEST(ServerRecovery, RecoveredTenantsServeLikeANeverCrashedServer)
{
    // One degree tenant and one pagerank tenant: replay folds each
    // record into the kernel's incremental maintainer and certifies it
    // per batch, exactly as the live path does.
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 33);
    const fs::path dir = freshDir("srv_live_eq");
    const size_t batches = 7, checkpointAfter = 3;
    auto request = [&edges](uint64_t tenant, size_t b) {
        RequestFrame req = mutateRequest(edges, tenant, b);
        req.kernel = tenant == 1 ? ServerKernel::kDegreeCount
                                 : ServerKernel::kPagerank;
        return req;
    };

    // The no-crash oracle: the whole stream plus one more batch.
    std::map<uint64_t, uint64_t> want;
    {
        BatchServer ref(ServerConfig{}, pool);
        for (size_t b = 0; b < batches; ++b)
            for (uint64_t tenant : {1, 2})
                ASSERT_EQ(ref.call(request(tenant, b)).code,
                          ErrorCode::kOk);
        for (uint64_t tenant : {1, 2}) {
            const ResponseFrame resp = ref.call(request(tenant, batches));
            ASSERT_EQ(resp.code, ErrorCode::kOk) << resp.message;
            want[tenant] = resp.resultChecksum;
        }
        ref.stop();
    }

    {
        BatchServer server(durableConfig(dir), pool);
        for (size_t b = 0; b < batches; ++b) {
            if (b == checkpointAfter)
                ASSERT_TRUE(server.checkpointNow().ok());
            for (uint64_t tenant : {1, 2})
                ASSERT_EQ(server.call(request(tenant, b)).code,
                          ErrorCode::kOk);
        }
        server.stop(); // crash: no shutdown checkpoint
    }

    BatchServer revived(durableConfig(dir), pool);
    const RecoveryReport &rr = revived.recovery();
    EXPECT_TRUE(rr.checkpointLoaded);
    EXPECT_EQ(rr.skippedRecords, 2 * checkpointAfter);
    EXPECT_EQ(rr.replayedBatches, 2 * (batches - checkpointAfter));
    for (uint64_t tenant : {1, 2}) {
        const ResponseFrame resp = revived.call(request(tenant, batches));
        ASSERT_EQ(resp.code, ErrorCode::kOk) << resp.message;
        EXPECT_EQ(resp.degradations, 0u) << resp.message;
        EXPECT_EQ(resp.resultChecksum, want[tenant]) << "tenant " << tenant;
    }
    revived.stop();
    EXPECT_TRUE(revived.stats().conserved());
}

TEST(ServerRecovery, BackgroundCheckpointsInterleaveWithMutations)
{
    ThreadPool pool(4);
    const EdgeList edges = generateUniform(kN, 1 << 12, 31);
    const fs::path dir = freshDir("srv_interleave");
    const size_t batches = 12;
    const uint64_t want = referenceChecksum(pool, edges, 1, batches);
    {
        ServerConfig cfg = durableConfig(dir);
        cfg.durability.checkpointInterval =
            std::chrono::milliseconds(5);
        BatchServer server(cfg, pool);
        for (size_t b = 0; b < batches; ++b) {
            ASSERT_EQ(server.call(mutateRequest(edges, 1, b)).code,
                      ErrorCode::kOk);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        server.stop(); // crash mid-whatever the timer was doing
    }
    // Whatever checkpoint/WAL interleaving the timer produced, the
    // recovered state must equal the no-crash reference.
    BatchServer revived(durableConfig(dir), pool);
    EXPECT_EQ(snapshotChecksum(revived, 1, 912), want);
    revived.stop();
}

} // namespace
} // namespace cobra
