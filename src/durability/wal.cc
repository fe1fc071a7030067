#include "src/durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/check/fault_injector.h"
#include "src/durability/crc32c.h"
#include "src/obs/metrics.h"

namespace cobra {

namespace fs = std::filesystem;

namespace {

void
putU16(std::vector<uint8_t> &buf, uint16_t v)
{
    buf.push_back(static_cast<uint8_t>(v));
    buf.push_back(static_cast<uint8_t>(v >> 8));
}

void
putU32(std::vector<uint8_t> &buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint16_t
getU16(const uint8_t *p)
{
    return static_cast<uint16_t>(p[0] | (uint16_t(p[1]) << 8));
}

uint32_t
getU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(p[i]) << (8 * i);
    return v;
}

uint64_t
getU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(p[i]) << (8 * i);
    return v;
}

constexpr size_t kCrcOffset = 20;

bool
knownVersion(uint16_t v)
{
    return v == kWalVersionSnapshotStamp || v == kWalVersionEdgeSetStamp;
}

/** CRC over the record's header from its version's first covered byte
 * (v1: 8, v2: 4), the crc field zeroed, then the payload (see wal.h).
 * @p rec holds at least kWalHeaderBytes + payload_len bytes. */
uint32_t
recordCrc(const uint8_t *rec, uint16_t version, size_t payload_len)
{
    const size_t from = version == kWalVersionSnapshotStamp ? 8 : 4;
    uint32_t c = crc32cExtend(0, rec + from, kCrcOffset - from);
    const uint32_t zero = 0;
    c = crc32cExtend(c, &zero, 4);
    c = crc32cExtend(c, rec + kCrcOffset + 4,
                     kWalHeaderBytes - (kCrcOffset + 4) + payload_len);
    return c;
}

Status
ioStatus(const std::string &what, const std::string &path)
{
    std::ostringstream oss;
    oss << what << " failed for " << path << ": " << std::strerror(errno);
    return Status(ErrorCode::kIoError, oss.str());
}

/** Parse "wal-<20-digit-lsn>.log"; nullopt for unrelated files. */
std::optional<uint64_t>
parseSegmentName(const std::string &name)
{
    constexpr std::string_view prefix = "wal-";
    constexpr std::string_view suffix = ".log";
    if (name.size() != prefix.size() + 20 + suffix.size())
        return std::nullopt;
    if (name.compare(0, prefix.size(), prefix) != 0)
        return std::nullopt;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0)
        return std::nullopt;
    uint64_t lsn = 0;
    for (size_t i = prefix.size(); i < prefix.size() + 20; ++i) {
        const char c = name[i];
        if (c < '0' || c > '9')
            return std::nullopt;
        lsn = lsn * 10 + uint64_t(c - '0');
    }
    return lsn;
}

/** Sorted (firstLsn, path) list of segments in @p dir. */
Status
listSegments(const std::string &dir,
             std::vector<std::pair<uint64_t, std::string>> *out)
{
    out->clear();
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec)
        return Status(ErrorCode::kIoError,
                      "cannot list WAL directory " + dir + ": " +
                          ec.message());
    for (const auto &entry : it) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        if (auto lsn = parseSegmentName(name))
            out->emplace_back(*lsn, entry.path().string());
    }
    std::sort(out->begin(), out->end());
    for (size_t i = 1; i < out->size(); ++i)
        if ((*out)[i].first == (*out)[i - 1].first)
            return Status(ErrorCode::kCorruptFile,
                          "duplicate WAL segment lsn in " + dir);
    return Status::Ok();
}

void
bumpCounter(const char *name, uint64_t by)
{
    if (MetricsCounter *c = metricsCounter(name))
        c->add(by);
}

} // namespace

std::optional<FsyncPolicy>
parseFsyncPolicy(std::string_view spec)
{
    FsyncPolicy p;
    if (spec == "always") {
        p.mode = FsyncPolicy::Mode::kAlways;
        return p;
    }
    if (spec == "none") {
        p.mode = FsyncPolicy::Mode::kNone;
        return p;
    }
    constexpr std::string_view prefix = "group:";
    if (spec.size() > prefix.size() &&
        spec.compare(0, prefix.size(), prefix) == 0) {
        uint64_t n = 0;
        for (size_t i = prefix.size(); i < spec.size(); ++i) {
            const char c = spec[i];
            if (c < '0' || c > '9')
                return std::nullopt;
            n = n * 10 + uint64_t(c - '0');
            if (n > 1u << 20)
                return std::nullopt;
        }
        if (n == 0)
            return std::nullopt;
        p.mode = FsyncPolicy::Mode::kGroup;
        p.groupN = static_cast<uint32_t>(n);
        return p;
    }
    return std::nullopt;
}

std::string
to_string(const FsyncPolicy &p)
{
    switch (p.mode) {
      case FsyncPolicy::Mode::kAlways: return "always";
      case FsyncPolicy::Mode::kNone: return "none";
      case FsyncPolicy::Mode::kGroup:
        return "group:" + std::to_string(p.groupN);
    }
    return "unknown";
}

std::string
walSegmentName(uint64_t first_lsn)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                  static_cast<unsigned long long>(first_lsn));
    return buf;
}

std::vector<uint8_t>
encodeWalRecord(const WalRecord &rec)
{
    COBRA_THROW_IF(rec.payload.size() > kWalMaxPayloadBytes,
                   ErrorCode::kCapacityExceeded,
                   "WAL payload of " << rec.payload.size()
                                     << " bytes exceeds the "
                                     << kWalMaxPayloadBytes << " cap");
    COBRA_THROW_IF(!knownVersion(rec.version), ErrorCode::kInvalidArgument,
                   "unsupported WAL record version " << rec.version);
    std::vector<uint8_t> buf;
    buf.reserve(kWalHeaderBytes + rec.payload.size());
    putU32(buf, kWalMagic);
    putU16(buf, rec.version);
    putU16(buf, 0); // flags
    putU64(buf, rec.lsn);
    putU32(buf, static_cast<uint32_t>(rec.payload.size()));
    putU32(buf, 0); // crc, patched below
    putU64(buf, rec.postFingerprint);
    putU64(buf, rec.postLiveEdges);
    buf.insert(buf.end(), rec.payload.begin(), rec.payload.end());
    const uint32_t crc =
        recordCrc(buf.data(), rec.version, rec.payload.size());
    buf[kCrcOffset + 0] = static_cast<uint8_t>(crc);
    buf[kCrcOffset + 1] = static_cast<uint8_t>(crc >> 8);
    buf[kCrcOffset + 2] = static_cast<uint8_t>(crc >> 16);
    buf[kCrcOffset + 3] = static_cast<uint8_t>(crc >> 24);
    return buf;
}

Status
decodeWalRecord(const uint8_t *data, size_t len, WalRecord *out,
                size_t *consumed)
{
    if (len < kWalHeaderBytes)
        return Status(ErrorCode::kCorruptFile,
                      "WAL record truncated: " + std::to_string(len) +
                          " bytes is shorter than the " +
                          std::to_string(kWalHeaderBytes) +
                          "-byte header");
    if (getU32(data) != kWalMagic)
        return Status(ErrorCode::kCorruptFile, "bad WAL record magic");
    const uint16_t version = getU16(data + 4);
    if (!knownVersion(version))
        return Status(ErrorCode::kCorruptFile,
                      "unsupported WAL record version " +
                          std::to_string(version));
    if (getU16(data + 6) != 0)
        return Status(ErrorCode::kCorruptFile,
                      "nonzero WAL record flags");
    const uint64_t payloadLen = getU32(data + 16);
    if (payloadLen > kWalMaxPayloadBytes)
        return Status(ErrorCode::kCorruptFile,
                      "WAL payload length " + std::to_string(payloadLen) +
                          " exceeds the cap");
    if (len < kWalHeaderBytes + payloadLen)
        return Status(ErrorCode::kCorruptFile,
                      "WAL record truncated: header promises " +
                          std::to_string(payloadLen) +
                          " payload bytes but only " +
                          std::to_string(len - kWalHeaderBytes) +
                          " remain");
    const uint32_t stored = getU32(data + kCrcOffset);
    const uint32_t c = recordCrc(data, version, payloadLen);
    if (c != stored) {
        std::ostringstream oss;
        oss << "WAL record CRC mismatch at lsn " << getU64(data + 8)
            << ": stored " << std::hex << stored << ", computed " << c;
        return Status(ErrorCode::kCorruptFile, oss.str());
    }
    if (out) {
        out->version = version;
        out->lsn = getU64(data + 8);
        out->postFingerprint = getU64(data + 24);
        out->postLiveEdges = getU64(data + 32);
        out->payload.assign(data + kWalHeaderBytes,
                            data + kWalHeaderBytes + payloadLen);
    }
    if (consumed)
        *consumed = kWalHeaderBytes + payloadLen;
    return Status::Ok();
}

WalWriter::WalWriter(std::string dir, FsyncPolicy policy, uint64_t next_lsn)
    : dir_(std::move(dir)), policy_(policy)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    COBRA_THROW_IF(ec, ErrorCode::kIoError,
                   "cannot create WAL directory " << dir_ << ": "
                                                  << ec.message());
    Status st = openSegment(next_lsn);
    COBRA_THROW_IF(!st.ok(), st.code(), st.message());
}

WalWriter::~WalWriter()
{
    close();
}

Status
WalWriter::openSegment(uint64_t first_lsn)
{
    const std::string path =
        (fs::path(dir_) / walSegmentName(first_lsn)).string();
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        return ioStatus("open", path);
    off_t end = ::lseek(fd, 0, SEEK_END);
    if (end < 0) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        return ioStatus("lseek", path);
    }
    fd_ = fd;
    segmentPath_ = path;
    offset_ = static_cast<uint64_t>(end);
    pending_ = 0;
    return Status::Ok();
}

void
WalWriter::poison(const std::string &why)
{
    poisoned_ = true;
    poisonReason_ = why;
}

Status
WalWriter::doSync()
{
    if (pending_ == 0)
        return Status::Ok();
    if (::fsync(fd_) != 0)
        return ioStatus("fsync", segmentPath_);
    bumpCounter("durability.wal.fsyncs", 1);
    pending_ = 0;
    return Status::Ok();
}

Status
WalWriter::append(const WalRecord &rec)
{
    if (poisoned_)
        return Status(ErrorCode::kUnavailable,
                      "WAL writer poisoned by an earlier failure (" +
                          poisonReason_ +
                          "); refusing to acknowledge mutations that "
                          "could not be recovered");
    if (fd_ < 0)
        return Status(ErrorCode::kFailedPrecondition,
                      "WAL writer is closed");

    std::vector<uint8_t> buf;
    try {
        buf = encodeWalRecord(rec);
    } catch (const Error &e) {
        return Status::FromError(e);
    }

    const uint64_t preOffset = offset_;
    size_t writeLen = buf.size();
    bool torn = false;
    if (FaultInjector *fi = FaultInjector::active()) {
        if (fi->fire(FaultSite::kWalCrcFlip, 0)) {
            // Silent media corruption: the record lands complete but its
            // CRC lies. The append itself succeeds — the damage is only
            // discoverable by the reader, which must reject it typed.
            buf[kCrcOffset] ^= 0xFFu;
        }
        if (fi->fire(FaultSite::kWalTornWrite, 0)) {
            writeLen = buf.size() / 2;
            torn = true;
        }
    }

    size_t written = 0;
    while (written < writeLen) {
        ssize_t n = ::write(fd_, buf.data() + written, writeLen - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            Status st = ioStatus("write", segmentPath_);
            if (::ftruncate(fd_, static_cast<off_t>(preOffset)) != 0)
                poison("write failed and the partial record could not "
                       "be truncated away");
            return st;
        }
        written += static_cast<size_t>(n);
    }
    offset_ += written;

    if (torn) {
        // A crash mid-append: the file holds a record prefix and this
        // process never finds out whether the bytes hit the platter.
        // Model the honest outcome — the batch is NOT acknowledged and
        // the writer cannot be trusted again until recovery re-reads
        // the log and truncates the tear.
        poison("torn write injected at lsn " + std::to_string(rec.lsn));
        return Status(ErrorCode::kIoError,
                      "WAL append torn mid-write at lsn " +
                          std::to_string(rec.lsn) +
                          " (injected crash); batch not acknowledged");
    }

    pending_ += 1;
    bumpCounter("durability.wal.appends", 1);
    bumpCounter("durability.wal.append_bytes", buf.size());

    const bool wantSync =
        policy_.mode == FsyncPolicy::Mode::kAlways ||
        (policy_.mode == FsyncPolicy::Mode::kGroup &&
         pending_ >= policy_.groupN);
    if (wantSync) {
        bool syncFailed = false;
        std::string why;
        if (FaultInjector *fi = FaultInjector::active();
            fi && fi->fire(FaultSite::kWalFsyncFail, 0)) {
            syncFailed = true;
            why = "fsync failure injected";
        } else {
            Status st = doSync();
            if (!st.ok()) {
                syncFailed = true;
                why = st.message();
            }
        }
        if (syncFailed) {
            // The record may or may not be durable; un-acknowledge it by
            // rolling the file back to the pre-append offset so the log
            // never contains an unacked record.
            if (::ftruncate(fd_, static_cast<off_t>(preOffset)) == 0) {
                offset_ = preOffset;
                pending_ -= 1;
            }
            poison("fsync failed: " + why);
            return Status(ErrorCode::kIoError,
                          "WAL fsync failed at lsn " +
                              std::to_string(rec.lsn) + " (" + why +
                              "); batch not acknowledged");
        }
    }
    return Status::Ok();
}

Status
WalWriter::sync()
{
    if (poisoned_)
        return Status(ErrorCode::kUnavailable,
                      "WAL writer poisoned (" + poisonReason_ + ")");
    if (fd_ < 0)
        return Status::Ok();
    Status st = doSync();
    if (!st.ok())
        poison("sync failed: " + st.message());
    return st;
}

Status
WalWriter::rotate(uint64_t next_lsn)
{
    if (poisoned_)
        return Status(ErrorCode::kUnavailable,
                      "WAL writer poisoned (" + poisonReason_ + ")");
    if (fd_ < 0)
        return Status(ErrorCode::kFailedPrecondition,
                      "WAL writer is closed");
    Status st = doSync();
    if (!st.ok()) {
        poison("rotate-time sync failed: " + st.message());
        return st;
    }
    ::close(fd_);
    fd_ = -1;
    st = openSegment(next_lsn);
    if (!st.ok())
        poison("rotate could not open the next segment: " + st.message());
    else
        bumpCounter("durability.wal.rotations", 1);
    return st;
}

void
WalWriter::close()
{
    if (fd_ < 0)
        return;
    if (!poisoned_ && pending_ > 0)
        (void)doSync();
    ::close(fd_);
    fd_ = -1;
}

Status
readWal(const std::string &dir, WalReadResult *out, bool repair_torn_tail)
{
    out->records.clear();
    out->segments = 0;
    out->tornTailBytes = 0;
    out->tornSegment.clear();

    std::error_code ec;
    if (!fs::exists(dir, ec))
        return Status::Ok(); // no WAL yet: an empty, valid log

    std::vector<std::pair<uint64_t, std::string>> segs;
    if (Status st = listSegments(dir, &segs); !st.ok())
        return st;
    out->segments = segs.size();

    uint64_t expectedNext = 0; // 0 = not pinned yet
    for (size_t si = 0; si < segs.size(); ++si) {
        const auto &[firstLsn, path] = segs[si];
        const bool finalSegment = si + 1 == segs.size();

        std::ifstream in(path, std::ios::binary);
        if (!in)
            return ioStatus("open", path);
        std::vector<uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
        if (in.bad())
            return ioStatus("read", path);

        // Non-final segments must start exactly one past the previous
        // segment's last record; a gap means a segment went missing.
        if (expectedNext != 0 && firstLsn != expectedNext)
            return Status(ErrorCode::kCorruptFile,
                          "WAL lsn discontinuity: segment " + path +
                              " starts at " + std::to_string(firstLsn) +
                              " but " + std::to_string(expectedNext) +
                              " was expected — a segment is missing");

        size_t pos = 0;
        uint64_t inSegment = 0;
        while (pos < bytes.size()) {
            const size_t remaining = bytes.size() - pos;

            // Classification rule (the crash-consistency contract): an
            // INCOMPLETE record can only be a torn append, and a torn
            // append can only exist at the very tail of the final
            // segment. A COMPLETE record that fails validation is
            // media corruption wherever it sits.
            bool incomplete = remaining < kWalHeaderBytes;
            if (!incomplete && getU32(bytes.data() + pos) == kWalMagic &&
                knownVersion(getU16(bytes.data() + pos + 4))) {
                const uint64_t payloadLen = getU32(bytes.data() + pos + 16);
                if (payloadLen <= kWalMaxPayloadBytes &&
                    remaining < kWalHeaderBytes + payloadLen)
                    incomplete = true;
            }
            if (incomplete) {
                if (!finalSegment)
                    return Status(
                        ErrorCode::kCorruptFile,
                        "WAL segment " + path +
                            " ends mid-record but is not the final "
                            "segment — torn tails can only exist where "
                            "the crash happened");
                out->tornTailBytes = remaining;
                out->tornSegment = path;
                bumpCounter("durability.wal.torn_tail_bytes", remaining);
                if (repair_torn_tail) {
                    in.close();
                    if (::truncate(path.c_str(),
                                   static_cast<off_t>(pos)) != 0)
                        return ioStatus("truncate", path);
                }
                break;
            }

            WalRecord rec;
            size_t consumed = 0;
            Status st = decodeWalRecord(bytes.data() + pos, remaining,
                                        &rec, &consumed);
            if (!st.ok())
                return Status(st.code(),
                              st.message() + " (in " + path + " at offset " +
                                  std::to_string(pos) + ")");

            const uint64_t expectedLsn = firstLsn + inSegment;
            if (rec.lsn != expectedLsn)
                return Status(ErrorCode::kCorruptFile,
                              "WAL lsn discontinuity in " + path +
                                  ": record " + std::to_string(inSegment) +
                                  " carries lsn " +
                                  std::to_string(rec.lsn) + " but " +
                                  std::to_string(expectedLsn) +
                                  " was expected");
            out->records.push_back(std::move(rec));
            pos += consumed;
            ++inSegment;
        }
        expectedNext = firstLsn + inSegment;
    }
    return Status::Ok();
}

Status
truncateWalBehind(const std::string &dir, uint64_t covered_lsn)
{
    std::vector<std::pair<uint64_t, std::string>> segs;
    if (Status st = listSegments(dir, &segs); !st.ok())
        return st;
    uint64_t removedBytes = 0;
    // Segment i's records all have lsn < segs[i+1].first, so it is
    // fully covered iff the NEXT segment starts at or below
    // covered_lsn + 1. The newest segment is never deleted.
    for (size_t i = 0; i + 1 < segs.size(); ++i) {
        if (segs[i + 1].first > covered_lsn + 1)
            break;
        std::error_code ec;
        const uint64_t sz = fs::file_size(segs[i].second, ec);
        if (!ec)
            removedBytes += sz;
        fs::remove(segs[i].second, ec);
        if (ec)
            return Status(ErrorCode::kIoError,
                          "cannot remove covered WAL segment " +
                              segs[i].second + ": " + ec.message());
    }
    if (removedBytes)
        bumpCounter("durability.wal.truncated_bytes", removedBytes);
    return Status::Ok();
}

} // namespace cobra
