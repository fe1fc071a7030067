/**
 * @file
 * Replay of the checked-in fuzz corpus (tests/fuzz_corpus/) in the
 * plain test suite.
 *
 * The libFuzzer harnesses (fuzz/) need clang; this replay does not, so
 * every past crasher stays a regression test on any toolchain and in
 * every sanitizer pass. Contract under test: the JSON parser, the
 * graph tryLoad* loaders, and the server wire-frame decoders return a
 * Status for arbitrary bytes — no crash, no hang, no sanitizer report.
 */

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/durability/wal.h"
#include "src/graph/io.h"
#include "src/server/frame.h"
#include "src/util/json.h"

namespace fs = std::filesystem;
using namespace cobra;

namespace {

fs::path
corpusDir()
{
    const char *dir = std::getenv("COBRA_FUZZ_CORPUS_DIR");
    // Fallback for running the binary by hand from the repo root.
    return fs::path(dir ? dir : "tests/fuzz_corpus");
}

std::string
slurp(const fs::path &p)
{
    std::ifstream is(p, std::ios::binary);
    std::ostringstream oss;
    oss << is.rdbuf();
    return oss.str();
}

std::vector<fs::path>
corpusFiles(const char *sub)
{
    std::vector<fs::path> files;
    for (const auto &e : fs::directory_iterator(corpusDir() / sub))
        if (e.is_regular_file())
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

TEST(FuzzCorpus, CorpusIsPresent)
{
    ASSERT_TRUE(fs::exists(corpusDir() / "json"))
        << "corpus dir not found: " << corpusDir()
        << " (set COBRA_FUZZ_CORPUS_DIR)";
    EXPECT_FALSE(corpusFiles("json").empty());
    EXPECT_FALSE(corpusFiles("graph").empty());
    EXPECT_FALSE(corpusFiles("frame").empty());
    EXPECT_FALSE(corpusFiles("wal").empty());
}

// Every corpus input — valid, malformed, or a past crasher — must come
// back as a Status, never a crash. This is the same loop the libFuzzer
// harness fuzz_json.cc runs.
TEST(FuzzCorpus, JsonReplayNeverCrashes)
{
    for (const fs::path &p : corpusFiles("json")) {
        SCOPED_TRACE(p.filename().string());
        JsonValue v;
        (void)parseJson(slurp(p), &v);
    }
}

// Regression for the fuzzer-found stack overflow: deep "[[[[..." /
// "{"k":{"k":..." nesting recursed once per level with no bound. Now it
// must be rejected at Parser::kMaxDepth with a parse error.
TEST(FuzzCorpus, DeepNestingIsRejectedNotCrashing)
{
    for (const char *name : {"crash_deep_array_nesting.json",
                             "crash_deep_object_nesting.json"}) {
        SCOPED_TRACE(name);
        const fs::path p = corpusDir() / "json" / name;
        ASSERT_TRUE(fs::exists(p));
        JsonValue v;
        Status s = parseJson(slurp(p), &v);
        EXPECT_EQ(s.code(), ErrorCode::kCorruptFile);
        EXPECT_NE(s.message().find("nesting"), std::string::npos)
            << s.message();
    }
}

TEST(FuzzCorpus, DepthCapBoundary)
{
    // Exactly kMaxDepth nested arrays parse; one more is rejected.
    const int d = json_detail::Parser::kMaxDepth;
    std::string ok_doc(static_cast<size_t>(d), '[');
    ok_doc += std::string(static_cast<size_t>(d), ']');
    JsonValue v;
    EXPECT_TRUE(parseJson(ok_doc, &v).ok());
    std::string deep_doc = "[" + ok_doc + "]";
    EXPECT_FALSE(parseJson(deep_doc, &v).ok());
}

TEST(FuzzCorpus, ValidSeedsStillParse)
{
    JsonValue v;
    ASSERT_TRUE(
        parseJson(slurp(corpusDir() / "json" / "valid_metrics.json"), &v)
            .ok());
    EXPECT_EQ(v["kernel"].asString(), "np");
    EXPECT_EQ(v["bins"].asUint(), 4096u);
    EXPECT_TRUE(v["phases"].at(0)["name"].isString());
}

// The graph corpus runs through all three loaders exactly as
// fuzz_graph_io.cc does: any file content yields a Status.
TEST(FuzzCorpus, GraphReplayNeverCrashes)
{
    for (const fs::path &p : corpusFiles("graph")) {
        SCOPED_TRACE(p.filename().string());
        EdgeList el;
        NodeId n = 0;
        (void)tryLoadEdgeListText(p.string(), &el, &n);
        el.clear();
        (void)tryLoadEdgeListBinary(p.string(), &el, &n);
        CsrGraph g;
        (void)tryLoadCsrBinary(p.string(), &g);
    }
}

TEST(FuzzCorpus, GraphValidSeedsStillLoad)
{
    EdgeList el;
    NodeId n = 0;
    ASSERT_TRUE(
        tryLoadEdgeListText((corpusDir() / "graph" / "tiny.el").string(),
                            &el, &n)
            .ok());
    EXPECT_EQ(el.size(), 3u);
    EXPECT_EQ(n, 3u);
    el.clear();
    ASSERT_TRUE(tryLoadEdgeListBinary(
                    (corpusDir() / "graph" / "tiny.bel").string(), &el, &n)
                    .ok());
    EXPECT_EQ(el.size(), 2u);
    EXPECT_EQ(n, 3u);
}

/** The socket reader's split decode, as fuzz_frame.cc runs it. */
Status
splitDecode(const uint8_t *data, size_t len, RequestFrame *out)
{
    uint8_t header[kRequestHeaderBytes] = {};
    const size_t head = std::min(len, sizeof(header));
    std::memcpy(header, data, head);
    if (Status s = decodeRequestHeader(header, len, out); !s.ok())
        return s;
    if (len > head)
        std::memcpy(out->payload.data(), data + head, len - head);
    return decodeRequestBody(out);
}

// The frame corpus runs through the wire decoders exactly as
// fuzz_frame.cc does: byte 0 selects the decoder, the rest is the
// frame; whatever decodes must re-encode and decode again losslessly,
// and the split decode must agree with the whole-frame one.
TEST(FuzzCorpus, FrameReplayNeverCrashes)
{
    for (const fs::path &p : corpusFiles("frame")) {
        SCOPED_TRACE(p.filename().string());
        const std::string raw = slurp(p);
        if (raw.empty())
            continue;
        const uint8_t *body =
            reinterpret_cast<const uint8_t *>(raw.data()) + 1;
        const size_t len = raw.size() - 1;
        if (raw[0] & 1) {
            ResponseFrame resp;
            if (decodeResponse(body, len, &resp).ok()) {
                const std::vector<uint8_t> buf = encodeResponse(resp);
                ResponseFrame again;
                EXPECT_TRUE(
                    decodeResponse(buf.data(), buf.size(), &again).ok());
            }
        } else if (raw[0] & 2) {
            RequestFrame split, whole;
            const Status s = splitDecode(body, len, &split);
            const Status w = decodeRequest(body, len, &whole);
            EXPECT_EQ(s.code(), w.code()) << s.message() << " / "
                                          << w.message();
            if (s.ok() && w.ok())
                EXPECT_EQ(encodeRequest(split), encodeRequest(whole));
        } else {
            RequestFrame req;
            if (decodeRequest(body, len, &req).ok()) {
                const std::vector<uint8_t> buf = encodeRequest(req);
                RequestFrame again;
                EXPECT_TRUE(
                    decodeRequest(buf.data(), buf.size(), &again).ok());
            }
        }
    }
}

// The split-decode seeds (selector 2): a valid frame is accepted; a
// valid header over a body shorter than it claims, and a header that
// claims one word past kMaxPayloadWords, are refused at the header,
// before any payload storage is sized.
TEST(FuzzCorpus, FrameSplitDecodeSeeds)
{
    struct Case
    {
        const char *file;
        ErrorCode code;
    };
    for (const Case &c :
         {Case{"split_valid_request.bin", ErrorCode::kOk},
          Case{"split_short_body.bin", ErrorCode::kCorruptFile},
          Case{"split_over_cap_words.bin", ErrorCode::kCorruptFile}}) {
        SCOPED_TRACE(c.file);
        const std::string raw = slurp(corpusDir() / "frame" / c.file);
        ASSERT_GT(raw.size(), 1u);
        ASSERT_EQ(raw[0], 2);
        const uint8_t *body =
            reinterpret_cast<const uint8_t *>(raw.data()) + 1;
        const size_t len = raw.size() - 1;
        RequestFrame header_only;
        const Status h = decodeRequestHeader(body, len, &header_only);
        EXPECT_EQ(h.code(), c.code) << h.message();
        RequestFrame split, whole;
        EXPECT_EQ(splitDecode(body, len, &split).code(), c.code);
        EXPECT_EQ(decodeRequest(body, len, &whole).code(), c.code);
    }
}

TEST(FuzzCorpus, FrameValidSeedsStillDecode)
{
    const std::string raw =
        slurp(corpusDir() / "frame" / "valid_request.bin");
    ASSERT_GT(raw.size(), 1u);
    RequestFrame req;
    ASSERT_TRUE(
        decodeRequest(reinterpret_cast<const uint8_t *>(raw.data()) + 1,
                      raw.size() - 1, &req)
            .ok());
    EXPECT_EQ(req.kernel, ServerKernel::kDegreeCount);
    EXPECT_EQ(req.bins, 256u);
    EXPECT_EQ(req.numIndices, 16u);
    EXPECT_EQ(req.payload.size(), 4u);

    const std::string rraw =
        slurp(corpusDir() / "frame" / "valid_response.bin");
    ASSERT_GT(rraw.size(), 1u);
    ResponseFrame resp;
    ASSERT_TRUE(decodeResponse(
                    reinterpret_cast<const uint8_t *>(rraw.data()) + 1,
                    rraw.size() - 1, &resp)
                    .ok());
    EXPECT_EQ(resp.code, ErrorCode::kOk);
    EXPECT_EQ(resp.message, "ok");
}

// The served-kernel id space widened to pagerank (3) and spmv (4):
// both decode as valid requests, while the first id past the range (7
// here, mirroring bad_kernel.bin's 9) stays a typed reject.
TEST(FuzzCorpus, FrameServedKernelSeedsDecode)
{
    struct Case
    {
        const char *file;
        ServerKernel kernel;
    };
    for (const Case &c :
         {Case{"valid_request_pagerank.bin", ServerKernel::kPagerank},
          Case{"valid_request_spmv.bin", ServerKernel::kSpmv},
          Case{"valid_request_spmv_twopass.bin", ServerKernel::kSpmv}}) {
        SCOPED_TRACE(c.file);
        const std::string raw = slurp(corpusDir() / "frame" / c.file);
        ASSERT_GT(raw.size(), 1u);
        RequestFrame req;
        ASSERT_TRUE(decodeRequest(
                        reinterpret_cast<const uint8_t *>(raw.data()) + 1,
                        raw.size() - 1, &req)
                        .ok());
        EXPECT_EQ(req.kernel, c.kernel);
        EXPECT_EQ(req.numIndices, 16u);
    }
    const std::string raw =
        slurp(corpusDir() / "frame" / "bad_kernel_id7.bin");
    ASSERT_GT(raw.size(), 1u);
    RequestFrame req;
    Status s = decodeRequest(
        reinterpret_cast<const uint8_t *>(raw.data()) + 1, raw.size() - 1,
        &req);
    EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(s.message().find("unknown kernel id 7"), std::string::npos)
        << s.message();
}

// The mutation ops (kMutate, kSnapshot) widened the request frame: the
// formerly-reserved op byte selects the operation and bit 31 of a
// mutate src word marks a delete. Valid shapes — including a
// tombstone-before-any-base delete and overlapping duplicate edges,
// which are semantic no-ops/rejections but wire-valid — must decode;
// protocol abuse (payload on a snapshot, op ids past kSnapshot, the
// delete bit on a dst word, truncated mutate bodies) must come back
// typed.
TEST(FuzzCorpus, FrameMutationSeedsDecodeOrReject)
{
    struct Case
    {
        const char *file;
        RequestOp op;
        size_t payloadWords;
    };
    for (const Case &c :
         {Case{"valid_request_mutate.bin", RequestOp::kMutate, 8},
          Case{"valid_request_snapshot.bin", RequestOp::kSnapshot, 0},
          Case{"mutate_overlapping.bin", RequestOp::kMutate, 8},
          Case{"mutate_tombstone_without_base.bin", RequestOp::kMutate,
               2}}) {
        SCOPED_TRACE(c.file);
        const std::string raw = slurp(corpusDir() / "frame" / c.file);
        ASSERT_GT(raw.size(), 1u);
        RequestFrame req;
        ASSERT_TRUE(decodeRequest(
                        reinterpret_cast<const uint8_t *>(raw.data()) + 1,
                        raw.size() - 1, &req)
                        .ok());
        EXPECT_EQ(req.op, c.op);
        EXPECT_EQ(req.payload.size(), c.payloadWords);
    }
    for (const char *name :
         {"mutate_truncated.bin", "snapshot_with_payload.bin",
          "bad_op3.bin", "mutate_delete_bit_on_dst.bin"}) {
        SCOPED_TRACE(name);
        const std::string raw = slurp(corpusDir() / "frame" / name);
        ASSERT_GT(raw.size(), 1u);
        RequestFrame req;
        EXPECT_FALSE(decodeRequest(
                         reinterpret_cast<const uint8_t *>(raw.data()) + 1,
                         raw.size() - 1, &req)
                         .ok());
    }
}

TEST(FuzzCorpus, FrameMalformedSeedsAreRejected)
{
    for (const char *name :
         {"bad_magic.bin", "truncated_payload.bin",
          "lying_payload_words.bin", "oob_payload_index.bin",
          "nonpow2_bins.bin", "unknown_flags.bin", "bad_kernel_id7.bin"}) {
        SCOPED_TRACE(name);
        const std::string raw = slurp(corpusDir() / "frame" / name);
        ASSERT_GT(raw.size(), 1u);
        RequestFrame req;
        EXPECT_FALSE(decodeRequest(
                         reinterpret_cast<const uint8_t *>(raw.data()) + 1,
                         raw.size() - 1, &req)
                         .ok());
    }
    for (const char *name : {"resp_bad_code.bin", "resp_lying_msglen.bin",
                             "resp_truncated.bin"}) {
        SCOPED_TRACE(name);
        const std::string raw = slurp(corpusDir() / "frame" / name);
        ASSERT_GT(raw.size(), 1u);
        ResponseFrame resp;
        EXPECT_FALSE(
            decodeResponse(
                reinterpret_cast<const uint8_t *>(raw.data()) + 1,
                raw.size() - 1, &resp)
                .ok());
    }
}

// The WAL corpus runs through the record parser exactly as fuzz_wal.cc
// does: the file is a segment byte stream; records decode front-to-back
// until the first rejection, and whatever decodes must re-encode
// byte-identically (accepted records are canonical).
TEST(FuzzCorpus, WalReplayNeverCrashes)
{
    for (const fs::path &p : corpusFiles("wal")) {
        SCOPED_TRACE(p.filename().string());
        const std::string raw = slurp(p);
        const uint8_t *data = reinterpret_cast<const uint8_t *>(raw.data());
        size_t off = 0;
        while (off < raw.size()) {
            WalRecord rec;
            size_t consumed = 0;
            if (!decodeWalRecord(data + off, raw.size() - off, &rec,
                                 &consumed)
                     .ok())
                break;
            ASSERT_GE(consumed, kWalHeaderBytes);
            ASSERT_LE(consumed, raw.size() - off);
            const std::vector<uint8_t> buf = encodeWalRecord(rec);
            ASSERT_EQ(buf.size(), consumed);
            EXPECT_EQ(0, std::memcmp(buf.data(), data + off, consumed));
            off += consumed;
        }
    }
}

TEST(FuzzCorpus, WalValidSeedsStillDecode)
{
    const std::string raw =
        slurp(corpusDir() / "wal" / "valid_record.bin");
    ASSERT_GE(raw.size(), kWalHeaderBytes);
    WalRecord rec;
    size_t consumed = 0;
    ASSERT_TRUE(decodeWalRecord(
                    reinterpret_cast<const uint8_t *>(raw.data()),
                    raw.size(), &rec, &consumed)
                    .ok());
    EXPECT_EQ(rec.lsn, 1u);
    EXPECT_EQ(rec.postLiveEdges, 12u);
    EXPECT_EQ(rec.payload.size(), 48u);
    EXPECT_EQ(consumed, raw.size());
}

// Version-2 records (stamped with DynamicGraph::edgeSetHash()) decode
// beside version 1, alone and in a stream that switches versions.
TEST(FuzzCorpus, WalV2SeedsDecode)
{
    const std::string one =
        slurp(corpusDir() / "wal" / "valid_v2_record.bin");
    WalRecord rec;
    size_t consumed = 0;
    ASSERT_TRUE(decodeWalRecord(
                    reinterpret_cast<const uint8_t *>(one.data()),
                    one.size(), &rec, &consumed)
                    .ok());
    EXPECT_EQ(rec.version, kWalVersionEdgeSetStamp);
    EXPECT_EQ(rec.lsn, 1u);
    EXPECT_EQ(rec.postLiveEdges, 12u);
    EXPECT_EQ(rec.payload.size(), 48u);
    EXPECT_EQ(consumed, one.size());

    const std::string two =
        slurp(corpusDir() / "wal" / "stream_v1_then_v2.bin");
    const uint8_t *data = reinterpret_cast<const uint8_t *>(two.data());
    size_t off = 0;
    for (uint16_t version :
         {kWalVersionSnapshotStamp, kWalVersionEdgeSetStamp}) {
        SCOPED_TRACE(version);
        ASSERT_TRUE(decodeWalRecord(data + off, two.size() - off, &rec,
                                    &consumed)
                        .ok());
        EXPECT_EQ(rec.version, version);
        EXPECT_EQ(rec.lsn, version); // lsn 1 is v1, lsn 2 is v2
        off += consumed;
    }
    EXPECT_EQ(off, two.size());
}

// The reader's torn-tail scan must recognise a v2 header as a record
// start: a v2 record cut short at the end of the final segment is a
// torn tail (survivable), not corruption.
TEST(FuzzCorpus, WalTornV2TailIsTornNotCorrupt)
{
    const std::string raw = slurp(corpusDir() / "wal" / "torn_v2_tail.bin");
    const fs::path dir = fs::temp_directory_path() /
                         ("cobra_fuzz_corpus_torn_v2_" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
        std::ofstream os(dir / walSegmentName(1), std::ios::binary);
        os.write(raw.data(), static_cast<std::streamsize>(raw.size()));
    }
    WalReadResult rr;
    const Status s = readWal(dir.string(), &rr);
    fs::remove_all(dir);
    ASSERT_TRUE(s.ok()) << s.toString();
    ASSERT_EQ(rr.records.size(), 1u);
    EXPECT_EQ(rr.records[0].version, kWalVersionEdgeSetStamp);
    EXPECT_EQ(rr.tornTailBytes, raw.size() - (kWalHeaderBytes + 48));
}

TEST(FuzzCorpus, WalMalformedSeedsAreRejected)
{
    for (const char *name :
         {"torn_header.bin", "torn_payload.bin", "crc_flip.bin",
          "payload_rot.bin", "bad_magic.bin", "bad_version.bin",
          "nonzero_flags.bin", "lying_payload_len.bin"}) {
        SCOPED_TRACE(name);
        const std::string raw = slurp(corpusDir() / "wal" / name);
        ASSERT_FALSE(raw.empty());
        WalRecord rec;
        size_t consumed = 0;
        Status s = decodeWalRecord(
            reinterpret_cast<const uint8_t *>(raw.data()), raw.size(),
            &rec, &consumed);
        EXPECT_EQ(s.code(), ErrorCode::kCorruptFile) << s.toString();
    }
}

TEST(FuzzCorpus, GraphMalformedSeedsAreRejected)
{
    EdgeList el;
    NodeId n = 0;
    EXPECT_FALSE(
        tryLoadEdgeListBinary(
            (corpusDir() / "graph" / "bad_magic.bel").string(), &el, &n)
            .ok());
    EXPECT_FALSE(
        tryLoadEdgeListBinary(
            (corpusDir() / "graph" / "truncated_payload.bel").string(),
            &el, &n)
            .ok());
    EXPECT_FALSE(
        tryLoadEdgeListBinary(
            (corpusDir() / "graph" / "absurd_edge_count.bel").string(),
            &el, &n)
            .ok());
    CsrGraph g;
    EXPECT_FALSE(
        tryLoadCsrBinary(
            (corpusDir() / "graph" / "bad_neighbor.csr").string(), &g)
            .ok());
}
