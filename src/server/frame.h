/**
 * @file
 * Wire frames for the batch server: one request = one supervised PB
 * run; one response = the serialized outcome of that run.
 *
 * The protocol is deliberately minimal — length-prefixed binary frames
 * over a local socket (src/server/wire_socket.h) or handed directly to
 * BatchServer::submit() in process. What it is *not* minimal about is
 * validation: a frame crosses a trust boundary (any local process can
 * connect), so decodeRequest() applies the same hostile-input
 * discipline as the graph readers in src/graph/io.cc — every length is
 * range-checked before it sizes an allocation, every arithmetic step
 * that could overflow is checked in 64-bit, every enum is checked
 * against its legal range, and every payload index is checked against
 * the request's own index namespace. A malformed frame becomes a typed
 * Status (never a throw, never UB) so the server can answer it with an
 * error response and move on; the fuzz harness in fuzz/fuzz_frame.cc
 * holds the decoder to that contract.
 *
 * Layout notes: all integers are little-endian, fixed-width, at fixed
 * offsets (no varints). Header fields are serialized byte by byte, so
 * the codec is endian- and alignment-agnostic; the payload's words are
 * already in wire order on a little-endian host and move with one
 * memcpy (or one read/gather write on the socket), with a per-word
 * loop as the big-endian fallback. ErrorCode and PbEngineKind
 * raw values ride the wire; both ends must be built from the same
 * source revision, which is the deployment model for a localhost batch
 * sidecar (the version field exists to reject anything else loudly).
 */

#ifndef COBRA_SERVER_FRAME_H
#define COBRA_SERVER_FRAME_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/pb/engine_config.h"
#include "src/util/error.h"
#include "src/util/fnv.h"

namespace cobra {

/** Which kernel a request asks the server to run. Only kernels with a
 * host-parallel PB runtime are servable (IntSort et al. are not). */
enum class ServerKernel : uint8_t
{
    kDegreeCount = 1,      ///< payload: (src, dst) pairs, degrees out
    kNeighborPopulate = 2, ///< payload: (src, dst) pairs, CSR out
    kPagerank = 3,         ///< payload: (src, dst) pairs, one PR iter
    kSpmv = 4,             ///< payload: (row, col) pairs; the server
                           ///< derives deterministic values and x
};

inline const char *
to_string(ServerKernel k)
{
    switch (k) {
      case ServerKernel::kDegreeCount: return "degree";
      case ServerKernel::kNeighborPopulate: return "np";
      case ServerKernel::kPagerank: return "pagerank";
      case ServerKernel::kSpmv: return "spmv";
    }
    return "unknown";
}

inline std::optional<ServerKernel>
serverKernelFromName(std::string_view name)
{
    for (ServerKernel k :
         {ServerKernel::kDegreeCount, ServerKernel::kNeighborPopulate,
          ServerKernel::kPagerank, ServerKernel::kSpmv})
        if (name == to_string(k))
            return k;
    return std::nullopt;
}

/**
 * What the request asks the server to do. kRun is the original
 * stateless one-shot (build a kernel from the payload, run it, discard
 * it). kMutate and kSnapshot address the per-tenant *mutable* graph:
 * mutate applies the payload as an edge-mutation batch and returns the
 * incremental recompute's checksum; snapshot checksums the tenant's
 * current merged CSR. The op rides the byte that was reserved after
 * the flags byte, so version-1 frames from older encoders decode as
 * kRun unchanged.
 */
enum class RequestOp : uint8_t
{
    kRun = 0,      ///< stateless supervised PB run (original protocol)
    kMutate = 1,   ///< apply payload as a mutation batch to tenant state
    kSnapshot = 2, ///< checksum the tenant's merged graph snapshot
};

inline const char *
to_string(RequestOp op)
{
    switch (op) {
      case RequestOp::kRun: return "run";
      case RequestOp::kMutate: return "mutate";
      case RequestOp::kSnapshot: return "snapshot";
    }
    return "unknown";
}

/**
 * kMutate payload encoding: still (src, dst) word pairs, but bit 31 of
 * the *src* word marks the op as a delete. Valid vertex ids fit 31
 * bits (numIndices is capped at 2^31), so the bit is always free; the
 * dst word must never carry it.
 */
inline constexpr uint32_t kMutateDeleteBit = 0x80000000u;

// Frame limits. kMaxFrameBytes bounds what a reader will ever buffer
// for one frame (enforced again by the socket layer before the decoder
// even sees the bytes); the rest bound individual fields so a hostile
// header cannot size a pathological run.
inline constexpr uint32_t kRequestMagic = 0x51524243u;  // "CBRQ"
inline constexpr uint32_t kResponseMagic = 0x53524243u; // "CBRS"
inline constexpr uint16_t kWireVersion = 1;
inline constexpr uint64_t kMaxFrameBytes = 64ull << 20;
inline constexpr size_t kRequestHeaderBytes = 76;
inline constexpr size_t kResponseHeaderBytes = 76;
inline constexpr uint64_t kMaxPayloadWords =
    (kMaxFrameBytes - kRequestHeaderBytes) / 4;
inline constexpr uint64_t kMaxRequestIndices = 1ull << 31;
inline constexpr uint32_t kMaxRequestBins = 1u << 26;
inline constexpr uint32_t kMaxWcLines = 64;
inline constexpr uint32_t kMaxDeadlineMs = 10 * 60 * 1000;
inline constexpr uint32_t kMaxMsgBytes = 4096;

/** One client request: which kernel to run, how, and on what data. */
struct RequestFrame
{
    uint64_t tenantId = 0;
    uint64_t requestId = 0; ///< client-chosen echo token
    ServerKernel kernel = ServerKernel::kDegreeCount;
    PbEngineKind engine = PbEngineKind::kScalar;
    RequestOp op = RequestOp::kRun;
    bool skewAdaptive = false;
    uint32_t bins = 1024;
    uint32_t wcLines = 1;
    uint32_t deadlineMs = 0; ///< whole-request budget; 0 = none

    // Optional per-request chaos plan (see src/check/fault_injector.h):
    // site 0 = none. Scoped to this request's run only.
    uint32_t injectSite = 0;
    uint64_t injectFireAt = 0;
    uint64_t injectSeed = 0;

    uint64_t numIndices = 0; ///< index namespace (node count)

    /**
     * (src, dst) pairs, flattened; every word < numIndices. For
     * op == kMutate the src word may carry kMutateDeleteBit; for
     * op == kSnapshot the payload must be empty.
     */
    std::vector<uint32_t> payload;

    uint64_t numUpdates() const { return payload.size() / 2; }
};

/** One server response: the request's lifecycle outcome. */
struct ResponseFrame
{
    uint64_t tenantId = 0;
    uint64_t requestId = 0;
    ErrorCode code = ErrorCode::kOk;

    // Supervisor telemetry (zero when the request never ran).
    uint32_t attempts = 0;
    uint32_t retries = 0;
    uint32_t degradations = 0;
    bool usedBaseline = false;
    PbEngineKind finalEngine = PbEngineKind::kScalar;
    uint32_t finalBins = 0;

    uint64_t resultChecksum = 0; ///< FNV-1a of the output; 0 on failure
    uint64_t serverMicros = 0;   ///< run wall time on the dispatcher
    uint64_t queueMicros = 0;    ///< admitted -> dispatched latency
    std::string message;         ///< failure detail (bounded)
};

// fnv1a (the response's result fingerprint) now lives in
// src/util/fnv.h so the graph and durability layers can share it.

/**
 * Semantic validation shared by the decoder and the in-process submit
 * path: enum ranges, power-of-two bins, field caps, payload shape, and
 * the O(n) index-bounds scan. Returns the first violation.
 */
Status validateRequest(const RequestFrame &req);

/** Exact encoded size of @p req (header + payload). */
uint64_t encodedRequestBytes(const RequestFrame &req);

/**
 * Serialize @p req's fixed header; the payload's words follow it on
 * the wire as little-endian bytes. Validates @p req first and throws
 * like encodeRequest(). Lets a sender write the payload from
 * req.payload itself instead of copying it into a frame image.
 */
std::array<uint8_t, kRequestHeaderBytes>
encodeRequestHeader(const RequestFrame &req);

/**
 * Serialize @p req. Throws Error(kInvalidArgument) when the frame
 * fails validateRequest() — an encoder must never emit a frame its
 * own decoder would reject.
 */
std::vector<uint8_t> encodeRequest(const RequestFrame &req);

/**
 * First half of a split decode, for readers that take the payload
 * straight off a socket: parse the header of a frame whose total
 * length (header + payload) is @p frame_len. Checks the frame cap,
 * magic, version, reserved field, flag bits, op id, the payload cap
 * and the length cross-check. On success @p out holds every header
 * field and out->payload is sized to the claimed word count, ready for
 * the payload's wire bytes; then call decodeRequestBody(). @p header
 * must hold kRequestHeaderBytes bytes unless @p frame_len is shorter,
 * in which case nothing is read and the frame is rejected. Never
 * throws.
 */
Status decodeRequestHeader(const uint8_t *header, uint64_t frame_len,
                           RequestFrame *out);

/**
 * Second half of a split decode: out->payload's storage holds the
 * payload's wire bytes. Brings the words to host order (nothing to do
 * on a little-endian host) and runs validateRequest().
 */
Status decodeRequestBody(RequestFrame *req);

/**
 * Parse and fully validate a request frame: decodeRequestHeader(),
 * one copy of the payload, decodeRequestBody(). Never throws; on any
 * violation returns a typed Status and leaves @p out unspecified.
 */
Status decodeRequest(const uint8_t *data, size_t len, RequestFrame *out);

/** Serialize @p resp (message silently truncated to kMaxMsgBytes). */
std::vector<uint8_t> encodeResponse(const ResponseFrame &resp);

/** Parse and validate a response frame. Never throws. */
Status decodeResponse(const uint8_t *data, size_t len,
                      ResponseFrame *out);

} // namespace cobra

#endif // COBRA_SERVER_FRAME_H
