/**
 * @file
 * libFuzzer harness for the batch-server wire-frame parsers.
 *
 * Input format: byte 0 selects the decoder; the rest is the frame
 * body. Bit 0 set = response. Otherwise bit 1 set = the socket
 * reader's split request decode (decodeRequestHeader() on a header
 * copied to the stack, then the payload's bytes straight into the
 * storage it sized, then decodeRequestBody()), which must reach the
 * same verdict as decodeRequest() and, when it accepts, the same
 * frame; bit 1 clear = decodeRequest(). Contract under test:
 *
 *  - arbitrary bytes always come back as a Status — no crash, hang,
 *    over-allocation, or sanitizer report, no matter what the header
 *    claims about lengths or counts;
 *  - anything the decoder accepts re-encodes and decodes again
 *    (accepted frames are canonical — encode cannot throw on a
 *    decoder-validated frame, and the round trip is lossless).
 *
 * The request op byte (kRun / kMutate / kSnapshot) and the mutate
 * delete bit (bit 31 of a src payload word) ride the same decoder, so
 * the corpus carries mutation shapes too: valid mutate/snapshot
 * frames, overlapping duplicate edges, a tombstone-before-base delete
 * (wire-valid, rejected at apply), and the abuse cases — payload on a
 * snapshot, op ids past kSnapshot, the delete bit on a dst word,
 * truncated mutate bodies.
 *
 * Corpus seeds live in tests/fuzz_corpus/frame/ and are replayed by
 * tests/test_fuzz_corpus.cc on every toolchain.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/server/frame.h"

using namespace cobra;

namespace {

/** The socket reader's split decode of a frame of @p len bytes. */
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

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    if (size == 0)
        return 0;
    const uint8_t *body = data + 1;
    const size_t len = size - 1;
    if (data[0] & 1) {
        ResponseFrame resp;
        if (decodeResponse(body, len, &resp).ok()) {
            const std::vector<uint8_t> buf = encodeResponse(resp);
            ResponseFrame again;
            if (!decodeResponse(buf.data(), buf.size(), &again).ok())
                __builtin_trap();
        }
    } else if (data[0] & 2) {
        RequestFrame split, whole;
        const Status s = splitDecode(body, len, &split);
        const Status w = decodeRequest(body, len, &whole);
        if (s.code() != w.code())
            __builtin_trap();
        if (s.ok() && encodeRequest(split) != encodeRequest(whole))
            __builtin_trap();
    } else {
        RequestFrame req;
        if (decodeRequest(body, len, &req).ok()) {
            const std::vector<uint8_t> buf = encodeRequest(req);
            RequestFrame again;
            if (!decodeRequest(buf.data(), buf.size(), &again).ok())
                __builtin_trap();
        }
    }
    return 0;
}
