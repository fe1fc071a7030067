/**
 * @file
 * libFuzzer harness for the write-ahead-log record parser.
 *
 * Input: a byte stream treated as the contents of one WAL segment.
 * Contract under test (the crash-consistency core of DESIGN.md §16):
 *
 *  - arbitrary bytes always come back as a Status from
 *    decodeWalRecord — no crash, hang, over-allocation, or sanitizer
 *    report, no matter what the header claims about payloadLen;
 *  - anything the decoder accepts re-encodes byte-identically and
 *    decodes again (accepted records are canonical — the CRC patched
 *    by encodeWalRecord must match the one the decoder verified);
 *  - `consumed` never overruns the input, so a stream scan always
 *    terminates.
 *
 * Corpus seeds live in tests/fuzz_corpus/wal/ and are replayed by
 * tests/test_fuzz_corpus.cc on every toolchain.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/durability/wal.h"

using namespace cobra;

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    size_t off = 0;
    while (off < size) {
        WalRecord rec;
        size_t consumed = 0;
        if (!decodeWalRecord(data + off, size - off, &rec, &consumed)
                 .ok())
            break;
        if (consumed < kWalHeaderBytes || consumed > size - off)
            __builtin_trap(); // decoder lied about the record extent
        const std::vector<uint8_t> buf = encodeWalRecord(rec);
        if (buf.size() != consumed ||
            std::memcmp(buf.data(), data + off, consumed) != 0)
            __builtin_trap(); // accepted records must be canonical
        WalRecord again;
        size_t consumed2 = 0;
        if (!decodeWalRecord(buf.data(), buf.size(), &again, &consumed2)
                 .ok() ||
            consumed2 != consumed || again.version != rec.version ||
            again.lsn != rec.lsn ||
            again.postFingerprint != rec.postFingerprint ||
            again.postLiveEdges != rec.postLiveEdges ||
            again.payload != rec.payload)
            __builtin_trap(); // round trip must be lossless
        off += consumed;
    }
    return 0;
}
