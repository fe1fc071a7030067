/**
 * @file
 * FNV-1a over 32-bit word streams — the ordered result fingerprint
 * shared by the wire protocol (ResponseFrame::resultChecksum), the
 * mutable graph's snapshot fingerprint (kSnapshot answers, checkpoint
 * stamps, and the stamp of version-1 WAL records), and the clients
 * that check those answers. One definition so they always agree: a
 * recovered graph is certified by comparing this hash against the
 * value the no-crash server computed.
 *
 * Fnv1a is the incremental form: feeding a word stream in any number
 * of pieces gives the same hash as fnv1a() over the concatenation, so
 * a producer can hash words as it walks them instead of gathering
 * them into a buffer first. (Version-2 WAL records stamp the
 * order-free DynamicGraph::edgeSetHash() instead; see wal.h.)
 */

#ifndef COBRA_UTIL_FNV_H
#define COBRA_UTIL_FNV_H

#include <cstddef>
#include <cstdint>

namespace cobra {

/** Incremental FNV-1a over little-endian 32-bit words, byte at a time. */
class Fnv1a
{
  public:
    void
    add(uint32_t w)
    {
        for (int b = 0; b < 4; ++b) {
            h_ ^= (w >> (8 * b)) & 0xffu;
            h_ *= 1099511628211ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** FNV-1a over @p n little-endian 32-bit words, byte at a time. */
inline uint64_t
fnv1a(const uint32_t *words, size_t n)
{
    Fnv1a h;
    for (size_t i = 0; i < n; ++i)
        h.add(words[i]);
    return h.value();
}

} // namespace cobra

#endif // COBRA_UTIL_FNV_H
