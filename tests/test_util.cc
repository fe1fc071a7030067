/**
 * @file
 * Unit tests for src/util: bit ops, prefix sums, RNG, histogram,
 * aligned arrays, and the table printer.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "src/util/aligned_array.h"
#include "src/util/bitops.h"
#include "src/util/fnv.h"
#include "src/util/histogram.h"
#include "src/util/prefix_sum.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace cobra {
namespace {

TEST(Bitops, IsPow2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_TRUE(isPow2(1ULL << 63));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(6));
}

TEST(Bitops, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(Bitops, PowRounding)
{
    EXPECT_EQ(ceilPow2(1), 1u);
    EXPECT_EQ(ceilPow2(3), 4u);
    EXPECT_EQ(ceilPow2(4), 4u);
    EXPECT_EQ(floorPow2(5), 4u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(Bitops, BitsExtract)
{
    EXPECT_EQ(bits(0xABCD, 0, 4), 0xDu);
    EXPECT_EQ(bits(0xABCD, 4, 8), 0xBCu);
    EXPECT_EQ(bits(~uint64_t{0}, 0, 64), ~uint64_t{0});
}

TEST(PrefixSum, ExclusiveBasic)
{
    std::vector<uint64_t> in{3, 1, 4, 1, 5};
    auto out = exclusivePrefixSum(in);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], 3u);
    EXPECT_EQ(out[2], 4u);
    EXPECT_EQ(out[3], 8u);
    EXPECT_EQ(out[4], 9u);
    EXPECT_EQ(out[5], 14u);
}

TEST(PrefixSum, Empty)
{
    std::vector<uint32_t> in;
    auto out = exclusivePrefixSum(in);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0u);
}

TEST(PrefixSum, InclusiveInPlace)
{
    std::vector<int> v{1, 2, 3};
    inclusivePrefixSumInPlace(v);
    EXPECT_EQ(v, (std::vector<int>{1, 3, 6}));
}

TEST(Rng, SplitMix64MatchesTheReferenceStream)
{
    // The published SplitMix64 output for seed 0; mix64 is its
    // finalizer (and DynamicGraph's per-edge mix), so this pins both.
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(mix64(0x9e3779b97f4a7c15ULL), 0xe220a8397b1dcdafULL);
}

TEST(Fnv, ByteWiseFnv1aStreamsInPieces)
{
    // "abcdefgh" as two little-endian words: fnv1a() is the standard
    // byte-wise 64-bit FNV-1a of those eight bytes.
    const uint32_t words[] = {0x64636261u, 0x68676665u};
    EXPECT_EQ(fnv1a(words, 0), 1469598103934665603ULL);
    EXPECT_EQ(fnv1a(words, 2), 0xd95aec8148a44733ULL);
    Fnv1a h;
    EXPECT_EQ(h.value(), fnv1a(words, 0));
    h.add(words[0]);
    EXPECT_EQ(h.value(), fnv1a(words, 1));
    h.add(words[1]);
    EXPECT_EQ(h.value(), fnv1a(words, 2));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        uint64_t v = r.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, BelowRoughlyUniform)
{
    Rng r(7);
    std::vector<int> counts(8, 0);
    const int trials = 80000;
    for (int i = 0; i < trials; ++i)
        ++counts[r.below(8)];
    for (int c : counts) {
        EXPECT_GT(c, trials / 8 - trials / 40);
        EXPECT_LT(c, trials / 8 + trials / 40);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10); // buckets [0,10) [10,20) [20,30) [30,40) + overflow
    h.add(0);
    h.add(9);
    h.add(10);
    h.add(39);
    h.add(1000);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(4), 1u); // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.max(), 1000u);
}

TEST(Histogram, MeanAndPercentile)
{
    Histogram h(100, 1);
    for (uint64_t v = 0; v < 100; ++v)
        h.add(v);
    EXPECT_NEAR(h.mean(), 49.5, 0.01);
    EXPECT_GE(h.percentile(0.99), 95u);
    EXPECT_LE(h.percentile(0.10), 12u);
}

TEST(AlignedArray, Alignment)
{
    AlignedArray<uint8_t> a(1000);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % 64, 0u);
    AlignedArray<double, 128> b(10);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % 128, 0u);
}

TEST(AlignedArray, ValueInitAndMove)
{
    AlignedArray<uint32_t> a(16);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], 0u);
    a[3] = 7;
    AlignedArray<uint32_t> b = std::move(a);
    EXPECT_EQ(b[3], 7u);
    EXPECT_EQ(b.size(), 16u);
    EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedArray, MappedBlocksKeepTheContract)
{
    // At and past kMapBytes, blocks come from mmap (except under ASan);
    // alignments past a page still go through operator new.
    const size_t n = kMapBytes == SIZE_MAX ? size_t{1} << 16
                                           : kMapBytes / sizeof(uint64_t);
    AlignedArray<uint64_t, 4096> a(n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % 4096, 0u);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(a[i], 0u);
    a[n - 1] = 9;
    AlignedArray<uint64_t, 4096> b(n + 1);
    b = std::move(a); // unmaps b's own block
    EXPECT_EQ(b[n - 1], 9u);
    AlignedArray<uint64_t, 8192> c(n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(c.data()) % 8192, 0u);
    c[n - 1] = 1;

    AlignedBuffer<uint32_t> raw = alignedAlloc<uint32_t>(2 * n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(raw.get()) % 64, 0u);
    raw[0] = 1;
    raw[2 * n - 1] = 2;
    EXPECT_EQ(raw[0] + raw[2 * n - 1], 3u);
}

TEST(Table, RendersRowsAndHeader)
{
    Table t("demo");
    t.header({"a", "bb"});
    t.row({"1", "2"});
    t.row({"333", "4"});
    std::ostringstream oss;
    t.print(oss);
    std::string s = oss.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("bb"), std::string::npos);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(1.005, 2), "1.00");
    EXPECT_EQ(Table::num(2.5, 1), "2.5");
    EXPECT_EQ(Table::num(3.0, 0), "3");
}

} // namespace
} // namespace cobra
