/**
 * @file
 * Property suite for the mutable graph substrate (DynamicGraph).
 *
 * The trusted model is a std::set of (src, dst) pairs driven through
 * the same op stream: after every batch the graph's counters must
 * match the model transition exactly (insert of a live edge dedupes,
 * delete of a non-live edge rejects), every live adjacency must be
 * sorted and unique, cached degrees must equal model row sizes, and
 * snapshotCsr() must be byte-identical to buildSortedDedupRef() over
 * the model's edge list. Compaction must resolve every tombstone
 * without changing the snapshot, and the PB-binned parallel apply
 * must be indistinguishable from the serial reference at every
 * thread count. The maintained edgeSetHash() must equal a from-scratch
 * recompute over the model after every apply, rollback, compaction,
 * copy, and CSR adoption, and snapshotFingerprint() must equal fnv1a()
 * over the snapshot's degree words and neighbor array.
 *
 * Seed sweep: COBRA_MUTATION_SEED regenerates the op stream and
 * COBRA_MUTATION_HOST_THREADS adds that thread count to the
 * serial-vs-parallel check (see tests/CMakeLists.txt). Unset, the
 * defaults (seed 7, threads {1, 4}) apply.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "src/graph/builder.h"
#include "src/graph/dynamic_graph.h"
#include "src/sim/phase_recorder.h"
#include "src/util/fnv.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace cobra {
namespace {

uint64_t
envOr(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
}

using Model = std::set<std::pair<NodeId, NodeId>>;

/** The model's live edge multiset in snapshot order (it is a set, so
 * already sorted by (src, dst)). */
EdgeList
modelEdges(const Model &m)
{
    EdgeList el;
    el.reserve(m.size());
    for (const auto &[s, d] : m)
        el.push_back(Edge{s, d});
    return el;
}

/** edgeSetHash() from scratch: the wrapping sum of
 * mix64(src << 32 | dst) over the model's live edges. */
uint64_t
modelHash(const Model &m)
{
    uint64_t h = 0;
    for (const auto &[s, d] : m)
        h += mix64(uint64_t{s} << 32 | d);
    return h;
}

/** Expected per-batch accounting from driving the model through the
 * same op stream, op by op. */
BatchResult
applyToModel(Model &m, const MutationBatch &batch)
{
    BatchResult r;
    for (const MutationBatch::Op &op : batch.ops) {
        const auto key = std::make_pair(op.src, op.dst);
        if (op.remove) {
            if (m.erase(key))
                ++r.removed;
            else
                ++r.rejected;
        } else {
            if (m.insert(key).second)
                ++r.inserted;
            else
                ++r.deduped;
        }
    }
    return r;
}

/** Random batch: inserts plus deletes that target live edges often
 * enough to exercise tombstones, not just rejections. */
MutationBatch
randomBatch(std::mt19937_64 &rng, const Model &m, NodeId n, size_t ops)
{
    MutationBatch b;
    std::uniform_int_distribution<NodeId> node(0, n - 1);
    for (size_t i = 0; i < ops; ++i) {
        const uint32_t roll = static_cast<uint32_t>(rng() % 100);
        if (roll < 30 && !m.empty()) {
            // Delete a currently-live edge (tombstone or delta drop).
            auto it = m.begin();
            std::advance(it, static_cast<long>(rng() % m.size()));
            b.remove(it->first, it->second);
        } else if (roll < 40) {
            // Delete a random pair: usually a typed rejection.
            b.remove(node(rng), node(rng));
        } else {
            b.insert(node(rng), node(rng));
        }
    }
    return b;
}

void
expectMatchesModel(const DynamicGraph &g, const Model &m)
{
    ASSERT_EQ(g.numEdges(), m.size());
    std::vector<uint64_t> row(g.numNodes(), 0);
    for (const auto &[s, d] : m)
        ++row[s];
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        ASSERT_EQ(g.degree(v), row[v]) << "vertex " << v;
        const std::vector<NodeId> nb = g.liveNeighbors(v);
        ASSERT_EQ(nb.size(), row[v]) << "vertex " << v;
        for (size_t i = 0; i < nb.size(); ++i) {
            if (i > 0)
                ASSERT_LT(nb[i - 1], nb[i])
                    << "adjacency of " << v << " not sorted+unique";
            ASSERT_TRUE(m.count({v, nb[i]}))
                << "phantom edge " << v << "->" << nb[i];
        }
    }
    // The snapshot must be byte-identical to the trusted builder over
    // the same live edge set — offsets and neighbor arrays both.
    const CsrGraph snap = g.snapshotCsr();
    const CsrGraph ref = buildSortedDedupRef(g.numNodes(), modelEdges(m));
    ASSERT_EQ(snap.offsetsArray(), ref.offsetsArray());
    ASSERT_EQ(snap.neighborsArray(), ref.neighborsArray());
    ASSERT_EQ(g.edgeSetHash(), modelHash(m));
    // The streamed fingerprint is the fnv1a() of the materialized word
    // stream: degree sequence, then the neighbor array.
    std::vector<uint32_t> w;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        w.push_back(static_cast<uint32_t>(snap.degree(v)));
    w.insert(w.end(), snap.neighborsArray().begin(),
             snap.neighborsArray().end());
    ASSERT_EQ(g.snapshotFingerprint(), fnv1a(w.data(), w.size()));
}

TEST(DynamicGraphProperty, RandomizedMutationsMatchSetModel)
{
    const NodeId n = 512;
    const size_t rounds = 40, opsPerBatch = 128;
    std::mt19937_64 rng(envOr("COBRA_MUTATION_SEED", 7));

    DynamicGraph g(n);
    Model model;
    for (size_t round = 0; round < rounds; ++round) {
        const MutationBatch b = randomBatch(rng, model, n, opsPerBatch);
        const BatchResult expect = applyToModel(model, b);
        const BatchResult got = g.applyBatch(b);
        ASSERT_TRUE(got.conserved(b.size())) << "round " << round;
        ASSERT_EQ(got.inserted, expect.inserted) << "round " << round;
        ASSERT_EQ(got.removed, expect.removed) << "round " << round;
        ASSERT_EQ(got.deduped, expect.deduped) << "round " << round;
        ASSERT_EQ(got.rejected, expect.rejected) << "round " << round;
        // Dirty sets must come back sorted + unique (the incremental
        // kernels walk them assuming so).
        for (size_t i = 1; i < got.affectedDsts.size(); ++i)
            ASSERT_LT(got.affectedDsts[i - 1], got.affectedDsts[i]);
        for (size_t i = 1; i < got.degreeChangedSrcs.size(); ++i)
            ASSERT_LT(got.degreeChangedSrcs[i - 1],
                      got.degreeChangedSrcs[i]);
        if (round % 5 == 4)
            expectMatchesModel(g, model);
        if (round % 10 == 9) {
            // Threshold-independent forced compaction: snapshot must
            // not move, tombstones must be gone.
            ThreadPool pool(2);
            PhaseRecorder rec;
            const CsrGraph before = g.snapshotCsr();
            const uint64_t done = g.compactions();
            ASSERT_TRUE(g.compact(pool, rec, 64).ok());
            EXPECT_EQ(g.deltaEdges(), 0u);
            EXPECT_EQ(g.compactions(), done + 1);
            const CsrGraph after = g.snapshotCsr();
            ASSERT_EQ(before.offsetsArray(), after.offsetsArray());
            ASSERT_EQ(before.neighborsArray(), after.neighborsArray());
        }
    }
    expectMatchesModel(g, model);
}

TEST(DynamicGraphProperty, ParallelApplyEquivalentToSerial)
{
    const NodeId n = 1024;
    const size_t rounds = 12, opsPerBatch = 512;
    const uint64_t seed = envOr("COBRA_MUTATION_SEED", 7);
    std::vector<size_t> threadCounts = {1, 4};
    if (const uint64_t t = envOr("COBRA_MUTATION_HOST_THREADS", 0))
        threadCounts.push_back(static_cast<size_t>(t));

    for (size_t threads : threadCounts) {
        std::mt19937_64 rng(seed);
        ThreadPool pool(threads);
        PhaseRecorder rec;
        DynamicGraph serial(n), parallel(n);
        Model model; // only steers randomBatch's delete targeting
        for (size_t round = 0; round < rounds; ++round) {
            const MutationBatch b =
                randomBatch(rng, model, n, opsPerBatch);
            applyToModel(model, b);
            const BatchResult rs = serial.applyBatch(b);
            const BatchResult rp =
                parallel.applyBatchParallel(pool, rec, b, 64);
            ASSERT_TRUE(parallel.health().ok())
                << parallel.health().toString();
            // Identical accounting AND identical dirty sets: the
            // parallel runner drains bins in stream order, so it is
            // order-equivalent to the serial loop, not merely
            // count-equivalent.
            EXPECT_EQ(rp.inserted, rs.inserted);
            EXPECT_EQ(rp.removed, rs.removed);
            EXPECT_EQ(rp.deduped, rs.deduped);
            EXPECT_EQ(rp.rejected, rs.rejected);
            EXPECT_EQ(rp.affectedDsts, rs.affectedDsts);
            EXPECT_EQ(rp.degreeChangedSrcs, rs.degreeChangedSrcs);
            const CsrGraph ss = serial.snapshotCsr();
            const CsrGraph ps = parallel.snapshotCsr();
            ASSERT_EQ(ss.offsetsArray(), ps.offsetsArray())
                << threads << " threads, round " << round;
            ASSERT_EQ(ss.neighborsArray(), ps.neighborsArray())
                << threads << " threads, round " << round;
        }
    }
}

TEST(DynamicGraphProperty, EdgeSetHashMatchesRecomputeAcrossTransitions)
{
    const NodeId n = 512;
    const size_t rounds = 30, opsPerBatch = 128;
    const uint64_t seed = envOr("COBRA_MUTATION_SEED", 7);
    std::vector<size_t> threadCounts = {1, 4};
    if (const uint64_t t = envOr("COBRA_MUTATION_HOST_THREADS", 0))
        threadCounts.push_back(static_cast<size_t>(t));
    EXPECT_EQ(DynamicGraph(n).edgeSetHash(), 0u);

    for (size_t threads : threadCounts) {
        SCOPED_TRACE(threads);
        std::mt19937_64 rng(seed);
        ThreadPool pool(threads);
        PhaseRecorder rec;

        // Seeded constructor: the hash starts from the deduplicated
        // base, computed from scratch.
        EdgeList seeded;
        Model model;
        for (size_t i = 0; i < 2000; ++i) {
            const Edge e{static_cast<NodeId>(rng() % n),
                         static_cast<NodeId>(rng() % n)};
            seeded.push_back(e);
            model.insert({e.src, e.dst});
        }
        DynamicGraph g(n, seeded);
        ASSERT_EQ(g.edgeSetHash(), modelHash(model));

        for (size_t round = 0; round < rounds; ++round) {
            SCOPED_TRACE(round);
            const MutationBatch b = randomBatch(rng, model, n, opsPerBatch);
            const Model before = model;
            const uint64_t preHash = g.edgeSetHash();
            applyToModel(model, b);
            if (round % 2 == 0)
                g.applyBatch(b);
            else
                g.applyBatchParallel(pool, rec, b, 64);
            ASSERT_TRUE(g.health().ok()) << g.health().toString();
            ASSERT_EQ(g.edgeSetHash(), modelHash(model));

            if (round % 4 == 1) {
                g.rollbackLastBatch();
                model = before;
                ASSERT_EQ(g.edgeSetHash(), preHash);
                ASSERT_EQ(g.edgeSetHash(), modelHash(model));
            }
            if (round % 7 == 6) {
                const uint64_t h = g.edgeSetHash();
                ASSERT_TRUE(g.compact(pool, rec, 64).ok());
                ASSERT_EQ(g.deltaEdges(), 0u);
                ASSERT_EQ(g.edgeSetHash(), h);
                ASSERT_EQ(g.edgeSetHash(), modelHash(model));
            }
            if (round % 5 == 4) {
                const DynamicGraph copy(g);
                ASSERT_EQ(copy.edgeSetHash(), modelHash(model));
                const DynamicGraph adopted(g.snapshotCsr());
                ASSERT_EQ(adopted.edgeSetHash(), modelHash(model));
            }
        }
        expectMatchesModel(g, model);

        // Deduped inserts and rejected deletes change no edge, so they
        // leave the hash alone, on both apply paths.
        MutationBatch noop;
        size_t dups = 0, rejects = 0;
        for (auto it = model.begin(); it != model.end() && dups < 32;
             ++it, ++dups)
            noop.insert(it->first, it->second);
        while (rejects < 32) {
            const NodeId s = static_cast<NodeId>(rng() % n);
            const NodeId d = static_cast<NodeId>(rng() % n);
            if (model.count({s, d}) == 0) {
                noop.remove(s, d);
                ++rejects;
            }
        }
        const uint64_t h = g.edgeSetHash();
        BatchResult r = g.applyBatch(noop);
        EXPECT_EQ(r.deduped, dups);
        EXPECT_EQ(r.rejected, rejects);
        EXPECT_EQ(g.edgeSetHash(), h);
        r = g.applyBatchParallel(pool, rec, noop, 64);
        EXPECT_EQ(r.deduped, dups);
        EXPECT_EQ(r.rejected, rejects);
        EXPECT_EQ(g.edgeSetHash(), h);
    }
}

// A copy shares the original's base CSR until either side compacts.
// Batches and compactions on one side must never show on the other.
TEST(DynamicGraph, CopiesStayIndependentAcrossCompaction)
{
    const NodeId n = 256;
    std::mt19937_64 rng(envOr("COBRA_MUTATION_SEED", 7));
    ThreadPool pool(2);
    PhaseRecorder rec;
    Model model;
    EdgeList seeded;
    for (size_t i = 0; i < 1000; ++i) {
        const Edge e{static_cast<NodeId>(rng() % n),
                     static_cast<NodeId>(rng() % n)};
        seeded.push_back(e);
        model.insert({e.src, e.dst});
    }
    DynamicGraph g(n, seeded);
    const MutationBatch first = randomBatch(rng, model, n, 64);
    applyToModel(model, first);
    g.applyBatch(first);

    DynamicGraph copy(g);
    const Model copyModel = model;
    for (int round = 0; round < 3; ++round) {
        const MutationBatch b = randomBatch(rng, model, n, 64);
        applyToModel(model, b);
        g.applyBatchParallel(pool, rec, b, 16);
    }
    ASSERT_TRUE(g.compact(pool, rec, 16).ok());
    expectMatchesModel(g, model);
    expectMatchesModel(copy, copyModel);

    Model copyAfter = copyModel;
    const MutationBatch b = randomBatch(rng, copyAfter, n, 64);
    applyToModel(copyAfter, b);
    copy.applyBatch(b);
    ASSERT_TRUE(copy.compact(pool, rec, 16).ok());
    expectMatchesModel(copy, copyAfter);
    expectMatchesModel(g, model);
}

TEST(DynamicGraph, SeedConstructorSortsAndDedups)
{
    // Unsorted multi-edge input: the base snapshot must come out as
    // the sorted dedup reference.
    EdgeList el = {{3, 1}, {0, 2}, {3, 1}, {0, 0}, {3, 0}, {0, 2}};
    DynamicGraph g(4, el);
    EXPECT_EQ(g.numEdges(), 4u); // two duplicates collapse
    const CsrGraph ref = buildSortedDedupRef(4, el);
    const CsrGraph snap = g.snapshotCsr();
    EXPECT_EQ(snap.offsetsArray(), ref.offsetsArray());
    EXPECT_EQ(snap.neighborsArray(), ref.neighborsArray());
}

TEST(DynamicGraph, TombstoneResurrectionAndCompactionResolve)
{
    ThreadPool pool(2);
    PhaseRecorder rec;
    DynamicGraph g(4, EdgeList{{1, 2}, {1, 3}});

    // Delete a base edge: it must tombstone (a delta entry), not
    // rewrite the base.
    MutationBatch del;
    del.remove(1, 2);
    BatchResult r = g.applyBatch(del);
    EXPECT_EQ(r.removed, 1u);
    EXPECT_FALSE(g.hasEdge(1, 2));
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_GT(g.deltaEdges(), 0u);

    // Insert over the tombstone: the edge resurrects.
    MutationBatch ins;
    ins.insert(1, 2);
    r = g.applyBatch(ins);
    EXPECT_EQ(r.inserted, 1u);
    EXPECT_TRUE(g.hasEdge(1, 2));
    EXPECT_EQ(g.degree(1), 2u);

    // Tombstone again, then compact: the delta must drain fully and
    // the edge must stay gone in the compacted base.
    r = g.applyBatch(del);
    EXPECT_EQ(r.removed, 1u);
    ASSERT_TRUE(g.compact(pool, rec, 16).ok());
    EXPECT_EQ(g.deltaEdges(), 0u);
    EXPECT_FALSE(g.hasEdge(1, 2));
    EXPECT_TRUE(g.hasEdge(1, 3));
    EXPECT_EQ(g.numEdges(), 1u);

    // Deleting it again now must be a typed rejection, not a crash or
    // a silent double-count.
    r = g.applyBatch(del);
    EXPECT_EQ(r.rejected, 1u);
    EXPECT_TRUE(r.conserved(1));
}

TEST(DynamicGraph, CompactionIsIdempotent)
{
    ThreadPool pool(2);
    PhaseRecorder rec;
    std::mt19937_64 rng(envOr("COBRA_MUTATION_SEED", 7));
    DynamicGraph g(256);
    Model model;
    for (int i = 0; i < 4; ++i)
        g.applyBatch(randomBatch(rng, model, 256, 64));

    ASSERT_TRUE(g.compact(pool, rec, 32).ok());
    const CsrGraph once = g.snapshotCsr();
    // A second compaction over an empty delta is a no-op that must
    // still succeed and must not disturb the base.
    ASSERT_TRUE(g.compact(pool, rec, 32).ok());
    const CsrGraph twice = g.snapshotCsr();
    EXPECT_EQ(once.offsetsArray(), twice.offsetsArray());
    EXPECT_EQ(once.neighborsArray(), twice.neighborsArray());
}

TEST(DynamicGraph, ThresholdTriggersNeedsCompaction)
{
    DynamicGraph g(64, EdgeList{{0, 1}, {0, 2}, {1, 2}, {2, 3}});
    g.setCompactionThreshold(0.5);
    EXPECT_FALSE(g.needsCompaction());
    MutationBatch b;
    b.insert(5, 6);
    b.insert(5, 7);
    b.insert(6, 7);
    g.applyBatch(b);
    // 3 delta entries over a 4-edge base crosses the 0.5 ratio.
    EXPECT_TRUE(g.needsCompaction());
}

} // namespace
} // namespace cobra
