/**
 * @file
 * Differential certification of incremental recompute over mutation
 * batches, plus the mutation fault matrix and the server's kMutate /
 * kSnapshot lifecycle.
 *
 * The contract under test: an incrementally maintained result
 * (IncrementalDegreeCount, DeltaPagerank) must be *bit-identical* to a
 * full recompute on the equivalent static graph after every batch —
 * certified through DifferentialOracle::firstDivergence — at every
 * thread count, on uniform and Zipf-skewed streams, with threshold
 * compactions interleaved. And every injected fault in the apply /
 * merge / compaction paths must surface as a typed error (kDataLoss,
 * kDeadlineExceeded), never as a silently wrong result.
 *
 * Thread sweep: COBRA_INCREMENTAL_HOST_THREADS adds a thread count to
 * the certification sweep (see tests/CMakeLists.txt); unset, the
 * historical {1, 2, 4, 8} apply. This suite also rides tier1.sh's
 * --tsan pass (label `incremental`): the PB-binned batch apply shards
 * delta segments across threads, and a sharding bug shows up here as
 * a data race before it shows up as a divergence.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "src/check/differential_oracle.h"
#include "src/check/fault_injector.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/generators.h"
#include "src/kernels/incremental.h"
#include "src/server/batch_server.h"
#include "src/server/frame.h"
#include "src/sim/phase_recorder.h"
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

/**
 * Deterministic mutation stream, shared with cobra_cli / cobra_client:
 * op j of batch b inserts edges[pos % edges] (pos = b*ops + j), except
 * every 4th op once past the first batch, which re-deletes the edge
 * inserted one batch earlier. Replays identically across runs, thread
 * counts, and processes.
 */
MutationBatch
streamBatch(const EdgeList &edges, size_t b, size_t ops)
{
    MutationBatch batch;
    for (size_t j = 0; j < ops; ++j) {
        const size_t pos = b * ops + j;
        if (j % 4 == 3 && pos >= ops) {
            const Edge &d = edges[(pos - ops) % edges.size()];
            batch.remove(d.src, d.dst);
        } else {
            const Edge &e = edges[pos % edges.size()];
            batch.insert(e.src, e.dst);
        }
    }
    return batch;
}

// ------------------------------------------------- oracle equality

void
certifyStream(const EdgeList &edges, size_t threads)
{
    const NodeId n = 1 << 10;
    const size_t batches = 6, ops = 256;
    ThreadPool pool(threads);
    PhaseRecorder rec;
    DynamicGraph g(n);
    g.setCompactionThreshold(0.5); // force compactions mid-stream
    IncrementalDegreeCount deg(g);
    DeltaPagerank pr(g);

    for (size_t b = 0; b < batches; ++b) {
        const MutationBatch batch = streamBatch(edges, b, ops);
        const BatchResult r =
            g.applyBatchParallel(pool, rec, batch, 64);
        ASSERT_TRUE(g.health().ok()) << g.health().toString();
        ASSERT_TRUE(r.conserved(batch.size()));

        deg.update(r, g);
        auto d = DifferentialOracle::firstDivergence(
            deg.degrees(), IncrementalDegreeCount::fullRecompute(g),
            "degrees");
        ASSERT_FALSE(d.has_value())
            << threads << " threads, batch " << b << ", element "
            << d->element << ": " << d->actual << " != " << d->expected;
        // Incrementality, not a disguised full pass: the dirty
        // frontier must stay well under the vertex count.
        EXPECT_LT(deg.lastDirty(), uint64_t{n});

        ASSERT_TRUE(pr.apply(batch, r, g).ok());
        d = DifferentialOracle::firstDivergence(
            pr.scores(), DeltaPagerank::fullRecompute(g), "pagerank");
        ASSERT_FALSE(d.has_value())
            << threads << " threads, batch " << b << ", element "
            << d->element << ": " << d->actual << " != " << d->expected;

        if (g.needsCompaction())
            ASSERT_TRUE(g.compact(pool, rec, 64).ok());
    }
    EXPECT_GT(g.compactions(), 0u)
        << "stream never compacted; the sweep lost its interleaving";

    // Post-stream: the incremental results must still certify against
    // the compacted graph (compaction must be result-invisible).
    auto d = DifferentialOracle::firstDivergence(
        deg.degrees(), IncrementalDegreeCount::fullRecompute(g),
        "degrees after compaction");
    EXPECT_FALSE(d.has_value());
    d = DifferentialOracle::firstDivergence(
        pr.scores(), DeltaPagerank::fullRecompute(g),
        "pagerank after compaction");
    EXPECT_FALSE(d.has_value());
}

TEST(Incremental, UniformStreamCertifiesAtEveryThreadCount)
{
    const EdgeList edges = generateUniform(1 << 10, 1 << 12, 99);
    std::vector<size_t> threads = {1, 2, 4, 8};
    if (const uint64_t t = envOr("COBRA_INCREMENTAL_HOST_THREADS", 0))
        threads.push_back(static_cast<size_t>(t));
    for (size_t t : threads)
        certifyStream(edges, t);
}

TEST(Incremental, ZipfStreamCertifiesAtEveryThreadCount)
{
    // Skewed sources stress the bin-partitioned apply: one hot delta
    // segment takes most ops, so a sharding bug diverges here first.
    const EdgeList edges = generateZipf(1 << 10, 1 << 12, 1.2, 99);
    std::vector<size_t> threads = {1, 2, 4, 8};
    if (const uint64_t t = envOr("COBRA_INCREMENTAL_HOST_THREADS", 0))
        threads.push_back(static_cast<size_t>(t));
    for (size_t t : threads)
        certifyStream(edges, t);
}

// ------------------------------------------------- fault matrix

/** Everything a rolled-back batch must leave exactly as it was. */
struct GraphImage
{
    uint64_t fingerprint = 0;
    uint64_t edges = 0;
    uint64_t delta = 0;
    std::vector<EdgeOffset> degrees;
};

GraphImage
imageOf(const DynamicGraph &g)
{
    GraphImage im;
    im.fingerprint = g.snapshotFingerprint();
    im.edges = g.numEdges();
    im.delta = g.deltaEdges();
    for (NodeId v = 0; v < g.numNodes(); ++v)
        im.degrees.push_back(g.degree(v));
    return im;
}

void
expectSameImage(const GraphImage &want, const DynamicGraph &g)
{
    const GraphImage got = imageOf(g);
    EXPECT_EQ(got.fingerprint, want.fingerprint);
    EXPECT_EQ(got.edges, want.edges);
    EXPECT_EQ(got.delta, want.delta);
    EXPECT_EQ(got.degrees, want.degrees);
}

/** A graph with base edges, tombstones, and delta-only inserts, so a
 * rollback has every kind of row state to restore. */
DynamicGraph
seededGraph(ThreadPool &pool, PhaseRecorder &rec, const EdgeList &edges)
{
    DynamicGraph g(1 << 10);
    g.applyBatch(streamBatch(edges, 0, 512));
    EXPECT_TRUE(g.compact(pool, rec, 64).ok());
    g.applyBatch(streamBatch(edges, 1, 512));
    EXPECT_GT(g.deltaEdges(), 0u);
    return g;
}

TEST(IncrementalFaults, DroppedDrainInApplyIsTypedDataLoss)
{
    ThreadPool pool(4);
    PhaseRecorder rec;
    const EdgeList edges = generateUniform(1 << 10, 1 << 12, 5);
    DynamicGraph g = seededGraph(pool, rec, edges);
    const MutationBatch batch = streamBatch(edges, 2, 512);
    const GraphImage before = imageOf(g);

    // The fault hits the served graph itself: the apply is
    // all-or-nothing, so the partial batch is rolled back before the
    // typed verdict comes back.
    {
        FaultInjector fi(FaultSite::kPbDropDrain, 2);
        FaultInjector::Scope scope(fi);
        const BatchResult r = g.applyBatchParallel(pool, rec, batch, 64);
        (void)r;
        ASSERT_FALSE(g.health().ok());
        EXPECT_EQ(g.health().code(), ErrorCode::kDataLoss);
        EXPECT_FALSE(g.health().message().empty());
        EXPECT_FALSE(fi.provenance().empty());
    }
    expectSameImage(before, g);
    // Nothing is left to undo.
    EXPECT_THROW(g.rollbackLastBatch(), Error);

    // The failure is transient: the same batch now lands exactly as
    // the serial reference applies it.
    DynamicGraph ref = seededGraph(pool, rec, edges);
    ref.applyBatch(batch);
    const BatchResult r = g.applyBatchParallel(pool, rec, batch, 64);
    ASSERT_TRUE(g.health().ok()) << g.health().toString();
    EXPECT_TRUE(r.conserved(batch.size()));
    expectSameImage(imageOf(ref), g);
}

TEST(IncrementalFaults, HealthyApplyRollsBackToThePreBatchGraph)
{
    ThreadPool pool(4);
    PhaseRecorder rec;
    const EdgeList edges = generateUniform(1 << 10, 1 << 12, 6);
    DynamicGraph g = seededGraph(pool, rec, edges);
    const MutationBatch batch = streamBatch(edges, 2, 512);
    const GraphImage before = imageOf(g);

    // A healthy apply the caller then refuses (the server's deadline
    // and WAL gates): rollback restores the touched rows and totals.
    const BatchResult r = g.applyBatchParallel(pool, rec, batch, 64);
    ASSERT_TRUE(g.health().ok()) << g.health().toString();
    ASSERT_GT(r.applied(), 0u);
    ASSERT_NE(g.snapshotFingerprint(), before.fingerprint);
    g.rollbackLastBatch();
    expectSameImage(before, g);
    EXPECT_THROW(g.rollbackLastBatch(), Error);

    // Re-applied, the batch reaches the same state as never having
    // rolled back; a committed compaction then ends its undo window.
    DynamicGraph ref = seededGraph(pool, rec, edges);
    ref.applyBatch(batch);
    g.applyBatchParallel(pool, rec, batch, 64);
    ASSERT_TRUE(g.health().ok()) << g.health().toString();
    expectSameImage(imageOf(ref), g);
    ASSERT_TRUE(g.compact(pool, rec, 64).ok());
    EXPECT_THROW(g.rollbackLastBatch(), Error);
    EXPECT_EQ(g.snapshotFingerprint(), ref.snapshotFingerprint());
}

TEST(IncrementalFaults, CompactionFaultsAreAllOrNothing)
{
    const EdgeList edges = generateUniform(1 << 9, 1 << 11, 5);
    for (FaultSite site :
         {FaultSite::kPbDropDrain, FaultSite::kBinOffsetSkew}) {
        ThreadPool pool(4);
        PhaseRecorder rec;
        DynamicGraph g(1 << 9);
        g.applyBatch(streamBatch(edges, 0, 512));
        g.applyBatch(streamBatch(edges, 1, 512));
        const CsrGraph before = g.snapshotCsr();
        const uint64_t delta = g.deltaEdges();
        ASSERT_GT(delta, 0u);

        // The merge hooks fire per vertex: aim at one that has live
        // edges, so the drop/skew actually removes something.
        NodeId victim = 0;
        while (g.degree(victim) == 0)
            ++victim;

        {
            FaultInjector fi(site, victim + 1);
            FaultInjector::Scope scope(fi);
            const Status st = g.compact(pool, rec, 32);
            ASSERT_FALSE(st.ok()) << to_string(site);
            EXPECT_EQ(st.code(), ErrorCode::kDataLoss)
                << to_string(site);
            EXPECT_FALSE(st.message().empty());
        }
        // All-or-nothing: the graph is exactly as it was — same
        // snapshot, same pending delta, no phantom compaction.
        EXPECT_EQ(g.deltaEdges(), delta);
        EXPECT_EQ(g.compactions(), 0u);
        const CsrGraph after = g.snapshotCsr();
        EXPECT_EQ(before.offsetsArray(), after.offsetsArray());
        EXPECT_EQ(before.neighborsArray(), after.neighborsArray());

        // The failure is transient, not poison: with the injector
        // gone the very same compaction commits.
        ASSERT_TRUE(g.compact(pool, rec, 32).ok()) << to_string(site);
        EXPECT_EQ(g.deltaEdges(), 0u);
        EXPECT_EQ(g.compactions(), 1u);
    }
}

TEST(IncrementalFaults, StallDegradesToSlowNeverToWrong)
{
    ThreadPool pool(4);
    PhaseRecorder rec;
    const EdgeList edges = generateUniform(1 << 9, 1 << 11, 5);
    DynamicGraph ref(1 << 9), g(1 << 9);
    const MutationBatch batch = streamBatch(edges, 0, 512);
    ref.applyBatch(batch);

    FaultInjector fi(FaultSite::kPbStallAccumulate, 2);
    fi.setStallCapMs(20); // uncancelled stalls resume after the cap
    FaultInjector::Scope scope(fi);
    const BatchResult r = g.applyBatchParallel(pool, rec, batch, 64);
    ASSERT_TRUE(g.health().ok()) << g.health().toString();
    EXPECT_TRUE(r.conserved(batch.size()));
    const CsrGraph a = g.snapshotCsr(), b = ref.snapshotCsr();
    EXPECT_EQ(a.offsetsArray(), b.offsetsArray());
    EXPECT_EQ(a.neighborsArray(), b.neighborsArray());
}

// ------------------------------------------------- wire protocol

RequestFrame
mutateRequest(uint64_t tenant, uint64_t id, const EdgeList &edges,
              size_t b, size_t ops, uint64_t indices,
              ServerKernel kernel = ServerKernel::kDegreeCount)
{
    RequestFrame req;
    req.tenantId = tenant;
    req.requestId = id;
    req.kernel = kernel;
    req.engine = PbEngineKind::kWriteCombine;
    req.op = RequestOp::kMutate;
    req.bins = 64;
    req.numIndices = indices;
    const MutationBatch batch = streamBatch(edges, b, ops);
    req.payload.reserve(batch.size() * 2);
    for (const MutationBatch::Op &op : batch.ops) {
        req.payload.push_back(op.remove ? (op.src | kMutateDeleteBit)
                                        : op.src);
        req.payload.push_back(op.dst);
    }
    return req;
}

/** kSnapshot checksum of @p tenant's merged graph. */
uint64_t
snapshotChecksum(BatchServer &server, uint64_t tenant, uint64_t id,
                 uint64_t indices)
{
    RequestFrame req;
    req.tenantId = tenant;
    req.requestId = id;
    req.kernel = ServerKernel::kDegreeCount;
    req.op = RequestOp::kSnapshot;
    req.bins = 64;
    req.numIndices = indices;
    const ResponseFrame resp = server.call(std::move(req));
    EXPECT_EQ(resp.code, ErrorCode::kOk) << resp.message;
    return resp.resultChecksum;
}

TEST(FrameMutate, MutateRoundTripPreservesOpAndDeleteBits)
{
    RequestFrame req;
    req.tenantId = 9;
    req.requestId = 31;
    req.kernel = ServerKernel::kPagerank;
    req.op = RequestOp::kMutate;
    req.bins = 32;
    req.numIndices = 128;
    req.payload = {5, 6, 7 | kMutateDeleteBit, 8, 0, 127};
    ASSERT_TRUE(validateRequest(req).ok());

    const std::vector<uint8_t> buf = encodeRequest(req);
    ASSERT_EQ(buf.size(), encodedRequestBytes(req));
    RequestFrame got;
    ASSERT_TRUE(decodeRequest(buf.data(), buf.size(), &got).ok());
    EXPECT_EQ(got.op, RequestOp::kMutate);
    EXPECT_EQ(got.payload, req.payload);

    // kSnapshot round-trips too (payload-free by contract).
    req.op = RequestOp::kSnapshot;
    req.payload.clear();
    ASSERT_TRUE(validateRequest(req).ok());
    const std::vector<uint8_t> sbuf = encodeRequest(req);
    RequestFrame sgot;
    ASSERT_TRUE(decodeRequest(sbuf.data(), sbuf.size(), &sgot).ok());
    EXPECT_EQ(sgot.op, RequestOp::kSnapshot);
}

TEST(FrameMutate, UnknownOpByteIsMalformedNotMisread)
{
    RequestFrame req;
    req.tenantId = 1;
    req.requestId = 1;
    req.kernel = ServerKernel::kDegreeCount;
    req.numIndices = 16;
    req.payload = {1, 2};
    std::vector<uint8_t> buf = encodeRequest(req);
    // The op byte sits after magic(4) ver(2) pad(2) tenant(8)
    // request(8) kernel(1) engine(1) flags(1) — offset 27.
    ASSERT_EQ(buf[27], 0u);
    buf[27] = 3;
    RequestFrame out;
    const Status st = decodeRequest(buf.data(), buf.size(), &out);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("op"), std::string::npos);
}

TEST(FrameMutate, ValidationRejectsProtocolAbuse)
{
    RequestFrame req;
    req.tenantId = 1;
    req.requestId = 1;
    req.kernel = ServerKernel::kDegreeCount;
    req.numIndices = 16;

    // Snapshot frames must carry no payload.
    req.op = RequestOp::kSnapshot;
    req.payload = {1, 2};
    EXPECT_FALSE(validateRequest(req).ok());

    // The delete bit is legal only on the src word.
    req.op = RequestOp::kMutate;
    req.payload = {1, 2 | kMutateDeleteBit};
    EXPECT_FALSE(validateRequest(req).ok());

    // Masked src ids still honor the numIndices bound.
    req.payload = {17 | kMutateDeleteBit, 2};
    EXPECT_FALSE(validateRequest(req).ok());

    // Mutation is defined only for the mutable kernels.
    req.kernel = ServerKernel::kNeighborPopulate;
    req.payload = {1, 2};
    EXPECT_FALSE(validateRequest(req).ok());

    // kRun frames reject the delete bit outright (31-bit ids).
    req.kernel = ServerKernel::kDegreeCount;
    req.op = RequestOp::kRun;
    req.payload = {1 | kMutateDeleteBit, 2};
    EXPECT_FALSE(validateRequest(req).ok());
}

// ------------------------------------------------- server lifecycle

TEST(IncrementalServer, MutateThenSnapshotCertifiesAndConserves)
{
    ThreadPool pool(4);
    BatchServer server(ServerConfig{}, pool);
    const uint64_t n = 1 << 10;
    const EdgeList edges =
        generateUniform(static_cast<NodeId>(n), 1 << 12, 21);

    uint64_t ops = 0;
    for (uint64_t tenant : {1ull, 2ull}) {
        const ServerKernel k = tenant == 1 ? ServerKernel::kDegreeCount
                                           : ServerKernel::kPagerank;
        for (size_t b = 0; b < 3; ++b) {
            ResponseFrame resp = server.call(
                mutateRequest(tenant, b + 1, edges, b, 256, n, k));
            ASSERT_EQ(resp.code, ErrorCode::kOk)
                << "tenant " << tenant << " batch " << b << ": "
                << resp.message;
            EXPECT_EQ(resp.degradations, 0u) << resp.message;
            EXPECT_NE(resp.resultChecksum, 0u);
            EXPECT_NE(resp.message.find("applied="), std::string::npos);
            ops += 256;
        }
        RequestFrame snap =
            mutateRequest(tenant, 99, edges, 0, 256, n, k);
        snap.op = RequestOp::kSnapshot;
        snap.payload.clear();
        ResponseFrame sresp = server.call(std::move(snap));
        ASSERT_EQ(sresp.code, ErrorCode::kOk) << sresp.message;
        EXPECT_NE(sresp.resultChecksum, 0u);
        EXPECT_NE(sresp.message.find("edges="), std::string::npos);
    }
    server.stop();

    const ServerStats st = server.stats();
    EXPECT_EQ(st.mutateBatches, 6u);
    EXPECT_EQ(st.mutateOps, ops);
    // Every batch certified incremental-vs-full (no degradations).
    EXPECT_EQ(st.recertifications, 6u);
    // Both books must close: request lifecycle AND op accounting.
    EXPECT_TRUE(st.conserved());
}

TEST(IncrementalServer, PreconditionsAreTypedFailures)
{
    ThreadPool pool(2);
    BatchServer server(ServerConfig{}, pool);
    const EdgeList edges = generateUniform(1 << 8, 1 << 10, 3);

    // Snapshot before any mutation: there is no graph to hash.
    RequestFrame snap =
        mutateRequest(5, 1, edges, 0, 64, 1 << 8);
    snap.op = RequestOp::kSnapshot;
    snap.payload.clear();
    ResponseFrame resp = server.call(std::move(snap));
    EXPECT_EQ(resp.code, ErrorCode::kFailedPrecondition);

    // Seed the graph at 2^8 vertices, then claim 2^9: the pinned
    // vertex-space must win over the request.
    ASSERT_EQ(server.call(mutateRequest(5, 2, edges, 0, 64, 1 << 8)).code,
              ErrorCode::kOk);
    resp = server.call(mutateRequest(5, 3, edges, 0, 64, 1 << 9));
    EXPECT_EQ(resp.code, ErrorCode::kFailedPrecondition);
    EXPECT_NE(resp.message.find("vertices"), std::string::npos);

    server.stop();
    EXPECT_TRUE(server.stats().conserved());
}

TEST(IncrementalServer, InjectedDropBouncesBatchWithoutCorruption)
{
    ThreadPool pool(4);
    BatchServer server(ServerConfig{}, pool);
    const uint64_t n = 1 << 10;
    const EdgeList edges =
        generateUniform(static_cast<NodeId>(n), 1 << 12, 13);

    ASSERT_EQ(server.call(mutateRequest(7, 1, edges, 0, 256, n)).code,
              ErrorCode::kOk);
    const uint64_t before = snapshotChecksum(server, 7, 10, n);

    // A dropped drain inside the in-place apply: the batch must bounce
    // typed, and the committed graph must keep serving.
    RequestFrame bad = mutateRequest(7, 2, edges, 1, 256, n);
    bad.injectSite = static_cast<uint32_t>(FaultSite::kPbDropDrain);
    bad.injectFireAt = 2;
    ResponseFrame resp = server.call(std::move(bad));
    EXPECT_EQ(resp.code, ErrorCode::kDataLoss);
    EXPECT_FALSE(resp.message.empty());
    // Rolled back: the served graph is bit-for-bit the pre-batch one.
    EXPECT_EQ(snapshotChecksum(server, 7, 11, n), before);

    // Same batch, no chaos: applies cleanly against the uncorrupted
    // tenant graph and still certifies.
    resp = server.call(mutateRequest(7, 3, edges, 1, 256, n));
    EXPECT_EQ(resp.code, ErrorCode::kOk) << resp.message;
    EXPECT_EQ(resp.degradations, 0u);

    server.stop();
    // The bounced batch was booked rejected: the op identity closes.
    EXPECT_TRUE(server.stats().conserved());
}

TEST(IncrementalServer, ExpiredDeadlineIsTypedAndUncommitted)
{
    ThreadPool pool(2);
    ServerConfig cfg;
    BatchServer server(cfg, pool);
    const uint64_t n = 1 << 15;
    const EdgeList edges =
        generateUniform(static_cast<NodeId>(n), 1 << 17, 17);

    // A 1 ms whole-request deadline against a 2^17-op batch: expired
    // while queued (shed at dispatch) or while applying (bounced after
    // the trial run) — both must come back kDeadlineExceeded, and
    // neither may commit.
    RequestFrame doomed = mutateRequest(3, 1, edges, 0, 1 << 17, n);
    doomed.deadlineMs = 1;
    ResponseFrame resp = server.call(std::move(doomed));
    EXPECT_EQ(resp.code, ErrorCode::kDeadlineExceeded)
        << resp.message;

    server.stop();
    EXPECT_TRUE(server.stats().conserved());
}

} // namespace
} // namespace cobra
