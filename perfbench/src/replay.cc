#include "perfbench/src/replay.h"

#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/spans.h"
#include "src/check/differential_oracle.h"
#include "src/durability/checkpoint.h"
#include "src/durability/wal.h"
#include "src/graph/csr.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/incremental.h"
#include "src/kernels/neighbor_populate.h"
#include "src/kernels/pagerank.h"
#include "src/kernels/spmv.h"
#include "src/resilience/run_supervisor.h"
#include "src/server/admission.h"
#include "src/server/batch_server.h"
#include "src/sparse/coo.h"
#include "src/sparse/csr_matrix.h"
#include "src/sparse/reference.h"
#include "src/util/fnv.h"
#include "src/util/thread_pool.h"

namespace perfbench {

using namespace cobra;

namespace {

/** Server shape shared with the daemon (see serverArgs). */
constexpr size_t kPoolThreads = 2;
constexpr size_t kDispatchers = 2;

/** Tenant-stream requests each tenant sends in the in-process passes. */
constexpr uint64_t kMutateReplayRequests = 4 * (kSnapshotEvery + 1);

/** The daemon's server shape (see serverArgs), in process. */
ServerConfig
serverConfig()
{
    ServerConfig cfg;
    cfg.dispatchThreads = kDispatchers;
    return cfg;
}

void
check(ReplayResult &out, bool ok)
{
    ++out.checks;
    if (!ok)
        ++out.mismatches;
}

/**
 * One BatchServer::call, traced when @p session is set. The frame copy
 * is made before the clock starts, as the socket path decodes into a
 * fresh frame.
 */
ResponseFrame
timedCall(BatchServer &srv, const RequestFrame &frame, uint64_t rid,
          TraceSession *session, ReplayResult &out)
{
    RequestFrame copy = frame;
    std::optional<TraceSession::Scope> scope;
    if (session)
        scope.emplace(*session);
    const auto t0 = Clock::now();
    ResponseFrame resp;
    {
        Span s(kInprocRoot, rid);
        resp = srv.call(std::move(copy));
    }
    (session ? out.tracedCallMs : out.untracedCallMs)[rid] = msSince(t0);
    return resp;
}

/** Client encode, server decode, and the submit-time validation. */
RequestFrame
replayCodec(uint64_t rid, const RequestFrame &frame, ReplayResult &out)
{
    std::vector<uint8_t> bytes;
    {
        Span s("server.frame_encode", rid);
        bytes = encodeRequest(frame);
    }
    out.frameBytes.push_back(static_cast<double>(bytes.size()));
    RequestFrame req;
    Status st;
    {
        Span s("server.frame_decode", rid);
        st = decodeRequest(bytes.data(), bytes.size(), &req);
    }
    {
        Span s("server.frame_validate", rid);
        if (st.ok())
            st = validateRequest(req);
    }
    check(out, st.ok());
    return req;
}

/** Bytes the PB phases move per update, counted from the data layout:
 * Init reads the index, Binning writes a tuple that Accumulate reads
 * back, and Accumulate reads and writes the destination. */
double
pbBytesPerUpdate(uint32_t tuple_bytes, uint32_t dest_bytes)
{
    return 4.0 + 2.0 * tuple_bytes + 2.0 * dest_bytes;
}

/** One kRun request through the layers BatchServer::execute composes,
 * with the server's supervisor settings. Returns the fingerprint it
 * would answer (0 on failure). */
uint64_t
replayRun(uint64_t rid, const RequestFrame &frame, ThreadPool &pool,
          const ServerConfig &cfg, ReplayResult &out)
{
    Span root(kReplayRoot, rid);
    const RequestFrame req = replayCodec(rid, frame, out);
    Span exe("server.execute", rid);

    EdgeList edges;
    std::optional<CsrGraph> outG, inG;
    CsrMatrix a, at;
    std::vector<double> xvec;
    std::unique_ptr<DegreeCountKernel> degree;
    std::unique_ptr<NeighborPopulateKernel> np;
    std::unique_ptr<PagerankKernel> pagerank;
    std::unique_ptr<SpmvKernel> spmv;
    Kernel *kernel = nullptr;
    uint32_t dest_bytes = 4;
    const NodeId nodes = static_cast<NodeId>(req.numIndices);
    {
        Span s("kernels.input_build", rid);
        edges.reserve(req.numUpdates());
        for (size_t i = 0; i + 1 < req.payload.size(); i += 2)
            edges.push_back(Edge{req.payload[i], req.payload[i + 1]});
        switch (req.kernel) {
          case ServerKernel::kDegreeCount:
            degree = std::make_unique<DegreeCountKernel>(nodes, &edges);
            kernel = degree.get();
            break;
          case ServerKernel::kNeighborPopulate:
            np = std::make_unique<NeighborPopulateKernel>(nodes, &edges);
            kernel = np.get();
            break;
          case ServerKernel::kPagerank:
            outG.emplace(CsrGraph::build(nodes, edges));
            inG.emplace(CsrGraph::buildTranspose(nodes, edges));
            pagerank = std::make_unique<PagerankKernel>(&*outG, &*inG);
            kernel = pagerank.get();
            break;
          case ServerKernel::kSpmv: {
            CooMatrix coo;
            coo.numRows = nodes;
            coo.numCols = nodes;
            for (size_t i = 0; i + 1 < req.payload.size(); i += 2)
                coo.add(req.payload[i], req.payload[i + 1],
                        1.0 + static_cast<double>((i / 2) % 13) * 0.125);
            a = CsrMatrix::fromCoo(coo);
            at = transposeRef(a);
            xvec.resize(nodes);
            for (NodeId j = 0; j < nodes; ++j)
                xvec[j] = 0.5 + static_cast<double>(j % 9) * 0.25;
            spmv = std::make_unique<SpmvKernel>(&a, &at, &xvec);
            kernel = spmv.get();
            dest_bytes = 8;
            break;
          }
        }
    }

    SupervisorConfig sc;
    sc.deadline = cfg.defaultAttemptDeadline;
    sc.retry.maxAttempts = std::max(1u, cfg.retryAttempts);
    sc.retry.seed = req.requestId ^ req.tenantId;
    sc.memBudgetBytes = estimateRequestCostBytes(req, pool.numThreads());
    sc.allowBaselineFallback = cfg.allowBaselineFallback;
    sc.minBins = cfg.minBins;
    PbEngineConfig ecfg;
    ecfg.kind = req.engine;
    ecfg.wcLines = req.wcLines;
    ecfg.skewAdaptive = req.skewAdaptive;
    ThreadPool::Group group(pool);
    ThreadPool::Group::Scope group_scope(group);
    PhaseRecorder rec;
    const SupervisorReport rep =
        RunSupervisor(sc).runPbParallel(*kernel, pool, rec, req.bins, ecfg);
    out.pbUpdates[rid] = static_cast<double>(kernel->numUpdates());
    out.pbBytes.push_back(
        static_cast<double>(kernel->numUpdates()) *
        pbBytesPerUpdate(kernel->tupleBytes(), dest_bytes));
    if (!rep.ok)
        return 0;

    Span s("server.fingerprint", rid);
    if (degree) {
        const auto &d = degree->degrees();
        return fnv1a(d.data(), d.size());
    }
    if (np) {
        const CsrGraph g = np->result();
        std::vector<uint32_t> degs(g.numNodes());
        for (NodeId v = 0; v < g.numNodes(); ++v)
            degs[v] = static_cast<uint32_t>(g.degree(v));
        return fnv1a(degs.data(), degs.size());
    }
    if (pagerank) {
        const auto &sc_ = pagerank->scores();
        std::vector<uint32_t> w(sc_.size());
        std::memcpy(w.data(), sc_.data(), sc_.size() * sizeof(float));
        return fnv1a(w.data(), w.size());
    }
    const auto &yv = spmv->result();
    std::vector<uint32_t> w(yv.size() * 2);
    std::memcpy(w.data(), yv.data(), yv.size() * sizeof(double));
    return fnv1a(w.data(), w.size());
}

/** A tenant's mutable state as the replay keeps it. */
struct ReplayTenant
{
    std::unique_ptr<DynamicGraph> graph;
    std::unique_ptr<IncrementalDegreeCount> degrees;
};

/** One kMutate request through the steps BatchServer::executeMutate
 * takes. Returns the fingerprint it would answer (0 on failure). */
uint64_t
replayMutate(uint64_t rid, const RequestFrame &frame, ReplayTenant &st,
             ThreadPool &pool, WalWriter &wal, uint64_t &lsn,
             ReplayResult &out)
{
    Span root(kReplayRoot, rid);
    const RequestFrame req = replayCodec(rid, frame, out);
    Span exe("server.execute", rid);
    const MutationBatch batch = batchOf(req);
    ThreadPool::Group group(pool);
    ThreadPool::Group::Scope group_scope(group);
    PbEngineConfig ecfg;
    ecfg.kind = req.engine;
    ecfg.wcLines = req.wcLines;
    ecfg.skewAdaptive = req.skewAdaptive;
    PhaseRecorder rec;
    out.pbUpdates[rid] = static_cast<double>(batch.size());
    out.pbBytes.push_back(static_cast<double>(batch.size()) *
                          pbBytesPerUpdate(8, 4));

    std::unique_ptr<DynamicGraph> trial;
    {
        Span s("graph.copy", rid);
        trial = std::make_unique<DynamicGraph>(*st.graph);
    }
    BatchResult r;
    {
        Span s("graph.apply", rid);
        r = trial->applyBatchParallel(pool, rec, batch, req.bins, ecfg);
    }
    if (!trial->health().ok() || !r.conserved(batch.size()))
        return 0;

    WalRecord wrec;
    {
        Span s("graph.fingerprint", rid);
        wrec.postFingerprint = trial->snapshotFingerprint();
    }
    wrec.postLiveEdges = trial->numEdges();
    {
        Span s("durability.wal_encode", rid);
        wrec.payload = encodeRequest(req);
    }
    wrec.lsn = ++lsn;
    {
        Span s("durability.wal_append", rid);
        if (!wal.append(wrec).ok())
            return 0;
    }
    out.walBytesPerOp.push_back(
        static_cast<double>(wrec.payload.size() + kWalHeaderBytes) /
        static_cast<double>(batch.size()));

    *st.graph = std::move(*trial);
    {
        Span s("incremental.update", rid);
        st.degrees->update(r, *st.graph);
    }
    out.dirtyFrac.push_back(static_cast<double>(st.degrees->lastDirty()) /
                            static_cast<double>(st.graph->numNodes()));
    std::vector<EdgeOffset> full;
    {
        Span s("incremental.full_recompute", rid);
        full = IncrementalDegreeCount::fullRecompute(*st.graph);
    }
    {
        Span s("check.certify", rid);
        if (DifferentialOracle::firstDivergence(st.degrees->degrees(), full,
                                                "incremental degrees"))
            return 0;
    }
    uint64_t checksum = 0;
    {
        Span s("server.fingerprint", rid);
        const auto &d = st.degrees->degrees();
        std::vector<uint32_t> w(d.size());
        for (size_t i = 0; i < w.size(); ++i)
            w[i] = static_cast<uint32_t>(d[i]);
        checksum = fnv1a(w.data(), w.size());
    }
    if (st.graph->needsCompaction()) {
        Span s("graph.compact", rid);
        if (!st.graph->compact(pool, rec, req.bins, ecfg).ok())
            return 0;
        ++out.compactions;
    }
    return checksum;
}

/** One kSnapshot request through BatchServer::executeSnapshot's steps. */
uint64_t
replaySnapshot(uint64_t rid, const RequestFrame &frame,
               const ReplayTenant &st, ReplayResult &out)
{
    Span root(kReplayRoot, rid);
    replayCodec(rid, frame, out);
    Span exe("server.execute", rid);
    CsrGraph snap;
    {
        Span s("graph.snapshot_csr", rid);
        snap = st.graph->snapshotCsr();
    }
    Span s("server.fingerprint", rid);
    std::vector<uint32_t> w;
    w.reserve(snap.numNodes() + snap.numEdges());
    for (NodeId v = 0; v < snap.numNodes(); ++v)
        w.push_back(static_cast<uint32_t>(snap.degree(v)));
    for (NodeId n : snap.neighborsArray())
        w.push_back(n);
    return fnv1a(w.data(), w.size());
}

uint64_t
newestCheckpointBytes(const std::string &dir)
{
    std::string newest;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("ckpt-", 0) == 0 && e.path().extension() == ".ckpt" &&
            name > newest)
            newest = name;
    }
    return newest.empty()
               ? 0
               : std::filesystem::file_size(std::filesystem::path(dir) /
                                            newest);
}

} // namespace

ReplayResult
replayRuns(const Inputs &in, TraceSession &session)
{
    ReplayResult out;
    ThreadPool pool(kPoolThreads);
    const ServerConfig cfg = serverConfig();
    {
        BatchServer srv(cfg, pool);
        for (size_t f = 0; f < in.runFrames.size(); ++f) {
            const RunFrame &rf = in.runFrames[f];
            const uint64_t rid = f + 1;
            out.kinds[rid] = kindOf(rf.frame);
            // Alternate which mode goes first so neither always runs warm.
            for (int k = 0; k < 2; ++k) {
                const bool traced = (k == 0) == (f % 2 == 0);
                const ResponseFrame resp = timedCall(
                    srv, rf.frame, rid, traced ? &session : nullptr, out);
                check(out, resp.code == ErrorCode::kOk &&
                               resp.resultChecksum == rf.expected);
            }
        }
    }
    TraceSession::Scope scope(session);
    for (size_t f = 0; f < in.runFrames.size(); ++f)
        check(out, replayRun(f + 1, in.runFrames[f].frame, pool, cfg, out) ==
                       in.runFrames[f].expected);
    return out;
}

ReplayResult
replayMutations(const Inputs &in, const std::string &wal_dir,
                const std::string &scratch_dir,
                const std::vector<uint64_t> &next_request,
                TraceSession &session)
{
    ReplayResult out;
    ThreadPool pool(kPoolThreads);

    // The state the daemon checkpointed on SIGTERM: the replay starts
    // from it, exactly where the in-process server resumes.
    Checkpoint ck;
    bool found = false;
    check(out, loadNewestValidCheckpoint(wal_dir, &ck, &found).ok() &&
                   found);
    std::map<uint64_t, ReplayTenant> tenants;
    for (TenantCheckpoint &tc : ck.tenants) {
        ReplayTenant &t = tenants[tc.tenantId];
        t.graph = std::make_unique<DynamicGraph>(std::move(tc.csr));
        t.degrees = std::make_unique<IncrementalDegreeCount>(*t.graph);
    }

    // Request ids shared by both passes: rid - 1 = k * tenants + t.
    auto each_request = [&](auto &&fn) {
        uint64_t rid = 0;
        for (uint64_t k = 0; k < kMutateReplayRequests; ++k)
            for (size_t t = 0; t < in.tenants.size(); ++t)
                fn(++rid, in.tenants[t], next_request[t] + k);
    };
    auto frame_of = [](const MutTenant &mt, uint64_t i) {
        return isSnapshotSlot(i) ? snapshotFrame(mt)
                                 : mutateFrame(mt, mutateIndex(i));
    };

    // In-process server: recovery, checkpoint, then BatchServer::call.
    std::map<uint64_t, uint64_t> answers;
    {
        ServerConfig cfg = serverConfig();
        cfg.durability.walDir = wal_dir;
        cfg.durability.fsync = FsyncPolicy{};
        BatchServer srv(cfg, pool);
        out.recoveryMs =
            static_cast<double>(srv.recovery().durationMicros) / 1e3;
        {
            TraceSession::Scope scope(session);
            Span s(kCheckpointRoot, 0);
            check(out, srv.checkpointNow().ok());
        }
        out.checkpointBytes =
            static_cast<double>(newestCheckpointBytes(wal_dir));
        each_request([&](uint64_t rid, const MutTenant &mt, uint64_t i) {
            out.kinds[rid] = isSnapshotSlot(i) ? Kind::kSnapshot
                                               : Kind::kMutate;
            const bool traced =
                isSnapshotSlot(i) || mutateIndex(i) % 2 == 0;
            const ResponseFrame resp =
                timedCall(srv, frame_of(mt, i), rid,
                          traced ? &session : nullptr, out);
            check(out, resp.code == ErrorCode::kOk);
            answers[rid] = resp.resultChecksum;
        });
    }

    // Step-by-step replay of the same requests.
    std::filesystem::create_directories(scratch_dir);
    WalWriter wal(scratch_dir, FsyncPolicy{}, 1);
    uint64_t lsn = 0;
    TraceSession::Scope scope(session);
    each_request([&](uint64_t rid, const MutTenant &mt, uint64_t i) {
        auto it = tenants.find(mt.id);
        if (it == tenants.end()) {
            check(out, false); // tenant missing from the checkpoint
            return;
        }
        const uint64_t fp =
            isSnapshotSlot(i)
                ? replaySnapshot(rid, frame_of(mt, i), it->second, out)
                : replayMutate(rid, frame_of(mt, i), it->second, pool, wal,
                               lsn, out);
        check(out, fp != 0 && fp == answers[rid]);
    });
    return out;
}

} // namespace perfbench
