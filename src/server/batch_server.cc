#include "src/server/batch_server.h"

#include <optional>
#include <utility>

#include <cstring>

#include "src/check/differential_oracle.h"
#include "src/check/fault_injector.h"
#include "src/durability/checkpoint.h"
#include "src/graph/types.h"
#include "src/kernels/degree_count.h"
#include "src/kernels/neighbor_populate.h"
#include "src/kernels/pagerank.h"
#include "src/kernels/spmv.h"
#include "src/obs/metrics.h"
#include "src/sparse/coo.h"
#include "src/sparse/reference.h"
#include "src/obs/trace.h"
#include "src/resilience/memory_budget.h"
#include "src/resilience/run_supervisor.h"
#include "src/sim/phase_recorder.h"
#include "src/util/timer.h"

namespace cobra {

namespace {

/** The post-batch stamp a WAL record of @p version carries (wal.h). */
uint64_t
walStamp(const DynamicGraph &g, uint16_t version)
{
    return version == kWalVersionEdgeSetStamp ? g.edgeSetHash()
                                              : g.snapshotFingerprint();
}

uint64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

void
bumpGlobal(const char *what)
{
    if (MetricsRegistry *reg = MetricsRegistry::active())
        reg->counter(std::string("server.") + what)->inc();
}

} // namespace

BatchServer::BatchServer(ServerConfig cfg, ThreadPool &pool)
    : cfg_(std::move(cfg)), pool_(pool), admission_(cfg_.admission),
      queues_(cfg_.tenantWeights)
{
    if (cfg_.durability.enabled()) {
        const uint16_t v = cfg_.durability.walStampVersion;
        COBRA_THROW_IF(v != kWalVersionSnapshotStamp &&
                           v != kWalVersionEdgeSetStamp,
                       ErrorCode::kInvalidArgument,
                       "unsupported WAL stamp version " << v);
        // Recovery runs to completion (or throws its typed refusal)
        // before the first dispatcher exists: no request can observe a
        // half-recovered graph.
        recover();
        wal_ = std::make_unique<WalWriter>(
            cfg_.durability.walDir, cfg_.durability.fsync,
            nextLsn_.load(std::memory_order_relaxed) + 1);
        if (cfg_.durability.checkpointInterval.count() > 0)
            ckptThread_ = std::thread([this] { checkpointLoop(); });
    }
    const size_t n = std::max<size_t>(1, cfg_.dispatchThreads);
    dispatchers_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
}

BatchServer::~BatchServer()
{
    stop();
}

void
BatchServer::stop()
{
    if (stopped_.exchange(true))
        return;
    {
        // Exclusive gate: after this block no submit() can still be
        // between its stopping check and its push.
        std::unique_lock<std::shared_mutex> lk(gate_);
        stopping_.store(true, std::memory_order_release);
    }
    queues_.close();
    for (auto &d : dispatchers_)
        d.join();
    // Shed anything a racing submit pushed after the dispatchers had
    // already drained and exited — a promise must never dangle.
    std::unique_ptr<Job> job;
    uint64_t tenant = 0;
    while (queues_.pop(&job, &tenant)) {
        ResponseFrame resp;
        resp.code = ErrorCode::kUnavailable;
        resp.message = "server shut down before the request ran";
        finish(std::move(job), std::move(resp));
    }

    // Durability epilogue (dispatchers are gone, so the graphs are
    // quiescent): stop the checkpoint timer, write the final
    // checkpoint — unless the config models a crash, or the WAL is
    // poisoned and the graphs may be ahead of what was acknowledged —
    // then close the log.
    if (ckptThread_.joinable()) {
        {
            std::lock_guard<std::mutex> lk(ckptCvMu_);
            ckptStop_ = true;
        }
        ckptCv_.notify_all();
        ckptThread_.join();
    }
    if (wal_) {
        if (cfg_.durability.checkpointOnShutdown && !wal_->poisoned()) {
            if (Status st = checkpointNow(); !st.ok())
                warn("shutdown checkpoint failed (WAL remains "
                     "authoritative): " +
                     st.toString());
        }
        std::lock_guard<std::mutex> wl(walMu_);
        wal_->close();
    }
}

void
BatchServer::bumpTenant(uint64_t tenant, const char *what)
{
    if (!cfg_.perTenantMetrics)
        return;
    if (MetricsRegistry *reg = MetricsRegistry::active())
        reg->counter("server.tenant." + std::to_string(tenant) + "." +
                     what)
            ->inc();
}

std::future<ResponseFrame>
BatchServer::submit(RequestFrame req)
{
    received_.fetch_add(1, std::memory_order_relaxed);
    bumpGlobal("received");

    ResponseFrame reject;
    reject.tenantId = req.tenantId;
    reject.requestId = req.requestId;

    // Typed fast-fail paths: a promise resolved before the caller even
    // sees the future. Nothing below the admission check runs for
    // these — that is the backpressure contract.
    auto rejectNow = [&](ErrorCode code,
                         std::string msg) -> std::future<ResponseFrame> {
        reject.code = code;
        reject.message = std::move(msg);
        std::promise<ResponseFrame> p;
        p.set_value(std::move(reject));
        return p.get_future();
    };

    std::shared_lock<std::shared_mutex> gate(gate_);
    if (stopping_.load(std::memory_order_acquire)) {
        rejectedOverload_.fetch_add(1, std::memory_order_relaxed);
        bumpGlobal("rejected");
        return rejectNow(ErrorCode::kUnavailable,
                         "server is shutting down");
    }
    if (Status s = validateRequest(req); !s.ok()) {
        rejectedInvalid_.fetch_add(1, std::memory_order_relaxed);
        bumpGlobal("rejected");
        bumpTenant(req.tenantId, "rejected");
        return rejectNow(s.code(), s.message());
    }

    const uint64_t cost =
        estimateRequestCostBytes(req, pool_.numThreads());
    if (Status s = admission_.tryAdmit(req.tenantId, cost); !s.ok()) {
        if (s.code() == ErrorCode::kResourceExhausted)
            rejectedQuota_.fetch_add(1, std::memory_order_relaxed);
        else
            rejectedOverload_.fetch_add(1, std::memory_order_relaxed);
        bumpGlobal("rejected");
        bumpTenant(req.tenantId, "rejected");
        return rejectNow(s.code(), s.message());
    }

    admitted_.fetch_add(1, std::memory_order_relaxed);
    bumpGlobal("admitted");
    bumpTenant(req.tenantId, "admitted");

    auto job = std::make_unique<Job>();
    job->req = std::move(req);
    job->costBytes = cost;
    if (job->req.deadlineMs != 0)
        job->deadline = Deadline::after(
            std::chrono::milliseconds(job->req.deadlineMs));
    job->admittedAt = std::chrono::steady_clock::now();
    std::future<ResponseFrame> fut = job->promise.get_future();
    const uint64_t tenant = job->req.tenantId;
    queues_.push(tenant, std::move(job));
    if (MetricsRegistry *reg = MetricsRegistry::active())
        reg->gauge("server.queue_depth")
            ->set(static_cast<int64_t>(queues_.size()));
    return fut;
}

void
BatchServer::finish(std::unique_ptr<Job> job, ResponseFrame resp)
{
    resp.tenantId = job->req.tenantId;
    resp.requestId = job->req.requestId;
    if (resp.queueMicros == 0)
        resp.queueMicros = microsSince(job->admittedAt);

    const uint64_t tenant = job->req.tenantId;
    if (resp.code == ErrorCode::kOk) {
        completed_.fetch_add(1, std::memory_order_relaxed);
        bumpGlobal("completed");
        bumpTenant(tenant, "completed");
    } else if (resp.attempts == 0) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        bumpGlobal("shed");
        bumpTenant(tenant, "shed");
    } else {
        failed_.fetch_add(1, std::memory_order_relaxed);
        bumpGlobal("failed");
        bumpTenant(tenant, "failed");
    }
    if (resp.code == ErrorCode::kDeadlineExceeded) {
        deadlineExceeded_.fetch_add(1, std::memory_order_relaxed);
        bumpGlobal("deadline_exceeded");
    }
    admission_.release(tenant, job->costBytes);
    job->promise.set_value(std::move(resp));
}

std::shared_ptr<BatchServer::TenantGraph>
BatchServer::tenantGraph(uint64_t tenant, bool create)
{
    std::lock_guard<std::mutex> lk(tenantsMu_);
    auto it = tenants_.find(tenant);
    if (it != tenants_.end())
        return it->second;
    if (!create)
        return nullptr;
    auto state = std::make_shared<TenantGraph>();
    tenants_.emplace(tenant, state);
    return state;
}

ResponseFrame
BatchServer::executeMutate(Job &job)
{
    const RequestFrame &req = job.req;
    const uint64_t queueMicros = microsSince(job.admittedAt);

    TraceSpan sp("server.mutate", "server");
    sp.arg("tenant", req.tenantId);
    sp.arg("request", req.requestId);
    sp.arg("ops", req.numUpdates());

    // Durability point: the batch is acknowledgeable only once its WAL
    // record (the wire frame plus the post-state stamp) is appended
    // and fsynced per policy; a refusal rolls it back. The stamp is
    // computed here, for the configured record version only: with v2
    // the live path reads the per-batch edge-set hash and never
    // computes the O(V + E) ordered fingerprint. walMu_ makes lsn
    // assignment and append one step: on-disk order is lsn order.
    DurableStep walAppend;
    if (wal_)
        walAppend = [this, &req](const DynamicGraph &g,
                                 uint64_t *lsn) -> Status {
            WalRecord wrec;
            wrec.version = cfg_.durability.walStampVersion;
            wrec.postFingerprint = walStamp(g, wrec.version);
            wrec.postLiveEdges = g.numEdges();
            try {
                wrec.payload = encodeRequest(req);
            } catch (const Error &e) {
                return Status(e.code(),
                              std::string("durability encode failed; "
                                          "batch not committed: ") +
                                  e.what());
            }
            std::lock_guard<std::mutex> wl(walMu_);
            wrec.lsn = nextLsn_.load(std::memory_order_relaxed) + 1;
            if (Status ws = wal_->append(wrec); !ws.ok())
                return Status(ws.code(),
                              "durability append failed; batch not "
                              "committed: " +
                                  ws.message());
            nextLsn_.store(wrec.lsn, std::memory_order_relaxed);
            *lsn = wrec.lsn;
            return Status::Ok();
        };

    Timer t;
    MutationCommit c = commitMutation(req, job.deadline, walAppend);
    ResponseFrame resp = std::move(c.resp);
    resp.queueMicros = queueMicros;
    resp.attempts = 1;
    resp.finalEngine = req.engine;
    resp.finalBins = req.bins;
    resp.serverMicros = static_cast<uint64_t>(t.seconds() * 1e6);

    mutateBatches_.fetch_add(1, std::memory_order_relaxed);
    mutateOps_.fetch_add(req.numUpdates(), std::memory_order_relaxed);
    mutateApplied_.fetch_add(c.result.applied(), std::memory_order_relaxed);
    mutateDeduped_.fetch_add(c.result.deduped, std::memory_order_relaxed);
    mutateRejected_.fetch_add(c.result.rejected,
                              std::memory_order_relaxed);
    if (c.committed && resp.degradations == 0)
        recertifications_.fetch_add(1, std::memory_order_relaxed);
    if (c.compacted)
        compactions_.fetch_add(1, std::memory_order_relaxed);
    return resp;
}

BatchServer::MutationCommit
BatchServer::commitMutation(const RequestFrame &req,
                            const Deadline &deadline,
                            const DurableStep &durable)
{
    MutationCommit c;

    // Decode the batch: bit 31 of the src word marks a delete.
    MutationBatch batch;
    batch.ops.reserve(req.numUpdates());
    for (size_t i = 0; i + 1 < req.payload.size(); i += 2) {
        const uint32_t sw = req.payload[i];
        batch.ops.push_back(MutationBatch::Op{
            sw & ~kMutateDeleteBit, req.payload[i + 1],
            (sw & kMutateDeleteBit) != 0});
    }
    // A batch bounced before commit books all its ops rejected, so the
    // op-level conservation identity still closes.
    auto bounce = [&c, &batch](const Status &st) {
        c.resp.code = st.code();
        c.resp.message = st.message();
        c.result.rejected = batch.size();
        return c;
    };

    std::shared_ptr<TenantGraph> state =
        tenantGraph(req.tenantId, /*create=*/true);
    std::lock_guard<std::mutex> lk(state->mu);
    if (state->graph == nullptr) {
        state->numIndices = req.numIndices;
        state->graph = std::make_unique<DynamicGraph>(
            static_cast<NodeId>(req.numIndices));
    } else if (state->numIndices != req.numIndices) {
        return bounce(Status(ErrorCode::kFailedPrecondition,
                             "tenant graph has " +
                                 std::to_string(state->numIndices) +
                                 " vertices; request says " +
                                 std::to_string(req.numIndices)));
    }
    DynamicGraph &g = *state->graph;

    // Only the batch's kernel's maintainer follows the graph; built
    // from the pre-batch graph, it survives a rollback.
    const bool degreeKernel = req.kernel == ServerKernel::kDegreeCount;
    if (degreeKernel && !state->degrees)
        state->degrees = std::make_unique<IncrementalDegreeCount>(g);
    if (!degreeKernel && !state->pagerank)
        state->pagerank = std::make_unique<DeltaPagerank>(g);

    PbEngineConfig ecfg;
    ecfg.kind = req.engine;
    ecfg.wcLines = req.wcLines;
    ecfg.skewAdaptive = req.skewAdaptive;
    PhaseRecorder rec;

    // In place: a conservation failure (injected or real) comes back
    // already rolled back; a later refusal rolls back explicitly.
    BatchResult r =
        g.applyBatchParallel(pool_, rec, batch, req.bins, ecfg);
    if (!g.health().ok())
        return bounce(g.health());
    auto refuse = [&](const Status &st) {
        g.rollbackLastBatch();
        return bounce(st);
    };
    if (!r.conserved(batch.size()))
        return refuse(Status(
            ErrorCode::kDataLoss,
            "batch accounting does not close: " +
                std::to_string(batch.size()) + " submitted != " +
                std::to_string(r.applied()) + " applied + " +
                std::to_string(r.deduped) + " deduped + " +
                std::to_string(r.rejected) + " rejected"));
    if (deadline.armed() && deadline.expired())
        return refuse(Status(ErrorCode::kDeadlineExceeded,
                             "deadline expired while applying the "
                             "batch; batch not committed"));
    if (durable) {
        uint64_t lsn = 0;
        if (Status st = durable(g, &lsn); !st.ok())
            return refuse(st);
        state->lastLsn = lsn;
    }
    c.committed = true;

    // Fold the committed batch into the kernel's maintainer and
    // certify it against a full recompute of the new graph. The other
    // maintainer missed this batch, so it is dropped.
    uint64_t dirty = 0;
    std::optional<std::string> diverged;
    std::vector<uint32_t> w;
    if (degreeKernel) {
        state->pagerank.reset();
        state->degrees->update(r, g);
        dirty = state->degrees->lastDirty();
        if (auto d = DifferentialOracle::firstDivergence(
                state->degrees->degrees(),
                IncrementalDegreeCount::fullRecompute(g),
                "incremental degrees"))
            diverged = d->detail;
        // A failed certification degrades to the trusted full result,
        // said so in the answer, never an uncertified one served.
        if (diverged)
            state->degrees = std::make_unique<IncrementalDegreeCount>(g);
        for (EdgeOffset d : state->degrees->degrees())
            w.push_back(static_cast<uint32_t>(d));
    } else {
        state->degrees.reset();
        if (Status st = state->pagerank->apply(batch, r, g); !st.ok())
            diverged = st.message();
        else if (auto d = DifferentialOracle::firstDivergence(
                     state->pagerank->scores(),
                     DeltaPagerank::fullRecompute(g),
                     "incremental pagerank"))
            diverged = d->detail;
        dirty = state->pagerank->lastDirty();
        if (diverged)
            state->pagerank = std::make_unique<DeltaPagerank>(g);
        const auto &s = state->pagerank->scores();
        w.resize(s.size());
        std::memcpy(w.data(), s.data(), s.size() * sizeof(float));
    }
    c.resp.resultChecksum = fnv1a(w.data(), w.size());
    if (diverged) {
        ++c.resp.degradations;
        c.resp.message = "incremental recompute diverged (" + *diverged +
                       "); served full recompute";
    }

    // Threshold compaction rides the batch that crossed the line; it
    // is all-or-nothing, so on failure the committed batch stands.
    c.result = std::move(r);
    if (g.needsCompaction()) {
        if (Status cs = g.compact(pool_, rec, req.bins, ecfg); !cs.ok()) {
            c.resp.code = cs.code();
            c.resp.message =
                "compaction failed (batch remains committed): " +
                cs.message();
            return c;
        }
        c.compacted = true;
    }

    c.resp.code = ErrorCode::kOk;
    if (c.resp.message.empty())
        c.resp.message = "applied=" + std::to_string(c.result.applied()) +
                       " deduped=" + std::to_string(c.result.deduped) +
                       " rejected=" + std::to_string(c.result.rejected) +
                       " dirty=" + std::to_string(dirty) +
                       " edges=" + std::to_string(g.numEdges());
    return c;
}

ResponseFrame
BatchServer::executeSnapshot(Job &job)
{
    const RequestFrame &req = job.req;
    ResponseFrame resp;
    resp.queueMicros = microsSince(job.admittedAt);
    resp.attempts = 1;
    resp.finalEngine = req.engine;
    resp.finalBins = req.bins;

    TraceSpan sp("server.snapshot", "server");
    sp.arg("tenant", req.tenantId);
    sp.arg("request", req.requestId);

    std::shared_ptr<TenantGraph> state =
        tenantGraph(req.tenantId, /*create=*/false);
    if (state == nullptr) {
        resp.code = ErrorCode::kFailedPrecondition;
        resp.message = "tenant has no mutable graph (no kMutate seen)";
        return resp;
    }
    std::lock_guard<std::mutex> lk(state->mu);
    if (state->numIndices != req.numIndices) {
        resp.code = ErrorCode::kFailedPrecondition;
        resp.message = "tenant graph has " +
                       std::to_string(state->numIndices) +
                       " vertices; request says " +
                       std::to_string(req.numIndices);
        return resp;
    }

    Timer t;
    // The degree sequence followed by every neighbor id, in snapshot
    // order: two replicas that applied the same batches agree on this
    // bit-for-bit (and it is the stamp checkpoints and v1 WAL records
    // carry; v2 records carry the order-free edge-set hash).
    resp.resultChecksum = state->graph->snapshotFingerprint();
    resp.serverMicros = static_cast<uint64_t>(t.seconds() * 1e6);
    resp.code = ErrorCode::kOk;
    resp.message = "edges=" + std::to_string(state->graph->numEdges()) +
                   " delta=" +
                   std::to_string(state->graph->deltaEdges()) +
                   " compactions=" +
                   std::to_string(state->graph->compactions());
    return resp;
}

ResponseFrame
BatchServer::execute(Job &job)
{
    const RequestFrame &req = job.req;

    // The request's own slice of the shared pool: shards, failures,
    // and cancellation all scoped to this group, so concurrent
    // requests interleave on the workers without sharing a barrier.
    ThreadPool::Group group(pool_);
    ThreadPool::Group::Scope group_scope(group);

    // Request-carried chaos plan, scoped to this dispatcher thread and
    // inherited only by this request's tasks.
    std::optional<FaultInjector> injector;
    std::optional<FaultInjector::Scope> injector_scope;
    if (req.injectSite != 0) {
        injector.emplace(static_cast<FaultSite>(req.injectSite),
                         req.injectFireAt == 0 ? 1 : req.injectFireAt,
                         req.injectSeed);
        injector_scope.emplace(*injector);
    }

    if (req.op == RequestOp::kMutate)
        return executeMutate(job);
    if (req.op == RequestOp::kSnapshot)
        return executeSnapshot(job);

    ResponseFrame resp;
    resp.queueMicros = microsSince(job.admittedAt);

    TraceSpan sp("server.request", "server");
    sp.arg("tenant", req.tenantId);
    sp.arg("request", req.requestId);
    sp.arg("kernel", static_cast<uint64_t>(req.kernel));
    sp.arg("updates", req.numUpdates());

    // Rebuild the edgelist the kernels consume from the flat payload
    // (already bounds-checked against numIndices at validation).
    EdgeList edges;
    edges.reserve(req.numUpdates());
    for (size_t i = 0; i + 1 < req.payload.size(); i += 2)
        edges.push_back(Edge{req.payload[i], req.payload[i + 1]});

    // Kernel source data must outlive the kernel (the kernels hold raw
    // pointers), so the graph/matrix storage is declared first.
    std::optional<CsrGraph> outG, inG;
    CsrMatrix a, at;
    std::vector<double> xvec;
    std::unique_ptr<DegreeCountKernel> degree;
    std::unique_ptr<NeighborPopulateKernel> np;
    std::unique_ptr<PagerankKernel> pagerank;
    std::unique_ptr<SpmvKernel> spmv;
    Kernel *kernel = nullptr;
    const NodeId nodes = static_cast<NodeId>(req.numIndices);
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
        // The wire carries only the sparsity pattern; values and x are
        // derived deterministically from positions so both ends can
        // reproduce the exact matrix without shipping doubles.
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
        break;
      }
    }

    SupervisorConfig sc;
    sc.deadline = cfg_.defaultAttemptDeadline;
    if (job.deadline.armed())
        sc.overallDeadline = job.deadline.at();
    sc.retry.maxAttempts = std::max(1u, cfg_.retryAttempts);
    // Deterministic per-request jitter: retries of the same request
    // back off identically on replay, different requests decorrelate.
    sc.retry.seed = req.requestId ^ req.tenantId;
    sc.memBudgetBytes = job.costBytes;
    sc.allowBaselineFallback = cfg_.allowBaselineFallback;
    sc.minBins = cfg_.minBins;

    PbEngineConfig ecfg;
    ecfg.kind = req.engine;
    ecfg.wcLines = req.wcLines;
    ecfg.skewAdaptive = req.skewAdaptive;

    PhaseRecorder rec;
    RunSupervisor sup(sc);
    Timer t;
    SupervisorReport rep =
        sup.runPbParallel(*kernel, pool_, rec, req.bins, ecfg);
    resp.serverMicros = static_cast<uint64_t>(t.seconds() * 1e6);

    resp.code = rep.ok ? ErrorCode::kOk : rep.finalStatus.code();
    if (!rep.ok)
        resp.message = rep.finalStatus.message();
    resp.attempts = static_cast<uint32_t>(rep.attempts.size());
    resp.retries = rep.retries;
    resp.degradations = rep.degradations;
    resp.usedBaseline = rep.usedBaseline;
    resp.finalEngine = rep.finalEngine.kind;
    resp.finalBins = rep.finalBins;

    if (rep.ok) {
        if (degree) {
            const auto &d = degree->degrees();
            resp.resultChecksum = fnv1a(d.data(), d.size());
        } else if (np) {
            // Fingerprint the degree sequence of the produced CSR:
            // deterministic across engines (adjacency interleaving is
            // not), and the oracle already certified full equality.
            CsrGraph g = np->result();
            std::vector<uint32_t> degs(g.numNodes());
            for (NodeId v = 0; v < g.numNodes(); ++v)
                degs[v] = static_cast<uint32_t>(g.degree(v));
            resp.resultChecksum = fnv1a(degs.data(), degs.size());
        } else if (pagerank) {
            // Bit-pattern fingerprint: push and pull produce
            // bit-identical floats by construction, so the checksum is
            // stable across directions and thread counts.
            const auto &s = pagerank->scores();
            std::vector<uint32_t> w(s.size());
            std::memcpy(w.data(), s.data(), s.size() * sizeof(float));
            resp.resultChecksum = fnv1a(w.data(), w.size());
        } else if (spmv) {
            const auto &yv = spmv->result();
            std::vector<uint32_t> w(yv.size() * 2);
            std::memcpy(w.data(), yv.data(),
                        yv.size() * sizeof(double));
            resp.resultChecksum = fnv1a(w.data(), w.size());
        }
    }
    return resp;
}

void
BatchServer::dispatchLoop()
{
    std::unique_ptr<Job> job;
    uint64_t tenant = 0;
    while (queues_.pop(&job, &tenant)) {
        ResponseFrame resp;
        if (stopping_.load(std::memory_order_acquire)) {
            // Graceful shutdown: the backlog is shed with the same
            // typed fast-fail an admission reject gets, never dropped.
            resp.code = ErrorCode::kUnavailable;
            resp.message = "server shut down before the request ran";
        } else if (job->deadline.armed() && job->deadline.expired()) {
            // Doomed work is shed at dispatch, not run to certain
            // failure: the client has already given up.
            resp.code = ErrorCode::kDeadlineExceeded;
            resp.message = "deadline expired while queued";
        } else {
            resp = execute(*job);
        }
        finish(std::move(job), std::move(resp));
        if (MetricsRegistry *reg = MetricsRegistry::active())
            reg->gauge("server.queue_depth")
                ->set(static_cast<int64_t>(queues_.size()));
    }
}

void
BatchServer::recover()
{
    const auto t0 = std::chrono::steady_clock::now();
    recovery_.ran = true;
    const DurabilityConfig &dc = cfg_.durability;

    Deadline dl;
    if (dc.recoveryDeadline.count() > 0)
        dl = Deadline::after(dc.recoveryDeadline);
    MemoryBudget budget(dc.recoveryBudgetBytes);

    // 1. Newest valid checkpoint (with fallback to the older retained
    // one). A directory with checkpoints but no valid one is a typed
    // refusal, not a silent cold start.
    Checkpoint ck;
    bool haveCkpt = false;
    if (Status st = loadNewestValidCheckpoint(dc.walDir, &ck, &haveCkpt,
                                              dc.recoveryBudgetBytes);
        !st.ok())
        throw Error(st.code(), "recovery refused: " + st.message());

    uint64_t minCover = 0, maxCover = 0;
    if (haveCkpt) {
        recovery_.checkpointLoaded = true;
        recovery_.checkpointLsn = ck.lsn;
        recovery_.checkpointTenants = ck.tenants.size();
        minCover = ck.lsn;
        for (TenantCheckpoint &tc : ck.tenants) {
            minCover = std::min(minCover, tc.coveredLsn);
            maxCover = std::max(maxCover, tc.coveredLsn);
            budget.charge(tc.csr.numEdges() * sizeof(NodeId) +
                          (tc.csr.numNodes() + 1) * sizeof(EdgeOffset));
            auto state = tenantGraph(tc.tenantId, /*create=*/true);
            state->numIndices = tc.numIndices;
            if (tc.csr.numNodes() != tc.numIndices)
                throw Error(ErrorCode::kCorruptFile,
                            "recovery refused: checkpoint tenant " +
                                std::to_string(tc.tenantId) + " CSR has " +
                                std::to_string(tc.csr.numNodes()) +
                                " nodes but claims " +
                                std::to_string(tc.numIndices) +
                                " indices");
            // DynamicGraph(CsrGraph) re-verifies the merge invariants;
            // then the fingerprint ties the adopted graph to what the
            // checkpointing server actually held.
            state->graph =
                std::make_unique<DynamicGraph>(std::move(tc.csr));
            const uint64_t fp = state->graph->snapshotFingerprint();
            if (fp != tc.fingerprint)
                throw Error(ErrorCode::kDataLoss,
                            "recovery refused: checkpoint tenant " +
                                std::to_string(tc.tenantId) +
                                " fingerprint mismatch (stored " +
                                std::to_string(tc.fingerprint) +
                                ", recovered " + std::to_string(fp) +
                                ")");
            state->lastLsn = tc.coveredLsn;
        }
    }

    // 2. The WAL, full-file verified. repair_torn_tail=true: the torn
    // bytes a crash left are physically truncated so the reopened
    // writer continues from a clean prefix.
    WalReadResult rr;
    if (Status st = readWal(dc.walDir, &rr, /*repair_torn_tail=*/true);
        !st.ok())
        throw Error(st.code(), "recovery refused: " + st.message());
    recovery_.walRecords = rr.records.size();
    recovery_.tornTailBytes = rr.tornTailBytes;

    // 3. Continuity: replay needs every record past the oldest
    // per-tenant cover. A WAL that starts later than that lost
    // acknowledged state — refuse, never serve a gap.
    const uint64_t firstNeeded = minCover + 1;
    if (!rr.records.empty() && rr.records.front().lsn > firstNeeded)
        throw Error(ErrorCode::kDataLoss,
                    "recovery refused: WAL starts at lsn " +
                        std::to_string(rr.records.front().lsn) +
                        " but replay needs lsn " +
                        std::to_string(firstNeeded) +
                        " — acknowledged mutations are unrecoverable");

    nextLsn_.store(std::max(
        maxCover, rr.records.empty() ? 0 : rr.records.back().lsn));

    // 4. Replay the uncovered suffix through the live commit path.
    // The durable step is the record's own certification: the
    // replayed graph must reproduce exactly the state the original
    // server stamped before acknowledging the batch. Any refusal — or
    // an incremental result that diverges from its full recompute —
    // refuses startup.
    for (const WalRecord &wrec : rr.records) {
        if (dl.armed() && dl.expired())
            throw Error(ErrorCode::kDeadlineExceeded,
                        "recovery refused: replay deadline expired at "
                        "lsn " +
                            std::to_string(wrec.lsn));
        budget.charge(wrec.payload.size());

        RequestFrame rreq;
        if (Status st = decodeRequest(wrec.payload.data(),
                                      wrec.payload.size(), &rreq);
            !st.ok())
            throw Error(ErrorCode::kCorruptFile,
                        "recovery refused: WAL record at lsn " +
                            std::to_string(wrec.lsn) +
                            " does not decode as a request frame: " +
                            st.message());
        if (rreq.op != RequestOp::kMutate)
            throw Error(ErrorCode::kCorruptFile,
                        "recovery refused: WAL record at lsn " +
                            std::to_string(wrec.lsn) +
                            " is not a kMutate frame");
        if (auto state = tenantGraph(rreq.tenantId, /*create=*/false);
            state != nullptr && wrec.lsn <= state->lastLsn) {
            // Already folded into the checkpoint.
            ++recovery_.skippedRecords;
            continue;
        }

        const MutationCommit c = commitMutation(
            rreq, Deadline{},
            [&wrec](const DynamicGraph &g, uint64_t *lsn) {
                if (g.numEdges() != wrec.postLiveEdges ||
                    walStamp(g, wrec.version) != wrec.postFingerprint)
                    return Status(ErrorCode::kDataLoss,
                                  "replayed state diverges from the "
                                  "acknowledged state — refusing to "
                                  "serve it");
                *lsn = wrec.lsn;
                return Status::Ok();
            });
        if (c.resp.code != ErrorCode::kOk || c.resp.degradations != 0)
            throw Error(ErrorCode::kDataLoss,
                        "recovery refused: replay of lsn " +
                            std::to_string(wrec.lsn) + " failed: " +
                            c.resp.message);
        ++recovery_.replayedBatches;
        ++(wrec.version == kWalVersionEdgeSetStamp
               ? recovery_.replayedV2Records
               : recovery_.replayedV1Records);
        recovery_.replayedOps += rreq.numUpdates();
    }

    {
        std::lock_guard<std::mutex> ck_lk(ckptMu_);
        prevCheckpointCover_ = minCover;
    }

    recovery_.durationMicros = microsSince(t0);
    if (MetricsCounter *c =
            metricsCounter("durability.recovery.replayed_batches"))
        c->add(recovery_.replayedBatches);
    if (MetricsCounter *c =
            metricsCounter("durability.recovery.replayed_v1_records"))
        c->add(recovery_.replayedV1Records);
    if (MetricsCounter *c =
            metricsCounter("durability.recovery.replayed_v2_records"))
        c->add(recovery_.replayedV2Records);
    if (MetricsCounter *c =
            metricsCounter("durability.recovery.skipped_records"))
        c->add(recovery_.skippedRecords);
    if (MetricsGauge *g =
            metricsGauge("durability.recovery.duration_micros"))
        g->set(static_cast<int64_t>(recovery_.durationMicros));
}

Status
BatchServer::checkpointNow()
{
    if (!cfg_.durability.enabled())
        return Status(ErrorCode::kFailedPrecondition,
                      "durability is disabled (no --wal-dir)");
    std::lock_guard<std::mutex> ck_lk(ckptMu_);
    TraceSpan sp("server.checkpoint", "server");

    Checkpoint ck;
    ck.lsn = nextLsn_.load(std::memory_order_relaxed);

    std::vector<std::pair<uint64_t, std::shared_ptr<TenantGraph>>> snap;
    {
        std::lock_guard<std::mutex> lk(tenantsMu_);
        for (auto &kv : tenants_)
            snap.emplace_back(kv.first, kv.second);
    }
    for (auto &[tenant, state] : snap) {
        // Copy under the tenant lock (a commit holds it from apply
        // through WAL append, so the copy never holds a batch that may
        // still roll back, and graph and lastLsn agree); the expensive
        // snapshot/fingerprint run on the copy, unlocked.
        std::unique_ptr<DynamicGraph> copy;
        uint64_t covered = 0, indices = 0;
        {
            std::lock_guard<std::mutex> lk(state->mu);
            if (!state->graph)
                continue;
            copy = std::make_unique<DynamicGraph>(*state->graph);
            covered = state->lastLsn;
            indices = state->numIndices;
        }
        TenantCheckpoint tc;
        tc.tenantId = tenant;
        tc.coveredLsn = covered;
        tc.numIndices = indices;
        tc.csr = copy->snapshotCsr();
        tc.fingerprint = copy->snapshotFingerprint();
        // Concurrent mutations may have advanced past the lsn frontier
        // read above; the capture lsn only needs to dominate every
        // per-tenant cover.
        ck.lsn = std::max(ck.lsn, covered);
        ck.tenants.push_back(std::move(tc));
    }

    std::string path;
    if (Status st = writeCheckpoint(cfg_.durability.walDir, ck, &path);
        !st.ok())
        return st;

    // Rotate so the pre-checkpoint segments become fully covered and
    // deletable once the NEXT checkpoint lands.
    {
        std::lock_guard<std::mutex> wl(walMu_);
        if (wal_) {
            if (Status st = wal_->rotate(
                    nextLsn_.load(std::memory_order_relaxed) + 1);
                !st.ok())
                return Status(st.code(),
                              "checkpoint written but WAL rotation "
                              "failed: " +
                                  st.message());
        }
    }

    uint64_t cover = ck.lsn;
    for (const TenantCheckpoint &tc : ck.tenants)
        cover = std::min(cover, tc.coveredLsn);
    if (Status st = pruneCheckpoints(cfg_.durability.walDir, 2); !st.ok())
        return st;
    // Truncate only what the PREVIOUS retained checkpoint covers: if
    // the one just written turns out corrupt on disk, the older
    // checkpoint + the retained WAL suffix still reconstruct everything.
    if (Status st =
            truncateWalBehind(cfg_.durability.walDir, prevCheckpointCover_);
        !st.ok())
        return st;
    prevCheckpointCover_ = cover;

    if (MetricsGauge *g = metricsGauge("durability.ckpt.cover_lsn"))
        g->set(static_cast<int64_t>(ck.lsn));
    return Status::Ok();
}

void
BatchServer::checkpointLoop()
{
    std::unique_lock<std::mutex> lk(ckptCvMu_);
    while (!ckptStop_) {
        ckptCv_.wait_for(lk, cfg_.durability.checkpointInterval,
                         [this] { return ckptStop_; });
        if (ckptStop_)
            break;
        lk.unlock();
        if (Status st = checkpointNow(); !st.ok()) {
            warn("background checkpoint failed (WAL remains "
                 "authoritative): " +
                 st.toString());
            if (MetricsCounter *c =
                    metricsCounter("durability.ckpt.failures"))
                c->inc();
        }
        lk.lock();
    }
}

ServerStats
BatchServer::stats() const
{
    ServerStats s;
    s.received = received_.load(std::memory_order_relaxed);
    s.rejectedInvalid = rejectedInvalid_.load(std::memory_order_relaxed);
    s.rejectedOverload =
        rejectedOverload_.load(std::memory_order_relaxed);
    s.rejectedQuota = rejectedQuota_.load(std::memory_order_relaxed);
    s.admitted = admitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.deadlineExceeded =
        deadlineExceeded_.load(std::memory_order_relaxed);
    s.mutateBatches = mutateBatches_.load(std::memory_order_relaxed);
    s.mutateOps = mutateOps_.load(std::memory_order_relaxed);
    s.mutateApplied = mutateApplied_.load(std::memory_order_relaxed);
    s.mutateDeduped = mutateDeduped_.load(std::memory_order_relaxed);
    s.mutateRejected = mutateRejected_.load(std::memory_order_relaxed);
    s.compactions = compactions_.load(std::memory_order_relaxed);
    s.recertifications =
        recertifications_.load(std::memory_order_relaxed);
    return s;
}

} // namespace cobra
