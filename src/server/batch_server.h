/**
 * @file
 * BatchServer: the long-lived multi-tenant service in front of the
 * supervised PB runtime.
 *
 * Request lifecycle (DESIGN.md section 13's state machine):
 *
 *   received -> (validate, admit) -> admitted -> queued -> running
 *                     |    |                        |         |
 *                     v    v                        v         v
 *                 invalid  rejected              shed     {completed,
 *                (typed)   (typed, fast)                   failed}
 *
 * Everything before "admitted" is synchronous inside submit(): a
 * malformed or over-capacity request costs the caller one validation
 * pass and an O(1) admission check — it never touches a queue, a
 * worker, or the allocator. Everything after is asynchronous: the
 * returned future resolves when the request reaches a terminal state,
 * and *every* admitted request reaches one (the chaos test's
 * conservation invariant: admitted == completed + failed + shed).
 *
 * Execution: dispatcher threads pop requests in WRR order and drive
 * each through its own RunSupervisor on the *shared* ThreadPool —
 * concurrency between tenants comes from ThreadPool::Group (each
 * request's shards, failures, and cancellation are scoped to its own
 * group) rather than from per-request pools. A request's deadline
 * rides the whole pipeline: expired while queued -> shed without
 * running; running -> SupervisorConfig::overallDeadline clamps every
 * attempt's watchdog and stops the retry ladder when the budget is
 * spent. A request-carried fault plan (RequestFrame::injectSite) is
 * installed as a FaultInjector scoped to that request's dispatcher
 * thread and inherited only by that request's pool tasks — one
 * tenant's chaos never perturbs a neighbour.
 *
 * Results are oracle-certified before being reported ok (the
 * supervisor re-verifies every attempt against the kernel's serial
 * reference), and the response carries an FNV-1a fingerprint of the
 * output so clients can cross-check replicas.
 *
 * Mutable graphs: a kMutate request addresses a per-tenant
 * DynamicGraph instead of a one-shot kernel. Live batches and WAL
 * replay share one commit path: apply in place, hand the post-batch
 * graph to the durable step (live: WAL append stamped per
 * DurabilityConfig::walStampVersion; replay: match the logged stamp
 * of the record's version), then re-certify the incremental degree/Pagerank
 * result against a full recompute (DifferentialOracle::
 * firstDivergence). A batch refused before its durable step is rolled
 * back from the graph's undo record, and the op-level books close
 * under their own conservation identity (ServerStats::conserved).
 */

#ifndef COBRA_SERVER_BATCH_SERVER_H
#define COBRA_SERVER_BATCH_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/durability/durability.h"
#include "src/graph/dynamic_graph.h"
#include "src/kernels/incremental.h"
#include "src/resilience/cancel.h"
#include "src/server/admission.h"
#include "src/server/frame.h"
#include "src/server/tenant_queue.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace cobra {

/** Server-wide knobs. */
struct ServerConfig
{
    /** Concurrent supervised runs (dispatcher threads). */
    size_t dispatchThreads = 2;

    AdmissionConfig admission;

    /** WRR weights per tenant id; unlisted tenants weigh 1. */
    std::map<uint64_t, uint32_t> tenantWeights;

    /**
     * Per-attempt watchdog for requests that carry no deadline of
     * their own (a server must never run unbounded work for a client
     * that asked for none). 0 disables.
     */
    std::chrono::milliseconds defaultAttemptDeadline{30000};

    /** Supervisor retry ladder length per request. */
    uint32_t retryAttempts = 3;

    /** Floor for the supervisor's bin-halving degradation. */
    uint32_t minBins = 16;

    /** Allow the serial-reference last rung. */
    bool allowBaselineFallback = true;

    /** Emit per-tenant metrics (server.tenant.<id>.*). */
    bool perTenantMetrics = true;

    /**
     * Durability layer (DESIGN.md §16). With walDir set, every kMutate
     * batch is WAL-logged before its commit is acknowledged, the
     * tenant graphs are periodically checkpointed, and the constructor
     * runs crash recovery: newest valid checkpoint + WAL-suffix replay,
     * certified record-by-record against the logged fingerprints. A
     * recovery that cannot reproduce the acknowledged state *throws* a
     * typed Error from the constructor — the server refuses to start
     * rather than serve divergent state.
     */
    DurabilityConfig durability;
};

/** Exact lifecycle accounting (all monotonic; see conservation note). */
struct ServerStats
{
    uint64_t received = 0;
    uint64_t rejectedInvalid = 0;  ///< failed validation; never admitted
    uint64_t rejectedOverload = 0; ///< kUnavailable at admission
    uint64_t rejectedQuota = 0;    ///< kResourceExhausted at admission
    uint64_t admitted = 0;
    uint64_t completed = 0; ///< ran, oracle-certified ok
    uint64_t failed = 0;    ///< ran, terminal failure
    uint64_t shed = 0;      ///< admitted but never ran
    uint64_t deadlineExceeded = 0; ///< terminal code was kDeadlineExceeded

    // Mutation-path accounting (kMutate requests). Every op that
    // reaches a dispatcher is classified exactly once: applied
    // (changed the edge set), deduped (insert of a live edge),
    // rejected (delete of a non-live edge, or the whole batch bounced
    // before commit — precondition, deadline, data-loss).
    uint64_t mutateBatches = 0; ///< kMutate requests that reached execute
    uint64_t mutateOps = 0;
    uint64_t mutateApplied = 0;
    uint64_t mutateDeduped = 0;
    uint64_t mutateRejected = 0;
    uint64_t compactions = 0;   ///< threshold compactions that committed
    uint64_t recertifications = 0; ///< incremental results certified ok

    /** admitted == completed + failed + shed once the server drained. */
    bool
    conserved() const
    {
        return admitted == completed + failed + shed &&
               received == admitted + rejectedInvalid + rejectedOverload +
                               rejectedQuota &&
               mutateOps ==
                   mutateApplied + mutateDeduped + mutateRejected;
    }
};

/** The in-process server core (the socket layer wraps this). */
class BatchServer
{
  public:
    /**
     * @param pool shared kernel pool; the server does not own it, and
     *        other subsystems may keep using it concurrently.
     */
    BatchServer(ServerConfig cfg, ThreadPool &pool);

    /** Sheds whatever is still queued, then joins the dispatchers. */
    ~BatchServer();

    BatchServer(const BatchServer &) = delete;
    BatchServer &operator=(const BatchServer &) = delete;

    /**
     * Submit one request. Never throws and never blocks on kernel
     * work: validation + admission happen inline (a rejected request
     * returns an already-resolved future with the typed code), then
     * the request waits its WRR turn. The future always resolves.
     */
    std::future<ResponseFrame> submit(RequestFrame req);

    /** submit() + wait — the convenience path for tests and the CLI. */
    ResponseFrame
    call(RequestFrame req)
    {
        return submit(std::move(req)).get();
    }

    /**
     * Stop accepting (submit answers kUnavailable), shed the backlog,
     * finish in-flight runs, join dispatchers. Idempotent; the dtor
     * calls it.
     */
    void stop();

    ServerStats stats() const;

    size_t queueDepth() const { return queues_.size(); }

    /** What startup recovery found/replayed (ran=false when durability
     * is disabled). */
    const RecoveryReport &recovery() const { return recovery_; }

    /**
     * Write a checkpoint of every tenant graph now: capture the LSN
     * frontier, copy each graph under its own mutex, write tmp + fsync
     * + rename, rotate the WAL, prune to the newest two checkpoints,
     * and truncate WAL segments the *previous* retained checkpoint
     * already covers (so even a corrupt newest checkpoint leaves the
     * older one + WAL sufficient). Typed error when durability is
     * disabled or the write fails; in-flight mutations are unaffected
     * either way.
     */
    Status checkpointNow();

  private:
    struct Job
    {
        RequestFrame req;
        uint64_t costBytes = 0;
        Deadline deadline; ///< armed iff req.deadlineMs != 0
        std::chrono::steady_clock::time_point admittedAt;
        std::promise<ResponseFrame> promise;
    };

    /**
     * Per-tenant mutable state for the kMutate/kSnapshot ops: the
     * graph plus the incrementally maintained kernel results. mu is
     * held across a whole commit, so no reader sees a batch that may
     * still roll back; different tenants mutate concurrently.
     */
    struct TenantGraph
    {
        std::mutex mu;
        uint64_t numIndices = 0;
        std::unique_ptr<DynamicGraph> graph;
        /** Built on first need; a batch for the other kernel drops
         * it (it missed that batch). */
        std::unique_ptr<IncrementalDegreeCount> degrees;
        std::unique_ptr<DeltaPagerank> pagerank;

        /** LSN of the last WAL record folded into graph (0 = none).
         * Guarded by mu; recovery skips records at or below it. */
        uint64_t lastLsn = 0;
    };

    void dispatchLoop();

    /** Terminal bookkeeping shared by every path out of the queue. */
    void finish(std::unique_ptr<Job> job, ResponseFrame resp);

    /** Run the supervised kernel for @p job (the "running" state). */
    ResponseFrame execute(Job &job);

    /** kMutate: commitMutation() with the WAL append as its durable
     * step, booked into the mutate counters. */
    ResponseFrame executeMutate(Job &job);

    /** What one commitMutation() did, for the caller's books. */
    struct MutationCommit
    {
        ResponseFrame resp;     ///< code, message, checksum, degradations
        BatchResult result;     ///< a bounced batch: all ops rejected
        bool committed = false; ///< the batch is in the graph
        bool compacted = false; ///< threshold compaction committed
    };

    /** Gets the post-batch graph and stamps or checks it (live: the
     * configured record version; replay: the record's own); sets
     * @p lsn to the WAL record covering the batch, or refuses typed. */
    using DurableStep =
        std::function<Status(const DynamicGraph &g, uint64_t *lsn)>;

    /** The one kMutate commit path (live and WAL replay): decode,
     * find or create the tenant, apply in place, gate on conservation,
     * @p deadline and @p durable (no stamp when empty), rolling back a
     * refused batch; then fold + certify the maintainer, compact. */
    MutationCommit commitMutation(const RequestFrame &req,
                                  const Deadline &deadline,
                                  const DurableStep &durable);

    /** kSnapshot: checksum the tenant's merged CSR. */
    ResponseFrame executeSnapshot(Job &job);

    /** The tenant's graph state, created on first kMutate. */
    std::shared_ptr<TenantGraph> tenantGraph(uint64_t tenant,
                                             bool create);

    void bumpTenant(uint64_t tenant, const char *what);

    /** Startup recovery (ctor-only): load the newest valid checkpoint,
     * replay the WAL suffix through commitMutation(). Throws typed
     * Error on refusal. */
    void recover();

    /** Background checkpoint timer (checkpointInterval > 0). */
    void checkpointLoop();

    const ServerConfig cfg_;
    ThreadPool &pool_;
    AdmissionController admission_;
    TenantQueues<std::unique_ptr<Job>> queues_;
    std::vector<std::thread> dispatchers_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};

    /**
     * Shutdown gate: submit() holds it shared across its
     * check-stopping -> push window; stop() takes it exclusive to
     * flip stopping_, so no submit can slip a job into the queue
     * after stop() has drained it — every future resolves.
     */
    std::shared_mutex gate_;

    std::mutex tenantsMu_; ///< guards tenants_ (map shape only)
    std::map<uint64_t, std::shared_ptr<TenantGraph>> tenants_;

    std::atomic<uint64_t> received_{0}, rejectedInvalid_{0},
        rejectedOverload_{0}, rejectedQuota_{0}, admitted_{0},
        completed_{0}, failed_{0}, shed_{0}, deadlineExceeded_{0};
    std::atomic<uint64_t> mutateBatches_{0}, mutateOps_{0},
        mutateApplied_{0}, mutateDeduped_{0}, mutateRejected_{0},
        compactions_{0}, recertifications_{0};

    // Durability state (all unused when cfg_.durability is disabled).
    // walMu_ makes LSN assignment and the file append one atomic step,
    // so the on-disk record order IS the lsn order.
    std::unique_ptr<WalWriter> wal_;
    std::mutex walMu_;
    std::atomic<uint64_t> nextLsn_{0}; ///< last assigned lsn
    RecoveryReport recovery_;

    std::mutex ckptMu_; ///< serializes whole checkpoints
    /** minCover of the previous retained checkpoint: the WAL
     * truncation frontier (guarded by ckptMu_). */
    uint64_t prevCheckpointCover_ = 0;
    std::thread ckptThread_;
    std::mutex ckptCvMu_;
    std::condition_variable ckptCv_;
    bool ckptStop_ = false; ///< guarded by ckptCvMu_
};

} // namespace cobra

#endif // COBRA_SERVER_BATCH_SERVER_H
