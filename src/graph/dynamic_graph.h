/**
 * @file
 * DynamicGraph: a mutable graph substrate built from sorted, mergeable
 * edge-range segments (ROADMAP item 2, the streaming/incremental arc).
 *
 * Representation: a base CSR snapshot whose neighbor lists are sorted
 * and deduplicated, plus one sorted delta segment per vertex holding
 * the edges inserted since the last compaction and tombstones for the
 * base edges deleted since then. A vertex's live adjacency is the
 * ordered merge of its base range with its delta segment — both sides
 * sorted, so every read (degree, liveNeighbors, snapshotCsr) is a
 * linear merge, never a re-sort.
 *
 * Mutations arrive as batches, and a batch of edge insert/delete ops
 * is itself an irregular-update stream keyed by source vertex — which
 * means the batch can be *binned* exactly like the paper's update
 * kernels. applyBatchParallel() routes the ops through
 * ParallelPbRunner: per-thread binners partition the ops by source
 * range, and the bin-partitioned Accumulate applies each source's ops
 * race-free (a delta segment is touched only by its bin's owner) in
 * global stream order (the runner drains bins shard 0..n-1 over
 * contiguous stream slices), so parallel application is
 * order-equivalent to the serial loop at every thread count.
 *
 * Compaction rides the same insight: merging the segments back into a
 * fresh CSR is exactly the NeighborPopulate PB pipeline — the merged
 * edge stream (sorted by source, sorted within a source) is binned and
 * scattered through per-source cursors, and the per-index stream-order
 * guarantee makes the produced adjacency come out sorted with no final
 * sort pass. Conservation is checked at every seam (runner verdict,
 * cursor-exhaustion, sortedness sweep) so an injected drop/stall/skew
 * in the merge or scatter surfaces as a typed kDataLoss, never as a
 * silently wrong graph.
 *
 * Accounting contract (the mutation conservation invariant the server
 * and soak gate enforce): for every batch,
 *     submitted ops == applied (inserted + removed) + deduped + rejected
 * where deduped = insert of an already-live edge and rejected = delete
 * of an edge that is not live.
 *
 * Two fingerprints of the live edge set: snapshotFingerprint() hashes
 * the ordered snapshot (O(V + E) per call), while edgeSetHash() is a
 * multiset hash (MSet-Add-Hash: a wrapping sum of one mix per edge)
 * maintained per batch. An insert adds its edge's mix and a delete
 * subtracts it, a commutative update that folds in any op, bin, or
 * thread order, so the hash costs a batch only what the batch
 * touches.
 */

#ifndef COBRA_GRAPH_DYNAMIC_GRAPH_H
#define COBRA_GRAPH_DYNAMIC_GRAPH_H

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/types.h"
#include "src/pb/engine_config.h"
#include "src/sim/phase_recorder.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace cobra {

/** One batch of edge mutations, applied in stream order per source. */
struct MutationBatch
{
    struct Op
    {
        NodeId src = 0;
        NodeId dst = 0;
        bool remove = false; ///< false = insert, true = delete
    };

    std::vector<Op> ops;

    size_t size() const { return ops.size(); }

    void
    insert(NodeId src, NodeId dst)
    {
        ops.push_back(Op{src, dst, false});
    }

    void
    remove(NodeId src, NodeId dst)
    {
        ops.push_back(Op{src, dst, true});
    }
};

/** Exact per-batch accounting plus the dirty sets incremental
 * recompute consumes. */
struct BatchResult
{
    uint64_t inserted = 0; ///< new live edges
    uint64_t removed = 0;  ///< live edges deleted (incl. tombstoned)
    uint64_t deduped = 0;  ///< inserts of already-live edges
    uint64_t rejected = 0; ///< deletes of edges that were not live

    /** Ops that changed the edge set. */
    uint64_t applied() const { return inserted + removed; }

    /** The conservation identity every batch must satisfy. */
    bool
    conserved(uint64_t submitted) const
    {
        return submitted == applied() + deduped + rejected;
    }

    /** Destinations of applied ops (sorted, unique): the vertices
     * whose in-edge sets changed. */
    std::vector<NodeId> affectedDsts;

    /** Sources of applied ops (sorted, unique): the vertices whose
     * out-degree (and hence Pagerank contribution) changed. */
    std::vector<NodeId> degreeChangedSrcs;
};

/** Base CSR + per-vertex tombstoned delta segments. Copyable (the
 * server's checkpoint captures a copy under the tenant lock); a copy
 * shares the immutable base CSR and copies only the deltas and the
 * cached degrees. */
class DynamicGraph
{
  public:
    /** Empty graph over [0, num_nodes). Every constructor computes
     * edgeSetHash() from scratch; the copy constructor copies it. */
    explicit DynamicGraph(NodeId num_nodes);

    /** Seed from an edge list; the base snapshot is the sorted,
     * deduplicated CSR of @p base (multi-edges collapse). */
    DynamicGraph(NodeId num_nodes, const EdgeList &base);

    /**
     * Adopt @p base as the graph (empty deltas) — the durability
     * layer's checkpoint-restore path. The CSR must already be sorted
     * and unique per row (snapshotCsr() output always is); anything
     * else throws kCorruptFile rather than seeding a graph whose
     * merge invariants are silently broken.
     */
    explicit DynamicGraph(CsrGraph base);

    NodeId numNodes() const { return nodes_; }

    /** Live edges (base minus tombstones plus delta inserts). */
    uint64_t numEdges() const { return liveEdges_; }

    /** Live out-degree of @p v (cached; O(1)). */
    EdgeOffset degree(NodeId v) const { return degree_[v]; }

    bool hasEdge(NodeId src, NodeId dst) const;

    /** Live adjacency of @p v: sorted, unique (base ∪ delta merge). */
    std::vector<NodeId> liveNeighbors(NodeId v) const;

    /**
     * Apply @p batch serially, op by op in stream order. The trusted
     * reference path applyBatchParallel() is certified against.
     */
    BatchResult applyBatch(const MutationBatch &batch);

    /**
     * Apply @p batch by binning its ops through ParallelPbRunner: the
     * ops are partitioned by source range and each bin's ops apply in
     * global stream order, so the result is identical to applyBatch()
     * at every thread count. Sets health() to the runner's
     * conservation verdict (kDataLoss on any dropped/duplicated op —
     * e.g. under an injected kPbDropDrain). All-or-nothing, like
     * compact(): on a health failure the batch is rolled back before
     * returning; a healthy apply stays undoable.
     */
    BatchResult applyBatchParallel(ThreadPool &pool, PhaseRecorder &rec,
                                   const MutationBatch &batch,
                                   uint32_t max_bins,
                                   const PbEngineConfig &engine = {});

    /**
     * Undo the last applyBatch()/applyBatchParallel(): restore each
     * source row it touched (delta segment, cached degree), the edge
     * totals, and edgeSetHash(), in O(touched rows). Valid until the
     * next apply or committed compaction; otherwise throws
     * kFailedPrecondition.
     */
    void rollbackLastBatch();

    /**
     * Full merged snapshot: offsets + sorted unique neighbor lists.
     * Byte-identical to buildSortedDedupRef() over the same live edge
     * multiset (the property test pins this).
     */
    CsrGraph snapshotCsr() const;

    /**
     * FNV-1a over the merged snapshot's degree sequence followed by
     * its neighbor array — the fingerprint kSnapshot serves
     * (ResponseFrame::resultChecksum), checkpoints store, and
     * version-1 WAL records stamp. Streams each row's base∪delta
     * merge straight into the hash (no per-row or V+E buffer), but it
     * is still O(V + E): a server writing version-2 WAL records
     * stamps edgeSetHash() instead. Deterministic across thread
     * counts and invariant under compaction, so a recovered replica
     * can be compared bit-for-bit against the no-crash run.
     */
    uint64_t snapshotFingerprint() const;

    /**
     * Multiset hash of the live edge set: the wrapping sum of
     * mix64(uint64(src) << 32 | dst) over live edges. Maintained per
     * batch in O(batch) (inserted ops add, removed ops subtract,
     * deduped and rejected ops leave it alone), unchanged by
     * compaction, restored by rollback — the stamp version-2 WAL
     * records carry. It is folded from each op's outcome code, not
     * re-read from the rows, so it certifies the applied-outcome
     * stream: a row that disagrees with its op's reported outcome
     * leaves it unchanged. Rows are checked against it only by
     * compact()'s sweep (and, per batch, by the server's
     * full-recompute certification of degrees). Order-free, so it
     * says nothing about adjacency layout; snapshotFingerprint()
     * still certifies that.
     */
    uint64_t edgeSetHash() const { return edgeSetHash_; }

    /** Live edges flattened in snapshot order (sorted by src, dst). */
    EdgeList toEdgeList() const;

    /**
     * Merge every delta segment back into the base CSR through the
     * NeighborPopulate PB path: the merged sorted edge stream is
     * binned by source and scattered through per-source cursors on
     * @p pool. On success the delta segments are empty, tombstones are
     * resolved, and the snapshot is unchanged. On any conservation
     * failure (runner verdict, cursor mismatch, unsorted adjacency —
     * all reachable under injected faults in the merge/scatter paths)
     * returns a typed kDataLoss and leaves the graph exactly as it
     * was: compaction is all-or-nothing.
     */
    Status compact(ThreadPool &pool, PhaseRecorder &rec,
                   uint32_t max_bins, const PbEngineConfig &engine = {});

    /** Pending delta entries (inserts + tombstones) across vertices. */
    uint64_t deltaEdges() const { return deltaEntries_; }

    /** Compactions that committed since construction. */
    uint64_t compactions() const { return compactions_; }

    /** delta/base ratio that triggers threshold compaction. */
    void setCompactionThreshold(double ratio) { compactRatio_ = ratio; }

    /** True when the delta share crossed the compaction threshold. */
    bool needsCompaction() const;

    /** Verdict of the last applyBatchParallel()/compact(). */
    Status health() const { return health_; }

  private:
    struct DeltaEntry
    {
        NodeId dst = 0;
        bool tomb = false; ///< true = tombstone over a base edge
    };

    enum OpOutcome : uint8_t
    {
        kOutcomeLost = 0, ///< never applied — conservation violation
        kOutcomeInserted,
        kOutcomeRemoved,
        kOutcomeDeduped,
        kOutcomeRejected,
    };

    /** Pre-batch image of the rows one batch can touch. */
    struct Undo
    {
        std::vector<NodeId> srcs; ///< sorted, unique batch sources
        std::vector<std::vector<DeltaEntry>> rows; ///< delta_[srcs[i]]
        std::vector<EdgeOffset> degrees;           ///< degree_[srcs[i]]
        uint64_t liveEdges = 0, deltaEntries = 0, edgeSetHash = 0;
        bool armed = false;
    };

    void saveUndo(const MutationBatch &batch);

    bool baseHasEdge(NodeId src, NodeId dst) const;

    /** Call @p fn(dst) for each live neighbor of @p v, ascending: the
     * linear base∪delta merge every read is built on. */
    template <typename Fn>
    void forEachLiveNeighbor(NodeId v, Fn &&fn) const;

    /** edgeSetHash() of the base CSR alone (constructors: no delta). */
    uint64_t baseEdgeSetHash() const;

    OpOutcome applyOp(NodeId src, NodeId dst, bool remove);

    /** Fold per-op outcomes into a BatchResult + counters; flags any
     * kOutcomeLost op into health_. */
    BatchResult reduceOutcomes(const MutationBatch &batch,
                               const std::vector<uint8_t> &outcomes);

    /**
     * Emit the live edge stream (sorted by src, sorted within src)
     * into @p out. Honors an active FaultInjector at vertex
     * granularity — kPbStallAccumulate stalls, kPbDropDrain drops a
     * vertex's merge, kBinOffsetSkew skips the head of one — so the
     * compaction fault matrix has a merge-path seam to hit. Returns
     * the number of edges emitted (a mismatch against liveEdges_ is
     * the caller's typed error).
     */
    uint64_t mergeLiveEdges(EdgeList &out) const;

    NodeId nodes_ = 0;
    /** Sorted + deduplicated. Never modified once built: constructors
     * and compact() replace the pointer, so copies share it. */
    std::shared_ptr<const CsrGraph> base_;
    std::vector<std::vector<DeltaEntry>> delta_;
    std::vector<EdgeOffset> degree_; ///< cached live out-degrees
    uint64_t liveEdges_ = 0;
    uint64_t deltaEntries_ = 0;
    uint64_t edgeSetHash_ = 0;
    uint64_t compactions_ = 0;
    double compactRatio_ = 0.25;
    Status health_;
    Undo undo_;
};

} // namespace cobra

#endif // COBRA_GRAPH_DYNAMIC_GRAPH_H
