#include "src/graph/dynamic_graph.h"

#include <algorithm>
#include <sstream>

#include "src/check/fault_injector.h"
#include "src/graph/builder.h"
#include "src/pb/bin_range.h"
#include "src/pb/parallel_pb.h"
#include "src/util/fnv.h"
#include "src/util/rng.h"

namespace cobra {

namespace {

/** One live edge's term in edgeSetHash(). */
uint64_t
edgeMix(NodeId src, NodeId dst)
{
    return mix64(uint64_t{src} << 32 | dst);
}

} // namespace

DynamicGraph::DynamicGraph(NodeId num_nodes)
    : nodes_(num_nodes), delta_(num_nodes), degree_(num_nodes, 0)
{
    base_ = std::make_shared<const CsrGraph>(
        std::vector<EdgeOffset>(num_nodes + 1, 0), std::vector<NodeId>{});
    edgeSetHash_ = baseEdgeSetHash();
}

DynamicGraph::DynamicGraph(NodeId num_nodes, const EdgeList &base)
    : nodes_(num_nodes), delta_(num_nodes), degree_(num_nodes, 0)
{
    base_ = std::make_shared<const CsrGraph>(
        buildSortedDedupRef(num_nodes, base));
    for (NodeId v = 0; v < nodes_; ++v)
        degree_[v] = base_->degree(v);
    liveEdges_ = base_->numEdges();
    edgeSetHash_ = baseEdgeSetHash();
}

DynamicGraph::DynamicGraph(CsrGraph base)
    : nodes_(base.numNodes()), delta_(base.numNodes()),
      degree_(base.numNodes(), 0)
{
    for (NodeId v = 0; v < nodes_; ++v) {
        const auto row = base.neighbors(v);
        for (size_t i = 1; i < row.size(); ++i)
            COBRA_THROW_IF(row[i - 1] >= row[i], ErrorCode::kCorruptFile,
                           "adopted CSR row " << v
                               << " is not sorted+unique at position "
                               << i << " — refusing a base snapshot "
                                  "that breaks the merge invariants");
    }
    base_ = std::make_shared<const CsrGraph>(std::move(base));
    for (NodeId v = 0; v < nodes_; ++v)
        degree_[v] = base_->degree(v);
    liveEdges_ = base_->numEdges();
    edgeSetHash_ = baseEdgeSetHash();
}

uint64_t
DynamicGraph::baseEdgeSetHash() const
{
    uint64_t h = 0;
    for (NodeId v = 0; v < nodes_; ++v)
        for (NodeId dst : base_->neighbors(v))
            h += edgeMix(v, dst);
    return h;
}

template <typename Fn>
void
DynamicGraph::forEachLiveNeighbor(NodeId v, Fn &&fn) const
{
    const auto row = base_->neighbors(v);
    const auto &d = delta_[v];
    if (d.empty()) { // the common row: nothing to merge
        for (NodeId dst : row)
            fn(dst);
        return;
    }
    size_t bi = 0, di = 0;
    while (bi < row.size() || di < d.size()) {
        if (di == d.size() || (bi < row.size() && row[bi] < d[di].dst)) {
            fn(row[bi++]);
        } else if (bi == row.size() || d[di].dst < row[bi]) {
            // Delta-only entry: a non-tombstone insert (a tombstone
            // always shadows a base edge, so it cannot be delta-only).
            if (!d[di].tomb)
                fn(d[di].dst);
            ++di;
        } else {
            // Same dst on both sides: the delta entry is a tombstone
            // (an insert over a live base edge dedups, never lands).
            if (!d[di].tomb)
                fn(row[bi]);
            ++bi;
            ++di;
        }
    }
}

bool
DynamicGraph::baseHasEdge(NodeId src, NodeId dst) const
{
    const auto row = base_->neighbors(src);
    return std::binary_search(row.begin(), row.end(), dst);
}

bool
DynamicGraph::hasEdge(NodeId src, NodeId dst) const
{
    const auto &d = delta_[src];
    auto it = std::lower_bound(
        d.begin(), d.end(), dst,
        [](const DeltaEntry &e, NodeId v) { return e.dst < v; });
    if (it != d.end() && it->dst == dst)
        return !it->tomb;
    return baseHasEdge(src, dst);
}

std::vector<NodeId>
DynamicGraph::liveNeighbors(NodeId v) const
{
    std::vector<NodeId> out;
    out.reserve(static_cast<size_t>(degree_[v]));
    forEachLiveNeighbor(v, [&out](NodeId dst) { out.push_back(dst); });
    return out;
}

DynamicGraph::OpOutcome
DynamicGraph::applyOp(NodeId src, NodeId dst, bool remove)
{
    auto &d = delta_[src];
    auto it = std::lower_bound(
        d.begin(), d.end(), dst,
        [](const DeltaEntry &e, NodeId v) { return e.dst < v; });
    const bool in_delta = it != d.end() && it->dst == dst;
    const bool in_base = baseHasEdge(src, dst);
    const bool alive = in_delta ? !it->tomb : in_base;

    if (!remove) {
        if (alive)
            return kOutcomeDeduped;
        if (in_delta)
            d.erase(it); // erase the tombstone: back to the base edge
        else
            d.insert(it, DeltaEntry{dst, false});
        ++degree_[src];
        return kOutcomeInserted;
    }
    if (!alive)
        return kOutcomeRejected;
    if (in_delta)
        d.erase(it); // delta-only insert: drop the entry
    else
        d.insert(it, DeltaEntry{dst, true}); // tombstone a base edge
    --degree_[src];
    return kOutcomeRemoved;
}

void
DynamicGraph::saveUndo(const MutationBatch &batch)
{
    undo_ = Undo{};
    for (const MutationBatch::Op &op : batch.ops)
        undo_.srcs.push_back(op.src);
    std::sort(undo_.srcs.begin(), undo_.srcs.end());
    undo_.srcs.erase(std::unique(undo_.srcs.begin(), undo_.srcs.end()),
                     undo_.srcs.end());
    for (NodeId s : undo_.srcs) {
        undo_.rows.push_back(delta_[s]);
        undo_.degrees.push_back(degree_[s]);
    }
    undo_.liveEdges = liveEdges_;
    undo_.deltaEntries = deltaEntries_;
    undo_.edgeSetHash = edgeSetHash_;
    undo_.armed = true;
}

void
DynamicGraph::rollbackLastBatch()
{
    COBRA_THROW_IF(!undo_.armed, ErrorCode::kFailedPrecondition,
                   "no mutation batch to roll back");
    for (size_t i = 0; i < undo_.srcs.size(); ++i) {
        delta_[undo_.srcs[i]] = std::move(undo_.rows[i]);
        degree_[undo_.srcs[i]] = undo_.degrees[i];
    }
    liveEdges_ = undo_.liveEdges;
    deltaEntries_ = undo_.deltaEntries;
    edgeSetHash_ = undo_.edgeSetHash;
    undo_ = Undo{};
}

BatchResult
DynamicGraph::reduceOutcomes(const MutationBatch &batch,
                             const std::vector<uint8_t> &outcomes)
{
    BatchResult r;
    uint64_t lost = 0;
    uint64_t hash = undo_.edgeSetHash;
    std::vector<NodeId> dsts, srcs;
    for (size_t i = 0; i < batch.ops.size(); ++i) {
        const MutationBatch::Op &op = batch.ops[i];
        switch (outcomes[i]) {
          case kOutcomeInserted:
            ++r.inserted;
            hash += edgeMix(op.src, op.dst);
            break;
          case kOutcomeRemoved:
            ++r.removed;
            hash -= edgeMix(op.src, op.dst);
            break;
          case kOutcomeDeduped: ++r.deduped; continue;
          case kOutcomeRejected: ++r.rejected; continue;
          default: ++lost; continue;
        }
        dsts.push_back(op.dst);
        srcs.push_back(op.src);
    }
    std::sort(dsts.begin(), dsts.end());
    dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
    std::sort(srcs.begin(), srcs.end());
    srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
    r.affectedDsts = std::move(dsts);
    r.degreeChangedSrcs = std::move(srcs);

    liveEdges_ = undo_.liveEdges + r.inserted - r.removed;
    edgeSetHash_ = hash;
    for (size_t i = 0; i < undo_.srcs.size(); ++i) // only rows it touched
        deltaEntries_ += delta_[undo_.srcs[i]].size() - undo_.rows[i].size();

    if (lost != 0 && health_.ok()) {
        std::ostringstream oss;
        oss << "mutation batch lost " << lost << " of "
            << batch.ops.size() << " ops (never applied)";
        health_ = Status(ErrorCode::kDataLoss, oss.str());
    }
    return r;
}

BatchResult
DynamicGraph::applyBatch(const MutationBatch &batch)
{
    health_ = Status::Ok();
    saveUndo(batch);
    std::vector<uint8_t> outcomes(batch.ops.size(), kOutcomeLost);
    for (size_t i = 0; i < batch.ops.size(); ++i) {
        const MutationBatch::Op &op = batch.ops[i];
        outcomes[i] =
            static_cast<uint8_t>(applyOp(op.src, op.dst, op.remove));
    }
    return reduceOutcomes(batch, outcomes);
}

BatchResult
DynamicGraph::applyBatchParallel(ThreadPool &pool, PhaseRecorder &rec,
                                 const MutationBatch &batch,
                                 uint32_t max_bins,
                                 const PbEngineConfig &engine)
{
    health_ = Status::Ok();
    saveUndo(batch);
    if (batch.ops.empty())
        return BatchResult{};

    // The batch is an irregular-update stream keyed by source vertex:
    // bin it like any other. The payload is the op's stream position,
    // so Accumulate can look up the full op and record its outcome
    // into a disjoint slot (per-op bytes, per-source delta segments —
    // no two bins share either).
    BinningPlan plan = BinningPlan::forMaxBins(nodes_, max_bins);
    ParallelPbRunner<uint32_t> runner(pool, plan, engine);
    const auto &ops = batch.ops;
    std::vector<uint8_t> outcomes(ops.size(), kOutcomeLost);
    runner.run(
        ops.size(), rec, [&ops](size_t i) { return ops[i].src; },
        [&ops](size_t i) {
            return std::pair<uint32_t, uint32_t>(
                ops[i].src, static_cast<uint32_t>(i));
        },
        [this, &ops, &outcomes](const BinTuple<uint32_t> &t) {
            const MutationBatch::Op &op = ops[t.payload];
            outcomes[t.payload] =
                static_cast<uint8_t>(applyOp(op.src, op.dst, op.remove));
        });
    health_ = runner.conservation();
    BatchResult r = reduceOutcomes(batch, outcomes);
    // Each op lands on its own source row, so the undo image covers
    // whatever a dropped, duplicated, or skewed drain did.
    if (!health_.ok())
        rollbackLastBatch();
    return r;
}

uint64_t
DynamicGraph::mergeLiveEdges(EdgeList &out) const
{
    uint64_t emitted = 0;
    for (NodeId v = 0; v < nodes_; ++v) {
        uint64_t skip = 0;
        if (auto *fi = FaultInjector::active(); fi) [[unlikely]] {
            if (fi->fire(FaultSite::kPbStallAccumulate, v))
                fi->stall();
            if (fi->fire(FaultSite::kPbDropDrain, v))
                continue; // dropped merge: the whole vertex vanishes
            if (fi->fire(FaultSite::kBinOffsetSkew, v))
                skip = fi->skewAmount(); // skewed merge: head lost
        }
        forEachLiveNeighbor(v, [&](NodeId dst) {
            if (skip > 0) {
                --skip;
                return;
            }
            out.push_back(Edge{v, dst});
            ++emitted;
        });
    }
    return emitted;
}

CsrGraph
DynamicGraph::snapshotCsr() const
{
    std::vector<EdgeOffset> offsets(nodes_ + 1, 0);
    for (NodeId v = 0; v < nodes_; ++v)
        offsets[v + 1] = offsets[v] + degree_[v];
    std::vector<NodeId> neighs;
    neighs.reserve(static_cast<size_t>(liveEdges_));
    for (NodeId v = 0; v < nodes_; ++v)
        forEachLiveNeighbor(v,
                            [&neighs](NodeId dst) { neighs.push_back(dst); });
    return CsrGraph(std::move(offsets), std::move(neighs));
}

uint64_t
DynamicGraph::snapshotFingerprint() const
{
    // Degree sequence first, then every neighbor in snapshot order,
    // hashed as the merge produces it: the word stream kSnapshot
    // hashes, without materializing it.
    Fnv1a h;
    for (NodeId v = 0; v < nodes_; ++v)
        h.add(static_cast<uint32_t>(degree_[v]));
    for (NodeId v = 0; v < nodes_; ++v)
        forEachLiveNeighbor(v, [&h](NodeId dst) { h.add(dst); });
    return h.value();
}

EdgeList
DynamicGraph::toEdgeList() const
{
    EdgeList el;
    el.reserve(static_cast<size_t>(liveEdges_));
    for (NodeId v = 0; v < nodes_; ++v)
        forEachLiveNeighbor(
            v, [&el, v](NodeId dst) { el.push_back(Edge{v, dst}); });
    return el;
}

bool
DynamicGraph::needsCompaction() const
{
    if (deltaEntries_ == 0)
        return false;
    const uint64_t base = std::max<uint64_t>(base_->numEdges(), 1);
    return static_cast<double>(deltaEntries_) >
           compactRatio_ * static_cast<double>(base);
}

Status
DynamicGraph::compact(ThreadPool &pool, PhaseRecorder &rec,
                      uint32_t max_bins, const PbEngineConfig &engine)
{
    if (deltaEntries_ == 0) {
        health_ = Status::Ok();
        return health_;
    }

    // Merge pass (fault-injectable): the live stream, sorted by source
    // and within each source. Any drop/skew shows up as a count
    // mismatch right here — typed, before the graph is touched.
    EdgeList merged;
    merged.reserve(static_cast<size_t>(liveEdges_));
    const uint64_t emitted = mergeLiveEdges(merged);
    if (emitted != liveEdges_) {
        std::ostringstream oss;
        oss << "compaction merge emitted " << emitted << " of "
            << liveEdges_ << " live edges";
        health_ = Status(ErrorCode::kDataLoss, oss.str());
        return health_;
    }

    // Scatter pass: the NeighborPopulate PB path. Per-source cursors
    // are bin-partitioned (only the owning thread bumps them), and the
    // runner's per-index stream-order guarantee means the sorted
    // stream lands as sorted adjacency — no post-sort.
    std::vector<EdgeOffset> offsets(nodes_ + 1, 0);
    for (NodeId v = 0; v < nodes_; ++v)
        offsets[v + 1] = offsets[v] + degree_[v];
    std::vector<EdgeOffset> cursor(offsets.begin(), offsets.end() - 1);
    std::vector<NodeId> neighs(merged.size());

    BinningPlan plan = BinningPlan::forMaxBins(nodes_, max_bins);
    ParallelPbRunner<NodeId> runner(pool, plan, engine);
    runner.run(
        merged.size(), rec,
        [&merged](size_t i) { return merged[i].src; },
        [&merged](size_t i) {
            return std::pair<uint32_t, NodeId>(merged[i].src,
                                               merged[i].dst);
        },
        [&cursor, &neighs](const BinTuple<NodeId> &t) {
            neighs[cursor[t.index]++] = t.payload;
        });
    if (Status s = runner.conservation(); !s.ok()) {
        health_ = s;
        return health_;
    }
    // Post-invariants: every cursor exhausted its range, every
    // neighborhood is strictly ascending (sorted + deduplicated), and
    // the edge multiset is unchanged (edgeSetHash_ must not move). A
    // violation here means a scatter seam lost, reordered, or
    // rewrote tuples in a way the runner's totals did not catch.
    uint64_t hash = 0;
    for (NodeId v = 0; v < nodes_; ++v) {
        if (cursor[v] != offsets[v + 1]) {
            std::ostringstream oss;
            oss << "compaction cursor for vertex " << v << " stopped at "
                << cursor[v] << ", expected " << offsets[v + 1];
            health_ = Status(ErrorCode::kDataLoss, oss.str());
            return health_;
        }
        for (EdgeOffset i = offsets[v]; i < offsets[v + 1]; ++i) {
            hash += edgeMix(v, neighs[i]);
            if (i > offsets[v] && neighs[i - 1] >= neighs[i]) {
                std::ostringstream oss;
                oss << "compaction produced unsorted adjacency at vertex "
                    << v;
                health_ = Status(ErrorCode::kDataLoss, oss.str());
                return health_;
            }
        }
    }
    if (hash != edgeSetHash_) {
        health_ = Status(ErrorCode::kDataLoss,
                         "compaction changed the live edge set "
                         "(edge-set hash moved)");
        return health_;
    }

    base_ = std::make_shared<const CsrGraph>(std::move(offsets),
                                             std::move(neighs));
    for (auto &d : delta_) {
        d.clear();
        d.shrink_to_fit();
    }
    deltaEntries_ = 0;
    undo_ = Undo{}; // the base moved: the pre-batch rows no longer apply
    ++compactions_;
    health_ = Status::Ok();
    return health_;
}

} // namespace cobra
