#include "perfbench/src/workloads.h"

#include <algorithm>
#include <cstring>

#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/kernels/pagerank.h"
#include "src/sparse/coo.h"
#include "src/sparse/csr_matrix.h"
#include "src/sparse/reference.h"
#include "src/util/fnv.h"

namespace perfbench {

using namespace cobra;

namespace {

// run_large
constexpr uint64_t kLargeUpdates = uint64_t{1} << 22;
constexpr NodeId kLargeIndices = NodeId{1} << 23;
constexpr uint32_t kLargeBins = 4096;
constexpr uint32_t kLargeStreams = 4;

// mixed_small
constexpr uint64_t kSmallUpdates = uint64_t{1} << 15;
constexpr NodeId kSmallIndices = NodeId{1} << 16;
constexpr uint32_t kSmallBins = 256;
constexpr uint32_t kSmallTenants = 8;
constexpr ServerKernel kSmallKernels[] = {
    ServerKernel::kDegreeCount, ServerKernel::kNeighborPopulate,
    ServerKernel::kPagerank, ServerKernel::kSpmv};

// mutate_durable
constexpr uint32_t kMutateTenants = 2;
constexpr uint64_t kPreloadOps = uint64_t{3} << 20;
constexpr uint64_t kPreloadBatchOps = uint64_t{1} << 20;
constexpr uint64_t kBatchOps = 256;
constexpr uint64_t kStreamEdges = uint64_t{1} << 16;
constexpr uint32_t kMutateBins = 4096;

uint64_t
splitmix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Seed of stream @p index of workload @p w for run seed @p seed. */
uint64_t
streamSeed(uint64_t seed, Workload w, uint64_t index)
{
    return splitmix(splitmix(seed * 4 + static_cast<uint64_t>(w)) + index);
}

RequestFrame
frameFor(uint64_t tenant, ServerKernel kernel, NodeId indices,
         uint32_t bins, const EdgeList &edges)
{
    RequestFrame f;
    f.tenantId = tenant;
    f.kernel = kernel;
    f.engine = PbEngineKind::kWriteCombine;
    f.bins = bins;
    f.numIndices = indices;
    f.payload.reserve(edges.size() * 2);
    for (const Edge &e : edges) {
        f.payload.push_back(e.src);
        f.payload.push_back(e.dst);
    }
    return f;
}

EdgeList
edgesOf(const RequestFrame &f)
{
    EdgeList el;
    el.reserve(f.numUpdates());
    for (size_t i = 0; i + 1 < f.payload.size(); i += 2)
        el.push_back(Edge{f.payload[i], f.payload[i + 1]});
    return el;
}

uint64_t
countFingerprint(const RequestFrame &f)
{
    std::vector<uint32_t> deg(f.numIndices, 0);
    for (size_t i = 0; i + 1 < f.payload.size(); i += 2)
        ++deg[f.payload[i]];
    return fnv1a(deg.data(), deg.size());
}

/**
 * One PageRank iteration in push order: every destination sums its
 * contributions in out-CSR order, the order the served kernel applies
 * (its push and pull paths are bit-identical by contract).
 */
uint64_t
pagerankFingerprint(const RequestFrame &f)
{
    const NodeId n = static_cast<NodeId>(f.numIndices);
    const CsrGraph out = CsrGraph::build(n, edgesOf(f));
    const float init = 1.0f / static_cast<float>(n);
    std::vector<float> contrib(n), sums(n, 0.0f);
    for (NodeId u = 0; u < n; ++u) {
        const auto d = out.degree(u);
        contrib[u] = d ? init / static_cast<float>(d) : 0.0f;
    }
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v : out.neighbors(u))
            sums[v] += contrib[u];
    const float base =
        (1.0f - PagerankKernel::kDamping) / static_cast<float>(n);
    std::vector<uint32_t> w(n);
    for (NodeId v = 0; v < n; ++v) {
        const float next = base + PagerankKernel::kDamping * sums[v];
        std::memcpy(&w[v], &next, sizeof(float));
    }
    return fnv1a(w.data(), w.size());
}

/**
 * y = A x in A^T stream order, with the values and x the server derives
 * from positions (the wire carries only the sparsity pattern).
 */
uint64_t
spmvFingerprint(const RequestFrame &f)
{
    const NodeId n = static_cast<NodeId>(f.numIndices);
    CooMatrix coo;
    coo.numRows = n;
    coo.numCols = n;
    for (size_t i = 0; i + 1 < f.payload.size(); i += 2)
        coo.add(f.payload[i], f.payload[i + 1],
                1.0 + static_cast<double>((i / 2) % 13) * 0.125);
    const CsrMatrix at = transposeRef(CsrMatrix::fromCoo(coo));
    std::vector<double> x(n), y(n, 0.0);
    for (NodeId j = 0; j < n; ++j)
        x[j] = 0.5 + static_cast<double>(j % 9) * 0.25;
    const auto &col = at.colIdxArray();
    const auto &val = at.valsArray();
    for (uint32_t c = 0; c < at.numRows(); ++c)
        for (uint64_t i = at.rowStart(c); i < at.rowEnd(c); ++i)
            y[col[i]] += val[i] * x[c];
    std::vector<uint32_t> w(y.size() * 2);
    std::memcpy(w.data(), y.data(), y.size() * sizeof(double));
    return fnv1a(w.data(), w.size());
}

/** Serial-reference fingerprint of a kRun frame's response. */
uint64_t
referenceFingerprint(const RequestFrame &f)
{
    switch (f.kernel) {
      case ServerKernel::kDegreeCount:
      case ServerKernel::kNeighborPopulate:
        // np answers the degree sequence of the CSR it built, which is
        // the per-source edge count.
        return countFingerprint(f);
      case ServerKernel::kPagerank: return pagerankFingerprint(f);
      case ServerKernel::kSpmv: return spmvFingerprint(f);
    }
    return 0;
}

RequestFrame
mutateProto(const MutTenant &t)
{
    RequestFrame f;
    f.tenantId = t.id;
    f.kernel = ServerKernel::kDegreeCount;
    f.engine = PbEngineKind::kWriteCombine;
    f.op = RequestOp::kMutate;
    f.bins = kMutateBins;
    f.numIndices = kMutateVertices;
    return f;
}

} // namespace

std::optional<Workload>
workloadFromName(std::string_view name)
{
    if (name == "run_large")
        return Workload::kRunLarge;
    if (name == "mixed_small")
        return Workload::kMixedSmall;
    if (name == "mutate_durable")
        return Workload::kMutateDurable;
    return std::nullopt;
}

const char *
to_string(Kind k)
{
    switch (k) {
      case Kind::kDegree: return "degree";
      case Kind::kNp: return "np";
      case Kind::kPagerank: return "pagerank";
      case Kind::kSpmv: return "spmv";
      case Kind::kMutate: return "mutate";
      case Kind::kSnapshot: return "snapshot";
    }
    return "unknown";
}

Kind
kindOf(const RequestFrame &f)
{
    if (f.op == RequestOp::kMutate)
        return Kind::kMutate;
    if (f.op == RequestOp::kSnapshot)
        return Kind::kSnapshot;
    switch (f.kernel) {
      case ServerKernel::kDegreeCount: return Kind::kDegree;
      case ServerKernel::kNeighborPopulate: return Kind::kNp;
      case ServerKernel::kPagerank: return Kind::kPagerank;
      case ServerKernel::kSpmv: return Kind::kSpmv;
    }
    return Kind::kDegree;
}

std::vector<std::string>
serverArgs(Workload w, const std::string &wal_dir)
{
    std::vector<std::string> a = {"--threads", "2", "--dispatchers", "2"};
    if (w == Workload::kMutateDurable) {
        a.insert(a.end(),
                 {"--wal-dir", wal_dir, "--fsync-policy", "always"});
    }
    return a;
}

Inputs
generateInputs(Workload w, uint64_t seed)
{
    Inputs in;
    in.workload = w;
    // One closed-loop connection: at most one request is in the server
    // at a time, so the time other guests take from this VM stretches
    // the run by the steal share /proc/stat reports (stolenShare) and
    // not more, and no request waits behind another of the benchmark's.
    in.connections = 1;
    switch (w) {
      case Workload::kRunLarge:
        for (uint32_t s = 0; s < kLargeStreams; ++s)
            in.runFrames.push_back(RunFrame{
                frameFor(s % in.connections + 1, ServerKernel::kDegreeCount,
                         kLargeIndices, kLargeBins,
                         generateRmatStream(kLargeIndices, kLargeUpdates,
                                            streamSeed(seed, w, s))),
                0});
        break;
      case Workload::kMixedSmall:
        for (uint32_t t = 0; t < kSmallTenants; ++t) {
            const EdgeList el = generateRmatStream(
                kSmallIndices, kSmallUpdates, streamSeed(seed, w, t));
            for (ServerKernel k : kSmallKernels)
                in.runFrames.push_back(RunFrame{
                    frameFor(t + 1, k, kSmallIndices, kSmallBins, el), 0});
        }
        break;
      case Workload::kMutateDurable:
        for (uint32_t t = 0; t < kMutateTenants; ++t) {
            MutTenant mt;
            mt.id = t + 1;
            mt.preload = generateRmatStream(kMutateVertices, kPreloadOps,
                                            streamSeed(seed, w, 2 * t));
            mt.stream = generateRmatStream(kMutateVertices, kStreamEdges,
                                           streamSeed(seed, w, 2 * t + 1));
            in.tenants.push_back(std::move(mt));
        }
        break;
    }
    for (RunFrame &rf : in.runFrames)
        rf.frame.requestId = rf.frame.tenantId;
    return in;
}

void
computeExpected(Inputs &in)
{
    for (RunFrame &rf : in.runFrames)
        rf.expected = referenceFingerprint(rf.frame);
}

const RunFrame &
runFrameFor(const Inputs &in, uint32_t conn, uint64_t i)
{
    if (in.workload == Workload::kMixedSmall) {
        // Each connection cycles through the four kernels and walks
        // the tenants, so every kernel and tenant sees steady traffic.
        const uint64_t kernel = (i + conn) % 4;
        const uint64_t tenant = (i / 4 + 2 * conn) % kSmallTenants;
        return in.runFrames[tenant * 4 + kernel];
    }
    return in.runFrames[(i * in.connections + conn) % in.runFrames.size()];
}

RunFrame
probeFrame()
{
    EdgeList el;
    for (NodeId i = 0; i < 64; ++i)
        el.push_back(Edge{(i * 7) % 64, i});
    RunFrame rf{frameFor(uint64_t{1} << 20, ServerKernel::kDegreeCount, 64,
                         16, el),
                0};
    rf.expected = referenceFingerprint(rf.frame);
    return rf;
}

std::vector<RequestFrame>
preloadFrames(const MutTenant &t)
{
    std::vector<RequestFrame> out;
    for (uint64_t lo = 0; lo < t.preload.size(); lo += kPreloadBatchOps) {
        RequestFrame f = mutateProto(t);
        f.requestId = out.size() + 1;
        const uint64_t hi =
            std::min<uint64_t>(t.preload.size(), lo + kPreloadBatchOps);
        f.payload.reserve(2 * (hi - lo));
        for (uint64_t i = lo; i < hi; ++i) {
            f.payload.push_back(t.preload[i].src);
            f.payload.push_back(t.preload[i].dst);
        }
        out.push_back(std::move(f));
    }
    return out;
}

RequestFrame
mutateFrame(const MutTenant &t, uint64_t b)
{
    RequestFrame f = mutateProto(t);
    f.requestId = (uint64_t{1} << 32) + b;
    f.payload.reserve(2 * kBatchOps);
    const uint64_t n = t.stream.size();
    for (uint64_t j = 0; j < kBatchOps; ++j) {
        const uint64_t pos = b * kBatchOps + j;
        if (j % 4 == 3 && b > 0) {
            const Edge &d = t.stream[(pos - kBatchOps) % n];
            f.payload.push_back(d.src | kMutateDeleteBit);
            f.payload.push_back(d.dst);
        } else {
            const Edge &e = t.stream[pos % n];
            f.payload.push_back(e.src);
            f.payload.push_back(e.dst);
        }
    }
    return f;
}

RequestFrame
snapshotFrame(const MutTenant &t)
{
    RequestFrame f = mutateProto(t);
    f.op = RequestOp::kSnapshot;
    f.requestId = uint64_t{1} << 40;
    return f;
}

MutationBatch
batchOf(const RequestFrame &f)
{
    MutationBatch batch;
    batch.ops.reserve(f.numUpdates());
    for (size_t i = 0; i + 1 < f.payload.size(); i += 2) {
        const uint32_t sw = f.payload[i];
        batch.ops.push_back(MutationBatch::Op{sw & ~kMutateDeleteBit,
                                              f.payload[i + 1],
                                              (sw & kMutateDeleteBit) != 0});
    }
    return batch;
}

uint64_t
degreeFingerprint(const DynamicGraph &g)
{
    std::vector<uint32_t> w(g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        w[v] = static_cast<uint32_t>(g.degree(v));
    return fnv1a(w.data(), w.size());
}

} // namespace perfbench
