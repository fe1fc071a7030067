/**
 * @file
 * The benchmark's three workloads: what traffic each sends, how it is
 * generated from the seed, and the reference answers it is checked
 * against. perfbench/README.md explains why each workload exists.
 *
 * Every workload drives the server through one closed-loop connection.
 *
 *  - run_large: kRun degree requests of 2^22 RMAT updates over 2^23
 *    indices (wc engine, 4096 bins), drawn from a few streams.
 *  - mixed_small: kRun requests of 2^15 RMAT updates over 2^16 indices
 *    (wc, 256 bins) over 8 tenants, cycling through the degree / np /
 *    pagerank / spmv kernels.
 *  - mutate_durable: 2 tenants (2^20 vertices, ~3 M preloaded edges
 *    each) taking turns; each tenant's stream is 256-op kMutate batches
 *    with a kSnapshot after every 8th, against a server that fsyncs its
 *    WAL on every batch.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/dynamic_graph.h"
#include "src/graph/types.h"
#include "src/server/frame.h"

namespace perfbench {

enum class Workload
{
    kRunLarge,
    kMixedSmall,
    kMutateDurable,
};

std::optional<Workload> workloadFromName(std::string_view name);

/** What one request asks for, for per-kind statistics. */
enum class Kind : uint8_t
{
    kDegree,
    kNp,
    kPagerank,
    kSpmv,
    kMutate,
    kSnapshot,
};

const char *to_string(Kind k);

Kind kindOf(const cobra::RequestFrame &f);

/** A prebuilt kRun frame and the fingerprint its response must carry. */
struct RunFrame
{
    cobra::RequestFrame frame;
    uint64_t expected = 0;
};

/** One tenant's mutation traffic. */
struct MutTenant
{
    uint64_t id = 0;
    cobra::EdgeList preload; ///< inserted in large batches during set-up
    cobra::EdgeList stream;  ///< inserts of the timed 256-op batches
};

/** Every input of a run, generated from the seed. */
struct Inputs
{
    Workload workload = Workload::kRunLarge;
    uint32_t connections = 0;
    std::vector<RunFrame> runFrames; ///< run_large / mixed_small
    std::vector<MutTenant> tenants;  ///< mutate_durable
};

/** cobra_server arguments beyond --socket. */
std::vector<std::string> serverArgs(Workload w, const std::string &wal_dir);

/** Generate every request payload from @p seed (timed as set-up). */
Inputs generateInputs(Workload w, uint64_t seed);

/**
 * Fill RunFrame::expected from each kernel's serial reference,
 * computed here from the request payload alone (untimed).
 */
void computeExpected(Inputs &in);

/** The frame connection @p conn sends as its @p i-th run request. */
const RunFrame &runFrameFor(const Inputs &in, uint32_t conn, uint64_t i);

/** A tiny kRun request (and its fingerprint) used as a liveness probe. */
RunFrame probeFrame();

// --- mutate_durable ---------------------------------------------------

inline constexpr uint32_t kSnapshotEvery = 8; ///< batches per snapshot

/** The connection's request @p i goes to tenant i % tenants, as request
 * i / tenants of that tenant's stream. */
inline uint64_t
tenantOf(uint64_t i, size_t tenants)
{
    return i % tenants;
}

inline uint64_t
streamIndex(uint64_t i, size_t tenants)
{
    return i / tenants;
}

/** Whether request @p i of a tenant's stream is a kSnapshot; otherwise
 * it is mutation batch mutateIndex(i). */
inline bool
isSnapshotSlot(uint64_t i)
{
    return i % (kSnapshotEvery + 1) == kSnapshotEvery;
}

inline uint64_t
mutateIndex(uint64_t i)
{
    return i - i / (kSnapshotEvery + 1);
}

/** Set-up batches that insert @p t's preload edges. */
std::vector<cobra::RequestFrame> preloadFrames(const MutTenant &t);

/** Timed batch @p b: 256 ops, every 4th deleting an edge of batch b-1. */
cobra::RequestFrame mutateFrame(const MutTenant &t, uint64_t b);

cobra::RequestFrame snapshotFrame(const MutTenant &t);

/** The mutation batch a kMutate frame carries (as the server decodes it). */
cobra::MutationBatch batchOf(const cobra::RequestFrame &f);

/** What a degree-kernel kMutate response carries for graph @p g. */
uint64_t degreeFingerprint(const cobra::DynamicGraph &g);

/** Vertices of each mutable tenant graph. */
inline constexpr cobra::NodeId kMutateVertices = cobra::NodeId{1} << 20;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
