#include "src/kernels/degree_count.h"

#include "src/core/ccache.h"
#include "src/kernels/pipelines.h"
#include "src/pb/auto_tune.h"
#include "src/pb/parallel_pb.h"

namespace cobra {

namespace {

void
addCounts(uint32_t &dst, const uint32_t &src)
{
    dst += src;
}

} // namespace

DegreeCountKernel::DegreeCountKernel(NodeId num_nodes, const EdgeList *el)
    : nodes(num_nodes), edges(el), deg(num_nodes, 0), ref(num_nodes, 0)
{
    // The certification reference is countDegreesRef() counted straight
    // into 32-bit words: the same values, without a 64-bit vector twice
    // the size to build and then narrow.
    for (const Edge &e : *el)
        ++ref[e.src];
}

void
DegreeCountKernel::resetOutput()
{
    deg.assign(nodes, 0);
    // Health reflects the *most recent* run: any technique starts clean.
    pbHealth = Status::Ok();
    pbOverflow = 0;
    pbDirection = PbDirection::kPush;
}

const CsrGraph &
DegreeCountKernel::pullView()
{
    if (!pullCsr)
        pullCsr = std::make_unique<CsrGraph>(
            CsrGraph::build(nodes, *edges));
    return *pullCsr;
}

void
DegreeCountKernel::runBaseline(ExecCtx &ctx, PhaseRecorder &rec)
{
    resetOutput();
    rec.begin(ctx, phase::kCompute);
    for (const Edge &e : *edges) {
        ctx.load(&e, sizeof(Edge)); // streaming edge read
        ctx.instr(2);               // address arithmetic + loop
        ctx.load(&deg[e.src], 4);   // irregular read-modify-write
        ++deg[e.src];
        ctx.store(&deg[e.src], 4);
    }
    rec.end(ctx);
}

void
DegreeCountKernel::runPb(ExecCtx &ctx, PhaseRecorder &rec,
                         uint32_t max_bins)
{
    resetOutput();
    BinningPlan plan = BinningPlan::forMaxBins(nodes, max_bins);
    runPbPipeline<NoPayload>(
        ctx, rec, plan,
        [&](auto &&emit) {
            for (const Edge &e : *edges) {
                ctx.load(&e.src, 4);
                ctx.instr(1);
                emit(e.src);
            }
        },
        [&](auto &&emit) {
            for (const Edge &e : *edges) {
                ctx.load(&e.src, 4);
                ctx.instr(1);
                emit(e.src, NoPayload{});
            }
        },
        [&](const BinTuple<NoPayload> &t) {
            ctx.instr(1);
            ctx.load(&deg[t.index], 4);
            ++deg[t.index];
            ctx.store(&deg[t.index], 4);
        });
}

void
DegreeCountKernel::runPbParallel(ThreadPool &pool, PhaseRecorder &rec,
                                 uint32_t max_bins,
                                 const PbEngineConfig &engine)
{
    resetOutput();
    BinningPlan plan = BinningPlan::forMaxBins(nodes, max_bins);
    ParallelPbRunner<NoPayload> runner(pool, plan, engine);
    const EdgeList &el = *edges;
    pbDirection = resolvePbDirection(engine.direction, el.size(), nodes,
                                     hostCacheBudget());
    if (pbDirection == PbDirection::kPull) {
        // Pull: gather from the destination-indexed view instead of
        // binning. Counting a row is exactly summing its stream-order
        // updates, so the result matches push bit-for-bit.
        const CsrGraph &view = pullView();
        runner.runPull(el.size(), rec,
                       [this, &view](uint64_t lo, uint64_t hi) {
                           uint64_t applied = 0;
                           for (uint64_t v = lo; v < hi; ++v) {
                               const uint32_t d = static_cast<uint32_t>(
                                   view.degree(static_cast<NodeId>(v)));
                               deg[v] += d;
                               applied += d;
                           }
                           return applied;
                       });
        pbHealth = runner.conservation();
        pbOverflow = runner.overflowTuples();
        return;
    }
    // Degree counting is a commutative sum, so it also supplies the
    // privatized-reduction ops: under skewAdaptive a hot bin's tuples
    // may be counted into per-sub-range uint32_t slots and folded back
    // with += in fixed order (identical totals, any schedule).
    runner.run<uint32_t>(
        el.size(), rec, [&el](size_t i) { return el[i].src; },
        [&el](size_t i) {
            return std::pair<uint32_t, NoPayload>(el[i].src, NoPayload{});
        },
        // Bin-partitioned Accumulate: deg[t.index] is touched only by
        // the thread owning t.index's bin, so a plain increment is safe.
        [this](const BinTuple<NoPayload> &t) { ++deg[t.index]; },
        [](const BinTuple<NoPayload> &, uint32_t &slot) { ++slot; },
        [this](uint32_t index, const uint32_t &slot) {
            deg[index] += slot;
        });
    pbHealth = runner.conservation();
    pbOverflow = runner.overflowTuples();
}

void
DegreeCountKernel::runCobra(ExecCtx &ctx, PhaseRecorder &rec,
                            const CobraConfig &cfg)
{
    resetOutput();
    if (cfg.coalesceAtLlc) {
        // COBRA-COMM: 8B (index, count) tuples coalesced at the LLC.
        runCobraPipeline<uint32_t>(
            ctx, rec, cfg, nodes, &addCounts,
            [&](auto &&emit) {
                for (const Edge &e : *edges) {
                    ctx.load(&e.src, 4);
                    ctx.instr(1);
                    emit(e.src);
                }
            },
            [&](auto &&emit) {
                for (const Edge &e : *edges) {
                    ctx.load(&e.src, 4);
                    ctx.instr(1);
                    emit(e.src, 1u);
                }
            },
            [&](const BinTuple<uint32_t> &t) {
                ctx.instr(1);
                ctx.load(&deg[t.index], 4);
                deg[t.index] += t.payload;
                ctx.store(&deg[t.index], 4);
            });
        return;
    }
    runCobraPipeline<NoPayload>(
        ctx, rec, cfg, nodes, nullptr,
        [&](auto &&emit) {
            for (const Edge &e : *edges) {
                ctx.load(&e.src, 4);
                ctx.instr(1);
                emit(e.src);
            }
        },
        [&](auto &&emit) {
            for (const Edge &e : *edges) {
                ctx.load(&e.src, 4);
                ctx.instr(1);
                emit(e.src, NoPayload{});
            }
        },
        [&](const BinTuple<NoPayload> &t) {
            ctx.instr(1);
            ctx.load(&deg[t.index], 4);
            ++deg[t.index];
            ctx.store(&deg[t.index], 4);
        });
}

void
DegreeCountKernel::runPhi(ExecCtx &ctx, PhaseRecorder &rec,
                          uint32_t max_bins)
{
    resetOutput();
    BinningPlan plan = BinningPlan::forMaxBins(nodes, max_bins);
    runPhiPipeline<uint32_t>(
        ctx, rec, plan, &addCounts,
        [&](auto &&emit) {
            for (const Edge &e : *edges) {
                ctx.load(&e.src, 4);
                ctx.instr(1);
                emit(e.src);
            }
        },
        [&](auto &&emit) {
            for (const Edge &e : *edges) {
                ctx.load(&e.src, 4);
                ctx.instr(1);
                emit(e.src, 1u);
            }
        },
        [&](const BinTuple<uint32_t> &t) {
            ctx.instr(1);
            ctx.load(&deg[t.index], 4);
            deg[t.index] += t.payload;
            ctx.store(&deg[t.index], 4);
        });
}

void
DegreeCountKernel::runCCache(ExecCtx &ctx, PhaseRecorder &rec,
                             const CobraConfig &cfg)
{
    resetOutput();
    // One pass: updates coalesce in the privatized buffer; evictions
    // and the final flush apply merged counts as direct irregular RMWs
    // (CCache keeps the baseline's access pattern for what survives).
    CCacheModel<uint32_t> cc(
        ctx, &addCounts,
        [this](ExecCtx &c, uint32_t index, const uint32_t &count) {
            c.instr(1);
            c.load(&deg[index], 4);
            deg[index] += count;
            c.store(&deg[index], 4);
        },
        cfg);
    rec.begin(ctx, phase::kCompute);
    for (const Edge &e : *edges) {
        ctx.load(&e.src, 4);
        ctx.instr(1);
        cc.update(ctx, e.src, 1u);
    }
    cc.flush(ctx);
    rec.end(ctx);
    if (!cc.conserved())
        pbHealth = Status(ErrorCode::kDataLoss,
                          "CCache lost updates: applied + coalesced != "
                          "emitted");
}

bool
DegreeCountKernel::verify() const
{
    return deg == ref;
}

std::optional<Divergence>
DegreeCountKernel::firstDivergence() const
{
    for (NodeId v = 0; v < nodes; ++v) {
        if (deg[v] != ref[v]) {
            Divergence d;
            d.element = v;
            d.expected = std::to_string(ref[v]);
            d.actual = std::to_string(deg[v]);
            d.detail = "degree of vertex " + std::to_string(v);
            return d;
        }
    }
    return std::nullopt;
}

} // namespace cobra
