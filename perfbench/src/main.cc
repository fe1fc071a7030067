/**
 * @file
 * perfbench — the serving benchmark's load generator (see perfbench/README.md).
 *
 *   perfbench --workload run_large|mixed_small|mutate_durable --seed N
 *             --seconds S --trace 0|1 --server PATH --workdir DIR
 *
 * Starts a real cobra_server, generates the workload's requests from the
 * seed, drives them over the unix socket through ServerClient from
 * closed-loop connections for S seconds, checks every answer against a
 * reference, and prints the metrics. The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
 * the metrics are the end-to-end ones; with --trace 1 the same traffic
 * is followed by the in-process traced replay (replay.h) and the
 * metrics are the per-layer ones. The exit status is nonzero when any
 * answer was wrong or missing.
 *
 * --plant-delay-every K (self-test only, never in a gated run) makes
 * every K-th mixed_small request carry a pb-delay-drain fault plan, a
 * known slowdown the regression gate must catch.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream> // TEMPDUMP
#include <cmath>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/host_probe.h"
#include "perfbench/src/load.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/server_process.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"
#include "src/check/fault_injector.h"

using namespace perfbench;
using cobra::Error;
using cobra::ErrorCode;
using cobra::RequestFrame;

namespace {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string server;
    std::string workdir;
    uint32_t plantEvery = 0;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload run_large|mixed_small|mutate_durable"
                 " --seed N --seconds S --trace 0|1\n"
                 "       --server PATH --workdir DIR"
                 " [--plant-delay-every K]\n";
    std::exit(2);
}

/** Set-ups per untraced run; setup_s is their median. mixed_small's
 * takes ~30 ms (no preload), so it can afford many. */
int
setupsFor(Workload w)
{
    return w == Workload::kMixedSmall ? 15 : 3;
}

/** Restarts per untraced run; restart_s is their median. A restart
 * without durable state takes ~5 ms and scatters by half of that from
 * one restart to the next, so it takes many. */
int
restartsFor(Workload w)
{
    return w == Workload::kMutateDurable ? 5 : 25;
}

/**
 * The tail percentile tail_ms reports: the highest that keeps at least
 * ten samples beyond it in a run. run_large's one connection completes
 * ~2 requests/s (~40 samples in 20 s), the others several hundred.
 */
double
tailQuantile(Workload w)
{
    return w == Workload::kRunLarge ? 0.75 : 0.9;
}

/**
 * Wall time as this VM would have seen it had the hypervisor stolen
 * none: @p wall_s less the share stolenShare() measured over the
 * interval. Every end-to-end timing is reported this way, because other
 * guests on the shared host stretch wall time by up to a half for
 * minutes at a time (README, End-to-end metrics).
 */
double
granted(double wall_s, const CpuTimes &from, const CpuTimes &to)
{
    return wall_s * (1.0 - stolenShare(from, to));
}

struct Paths
{
    std::string socket, wal, log, replayWal;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Per-layer metric names and units, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"server.frame_encode_ms", "ms"},
    {"server.frame_decode_ms", "ms"},
    {"server.frame_validate_ms", "ms"},
    {"server.frame_bytes", "count"},
    {"server.outside_run_ms", "ms"},
    {"server.inproc_call_ms", "ms"},
    {"server.queue_ms", "ms"},
    {"server.run_ms", "ms"},
    {"server.admission_reject_frac", "ratio"},
    {"snapshot.p50_ms", "ms"},
    {"resilience.supervised_run_ms", "ms"},
    {"resilience.attempts_per_request", "count"},
    {"resilience.degradations", "count"},
    {"pb.init_ms", "ms"},
    {"pb.binning_ms", "ms"},
    {"pb.accumulate_ms", "ms"},
    {"pb.updates_per_s", "1/s"},
    {"pb.bytes_computed", "bytes"},
    {"kernels.input_build_ms", "ms"},
    {"check.certify_ms", "ms"},
    {"graph.copy_ms", "ms"},
    {"graph.apply_ms", "ms"},
    {"graph.fingerprint_ms", "ms"},
    {"graph.compact_ms", "ms"},
    {"graph.compactions", "count"},
    {"graph.snapshot_csr_ms", "ms"},
    {"incremental.update_ms", "ms"},
    {"incremental.full_recompute_ms", "ms"},
    {"incremental.dirty_frac", "ratio"},
    {"durability.wal_append_ms", "ms"},
    {"durability.wal_bytes_per_op", "bytes"},
    {"durability.checkpoint_ms", "ms"},
    {"durability.checkpoint_bytes", "bytes"},
    {"durability.recovery_ms", "ms"},
    {"process.server_cpu_s_per_request", "s"},
    {"host.copy_gbps", "GB/s"},
    {"host.gather_mops", "Mop/s"},
    {"host.steal_frac", "ratio"},
    {"trace.unaccounted_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << std::setprecision(12);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    os << "}}";
    return os.str();
}

/** The request kinds whose latency p50_ms and tail_ms describe. */
std::vector<Kind>
timedKinds(Workload w)
{
    switch (w) {
      case Workload::kRunLarge: return {Kind::kDegree};
      case Workload::kMixedSmall:
        return {Kind::kDegree, Kind::kNp, Kind::kPagerank, Kind::kSpmv};
      case Workload::kMutateDurable: return {Kind::kMutate};
    }
    return {};
}

std::vector<double>
latencies(const std::vector<CallRecord> &recs, Kind k)
{
    std::vector<double> v;
    for (const CallRecord &r : recs)
        if (r.kind == k && r.ok())
            v.push_back(r.ms);
    return v;
}

/**
 * Latency quantile @p q of the workload's timed kinds: the plain
 * quantile for one kind, the largest of the per-kind quantiles for
 * mixed_small (its kernel mix makes the pooled distribution multimodal,
 * so a pooled median would not repeat run to run; the slowest kernel's
 * moves one for one with that kernel's latency).
 */
double
latencyQuantile(const std::vector<CallRecord> &recs, Workload w, double q)
{
    double worst = 0.0;
    for (Kind k : timedKinds(w))
        worst = std::max(worst, quantile(latencies(recs, k), q));
    return worst;
}

std::unique_ptr<ServerProcess>
startServer(const Options &o, Workload w, const Paths &p)
{
    std::vector<std::string> args = {"--socket", p.socket};
    for (const std::string &a : serverArgs(w, p.wal))
        args.push_back(a);
    auto srv = std::make_unique<ServerProcess>(o.server, args, p.log);
    if (cobra::Status s = srv->start(); !s.ok())
        throw Error(s.code(), s.message());
    return srv;
}

/** Insert every tenant's preload edges, one client thread per tenant. */
void
preload(const Paths &p, const Inputs &in)
{
    std::vector<std::string> errors(in.tenants.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < in.tenants.size(); ++t)
        threads.emplace_back([&, t] {
            cobra::ServerClient client = makeClient(p.socket);
            for (const RequestFrame &f : preloadFrames(in.tenants[t])) {
                const CallRecord r = callOnce(client, f, 0);
                if (!r.ok()) {
                    errors[t] = "preload of tenant " +
                                std::to_string(in.tenants[t].id) +
                                " failed: " + cobra::to_string(r.code);
                    return;
                }
            }
        });
    for (auto &t : threads)
        t.join();
    for (const std::string &e : errors)
        if (!e.empty())
            throw Error(ErrorCode::kUnavailable, e);
}

/** Build connection @p conn's @p i-th request. */
NextRequest
makeNext(const Inputs &in, uint32_t plant_every)
{
    if (in.workload == Workload::kMutateDurable)
        return [&in](uint32_t, uint64_t i, RequestFrame &scratch,
                     uint64_t *expected) -> const RequestFrame & {
            const size_t n = in.tenants.size();
            const MutTenant &t = in.tenants[tenantOf(i, n)];
            const uint64_t j = streamIndex(i, n);
            scratch = isSnapshotSlot(j) ? snapshotFrame(t)
                                        : mutateFrame(t, mutateIndex(j));
            *expected = 0; // checked against the replica after the run
            return scratch;
        };
    return [&in, plant_every](uint32_t conn, uint64_t i,
                              RequestFrame &scratch,
                              uint64_t *expected) -> const RequestFrame & {
        const RunFrame &rf = runFrameFor(in, conn, i);
        *expected = rf.expected;
        if (plant_every == 0 || i % plant_every != plant_every - 1)
            return rf.frame;
        scratch = rf.frame;
        scratch.injectSite =
            static_cast<uint32_t>(cobra::FaultSite::kPbDelayDrain);
        scratch.injectFireAt = 1;
        scratch.injectSeed = 1;
        return scratch;
    };
}

/** Counts of the answers checked after the timed window. */
struct Verification
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/** mutate_durable's records split by tenant, each with its index in its
 * tenant's stream as seq. */
std::vector<std::vector<CallRecord>>
perTenant(const LoadResult &load, size_t tenants)
{
    std::vector<std::vector<CallRecord>> out(tenants);
    for (CallRecord r : tenants ? load.all() : std::vector<CallRecord>{}) {
        const uint64_t t = tenantOf(r.seq, tenants);
        r.seq = streamIndex(r.seq, tenants);
        out[t].push_back(r);
    }
    return out;
}

/**
 * mutate_durable: feed each tenant's replica the acknowledged batches
 * in order and compare every answer, then fetch each tenant's final
 * snapshot. @p final_snapshot receives the expected checksums.
 */
Verification
verifyMutations(const Paths &p, const Inputs &in,
                const std::vector<std::vector<CallRecord>> &streams,
                std::vector<cobra::DynamicGraph> &replicas,
                std::vector<uint64_t> *final_snapshot)
{
    Verification v;
    for (size_t t = 0; t < in.tenants.size(); ++t) {
        const MutTenant &mt = in.tenants[t];
        cobra::DynamicGraph &g = replicas[t];
        for (const CallRecord &r : streams[t]) {
            if (!r.ok())
                continue; // already counted as failed
            uint64_t want = 0;
            if (isSnapshotSlot(r.seq)) {
                want = g.snapshotFingerprint();
            } else {
                g.applyBatch(batchOf(mutateFrame(mt, mutateIndex(r.seq))));
                want = degreeFingerprint(g);
            }
            if (r.checksum != want)
                ++v.failed;
        }
        final_snapshot->push_back(g.snapshotFingerprint());
        cobra::ServerClient client = makeClient(p.socket);
        const CallRecord r =
            callOnce(client, snapshotFrame(mt), final_snapshot->back());
        ++v.attempted;
        if (!r.ok())
            ++v.failed;
    }
    return v;
}

/**
 * SIGTERM the server, start it again on the same state, and time from
 * exec to the first answered request. For mutate_durable the answer is
 * the first tenant's snapshot, which (like every other tenant's) must
 * equal its last snapshot before the restart.
 */
double
restartOnce(const Options &o, Workload w, const Paths &p, const Inputs &in,
            const std::vector<uint64_t> &final_snapshot,
            std::unique_ptr<ServerProcess> &srv, Verification &v)
{
    const RunFrame probe = probeFrame();
    const RequestFrame first = w == Workload::kMutateDurable
                                   ? snapshotFrame(in.tenants[0])
                                   : probe.frame;
    const uint64_t want = w == Workload::kMutateDurable
                              ? final_snapshot[0]
                              : probe.expected;
    cobra::ServerClient client = makeClient(p.socket);
    if (srv->terminate() != 0)
        ++v.failed; // nonzero exit: lifecycle conservation violated
    const auto t0 = Clock::now();
    srv = startServer(o, w, p);
    CallRecord r;
    while (true) {
        r = callOnce(client, first, want);
        if (r.transportOk || msSince(t0) > 120e3)
            break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const double s = msSince(t0) / 1e3;
    ++v.attempted;
    if (!r.ok())
        ++v.failed;
    for (size_t t = 1; w == Workload::kMutateDurable && t < in.tenants.size();
         ++t) {
        ++v.attempted;
        if (!callOnce(client, snapshotFrame(in.tenants[t]),
                      final_snapshot[t])
                 .ok())
            ++v.failed;
    }
    return s;
}

/** One pass of the traced run (replay.h), by request id. */
using Pass = std::map<uint64_t, RequestSpans>;

Pass
passOf(const std::vector<RequestSpans> &all, const std::string &root)
{
    Pass p;
    for (const RequestSpans &r : all)
        if (r.root == root)
            p[r.request] = r;
    return p;
}

bool
isKind(const ReplayResult &rr, uint64_t rid, const std::set<Kind> &kinds)
{
    auto k = rr.kinds.find(rid);
    return k != rr.kinds.end() && kinds.count(k->second);
}

/** Median, over the requests of @p kinds in @p pass that ran span
 * @p name, of that span's summed duration (self time if @p self); 0
 * when none ran it. */
double
spanMedian(const Pass &pass, const ReplayResult &rr, const std::string &name,
           const std::set<Kind> &kinds, bool self = false)
{
    std::vector<double> v;
    for (const auto &[rid, r] : pass) {
        const auto &by_name = self ? r.selfMs : r.inclusiveMs;
        if (auto it = by_name.find(name);
            it != by_name.end() && isKind(rr, rid, kinds))
            v.push_back(it->second);
    }
    return median(v);
}

double
callMean(const std::map<uint64_t, double> &ms, const ReplayResult &rr,
         const std::set<Kind> &kinds)
{
    std::vector<double> v;
    for (const auto &[rid, m] : ms)
        if (isKind(rr, rid, kinds))
            v.push_back(m);
    return mean(v);
}

/** The span the program opens around executing a request of kind @p k. */
const char *
executeSpan(Kind k)
{
    switch (k) {
      case Kind::kMutate: return "server.mutate";
      case Kind::kSnapshot: return "server.snapshot";
      default: return "server.request";
    }
}

/**
 * Relative difference between the replay's execution time and the
 * program's own (its execute span in the traced in-process calls),
 * summed over the requests both passes ran.
 */
double
replayDrift(const Pass &inproc, const Pass &replay, const ReplayResult &rr,
            const std::set<Kind> &kinds)
{
    double program = 0.0, replayed = 0.0;
    for (const auto &[rid, r] : inproc) {
        auto rep = replay.find(rid);
        if (rep == replay.end() || !isKind(rr, rid, kinds))
            continue;
        auto p = r.inclusiveMs.find(executeSpan(rr.kinds.at(rid)));
        auto e = rep->second.inclusiveMs.find("server.execute");
        if (p == r.inclusiveMs.end() || e == rep->second.inclusiveMs.end())
            continue;
        program += p->second;
        replayed += e->second;
    }
    std::cout << "replay check: replayed execution " << replayed
              << " ms vs the server's own " << program
              << " ms over the same requests\n";
    return program > 0 ? replayed / program - 1.0 : 1.0;
}

/**
 * Print the self-time table of the replay: mean self time per request
 * of every span, the queue wait measured on the socket run, and the
 * unaccounted rest of the mean client latency. Returns the unaccounted
 * milliseconds.
 */
double
printSelfTimeTable(const Pass &replay, const ReplayResult &rr,
                   const std::vector<CallRecord> &recs,
                   const std::set<Kind> &kinds)
{
    std::map<std::string, double> self_sum;
    size_t n = 0;
    for (const auto &[rid, r] : replay) {
        if (!isKind(rr, rid, kinds))
            continue;
        ++n;
        for (const auto &[name, ms] : r.selfMs)
            self_sum[name] += ms;
    }
    std::vector<double> client, queue;
    for (const CallRecord &r : recs)
        if (kinds.count(r.kind) && r.ok()) {
            client.push_back(r.ms);
            queue.push_back(static_cast<double>(r.queueUs) / 1e3);
        }
    const double client_ms = mean(client);
    std::cout << "self-time table (mean ms per request; " << n
              << " replayed requests, " << client.size()
              << " socket requests)\n";
    double accounted = 0.0;
    auto row = [&](const std::string &name, double ms) {
        char line[128];
        std::snprintf(line, sizeof(line), "  %-34s %10.3f %6.1f%%\n",
                      name.c_str(), ms,
                      client_ms > 0 ? 100.0 * ms / client_ms : 0.0);
        std::cout << line;
    };
    std::vector<std::pair<double, std::string>> rows;
    for (const auto &[name, sum] : self_sum)
        rows.emplace_back(n ? sum / static_cast<double>(n) : 0.0, name);
    std::sort(rows.rbegin(), rows.rend());
    for (const auto &[ms, name] : rows) {
        accounted += ms;
        row(name, ms);
    }
    const double q = mean(queue);
    accounted += q;
    row("server.queue (socket run)", q);
    row("unaccounted", client_ms - accounted);
    row("client latency (socket run)", client_ms);
    return client_ms - accounted;
}

int
run(const Options &o)
{
    const auto w = workloadFromName(o.workload);
    if (!w)
        throw Error(ErrorCode::kInvalidArgument,
                    "unknown workload '" + o.workload + "'");
    HostStamp host = probeHost();
    std::cout << "workload " << o.workload << " seed " << o.seed
              << " seconds " << o.seconds << " trace " << o.trace << "\n";

    namespace fs = std::filesystem;
    fs::create_directories(o.workdir);
    Paths p;
    p.socket = o.workdir + "/s.sock";
    p.wal = o.workdir + "/wal";
    p.log = o.workdir + "/server.log";
    p.replayWal = o.workdir + "/replay-wal";

    // Set-up, repeated: server start + input generation + preload.
    const int setups = o.trace ? 1 : setupsFor(*w);
    std::vector<double> setup_s;
    std::unique_ptr<ServerProcess> srv;
    Inputs in;
    const CpuTimes setup0 = readCpuTimes();
    for (int k = 0; k < setups; ++k) {
        if (srv)
            srv->terminate();
        fs::remove_all(p.wal);
        const auto t0 = Clock::now();
        srv = startServer(o, *w, p);
        if (cobra::Status s = srv->waitReady(p.socket, 60.0); !s.ok())
            throw Error(s.code(), s.message());
        in = generateInputs(*w, o.seed);
        preload(p, in);
        setup_s.push_back(msSince(t0) / 1e3);
    }
    const CpuTimes setup1 = readCpuTimes();

    // Reference answers (untimed).
    computeExpected(in);
    std::vector<cobra::DynamicGraph> replicas;
    for (const MutTenant &t : in.tenants)
        replicas.emplace_back(kMutateVertices, t.preload);

    const double cpu0 = srv->cpuSeconds();
    const LoadResult load = runClosedLoop(p.socket, in.connections,
                                          o.seconds,
                                          makeNext(in, o.plantEvery));
    const double cpu1 = srv->cpuSeconds();
    host.stealFrac = 1.0 - load.grantedShare(0.0, load.elapsedS);
    std::cout << "host " << host.json() << "\n";
    const std::vector<CallRecord> recs = load.all();
    // The same calls with their latency in granted time.
    std::vector<CallRecord> granted_recs = recs;
    for (CallRecord &r : granted_recs)
        r.ms = load.grantedMs(r);

    uint64_t attempted = recs.size(), failed = 0, ok = 0;
    for (const CallRecord &r : recs)
        r.ok() ? ++ok : ++failed;

    const std::vector<std::vector<CallRecord>> streams =
        perTenant(load, in.tenants.size());
    std::vector<uint64_t> final_snapshot;
    Verification v;
    if (*w == Workload::kMutateDurable)
        v = verifyMutations(p, in, streams, replicas, &final_snapshot);
    const double peak_rss_mb =
        static_cast<double>(srv->peakRssKb()) / 1024.0;

    std::vector<double> restart_s;
    const CpuTimes restart0 = readCpuTimes();
    if (!o.trace)
        for (int k = 0; k < restartsFor(*w); ++k)
            restart_s.push_back(
                restartOnce(o, *w, p, in, final_snapshot, srv, v));
    const CpuTimes restart1 = readCpuTimes();
    if (srv->terminate() != 0)
        ++v.failed;
    attempted += v.attempted;
    failed += v.failed;
    if (const char *dump = std::getenv("PERFBENCH_DUMP")) { // TEMPDUMP
        std::ofstream d(dump);
        d << std::setprecision(10);
        for (const CallRecord &r : recs)
            d << "R " << to_string(r.kind) << " " << r.ms << " " << r.doneS << " " << r.runUs << "\n";
        for (double s : load.sliceStolen)
            d << "S " << s << "\n";
        for (double s : restart_s)
            d << "X " << s << "\n";
        d << "XS " << stolenShare(restart0, restart1) << "\n";
        for (double s : setup_s)
            d << "U " << s << "\n";
        d << "US " << stolenShare(setup0, setup1) << "\n";
        d << "M " << peak_rss_mb << "\n";
    }

    // Human-readable summary; the gated numbers are on the last line.
    std::cout << "requests: " << recs.size() << " timed (" << ok
              << " ok) in " << load.elapsedS << " s over "
              << in.connections << " closed-loop connections\n";
    for (Kind k : {Kind::kDegree, Kind::kNp, Kind::kPagerank, Kind::kSpmv,
                   Kind::kMutate, Kind::kSnapshot}) {
        const std::vector<double> lat = latencies(granted_recs, k);
        if (lat.empty())
            continue;
        const double tq = tailQuantile(*w);
        std::cout << "  " << to_string(k) << ": n=" << lat.size()
                  << " p50=" << quantile(lat, 0.5) << " ms p"
                  << static_cast<int>(tq * 100) << "="
                  << quantile(lat, tq) << " ms ("
                  << static_cast<size_t>(
                         static_cast<double>(lat.size()) * (1 - tq))
                  << " samples beyond; wall p50="
                  << quantile(latencies(recs, k), 0.5) << " ms)\n";
    }
    std::cout << "failed: " << failed << " of " << attempted
              << " (failed_frac "
              << static_cast<double>(failed) /
                     static_cast<double>(std::max<uint64_t>(1, attempted))
              << ")\n";

    std::cout << "granted time: the window's " << load.elapsedS
              << " s less " << 100 * host.stealFrac << "% stolen = "
              << load.grantedSeconds() << " s\n";
    std::vector<Metric> metrics;
    if (!o.trace) {
        std::cout << "setup_s wall samples:";
        for (double s : setup_s)
            std::cout << " " << s;
        std::cout << " (" << 100 * stolenShare(setup0, setup1)
                  << "% stolen)\nrestart_s wall samples:";
        for (double s : restart_s)
            std::cout << " " << s;
        std::cout << " (" << 100 * stolenShare(restart0, restart1)
                  << "% stolen)\n";
        metrics = {
            {"setup_s", granted(median(setup_s), setup0, setup1), "s"},
            {"requests_per_s",
             static_cast<double>(ok) / std::max(1e-9, load.grantedSeconds()),
             "1/s"},
            {"p50_ms", latencyQuantile(granted_recs, *w, 0.5), "ms"},
            {"tail_ms",
             latencyQuantile(granted_recs, *w, tailQuantile(*w)), "ms"},
            {"restart_s", granted(median(restart_s), restart0, restart1),
             "s"},
            {"peak_rss_mb", peak_rss_mb, "MiB"},
        };
    } else {
        std::vector<uint64_t> next_request;
        for (const auto &s : streams)
            next_request.push_back(s.size());
        cobra::TraceSession session;
        ReplayResult rr = *w == Workload::kMutateDurable
                              ? replayMutations(in, p.wal, p.replayWal,
                                                next_request, session)
                              : replayRuns(in, session);
        attempted += rr.checks;
        failed += rr.mismatches;
        if (cobra::Status s = session.writeFile(o.workdir + "/trace.json");
            !s.ok())
            std::cerr << "perfbench: " << s.toString() << "\n";

        const std::vector<Kind> tk = timedKinds(*w);
        const std::set<Kind> kinds(tk.begin(), tk.end());
        const std::vector<RequestSpans> spans =
            requestSpans(session.events());
        const Pass inproc = passOf(spans, kInprocRoot);
        const Pass replay = passOf(spans, kReplayRoot);
        const Pass ckpt = passOf(spans, kCheckpointRoot);

        const double unaccounted =
            printSelfTimeTable(replay, rr, recs, kinds);
        const double traced_ms = callMean(rr.tracedCallMs, rr, kinds);
        const double untraced_ms = callMean(rr.untracedCallMs, rr, kinds);
        std::cout << "tracing overhead: traced BatchServer::call "
                  << traced_ms << " ms vs untraced " << untraced_ms
                  << " ms per request (mean)\n";
        ++attempted;
        if (const double drift = replayDrift(inproc, replay, rr, kinds);
            std::abs(drift) > kReplayTolerance) {
            ++failed;
            std::cerr << "perfbench: the replay's execution differs from "
                         "the server's by "
                      << 100 * drift << "% (tolerance "
                      << 100 * kReplayTolerance
                      << "%): replay.cc no longer follows the server\n";
        }

        // Spans the benchmark opens come from the replay; the
        // program's own spans from the traced in-process calls.
        std::map<std::string, double> val;
        for (const auto &[name, unit] : kLayerMetrics) {
            if (unit == "ms" && name.find('.') != std::string::npos) {
                const std::string span =
                    name.substr(0, name.size() - 3); // drop "_ms"
                val[name] = spanMedian(replay, rr, span, kinds);
            }
        }
        for (const char *ph : {"pb.init", "pb.binning", "pb.accumulate"})
            val[std::string(ph) + "_ms"] = spanMedian(inproc, rr, ph, kinds);
        val["resilience.supervised_run_ms"] =
            spanMedian(inproc, rr, "supervisor.attempt", kinds);
        if (*w != Workload::kMutateDurable)
            // The supervisor certifies inside its attempt span, after
            // pb.run: the attempt's self time.
            val["check.certify_ms"] = spanMedian(
                inproc, rr, "supervisor.attempt", kinds, /*self=*/true);
        val["graph.snapshot_csr_ms"] =
            spanMedian(replay, rr, "graph.snapshot_csr", {Kind::kSnapshot});
        std::vector<double> pb_rate;
        for (const auto &[rid, r] : inproc) {
            double s = 0.0;
            for (const char *ph : {"pb.init", "pb.binning", "pb.accumulate"})
                if (auto it = r.inclusiveMs.find(ph);
                    it != r.inclusiveMs.end())
                    s += it->second / 1e3;
            if (s > 0.0 && isKind(rr, rid, kinds) && rr.pbUpdates.count(rid))
                pb_rate.push_back(rr.pbUpdates.at(rid) / s);
        }
        std::vector<double> outside, queue, run_ms, attempts;
        double degradations = 0, rejects = 0;
        for (const CallRecord &r : recs) {
            if (r.transportOk && (r.code == ErrorCode::kUnavailable ||
                                  r.code == ErrorCode::kResourceExhausted))
                ++rejects;
            degradations += r.degradations;
            if (!kinds.count(r.kind) || !r.ok())
                continue;
            outside.push_back(r.ms - static_cast<double>(r.queueUs) / 1e3 -
                              static_cast<double>(r.runUs) / 1e3);
            queue.push_back(static_cast<double>(r.queueUs) / 1e3);
            run_ms.push_back(static_cast<double>(r.runUs) / 1e3);
            attempts.push_back(r.attempts);
        }
        val["server.frame_bytes"] = median(rr.frameBytes);
        val["server.outside_run_ms"] = median(outside);
        std::vector<double> untraced_calls;
        for (const auto &[rid, ms] : rr.untracedCallMs)
            if (isKind(rr, rid, kinds))
                untraced_calls.push_back(ms);
        val["server.inproc_call_ms"] = median(untraced_calls);
        val["server.queue_ms"] = median(queue);
        val["server.run_ms"] = median(run_ms);
        val["server.admission_reject_frac"] =
            rejects / static_cast<double>(std::max<size_t>(1, recs.size()));
        val["snapshot.p50_ms"] = median(latencies(recs, Kind::kSnapshot));
        val["resilience.attempts_per_request"] = mean(attempts);
        val["resilience.degradations"] = degradations;
        val["pb.updates_per_s"] = median(pb_rate);
        val["pb.bytes_computed"] = median(rr.pbBytes);
        val["graph.compactions"] = static_cast<double>(rr.compactions);
        val["incremental.dirty_frac"] = median(rr.dirtyFrac);
        val["durability.wal_bytes_per_op"] = median(rr.walBytesPerOp);
        for (const auto &[rid, r] : ckpt)
            if (auto it = r.inclusiveMs.find("server.checkpoint");
                it != r.inclusiveMs.end())
                val["durability.checkpoint_ms"] = it->second;
        val["durability.checkpoint_bytes"] = rr.checkpointBytes;
        val["durability.recovery_ms"] = rr.recoveryMs;
        val["process.server_cpu_s_per_request"] =
            (cpu1 - cpu0) / static_cast<double>(std::max<size_t>(1, recs.size()));
        val["host.copy_gbps"] = host.copyGbps;
        val["host.gather_mops"] = host.gatherMops;
        val["host.steal_frac"] = host.stealFrac;
        val["trace.unaccounted_ms"] = unaccounted;
        val["trace.overhead_frac"] = traced_ms / untraced_ms - 1.0;
        for (const auto &[name, unit] : kLayerMetrics)
            metrics.push_back({name, val[name], unit});
    }

    const bool correct = failed == 0;
    std::cout << resultJson(correct, attempted, failed, metrics) << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed")
            o.seed = std::stoull(next());
        else if (a == "--seconds")
            o.seconds = std::stod(next());
        else if (a == "--trace")
            o.trace = std::stoi(next());
        else if (a == "--server")
            o.server = next();
        else if (a == "--workdir")
            o.workdir = next();
        else if (a == "--plant-delay-every")
            o.plantEvery = static_cast<uint32_t>(std::stoul(next()));
        else
            usage(argv[0]);
    }
    if (o.workload.empty() || o.server.empty() || o.workdir.empty() ||
        o.seconds <= 0 || (o.trace != 0 && o.trace != 1))
        usage(argv[0]);
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
