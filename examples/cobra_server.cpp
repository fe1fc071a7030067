/**
 * @file
 * cobra_server — the multi-tenant batch service daemon.
 *
 * Accepts length-prefixed request frames on a unix-domain socket, runs
 * each as a supervised native-PB execution on a shared pool, and
 * answers with the run's certified outcome. Admission control rejects
 * over-capacity work *before* it queues (typed kUnavailable /
 * kResourceExhausted fast-fails), per-tenant WRR dispatch keeps one
 * flooding tenant from starving the rest, and client deadlines ride
 * the whole pipeline (shed while queued, watchdog + retry-ladder
 * clamp while running).
 *
 *   cobra_server --socket /tmp/cobra.sock --threads 8 --dispatchers 4 \
 *                --max-outstanding 64 --tenant-budget-mb 512
 *
 * SIGINT/SIGTERM drains gracefully: queued requests are shed with
 * kUnavailable, in-flight runs finish, then — with durability on — a
 * final checkpoint is written before the process exits. With --metrics
 * the final MetricsRegistry (admission counters, per-tenant lifecycle
 * counts, queue-depth gauge, supervisor + durability metrics) is
 * written as JSON on the way out.
 *
 * Durability (DESIGN.md §16): --wal-dir enables write-ahead logging of
 * every acknowledged mutation batch plus periodic checkpoints, and
 * startup then runs crash recovery (checkpoint + certified WAL
 * replay). A recovery that cannot reproduce the acknowledged state
 * exits nonzero with the typed refusal on stderr — the daemon never
 * serves state it cannot certify. --fsync-policy picks the
 * latency/durability trade (always | group:N | none);
 * --checkpoint-interval S checkpoints every S seconds (0 =
 * shutdown-only); --wal-version (default 1) picks the record stamp
 * new batches carry (1: ordered snapshot fingerprint, O(V + E) per
 * batch; 2: edge-set hash, O(batch)). Recovery reads both.
 */

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/batch_server.h"
#include "src/server/wire_socket.h"
#include "src/util/thread_pool.h"

using namespace cobra;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

struct Options
{
    std::string socket = "/tmp/cobra.sock";
    long long threads = 0;     ///< kernel pool (0 = hardware)
    size_t dispatchers = 2;    ///< concurrent supervised runs
    uint32_t maxOutstanding = 64;
    uint32_t maxOutstandingTenant = 16;
    uint64_t globalBudgetMb = 0;
    uint64_t tenantBudgetMb = 0;
    uint64_t attemptDeadlineMs = 30000;
    uint32_t retries = 3;
    std::string metricsOut;
    std::string walDir;       ///< empty = durability disabled
    std::string fsyncPolicy = "always";
    uint64_t checkpointIntervalS = 0; ///< 0 = shutdown-only
    std::string walVersion = "1";
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--socket path] [--threads T] [--dispatchers N]\n"
                 "       [--max-outstanding N] "
                 "[--max-outstanding-tenant N]\n"
                 "       [--global-budget-mb M] [--tenant-budget-mb M]\n"
                 "       [--attempt-deadline-ms D] [--retries R]\n"
                 "       [--metrics out.json]\n"
                 "       [--wal-dir dir] [--fsync-policy "
                 "always|group:N|none]\n"
                 "       [--checkpoint-interval seconds] "
                 "[--wal-version 1|2]\n";
    std::exit(2);
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
        if (a == "--socket")
            o.socket = next();
        else if (a == "--threads")
            o.threads = std::stoll(next());
        else if (a == "--dispatchers")
            o.dispatchers = static_cast<size_t>(std::stoull(next()));
        else if (a == "--max-outstanding")
            o.maxOutstanding =
                static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--max-outstanding-tenant")
            o.maxOutstandingTenant =
                static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--global-budget-mb")
            o.globalBudgetMb = std::stoull(next());
        else if (a == "--tenant-budget-mb")
            o.tenantBudgetMb = std::stoull(next());
        else if (a == "--attempt-deadline-ms")
            o.attemptDeadlineMs = std::stoull(next());
        else if (a == "--retries")
            o.retries = static_cast<uint32_t>(std::stoul(next()));
        else if (a == "--metrics")
            o.metricsOut = next();
        else if (a == "--wal-dir")
            o.walDir = next();
        else if (a == "--fsync-policy")
            o.fsyncPolicy = next();
        else if (a == "--checkpoint-interval")
            o.checkpointIntervalS = std::stoull(next());
        else if (a == "--wal-version")
            o.walVersion = next();
        else
            usage(argv[0]);
    }
    if (o.threads != 0) {
        if (Status s = validateThreadCount(o.threads); !s.ok()) {
            std::cerr << "error: " << s.toString() << "\n";
            return 2;
        }
    }

    MetricsRegistry metrics;
    MetricsRegistry::Scope metrics_scope(metrics);

    ThreadPool pool(static_cast<size_t>(o.threads));
    ServerConfig cfg;
    cfg.dispatchThreads = o.dispatchers;
    cfg.admission.maxOutstandingGlobal = o.maxOutstanding;
    cfg.admission.maxOutstandingPerTenant = o.maxOutstandingTenant;
    cfg.admission.globalBudgetBytes = o.globalBudgetMb << 20;
    cfg.admission.tenantBudgetBytes = o.tenantBudgetMb << 20;
    cfg.defaultAttemptDeadline =
        std::chrono::milliseconds(o.attemptDeadlineMs);
    cfg.retryAttempts = o.retries + 1;
    if (!o.walDir.empty()) {
        cfg.durability.walDir = o.walDir;
        auto p = parseFsyncPolicy(o.fsyncPolicy);
        if (!p) {
            std::cerr << "error: bad --fsync-policy '" << o.fsyncPolicy
                      << "' (want always | group:N | none)\n";
            return 2;
        }
        cfg.durability.fsync = *p;
        if (o.walVersion != "1" && o.walVersion != "2") {
            std::cerr << "error: bad --wal-version '" << o.walVersion
                      << "' (want 1 | 2)\n";
            return 2;
        }
        cfg.durability.walStampVersion =
            o.walVersion == "1" ? kWalVersionSnapshotStamp
                                : kWalVersionEdgeSetStamp;
        cfg.durability.checkpointInterval =
            std::chrono::seconds(o.checkpointIntervalS);
    }

    // Before recovery and listen: an early SIGTERM still drains and
    // writes the shutdown checkpoint instead of killing the process.
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // Recovery happens inside the BatchServer constructor; a typed
    // refusal (corrupt log, fingerprint divergence, lost acked state)
    // must exit nonzero, never serve.
    std::unique_ptr<BatchServer> server;
    try {
        server = std::make_unique<BatchServer>(cfg, pool);
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    if (!o.walDir.empty()) {
        const RecoveryReport &rr = server->recovery();
        std::cout << "durability: wal-dir " << o.walDir << ", fsync "
                  << o.fsyncPolicy << ", writes v" << o.walVersion
                  << ", recovered "
                  << (rr.checkpointLoaded
                          ? "checkpoint@lsn " +
                                std::to_string(rr.checkpointLsn) + " (" +
                                std::to_string(rr.checkpointTenants) +
                                " tenants) + "
                          : std::string())
                  << rr.replayedBatches << " replayed batches (v1 "
                  << rr.replayedV1Records << ", v2 " << rr.replayedV2Records
                  << "; " << rr.replayedOps << " ops, " << rr.skippedRecords
                  << " skipped, torn tail " << rr.tornTailBytes
                  << " B) in " << rr.durationMicros << " us\n";
    }
    SocketServer sock(*server, o.socket);
    if (Status s = sock.start(); !s.ok()) {
        std::cerr << "error: " << s.toString() << "\n";
        return 1;
    }
    std::cout << "cobra_server listening on " << o.socket << " ("
              << pool.numThreads() << " pool threads, "
              << o.dispatchers << " dispatchers)\n";

    while (!g_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::cout << "draining...\n";
    sock.stop();
    server->stop();

    const ServerStats st = server->stats();
    std::cout << "received " << st.received << ", admitted "
              << st.admitted << ", completed " << st.completed
              << ", failed " << st.failed << ", shed " << st.shed
              << ", rejected "
              << (st.rejectedInvalid + st.rejectedOverload +
                  st.rejectedQuota)
              << " (overload " << st.rejectedOverload << ", quota "
              << st.rejectedQuota << ", invalid " << st.rejectedInvalid
              << "), deadline-exceeded " << st.deadlineExceeded << "\n"
              << "mutation: batches " << st.mutateBatches << ", ops "
              << st.mutateOps << " (applied " << st.mutateApplied
              << ", deduped " << st.mutateDeduped << ", rejected "
              << st.mutateRejected << "), compactions "
              << st.compactions << ", recertified "
              << st.recertifications << "\n"
              << "conservation: "
              << (st.conserved() ? "exact" : "VIOLATED") << "\n";

    if (!o.metricsOut.empty()) {
        std::ofstream os(o.metricsOut);
        if (!os) {
            std::cerr << "metrics not written: cannot open "
                      << o.metricsOut << "\n";
        } else {
            metrics.writeJson(os);
            os << "\n";
            std::cout << "wrote metrics to " << o.metricsOut << "\n";
        }
    }
    return st.conserved() ? 0 : 1;
}
