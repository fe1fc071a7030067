#include "perfbench/src/load.h"

#include <algorithm>
#include <thread>

#include "perfbench/src/bench_util.h"
#include "perfbench/src/host_probe.h"

namespace perfbench {

using namespace cobra;

std::vector<CallRecord>
LoadResult::all() const
{
    std::vector<CallRecord> out;
    for (const auto &c : perConn)
        out.insert(out.end(), c.begin(), c.end());
    return out;
}

double
LoadResult::grantedShare(double from, double to) const
{
    const size_t n = sliceStolen.size();
    if (n == 0)
        return 1.0;
    const auto slice = [&](double t) {
        return std::min(n - 1, static_cast<size_t>(std::max(0.0, t) / kSliceS));
    };
    double covered = 0.0, granted = 0.0;
    for (size_t k = slice(from); k <= slice(to); ++k) {
        const double lo = static_cast<double>(k) * kSliceS;
        const double hi = k + 1 < n ? lo + kSliceS : std::max(to, lo);
        const double len = std::min(hi, to) - std::max(lo, from);
        if (len > 0) {
            covered += len;
            granted += len * (1.0 - sliceStolen[k]);
        }
    }
    return covered > 0 ? granted / covered : 1.0 - sliceStolen[slice(to)];
}

double
LoadResult::grantedSeconds() const
{
    return elapsedS * grantedShare(0.0, elapsedS);
}

double
LoadResult::grantedMs(const CallRecord &r) const
{
    return r.ms * grantedShare(r.doneS - r.ms / 1e3, r.doneS);
}

ServerClient
makeClient(const std::string &socket)
{
    ClientConfig cfg;
    cfg.socketPath = socket;
    cfg.timeout = std::chrono::milliseconds(120000);
    cfg.retry.maxAttempts = 1;
    return ServerClient(cfg);
}

CallRecord
callOnce(ServerClient &client, const RequestFrame &frame, uint64_t expected)
{
    CallRecord r;
    r.kind = kindOf(frame);
    r.expected = expected;
    ResponseFrame resp;
    const auto t0 = Clock::now();
    const Status s = client.call(frame, &resp);
    r.ms = msSince(t0);
    r.transportOk = s.ok();
    if (s.ok()) {
        r.code = resp.code;
        r.checksum = resp.resultChecksum;
        r.queueUs = resp.queueMicros;
        r.runUs = resp.serverMicros;
        r.attempts = resp.attempts;
        r.degradations = resp.degradations;
    } else {
        r.code = s.code();
    }
    return r;
}

LoadResult
runClosedLoop(const std::string &socket, uint32_t conns, double seconds,
              const NextRequest &next)
{
    LoadResult res;
    res.perConn.resize(conns);
    std::vector<Clock::time_point> lastDone(conns);
    const auto t0 = Clock::now();
    const auto end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            ServerClient client = makeClient(socket);
            RequestFrame scratch;
            lastDone[c] = t0;
            for (uint64_t i = 0; Clock::now() < end; ++i) {
                uint64_t expected = 0;
                const RequestFrame &f = next(c, i, scratch, &expected);
                CallRecord r = callOnce(client, f, expected);
                r.seq = i;
                lastDone[c] = Clock::now();
                r.doneS = msBetween(t0, lastDone[c]) / 1e3;
                res.perConn[c].push_back(r);
            }
        });
    }
    CpuTimes prev = readCpuTimes();
    for (int k = 1; k * kSliceS < seconds; ++k) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(k * kSliceS)));
        const CpuTimes now = readCpuTimes();
        res.sliceStolen.push_back(stolenShare(prev, now));
        prev = now;
    }
    for (auto &t : threads)
        t.join();
    res.sliceStolen.push_back(stolenShare(prev, readCpuTimes()));
    Clock::time_point last = t0;
    for (const auto &d : lastDone)
        last = std::max(last, d);
    res.elapsedS = msBetween(t0, last) / 1e3;
    return res;
}

} // namespace perfbench
