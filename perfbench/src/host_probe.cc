#include "perfbench/src/host_probe.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include <time.h>
#include <unistd.h>

#include "perfbench/src/bench_util.h"

namespace perfbench {

namespace {

constexpr size_t kProbeBytes = size_t{64} << 20;

/** This thread's CPU time in milliseconds: unlike wall time it does not
 * grow while the hypervisor runs other guests. */
double
threadCpuMs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

double
copyProbe()
{
    std::vector<char> src(kProbeBytes, 1), dst(kProbeBytes, 0);
    std::vector<double> gbps;
    for (int rep = 0; rep < 5; ++rep) {
        src[static_cast<size_t>(rep)] = static_cast<char>(rep);
        const double t0 = threadCpuMs();
        std::memcpy(dst.data(), src.data(), kProbeBytes);
        const double ms = threadCpuMs() - t0;
        gbps.push_back(static_cast<double>(kProbeBytes) / (ms * 1e6));
    }
    // Keep the copies observable so they cannot be elided.
    volatile char sink = dst[kProbeBytes / 2];
    (void)sink;
    return median(gbps);
}

double
gatherProbe()
{
    const size_t words = kProbeBytes / sizeof(uint32_t);
    std::vector<uint32_t> table(words);
    for (size_t i = 0; i < words; ++i)
        table[i] = static_cast<uint32_t>(i * 2654435761u);
    const size_t n = size_t{1} << 22;
    std::vector<uint32_t> idx(n);
    uint64_t x = 0x9E3779B97F4A7C15ull; // fixed: the probe must not vary
    for (size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        idx[i] = static_cast<uint32_t>(x % words);
    }
    std::vector<double> mops;
    uint64_t sum = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const double t0 = threadCpuMs();
        for (size_t i = 0; i < n; ++i)
            sum += table[idx[i]];
        const double ms = threadCpuMs() - t0;
        mops.push_back(static_cast<double>(n) / (ms * 1e3));
    }
    volatile uint64_t sink = sum;
    (void)sink;
    return median(mops);
}

} // namespace

std::string
HostStamp::json() const
{
    std::ostringstream os;
    os.precision(6);
    os << "{\"copy_gbps\": " << copyGbps << ", \"gather_mops\": "
       << gatherMops << ", \"nproc\": " << nproc << ", \"load1\": " << load1
       << ", \"steal_frac\": " << stealFrac << "}";
    return os.str();
}

HostStamp
probeHost()
{
    HostStamp h;
    h.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    std::ifstream la("/proc/loadavg");
    la >> h.load1;
    h.copyGbps = copyProbe();
    h.gatherMops = gatherProbe();
    return h;
}

CpuTimes
readCpuTimes()
{
    // "cpu  user nice system idle iowait irq softirq steal guest ..."
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    CpuTimes t;
    uint64_t v = 0;
    for (int field = 0; field < 8 && in >> v; ++field) {
        if (field == 7)
            t.steal = v;
        else if (field != 3 && field != 4) // idle, iowait
            t.busy += v;
    }
    return t;
}

double
stolenShare(const CpuTimes &a, const CpuTimes &b)
{
    const uint64_t steal = b.steal - a.steal;
    const uint64_t wanted = b.busy - a.busy + steal;
    return wanted ? static_cast<double>(steal) / static_cast<double>(wanted)
                  : 0.0;
}

} // namespace perfbench
