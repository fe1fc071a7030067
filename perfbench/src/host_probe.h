/**
 * @file
 * Host stamp: two fixed micro-probes plus the CPU count and load, taken
 * at the start of every run so that results from a busier or different
 * host can be flagged (perfbench/gate.py) instead of silently compared.
 */

#ifndef PERFBENCH_HOST_PROBE_H
#define PERFBENCH_HOST_PROBE_H

#include <cstdint>
#include <string>

namespace perfbench {

struct HostStamp
{
    /** Sequential 64 MiB memcpy, median of 5, per second of the probing
     * thread's CPU time (so time stolen by other guests does not count). */
    double copyGbps = 0.0;
    /** Random 4-byte gathers from 64 MiB, median of 3, per CPU second. */
    double gatherMops = 0.0;
    long nproc = 0;
    double load1 = 0.0; ///< 1-minute load average at the start of the run
    /** Share of the CPU time this VM wanted during the timed window that
     * the hypervisor gave to other guests instead (stolenShare). */
    double stealFrac = 0.0;

    /** One-line JSON object. */
    std::string json() const;
};

HostStamp probeHost();

/** Cumulative CPU time of all CPUs from the first line of /proc/stat,
 * in ticks. */
struct CpuTimes
{
    uint64_t busy = 0;  ///< user + nice + system + irq + softirq
    uint64_t steal = 0; ///< wanted to run, but the hypervisor ran others
};

CpuTimes readCpuTimes();

/**
 * Share of the CPU time this VM wanted between @p a and @p b that was
 * stolen: steal / (busy + steal). Nothing but the benchmark runs in the
 * VM, so this is the share by which the hypervisor stretched the
 * benchmark's wall-clock time; 0 when the VM was idle.
 */
double stolenShare(const CpuTimes &a, const CpuTimes &b);

} // namespace perfbench

#endif // PERFBENCH_HOST_PROBE_H
