/**
 * @file
 * The traced run's spans: the program's own cobra::TraceSession events,
 * plus spans the benchmark opens around the public functions it calls.
 *
 * Every benchmark span carries the id of the request it belongs to. The
 * program's spans carry no such id; they belong to the request whose
 * benchmark root span encloses them. Each request is driven alone, one
 * at a time, so on the calling threads (trace tid 0: the benchmark's own
 * thread and the server's dispatchers, which are not pool workers)
 * spans nest strictly in time, and nesting gives each span its parent.
 * Pool workers' per-shard spans run concurrently and are left out.
 *
 * A span's self time is its duration minus the time its children cover.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

/** Category of every span the benchmark opens. */
inline constexpr const char *kBenchCat = "perfbench";

/** A benchmark span tagged with its request id. No-op when no
 * TraceSession is active. */
class Span : public cobra::TraceSpan
{
  public:
    Span(const char *name, uint64_t request)
        : cobra::TraceSpan(name, kBenchCat)
    {
        arg("request", request);
    }
};

/** One request's spans, summed by name. */
struct RequestSpans
{
    std::string root; ///< name of the benchmark span that encloses them
    uint64_t request = 0;
    std::map<std::string, double> inclusiveMs;
    std::map<std::string, double> selfMs;
};

/**
 * Group the tid-0 complete spans of @p events by the parentless
 * benchmark span that encloses them. PhaseRecorder brackets (category
 * "phase": init, binning, accumulate) are renamed "pb.<phase>" after the
 * layer that records them.
 */
std::vector<RequestSpans> requestSpans(
    const std::vector<cobra::TraceEvent> &events);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
