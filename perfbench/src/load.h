/**
 * @file
 * Closed-loop load over the server's unix socket.
 *
 * Each connection is one ServerClient that sends its next request only
 * after the previous response arrived: ServerClient::call blocks, and a
 * tenant's mutation stream must stay ordered, so the loop is closed by
 * construction. A connection stops issuing once the measurement window
 * ends; the window's length is the time of the last completion.
 */

#ifndef PERFBENCH_LOAD_H
#define PERFBENCH_LOAD_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/server/client.h"

namespace perfbench {

/** One request as the client saw it. */
struct CallRecord
{
    Kind kind = Kind::kDegree;
    uint64_t seq = 0; ///< index within its connection's stream
    double ms = 0.0;  ///< client latency, send -> response
    bool transportOk = false;
    cobra::ErrorCode code = cobra::ErrorCode::kInternal;
    uint64_t checksum = 0;
    uint64_t queueUs = 0;
    uint64_t runUs = 0;
    uint32_t attempts = 0;
    uint32_t degradations = 0;
    double doneS = 0.0; ///< completion, seconds after the window opened
    /** Fingerprint the response must carry; 0 = checked after the run. */
    uint64_t expected = 0;

    bool ok() const
    {
        return transportOk && code == cobra::ErrorCode::kOk &&
               (expected == 0 || checksum == expected);
    }
};

/**
 * Produces connection @p conn's @p i-th request. It may build the frame
 * in @p scratch (owned by the connection) and return it, or return a
 * prebuilt frame. @p expected receives the fingerprint to check inline,
 * or 0 when the caller checks it after the run.
 */
using NextRequest = std::function<const cobra::RequestFrame &(
    uint32_t conn, uint64_t i, cobra::RequestFrame &scratch,
    uint64_t *expected)>;

/** Length of the slices whose stolen CPU time the window records. */
inline constexpr double kSliceS = 0.25;

struct LoadResult
{
    std::vector<std::vector<CallRecord>> perConn;
    double elapsedS = 0.0; ///< window start -> last completion
    /** stolenShare() of each slice [k, k+1) * kSliceS of the window; the
     * last slice runs on to the last completion. */
    std::vector<double> sliceStolen;

    std::vector<CallRecord> all() const;

    /** Share of [from, to] (seconds into the window) that was not
     * stolen, over the slices it overlaps. */
    double grantedShare(double from, double to) const;

    /** The window's length less the time stolen from it. */
    double grantedSeconds() const;

    /** @p r's latency less the time stolen while it was in flight. */
    double grantedMs(const CallRecord &r) const;
};

/** A client that fails fast: no retry, so every failure is counted. */
cobra::ServerClient makeClient(const std::string &socket);

/** Issue one request and record it. */
CallRecord callOnce(cobra::ServerClient &client,
                    const cobra::RequestFrame &frame, uint64_t expected);

/** Run @p conns closed-loop connections for @p seconds. */
LoadResult runClosedLoop(const std::string &socket, uint32_t conns,
                         double seconds, const NextRequest &next);

} // namespace perfbench

#endif // PERFBENCH_LOAD_H
