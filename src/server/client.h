/**
 * @file
 * ServerClient: the calling side of the batch protocol.
 *
 * One call() = connect, send one request frame, wait for one response
 * frame. The frame goes out as its encoded header plus the payload
 * straight from RequestFrame::payload: gather writes, no frame image.
 * The call has the three behaviours a client of an overloadable
 * service must have:
 *
 *  - a socket timeout (SO_RCVTIMEO/SO_SNDTIMEO), so a hung server
 *    becomes a typed kDeadlineExceeded instead of a hung client;
 *  - bounded retry with jittered exponential backoff, driven by the
 *    same RetryPolicy schedule the server's supervisor uses — but
 *    *only* on kUnavailable responses and transport failures, the two
 *    cases where the server explicitly said (or implied) "later".
 *    A kResourceExhausted quota reject, an invalid-argument reject,
 *    or a completed failure is final: retrying cannot change it;
 *  - jitter derived from the request id, so a thousand clients
 *    rejected together do not return together (the thundering-herd
 *    half of the backpressure contract).
 */

#ifndef COBRA_SERVER_CLIENT_H
#define COBRA_SERVER_CLIENT_H

#include <chrono>
#include <cstdint>
#include <span>
#include <string>

#include "src/resilience/retry_policy.h"
#include "src/server/frame.h"
#include "src/util/error.h"

namespace cobra {

/** Client knobs. */
struct ClientConfig
{
    std::string socketPath;

    /** Per-attempt socket send/receive timeout. */
    std::chrono::milliseconds timeout{30000};

    /** Attempt + backoff schedule for retryable outcomes. */
    RetryPolicy retry;
};

/** Connect-per-call client for the batch server socket. */
class ServerClient
{
  public:
    explicit ServerClient(ClientConfig cfg) : cfg_(std::move(cfg)) {}

    /**
     * Submit @p req and wait for its response. Returns the transport
     * verdict: Ok() means @p out holds the server's response (whose
     * own .code may still be a typed failure); !ok means no response
     * was obtained within the retry budget.
     */
    Status call(const RequestFrame &req, ResponseFrame *out);

    /** Attempts made by the most recent call() (for tests/CLI). */
    uint32_t lastAttempts() const { return last_attempts_; }

  private:
    Status callOnce(std::span<const uint8_t> header,
                    std::span<const uint8_t> payload, ResponseFrame *out);

    ClientConfig cfg_;
    uint32_t last_attempts_ = 0;
};

} // namespace cobra

#endif // COBRA_SERVER_CLIENT_H
