#include "src/server/client.h"

#include <bit>
#include <cerrno>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/server/wire_socket.h"
#include "src/util/rng.h"

namespace cobra {

namespace {

/** RAII socket so every early return closes the fd. */
class Fd
{
  public:
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;
    int get() const { return fd_; }

  private:
    int fd_;
};

} // namespace

Status
ServerClient::callOnce(std::span<const uint8_t> header,
                       std::span<const uint8_t> payload,
                       ResponseFrame *out)
{
    sockaddr_un addr;
    if (cfg_.socketPath.empty() ||
        cfg_.socketPath.size() >= sizeof(addr.sun_path))
        return Status(ErrorCode::kInvalidArgument,
                      "bad socket path '" + cfg_.socketPath + "'");
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, cfg_.socketPath.c_str(),
                cfg_.socketPath.size());

    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (fd.get() < 0)
        return Status(ErrorCode::kIoError,
                      std::string("socket: ") + std::strerror(errno));

    // A hung or drowning server must become a typed timeout, not a
    // hung client: bound every send and receive.
    timeval tv{};
    const auto ms = cfg_.timeout.count();
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0)
        return Status(ErrorCode::kUnavailable,
                      "connect '" + cfg_.socketPath +
                          "': " + std::strerror(errno));

    if (Status s = writeFrame(fd.get(), {header, payload}); !s.ok())
        return s;

    std::vector<uint8_t> buf;
    if (Status s = readFrame(fd.get(), &buf); !s.ok()) {
        // SO_RCVTIMEO surfaces as EAGAIN from read(): map the
        // transport's "took too long" onto the taxonomy's name for it.
        if (s.message().find("Resource temporarily unavailable") !=
            std::string::npos)
            return Status(ErrorCode::kDeadlineExceeded,
                          "no response within " + std::to_string(ms) +
                              " ms");
        return s;
    }
    if (buf.empty())
        return Status(ErrorCode::kIoError,
                      "server closed the connection without answering");
    return decodeResponse(buf.data(), buf.size(), out);
}

Status
ServerClient::call(const RequestFrame &req, ResponseFrame *out)
{
    // Only the header is encoded; the payload goes to the socket from
    // req.payload itself, whose bytes are already the wire's on a
    // little-endian host. A big-endian host sends a converted copy.
    const auto header = encodeRequestHeader(req); // validates
    std::span<const uint8_t> payload(
        reinterpret_cast<const uint8_t *>(req.payload.data()),
        req.payload.size() * 4);
    std::vector<uint8_t> wire;
    if constexpr (std::endian::native != std::endian::little) {
        wire = encodeRequest(req);
        payload = std::span<const uint8_t>(wire).subspan(header.size());
    }
    // Jitter decorrelates concurrent rejected clients; seeding from
    // the request id keeps a single client's schedule reproducible.
    Rng rng(cfg_.retry.seed ^ req.requestId);
    const uint32_t max_attempts = std::max(1u, cfg_.retry.maxAttempts);
    Status last = Status::Ok();
    for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
        last_attempts_ = attempt;
        Status s = callOnce(header, payload, out);
        if (s.ok() && out->code != ErrorCode::kUnavailable)
            return Status::Ok(); // a definitive answer, even a failure
        // Retryable: an explicit kUnavailable response, or any
        // transport-level failure (the server may be mid-restart).
        last = s.ok() ? Status(ErrorCode::kUnavailable, out->message)
                      : s;
        if (attempt == max_attempts)
            break;
        const auto delay = cfg_.retry.delayFor(attempt + 1, rng);
        if (delay.count() > 0)
            std::this_thread::sleep_for(delay);
    }
    if (last.ok())
        return Status(ErrorCode::kUnavailable, "retry budget exhausted");
    return last;
}

} // namespace cobra
