#include "src/server/wire_socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/server/batch_server.h"
#include "src/server/frame.h"

namespace cobra {

namespace {

Status
errnoStatus(const std::string &what)
{
    return Status(ErrorCode::kIoError,
                  what + ": " + std::strerror(errno));
}

/** Fill @p addr for @p path; rejects paths longer than sun_path. */
Status
unixAddress(const std::string &path, sockaddr_un *addr)
{
    if (path.empty() || path.size() >= sizeof(addr->sun_path))
        return Status(ErrorCode::kInvalidArgument,
                      "unix socket path must be 1.." +
                          std::to_string(sizeof(addr->sun_path) - 1) +
                          " bytes: '" + path + "'");
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size());
    return Status::Ok();
}

} // namespace

Status
readExact(int fd, void *buf, size_t len)
{
    uint8_t *p = static_cast<uint8_t *>(buf);
    size_t got = 0;
    while (got < len) {
        ssize_t n = ::read(fd, p + got, len - got);
        if (n == 0)
            return Status(ErrorCode::kIoError,
                          "connection closed mid-message (" +
                              std::to_string(got) + " of " +
                              std::to_string(len) + " bytes)");
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("read");
        }
        got += static_cast<size_t>(n);
    }
    return Status::Ok();
}

namespace {

/**
 * Send every byte @p iov describes (consumed in place), looping over
 * short writes and EINTR. sendmsg is writev plus MSG_NOSIGNAL: a peer
 * that hung up becomes EPIPE here instead of a process-killing SIGPIPE.
 */
Status
sendAll(int fd, iovec *iov, size_t count)
{
    while (count > 0) {
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = count;
        ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("write");
        }
        auto sent = static_cast<size_t>(n);
        while (count > 0 && sent >= iov->iov_len) {
            sent -= iov->iov_len;
            ++iov;
            --count;
        }
        if (count > 0) {
            iov->iov_base = static_cast<uint8_t *>(iov->iov_base) + sent;
            iov->iov_len -= sent;
        }
    }
    return Status::Ok();
}

/**
 * Read a frame's length prefix. Ok with *len == 0 is a clean EOF
 * before its first byte; kCorruptFile is a length outside
 * (0, kMaxFrameBytes], after which the stream is unsynchronized.
 */
Status
readLength(int fd, uint32_t *len)
{
    *len = 0;
    uint8_t len_bytes[4];
    // Distinguish "peer finished" (clean EOF at a frame boundary)
    // from "peer died mid-frame" by reading the first byte alone.
    ssize_t n;
    do {
        n = ::read(fd, len_bytes, 1);
    } while (n < 0 && errno == EINTR);
    if (n == 0)
        return Status::Ok(); // clean end-of-stream
    if (n < 0)
        return errnoStatus("read");
    if (Status s = readExact(fd, len_bytes + 1, 3); !s.ok())
        return s;
    const uint32_t l = uint32_t{len_bytes[0]} |
                       (uint32_t{len_bytes[1]} << 8) |
                       (uint32_t{len_bytes[2]} << 16) |
                       (uint32_t{len_bytes[3]} << 24);
    if (l == 0 || uint64_t{l} > kMaxFrameBytes)
        return Status(ErrorCode::kCorruptFile,
                      "frame length " + std::to_string(l) +
                          " outside (0, " +
                          std::to_string(kMaxFrameBytes) + "]");
    *len = l;
    return Status::Ok();
}

/** Read and discard @p len bytes, without sizing anything by it. */
Status
drain(int fd, size_t len)
{
    uint8_t sink[16384];
    while (len > 0) {
        const size_t n = std::min(len, sizeof(sink));
        if (Status s = readExact(fd, sink, n); !s.ok())
            return s;
        len -= n;
    }
    return Status::Ok();
}

/**
 * Read one request frame with one copy of its payload: the header
 * goes to a stack buffer and, once decodeRequestHeader() has checked
 * it, the payload goes straight into out->payload. Returns false when
 * the connection is done: a clean EOF, a transport failure, or an
 * over-cap length. Otherwise *verdict is the decode result. A frame
 * refused at its header has the rest of its bytes drained, so the
 * stream stays framed for the next request.
 */
bool
readRequest(int fd, RequestFrame *out, Status *verdict)
{
    uint32_t len = 0;
    if (Status s = readLength(fd, &len); !s.ok() || len == 0)
        return false;
    uint8_t header[kRequestHeaderBytes];
    // A frame shorter than the header is read whole; the header
    // decoder then refuses it without reading past its length.
    const size_t head = std::min<size_t>(len, sizeof(header));
    if (!readExact(fd, header, head).ok())
        return false;
    *verdict = decodeRequestHeader(header, len, out);
    if (!verdict->ok())
        return drain(fd, len - head).ok();
    if (!readExact(fd, out->payload.data(), len - head).ok())
        return false;
    *verdict = decodeRequestBody(out);
    return true;
}

} // namespace

Status
writeAll(int fd, const void *buf, size_t len)
{
    iovec iov{const_cast<void *>(buf), len};
    return sendAll(fd, &iov, 1);
}

Status
readFrame(int fd, std::vector<uint8_t> *out)
{
    out->clear();
    uint32_t len = 0;
    if (Status s = readLength(fd, &len); !s.ok() || len == 0)
        return s; // a clean EOF leaves *out empty
    out->resize(len);
    return readExact(fd, out->data(), len);
}

Status
writeFrame(int fd, std::initializer_list<std::span<const uint8_t>> parts)
{
    uint64_t len = 0;
    for (const auto &p : parts)
        len += p.size();
    if (len == 0 || len > kMaxFrameBytes)
        return Status(ErrorCode::kInvalidArgument,
                      "refusing to send a frame of " +
                          std::to_string(len) + " bytes");
    const uint32_t l = static_cast<uint32_t>(len);
    uint8_t len_bytes[4] = {
        static_cast<uint8_t>(l), static_cast<uint8_t>(l >> 8),
        static_cast<uint8_t>(l >> 16), static_cast<uint8_t>(l >> 24)};
    std::vector<iovec> iov{{len_bytes, sizeof(len_bytes)}};
    for (const auto &p : parts)
        iov.push_back({const_cast<uint8_t *>(p.data()), p.size()});
    return sendAll(fd, iov.data(), iov.size());
}

Status
writeFrame(int fd, const uint8_t *data, size_t len)
{
    return writeFrame(fd, {std::span<const uint8_t>(data, len)});
}

SocketServer::SocketServer(BatchServer &server, std::string path)
    : server_(server), path_(std::move(path))
{
}

SocketServer::~SocketServer()
{
    stop();
}

Status
SocketServer::start()
{
    sockaddr_un addr;
    if (Status s = unixAddress(path_, &addr); !s.ok())
        return s;
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        return errnoStatus("socket");
    ::unlink(path_.c_str()); // replace a stale socket file
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        Status s = errnoStatus("bind '" + path_ + "'");
        ::close(listen_fd_);
        listen_fd_ = -1;
        return s;
    }
    if (::listen(listen_fd_, 64) < 0) {
        Status s = errnoStatus("listen");
        ::close(listen_fd_);
        listen_fd_ = -1;
        return s;
    }
    acceptor_ = std::thread([this] { acceptLoop(); });
    return Status::Ok();
}

void
SocketServer::stop()
{
    if (stopping_.exchange(true))
        return;
    if (const int fd = listen_fd_.exchange(-1); fd >= 0) {
        // shutdown() unblocks accept() so the acceptor exits promptly.
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    if (acceptor_.joinable())
        acceptor_.join();
    std::list<Connection> conns;
    {
        std::lock_guard<std::mutex> lk(conn_mtx_);
        conns.swap(conns_); // list nodes keep their addresses
    }
    for (auto &c : conns)
        c.thread.join();
    ::unlink(path_.c_str());
}

size_t
SocketServer::trackedConnections() const
{
    std::lock_guard<std::mutex> lk(conn_mtx_);
    return conns_.size();
}

void
SocketServer::acceptLoop()
{
    for (;;) {
        const int lfd = listen_fd_.load(std::memory_order_acquire);
        if (lfd < 0)
            return; // stop() already closed the socket
        int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // closed by stop(), or a fatal accept error
        }
        if (stopping_.load(std::memory_order_acquire)) {
            ::close(fd);
            return;
        }
        std::lock_guard<std::mutex> lk(conn_mtx_);
        Connection &c = conns_.emplace_back();
        try {
            c.thread = std::thread([this, fd, &c] {
                serveConnection(fd);
                ::close(fd);
                c.done.store(true, std::memory_order_release);
            });
        } catch (const std::system_error &) {
            // No thread to be had: refuse this connection, keep
            // serving the ones already open.
            conns_.pop_back();
            ::close(fd);
        }
        // Join the connections that have finished, once the new one is
        // being served, so its peer never waits on these joins. Each
        // one's thread has at most its exit left to run; reaping keeps
        // one-connection-per-call clients from piling up a dead thread
        // (and its stack mapping) per call.
        for (auto it = conns_.begin(); it != conns_.end();) {
            if (it->done.load(std::memory_order_acquire)) {
                it->thread.join();
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
    }
}

void
SocketServer::serveConnection(int fd)
{
    while (!stopping_.load(std::memory_order_acquire)) {
        RequestFrame req;
        Status verdict;
        if (!readRequest(fd, &req, &verdict))
            return; // peer finished, died, or desynchronized
        ResponseFrame resp;
        if (!verdict.ok()) {
            // Intact transport, bad frame: answer with the typed
            // reason. tenant/request ids are unknown (the header may
            // be the corrupt part), so they echo as zero.
            resp.code = verdict.code();
            resp.message = verdict.message();
        } else {
            resp = server_.submit(std::move(req)).get();
        }
        const std::vector<uint8_t> out = encodeResponse(resp);
        if (Status w = writeFrame(fd, out.data(), out.size()); !w.ok())
            return;
    }
}

} // namespace cobra
