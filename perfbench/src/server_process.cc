#include "perfbench/src/server_process.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "perfbench/src/bench_util.h"

namespace perfbench {

using cobra::ErrorCode;
using cobra::Status;

ServerProcess::ServerProcess(std::string binary,
                             std::vector<std::string> args,
                             std::string log_path)
    : binary_(std::move(binary)), args_(std::move(args)),
      logPath_(std::move(log_path))
{
}

ServerProcess::~ServerProcess()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int st = 0;
        while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
        }
    }
}

Status
ServerProcess::start()
{
    if (pid_ > 0)
        return Status(ErrorCode::kFailedPrecondition, "already running");
    // Everything the child needs is prepared before vfork: between vfork
    // and exec the child makes system calls only.
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(binary_.c_str()));
    for (std::string &a : args_)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    // This process's environment plus MALLOC_ARENA_MAX=1: with a single
    // malloc arena the daemon's peak RSS follows what it allocates, not
    // which of its threads happened to allocate it, so peak_rss_mb
    // repeats from run to run.
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "MALLOC_ARENA_MAX=", 17) != 0)
            env.emplace_back(*e);
    env.emplace_back("MALLOC_ARENA_MAX=1");
    std::vector<char *> envp;
    for (std::string &e : env)
        envp.push_back(e.data());
    envp.push_back(nullptr);
    const int log = ::open(logPath_.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log < 0)
        return Status(ErrorCode::kIoError,
                      "open " + logPath_ + ": " + std::strerror(errno));
    const pid_t parent = ::getpid();
    // vfork: the child borrows this process's memory until it execs, so
    // a start costs the same whatever the benchmark holds. fork would
    // copy the page tables of run_large's inputs (hundreds of MiB)
    // inside every timed restart.
    const pid_t pid = ::vfork();
    if (pid < 0) {
        ::close(log);
        return Status(ErrorCode::kIoError,
                      std::string("vfork: ") + std::strerror(errno));
    }
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(log, STDOUT_FILENO);
        ::dup2(log, STDERR_FILENO);
        ::execve(binary_.c_str(), argv.data(), envp.data());
        ::_exit(127);
    }
    ::close(log);
    pid_ = pid;
    return Status::Ok();
}

Status
ServerProcess::waitReady(const std::string &socket_path,
                         double timeout_s) const
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
        return Status(ErrorCode::kInvalidArgument,
                      "socket path too long: " + socket_path);
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
    const auto t0 = Clock::now();
    while (msSince(t0) < timeout_s * 1e3) {
        int st = 0;
        if (::waitpid(pid_, &st, WNOHANG) == pid_)
            return Status(ErrorCode::kUnavailable,
                          "cobra_server exited during start-up (see " +
                              logPath_ + ")");
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return Status(ErrorCode::kIoError,
                          std::string("socket: ") + std::strerror(errno));
        const bool up = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                                  sizeof(addr)) == 0;
        ::close(fd);
        if (up)
            return Status::Ok();
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return Status(ErrorCode::kDeadlineExceeded,
                  "cobra_server did not listen on " + socket_path);
}

bool
ServerProcess::catchesSigterm() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("SigCgt:", 0) == 0)
            return (std::stoull(line.substr(7), nullptr, 16) >>
                    (SIGTERM - 1)) & 1;
    return false;
}

int
ServerProcess::terminate()
{
    if (pid_ <= 0)
        return -1;
    int st = 0;
    // cobra_server listens before it installs its SIGTERM handler, so a
    // request can be answered while SIGTERM would still kill it without
    // the graceful drain. Wait (bounded) until the handler is in place.
    const auto t0 = Clock::now();
    while (!catchesSigterm() && msSince(t0) < 10e3) {
        if (::waitpid(pid_, &st, WNOHANG) == pid_) {
            pid_ = -1;
            return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::kill(pid_, SIGTERM);
    while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

uint64_t
ServerProcess::peakRssKb() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    return 0;
}

double
ServerProcess::cpuSeconds() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string all;
    std::getline(in, all);
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    const size_t close = all.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream rest(all.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14)
            utime = std::stoull(field);
        else if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

} // namespace perfbench
