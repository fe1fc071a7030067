/**
 * @file
 * A cobra_server child process: started with vfork/exec, stopped with
 * SIGTERM (or SIGKILL from the destructor if perfbench unwinds early),
 * and always reaped, so the benchmark never leaves a daemon behind.
 */

#ifndef PERFBENCH_SERVER_PROCESS_H
#define PERFBENCH_SERVER_PROCESS_H

#include <string>
#include <vector>

#include <sys/types.h>

#include "src/util/error.h"

namespace perfbench {

class ServerProcess
{
  public:
    /**
     * @param binary path of the cobra_server executable
     * @param args its arguments (argv[1..])
     * @param log_path file receiving the daemon's stdout and stderr
     */
    ServerProcess(std::string binary, std::vector<std::string> args,
                  std::string log_path);

    /** Kills (SIGKILL) and reaps a still-running child. */
    ~ServerProcess();

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** vfork + exec; the child dies with perfbench (PR_SET_PDEATHSIG). */
    cobra::Status start();

    /** Poll until @p socket_path accepts a connection. */
    cobra::Status waitReady(const std::string &socket_path,
                            double timeout_s) const;

    /** SIGTERM, then wait for exit. Returns the exit status (-1 when
     * the child was killed by a signal or never started). */
    int terminate();

    /** Peak resident set (VmHWM) in KiB; 0 when unreadable. */
    uint64_t peakRssKb() const;

    /** User + system CPU seconds consumed so far. */
    double cpuSeconds() const;

  private:
    /** Whether the child has installed a SIGTERM handler (SigCgt). */
    bool catchesSigterm() const;

    std::string binary_;
    std::vector<std::string> args_;
    std::string logPath_;
    pid_t pid_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SERVER_PROCESS_H
