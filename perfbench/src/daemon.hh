/**
 * @file
 * The `mfusim serve` daemon as the serve workloads see it: a child
 * process launched from the repository's own binary, plus the small
 * blocking HTTP helpers used outside the timed window (/healthz,
 * /metrics).
 */

#ifndef PERFBENCH_DAEMON_HH
#define PERFBENCH_DAEMON_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench
{

/** Workers every daemon runs with. */
constexpr unsigned kDaemonWorkers = 2;

class Daemon
{
  public:
    /** @p cacheDir becomes the daemon's --cache-dir. */
    Daemon(std::string binary, std::string cacheDir);
    /** Kills and reaps a daemon that was not stopped. */
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Launch the daemon on an ephemeral port and wait for its first
     * /healthz 200.  Returns false with @p problem set on failure.
     */
    bool start(std::string *problem);

    /**
     * SIGTERM and wait for a clean drain: exit status 0 and the
     * "drained, bye" line.  Returns false with @p problem set
     * otherwise (the daemon is then killed).
     */
    bool stop(std::string *problem);

    /** Seconds from spawn to the first /healthz 200. */
    double readySeconds() const { return readySeconds_; }
    /** CPU seconds the daemon had used by its first /healthz 200. */
    double readyCpuSeconds() const { return readyCpuSeconds_; }
    std::uint16_t port() const { return port_; }
    int pid() const { return pid_; }

  private:
    /**
     * Read daemon output until @p needle shows at or after offset
     * @p from, or the deadline passes.
     */
    bool readUntil(const std::string &needle, std::uint64_t deadlineNs,
                   std::size_t from = 0);
    void kill();

    std::string binary_;
    std::string cacheDir_;
    int pid_ = -1;
    int outFd_ = -1;
    std::uint16_t port_ = 0;
    double readySeconds_ = 0;
    double readyCpuSeconds_ = 0;
    std::string output_;
};

struct HttpReply
{
    int status = 0;
    std::string body;
};

/** Blocking GET on localhost; false on any transport failure. */
bool httpGet(std::uint16_t port, const std::string &path,
             HttpReply *reply);

/**
 * The daemon's Prometheus text as "name{labels}" -> value, with the
 * per-build `version` label dropped so keys are stable.
 */
std::map<std::string, double> scrapeMetrics(std::uint16_t port);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HH
