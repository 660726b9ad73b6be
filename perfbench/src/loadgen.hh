/**
 * @file
 * Single-threaded HTTP/1.1 load client for the serve workloads.
 *
 * One thread drives a few keep-alive connections with non-blocking
 * sockets and ppoll().  Requests are pre-rendered wire bytes; the
 * client pipelines them and matches responses in order per
 * connection.  Two loops:
 *
 *  - closed: every connection keeps `depth` requests outstanding and
 *    sends the next one as each response arrives;
 *  - open: requests go out at scheduled times whatever the daemon's
 *    state, and latency is measured from the scheduled time, so a
 *    stall also counts against the requests queued behind it.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace perfbench
{

/** One finished (or failed) request. */
struct Exchange
{
    std::size_t request = 0;   //!< index into the wire list
    std::uint64_t dueNs = 0;   //!< scheduled send (open) or sendNs
    std::uint64_t sentNs = 0;
    std::uint64_t doneNs = 0;
    int status = 0;            //!< 0: transport failure or timeout
    std::string body;
    int connection = 0;
};

/** HTTP/1.1 wire bytes of a POST /v1/simulate carrying @p body. */
std::string simulateWire(const std::string &body);

class LoadClient
{
  public:
    using DoneFn = std::function<void(Exchange &&)>;

    /** Open @p connections keep-alive connections to localhost. */
    LoadClient(std::uint16_t port, unsigned connections);
    ~LoadClient();
    LoadClient(const LoadClient &) = delete;
    LoadClient &operator=(const LoadClient &) = delete;

    /** False (with error()) when a connection could not be opened. */
    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    /**
     * Closed loop: keep @p depth requests in flight per connection,
     * the next index from @p next(), until @p stopNs or @p maxSends
     * requests (0 = unlimited); then wait up to @p drainNs for the
     * rest.  Unanswered requests are reported with status 0.
     */
    void runClosed(const std::vector<std::string> &wires,
                   const std::function<std::size_t()> &next,
                   unsigned depth, std::uint64_t stopNs,
                   std::size_t maxSends, std::uint64_t drainNs,
                   const DoneFn &done);

    /**
     * Open loop: send request @p schedule[i].second at monotonic time
     * @p schedule[i].first (sorted), on the connection with the
     * fewest requests in flight; then wait up to @p drainNs.  Appends
     * how late each send was, in ms, to @p lateMs.
     */
    void runOpen(const std::vector<std::string> &wires,
                 const std::vector<std::pair<std::uint64_t, std::size_t>>
                     &schedule,
                 std::uint64_t drainNs, const DoneFn &done,
                 std::vector<double> *lateMs);

  private:
    struct Pending
    {
        std::size_t request;
        std::uint64_t dueNs;
        std::uint64_t sentNs;
    };
    struct Conn
    {
        int fd = -1;
        std::string out;
        std::size_t outOff = 0;
        std::string in;
        std::size_t inOff = 0;
        std::deque<Pending> inflight;
        bool dead = false;
    };

    void send(Conn &c, const std::string &wire, std::size_t request,
              std::uint64_t dueNs);
    void flush(Conn &c);
    /** Read and hand every complete response to @p done. */
    void receive(Conn &c, int index, const DoneFn &done);
    /** Fail every request in flight on @p c. */
    void abandon(Conn &c, int index, const DoneFn &done);
    /** ppoll all live connections until @p deadlineNs at the latest. */
    void pollOnce(std::uint64_t deadlineNs, const DoneFn &done);
    std::size_t inflight() const;

    std::vector<Conn> conns_;
    std::string error_;
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
