/**
 * @file
 * Load client implementation.
 */

#include "loadgen.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "mfusim/core/clock.hh"

namespace perfbench
{

using mfusim::monoNanos;

std::string
simulateWire(const std::string &body)
{
    return "POST /v1/simulate HTTP/1.1\r\nHost: localhost\r\n"
           "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
}

LoadClient::LoadClient(std::uint16_t port, unsigned connections)
{
    conns_.resize(connections);
    for (Conn &c : conns_) {
        c.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        struct sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (c.fd < 0 ||
            connect(c.fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) != 0) {
            error_ = std::string("connect: ") + std::strerror(errno);
            return;
        }
        const int one = 1;
        setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
}

LoadClient::~LoadClient()
{
    for (Conn &c : conns_)
        if (c.fd >= 0)
            close(c.fd);
}

std::size_t
LoadClient::inflight() const
{
    std::size_t n = 0;
    for (const Conn &c : conns_)
        if (!c.dead)
            n += c.inflight.size();
    return n;
}

void
LoadClient::send(Conn &c, const std::string &wire, std::size_t request,
                 std::uint64_t dueNs)
{
    const std::uint64_t now = monoNanos();
    c.inflight.push_back({ request, dueNs == 0 ? now : dueNs, now });
    c.out.append(wire);
}

void
LoadClient::flush(Conn &c)
{
    while (!c.dead && c.outOff < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.outOff,
                                 c.out.size() - c.outOff, MSG_NOSIGNAL);
        if (n > 0) {
            c.outOff += std::size_t(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else {
            c.dead = true;
        }
    }
    if (c.outOff == c.out.size()) {
        c.out.clear();
        c.outOff = 0;
    }
}

void
LoadClient::abandon(Conn &c, int index, const DoneFn &done)
{
    const std::uint64_t now = monoNanos();
    while (!c.inflight.empty()) {
        const Pending p = c.inflight.front();
        c.inflight.pop_front();
        done(Exchange{ p.request, p.dueNs, p.sentNs, now, 0, {}, index });
    }
}

void
LoadClient::receive(Conn &c, int index, const DoneFn &done)
{
    char buf[65536];
    for (;;) {
        const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            c.in.append(buf, std::size_t(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
            c.dead = true;
        break;
    }
    const std::uint64_t now = monoNanos();
    while (!c.inflight.empty()) {
        const std::size_t headEnd = c.in.find("\r\n\r\n", c.inOff);
        if (headEnd == std::string::npos)
            break;
        std::size_t lenAt = c.in.find("Content-Length:", c.inOff);
        if (lenAt == std::string::npos || lenAt > headEnd) {
            c.dead = true;
            break;
        }
        const std::size_t len =
            std::strtoul(c.in.c_str() + lenAt + 15, nullptr, 10);
        if (c.in.size() < headEnd + 4 + len)
            break;
        const Pending p = c.inflight.front();
        c.inflight.pop_front();
        Exchange x{ p.request, p.dueNs, p.sentNs, now,
                    std::atoi(c.in.c_str() + c.inOff + 9),
                    c.in.substr(headEnd + 4, len), index };
        c.inOff = headEnd + 4 + len;
        done(std::move(x));
    }
    if (c.inOff > 0 && c.inOff * 2 >= c.in.size()) {
        c.in.erase(0, c.inOff);
        c.inOff = 0;
    }
    if (c.dead)
        abandon(c, index, done);
}

void
LoadClient::pollOnce(std::uint64_t deadlineNs, const DoneFn &done)
{
    std::vector<struct pollfd> pfds;
    std::vector<int> which;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn &c = conns_[i];
        if (c.dead)
            continue;
        flush(c);
        short events = POLLIN;
        if (c.outOff < c.out.size())
            events |= POLLOUT;
        pfds.push_back({ c.fd, events, 0 });
        which.push_back(int(i));
    }
    if (pfds.empty())
        return;
    const std::uint64_t now = monoNanos();
    const std::uint64_t wait = deadlineNs > now ? deadlineNs - now : 0;
    struct timespec ts = { time_t(wait / 1'000'000'000ull),
                           long(wait % 1'000'000'000ull) };
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0)
        return;
    for (std::size_t k = 0; k < pfds.size(); ++k) {
        Conn &c = conns_[std::size_t(which[k])];
        if (pfds[k].revents & POLLOUT)
            flush(c);
        if (pfds[k].revents & (POLLIN | POLLHUP | POLLERR))
            receive(c, which[k], done);
    }
}

void
LoadClient::runClosed(const std::vector<std::string> &wires,
                      const std::function<std::size_t()> &next,
                      unsigned depth, std::uint64_t stopNs,
                      std::size_t maxSends, std::uint64_t drainNs,
                      const DoneFn &done)
{
    std::size_t sent = 0;
    const auto sending = [&] {
        return monoNanos() < stopNs && (maxSends == 0 || sent < maxSends);
    };
    while (sending()) {
        bool any = false;
        for (Conn &c : conns_) {
            if (c.dead)
                continue;
            any = true;
            while (c.inflight.size() < depth && sending()) {
                const std::size_t r = next();
                send(c, wires[r], r, 0);
                ++sent;
            }
        }
        if (!any)
            break;
        pollOnce(stopNs, done);
    }
    const std::uint64_t drainEnd = monoNanos() + drainNs;
    while (inflight() > 0 && monoNanos() < drainEnd)
        pollOnce(drainEnd, done);
    for (std::size_t i = 0; i < conns_.size(); ++i)
        abandon(conns_[i], int(i), done);
}

void
LoadClient::runOpen(
    const std::vector<std::string> &wires,
    const std::vector<std::pair<std::uint64_t, std::size_t>> &schedule,
    std::uint64_t drainNs, const DoneFn &done,
    std::vector<double> *lateMs)
{
    std::size_t next = 0;
    while (next < schedule.size()) {
        const std::uint64_t now = monoNanos();
        while (next < schedule.size() && schedule[next].first <= now) {
            Conn *best = nullptr;
            for (Conn &c : conns_)
                if (!c.dead &&
                    (best == nullptr ||
                     c.inflight.size() < best->inflight.size()))
                    best = &c;
            if (best == nullptr)
                break;
            lateMs->push_back(double(now - schedule[next].first) / 1e6);
            send(*best, wires[schedule[next].second],
                 schedule[next].second, schedule[next].first);
            ++next;
        }
        bool live = false;
        for (const Conn &c : conns_)
            live = live || !c.dead;
        if (!live)
            break;
        pollOnce(next < schedule.size() ? schedule[next].first : now,
                 done);
    }
    const std::uint64_t drainEnd = monoNanos() + drainNs;
    while (inflight() > 0 && monoNanos() < drainEnd)
        pollOnce(drainEnd, done);
    for (std::size_t i = 0; i < conns_.size(); ++i)
        abandon(conns_[i], int(i), done);
}

} // namespace perfbench
