/**
 * @file
 * Daemon process control and blocking HTTP helpers.
 */

#include "daemon.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "mfusim/core/clock.hh"
#include "util.hh"

extern char **environ;

namespace perfbench
{

using mfusim::monoNanos;

namespace
{

constexpr std::uint64_t kStartTimeoutNs = 20'000'000'000ull;
constexpr std::uint64_t kDrainTimeoutNs = 20'000'000'000ull;

/** Content-Length of a header block (lower-cased search); -1 if absent. */
long
contentLength(const std::string &head)
{
    std::string lower = head;
    for (char &c : lower)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    const std::size_t at = lower.find("content-length:");
    if (at == std::string::npos)
        return -1;
    return std::strtol(head.c_str() + at + 15, nullptr, 10);
}

} // namespace

Daemon::Daemon(std::string binary, std::string cacheDir)
    : binary_(std::move(binary)), cacheDir_(std::move(cacheDir))
{}

Daemon::~Daemon()
{
    kill();
}

void
Daemon::kill()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }
    if (outFd_ >= 0) {
        close(outFd_);
        outFd_ = -1;
    }
}

bool
Daemon::readUntil(const std::string &needle, std::uint64_t deadlineNs,
                  std::size_t from)
{
    char buf[4096];
    while (output_.find(needle, from) == std::string::npos) {
        const std::uint64_t now = monoNanos();
        if (now >= deadlineNs)
            return false;
        struct pollfd pfd = { outFd_, POLLIN, 0 };
        const int ms = int((deadlineNs - now) / 1'000'000) + 1;
        if (poll(&pfd, 1, ms) < 0 && errno != EINTR)
            return false;
        if ((pfd.revents & (POLLIN | POLLHUP)) == 0)
            continue;
        const ssize_t n = read(outFd_, buf, sizeof(buf));
        if (n <= 0)
            return output_.find(needle, from) != std::string::npos;
        output_.append(buf, std::size_t(n));
    }
    return true;
}

bool
Daemon::start(std::string *problem)
{
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
        *problem = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
    const std::string workers = std::to_string(kDaemonWorkers);
    std::vector<std::string> args = { "mfusim", "serve",     "--port",
                                      "0",      "--workers", workers,
                                      "--cache-dir", cacheDir_ };
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const std::uint64_t t0 = monoNanos();
    const int rc = posix_spawn(&pid_, binary_.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    outFd_ = fds[0];
    if (rc != 0) {
        pid_ = -1;
        *problem = "spawn " + binary_ + ": " + std::strerror(rc);
        return false;
    }
    // "... listening on port N (...)\n": wait for the whole line.
    const std::string marker = "listening on port ";
    if (!readUntil(marker, t0 + kStartTimeoutNs) ||
        !readUntil("\n", t0 + kStartTimeoutNs, output_.find(marker))) {
        *problem = "daemon did not report its port: " + output_;
        kill();
        return false;
    }
    port_ = std::uint16_t(std::strtoul(
        output_.c_str() + output_.find(marker) + marker.size(), nullptr,
        10));
    HttpReply reply;
    while (!httpGet(port_, "/healthz", &reply) || reply.status != 200) {
        if (monoNanos() - t0 > kStartTimeoutNs) {
            *problem = "daemon never answered /healthz 200";
            kill();
            return false;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    readySeconds_ = double(monoNanos() - t0) / 1e9;
    readyCpuSeconds_ = cpuSeconds(pid_);
    return true;
}

bool
Daemon::stop(std::string *problem)
{
    if (pid_ <= 0) {
        *problem = "daemon not running";
        return false;
    }
    ::kill(pid_, SIGTERM);
    const std::uint64_t deadline = monoNanos() + kDrainTimeoutNs;
    readUntil("drained, bye", deadline);
    int status = 0;
    for (;;) {
        const pid_t got = waitpid(pid_, &status, WNOHANG);
        if (got == pid_)
            break;
        if (monoNanos() > deadline) {
            *problem = "daemon did not exit within the drain timeout";
            kill();
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    close(outFd_);
    outFd_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        *problem = "daemon exited uncleanly (status " +
            std::to_string(status) + "): " + output_;
        return false;
    }
    if (output_.find("drained, bye") == std::string::npos) {
        *problem = "daemon exited without draining: " + output_;
        return false;
    }
    return true;
}

bool
httpGet(std::uint16_t port, const std::string &path, HttpReply *reply)
{
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    struct timeval tv = { 10, 0 };
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bool ok = connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0;
    const std::string request = "GET " + path +
        " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
    ok = ok && send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
            ssize_t(request.size());
    std::string in;
    char buf[16384];
    while (ok) {
        const std::size_t headEnd = in.find("\r\n\r\n");
        if (headEnd != std::string::npos) {
            const long len = contentLength(in.substr(0, headEnd));
            if (len >= 0 && in.size() >= headEnd + 4 + std::size_t(len))
                break;
        }
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        in.append(buf, std::size_t(n));
    }
    close(fd);
    const std::size_t headEnd = in.find("\r\n\r\n");
    if (!ok || in.rfind("HTTP/1.", 0) != 0 || headEnd == std::string::npos)
        return false;
    reply->status = std::atoi(in.c_str() + 9);
    reply->body = in.substr(headEnd + 4);
    return true;
}

std::map<std::string, double>
scrapeMetrics(std::uint16_t port)
{
    std::map<std::string, double> out;
    HttpReply reply;
    if (!httpGet(port, "/metrics", &reply) || reply.status != 200)
        return out;
    std::istringstream in(reply.body);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.rfind(' ');
        if (space == std::string::npos)
            continue;
        std::string key = line.substr(0, space);
        // Drop the version label, wherever it sits in the list.
        const std::size_t v = key.find("version=\"");
        if (v != std::string::npos) {
            const std::size_t end = key.find('"', v + 9);
            std::size_t from = v, to = end + 1;
            if (to < key.size() && key[to] == ',')
                ++to;
            else if (from > 0 && key[from - 1] == ',')
                --from;
            key.erase(from, to - from);
            if (key.size() >= 2 && key.compare(key.size() - 2, 2, "{}") == 0)
                key.resize(key.size() - 2);
        }
        out[key] = std::strtod(line.c_str() + space + 1, nullptr);
    }
    return out;
}

} // namespace perfbench
