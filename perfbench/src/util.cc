/**
 * @file
 * Shared benchmark helpers.
 */

#include "util.hh"

#include <algorithm>
#include <cmath>
#include <unistd.h>

#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

namespace perfbench
{

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * double(values.size()));
    const std::size_t idx =
        rank < 1 ? 0 : std::min(values.size() - 1, std::size_t(rank) - 1);
    return values[idx];
}

void
SubWindows::setWindow(std::uint64_t fromNs, std::uint64_t toNs)
{
    fromNs_ = fromNs;
    toNs_ = std::max(toNs, fromNs + 1);
}

std::size_t
SubWindows::index(std::uint64_t atNs) const
{
    if (atNs <= fromNs_)
        return 0;
    const double pos = double(atNs - fromNs_) / double(toNs_ - fromNs_);
    return std::min(kCount - 1, std::size_t(pos * double(kCount)));
}

void
SubWindows::latency(std::uint64_t atNs, double ms)
{
    latencies_[index(atNs)].push_back(ms);
}

void
SubWindows::completion(std::uint64_t atNs)
{
    if (atNs < toNs_)
        completions_[index(atNs)] += 1;
}

double
SubWindows::quantile(double q) const
{
    std::vector<double> per;
    for (const std::vector<double> &lat : latencies_)
        per.push_back(perfbench::quantile(lat, q));
    return median(per);
}

double
SubWindows::rate() const
{
    const double seconds = double(toNs_ - fromNs_) / 1e9 / kCount;
    return median(std::vector<double>(std::begin(completions_),
                                      std::end(completions_))) /
        seconds;
}

std::size_t
SubWindows::minSamples() const
{
    std::size_t n = latencies_[0].size();
    for (const std::vector<double> &lat : latencies_)
        n = std::min(n, lat.size());
    return n;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::exponential(double mean)
{
    return -mean * std::log(1.0 - unit());
}

double
peakRssMb(int pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("cannot read the peak RSS of pid " +
                             std::to_string(pid));
}

double
cpuSeconds(int pid)
{
    if (pid == getpid()) {
        struct timespec ts;
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
    }
    // Nanosecond run time of every live thread (schedstat's first
    // field); /proc/<pid>/stat would only give 10 ms ticks.
    double ns = 0;
    bool read = false;
    std::error_code ec;
    for (const auto &task : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid) + "/task", ec)) {
        std::ifstream stat(task.path() / "schedstat");
        double runNs = 0;
        if (stat >> runNs) {
            ns += runNs;
            read = true;
        }
    }
    if (!read)
        throw std::runtime_error("cannot read the CPU time of pid " +
                                 std::to_string(pid));
    return ns / 1e9;
}

HostTicks
hostTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
    if (!(stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
          softirq >> steal) ||
        cpu != "cpu")
        throw std::runtime_error("cannot read /proc/stat");
    return { user + nice + system + irq + softirq, steal };
}

double
stolenShare(const HostTicks &a, const HostTicks &b)
{
    const double wanted = (b.busy - a.busy) + (b.stolen - a.stolen);
    return wanted > 0 ? (b.stolen - a.stolen) / wanted : 0;
}

unsigned
workerCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(2u, hw));
}

} // namespace perfbench
