/**
 * @file
 * Small helpers shared by the benchmark workloads: clocks, order
 * statistics, a seeded generator, process memory and the result
 * record every workload fills in.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mfusim/core/clock.hh"

namespace perfbench
{

using mfusim::monoNanos;

inline double
msSince(std::uint64_t startNs)
{
    return double(monoNanos() - startNs) / 1e6;
}

/** Nearest-rank quantile (q in [0, 1]) of @p values; 0 when empty. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * Samples filed under equal sub-windows of a timed window.  Each
 * figure is the median across sub-windows of that sub-window's own
 * statistic, so a burst of host noise (CPU steal on a shared VM)
 * moves one sub-window rather than the reported value.
 */
class SubWindows
{
  public:
    static constexpr std::size_t kCount = 10;

    /** The window [fromNs, toNs); samples outside it are clamped. */
    void setWindow(std::uint64_t fromNs, std::uint64_t toNs);

    /** A latency sample of an operation that started at @p atNs. */
    void latency(std::uint64_t atNs, double ms);

    /** An operation that completed at @p atNs. */
    void completion(std::uint64_t atNs);

    /** Median over sub-windows of the q-quantile of their latencies. */
    double quantile(double q) const;

    /** Median over sub-windows of completions per second. */
    double rate() const;

    /** Fewest latency samples in any sub-window. */
    std::size_t minSamples() const;

  private:
    std::size_t index(std::uint64_t atNs) const;

    std::uint64_t fromNs_ = 0;
    std::uint64_t toNs_ = 1;
    std::vector<double> latencies_[kCount];
    double completions_[kCount] = {};
};

/** splitmix64: a seeded, platform-independent generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform double in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

    /** Exponentially distributed with mean @p mean. */
    double exponential(double mean);

  private:
    std::uint64_t state_;
};

/** Peak resident set (VmHWM) of process @p pid in MB; throws if unknown. */
double peakRssMb(int pid);

/**
 * CPU time process @p pid has used, in seconds: all threads of this
 * process, or the live threads of another; throws if unknown.  Time
 * the hypervisor steals from the VM is not charged to a thread, so CPU
 * time per operation holds steady on a shared host where wall-clock
 * rates do not.
 */
double cpuSeconds(int pid);

/** CPU ticks of the whole machine so far, from /proc/stat. */
struct HostTicks
{
    double busy = 0;    //!< user, nice, system, irq and softirq
    double stolen = 0;  //!< runnable but not run by the hypervisor
};
HostTicks hostTicks();

/** Share of the wanted CPU time the hypervisor stole from @p a to @p b. */
double stolenShare(const HostTicks &a, const HostTicks &b);

/** Workers a workload uses: min(2, nproc), never 0. */
unsigned workerCount();

/** What a workload hands back to driver.cc for printing. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Human-readable reasons for `correct == false` or failures. */
    std::vector<std::string> problems;
    /** name -> (value, unit), end-to-end or per-layer by mode. */
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Property shares an optimisation might target (always set). */
    std::map<std::string, double> properties;
    /** Workload parameters, for the result file's provenance. */
    std::map<std::string, std::string> params;
    /** Extra files written (cell digests, traces), by role. */
    std::map<std::string, std::string> files;

    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics[name] = { value, unit };
    }

    void
    fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
};

/** Command-line settings common to every workload. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** The `mfusim` CLI binary the serve workloads launch. */
    std::string mfusimBinary;
    /** Directory (inside the checkout) for scratch and result files. */
    std::string outDir;
    /** Stem for files this run writes under outDir. */
    std::string stem;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
