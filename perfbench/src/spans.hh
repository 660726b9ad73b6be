/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The benchmark times each layer from outside, by wrapping its calls
 * into the library's public functions in spans.  Spans on track 0
 * nest strictly (they are opened and closed on the driver's main
 * thread), so a layer's self time — its spans' durations minus the
 * time their children cover — sums with every other layer's to the
 * root span's duration exactly.  The root span and the grouping
 * spans under it belong to the "driver" layer: their self time is the
 * unattributed remainder.
 *
 * Request spans of the serve workloads overlap one another (several
 * are in flight at once), so they live on tracks >= 1: the trace
 * checker verifies that each lies inside its parent, but they take
 * no part in the self-time split.
 *
 * When disabled (the end-to-end runs) open() returns -1 and records
 * nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** The layers a span can be attributed to, named after src/mfusim/. */
inline const std::vector<std::string> &
spanLayers()
{
    static const std::vector<std::string> layers = {
        "codegen", "core", "dataflow", "sim", "harness", "serve",
        "driver",
    };
    return layers;
}

struct Span
{
    std::string name;
    std::string layer;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;   //!< 0 while open
    std::int64_t id = 0;
    std::int64_t parent = -1;  //!< -1 for the root
    std::string ref;           //!< cell or request id, may be empty
    int track = 0;
};

class SpanRecorder
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a track-0 span under the innermost open one. */
    std::int64_t open(const std::string &name, const std::string &layer,
                      const std::string &ref = "");

    /** Close track-0 span @p id (must be the innermost open one). */
    void close(std::int64_t id);

    /** Record a finished overlapping span (track >= 1). */
    void addRequest(const std::string &name, std::uint64_t startNs,
                    std::uint64_t endNs, std::int64_t parent,
                    const std::string &ref, int track);

    /**
     * Self time per layer (nanoseconds) over the track-0 spans; the
     * "driver" entry is the unattributed remainder.
     */
    std::map<std::string, std::uint64_t> selfNanos() const;

    /** Root span duration in nanoseconds (0 if none). */
    std::uint64_t wallNanos() const;

    /** Summed durations of track-0 spans called @p name. */
    std::uint64_t totalNanos(const std::string &name) const;

    /** Number of track-0 spans called @p name. */
    std::size_t count(const std::string &name) const;

    /**
     * Chrome trace-event JSON ("X" events, microsecond ts/dur, exact
     * nanoseconds in args) with the per-layer split in otherData.
     */
    void writeTraceEvents(std::ostream &out,
                          const std::string &workload) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::int64_t> stack_;
};

/** The recorder the workloads share. */
SpanRecorder &spans();

/** RAII track-0 span; free when the recorder is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(const std::string &name, const std::string &layer,
               const std::string &ref = "")
        : id_(spans().enabled() ? spans().open(name, layer, ref) : -1)
    {}
    ~ScopedSpan()
    {
        if (id_ >= 0)
            spans().close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::int64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
