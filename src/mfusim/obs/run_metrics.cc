/**
 * @file
 * Standard metric derivation from one recorded run.
 */

#include "mfusim/obs/run_metrics.hh"

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/dataflow/period_detector.hh"

namespace mfusim
{

namespace
{

constexpr ClockCycle kNoCycle = PipeTraceRecorder::kNoCycle;

std::string
stallCounterName(StallCause cause)
{
    return std::string("cycles.stall.") + stallCauseName(cause);
}

/**
 * Build the per-cycle occupancy profile of [in, out) intervals and
 * feed it into a histogram + time series.  Intervals are clipped to
 * [0, total); @p total bounds the profile length.
 */
void
recordOccupancy(MetricsRegistry &metrics, const std::string &name,
                const std::vector<std::pair<ClockCycle, ClockCycle>>
                    &intervals,
                ClockCycle total)
{
    if (total == 0 || intervals.empty())
        return;
    std::vector<std::int32_t> delta(std::size_t(total) + 1, 0);
    for (const auto &[in, out] : intervals) {
        if (in >= total)
            continue;
        ++delta[std::size_t(in)];
        --delta[std::size_t(std::min(out, total))];
    }
    Histogram &hist = metrics.histogram(name, 1, 64);
    TimeSeries &ts = metrics.series(name + ".series");
    std::int64_t occ = 0;
    for (ClockCycle c = 0; c < total; ++c) {
        occ += delta[std::size_t(c)];
        hist.record(std::uint64_t(occ));
        ts.record(c, double(occ));
    }
}

} // namespace

void
populateRunMetrics(MetricsRegistry &metrics, const DecodedTrace &trace,
                   const PipeTraceRecorder &recorder,
                   const SimResult &result, const Simulator &sim)
{
    const std::size_t n = std::min(recorder.opCount(), trace.size());
    const ClockCycle total = result.cycles;

    metrics.setLabel("sim", sim.name());
    metrics.setLabel("trace", trace.name());

    metrics.counter("ops.total").add(trace.size());
    metrics.counter("cycles.total").add(total);
    metrics.gauge("issue_rate").add(result.issueRate());

    // ---- event counts per pipeline phase -------------------------
    std::uint64_t nIssue = 0, nDispatch = 0, nComplete = 0,
                  nInsert = 0, nCommit = 0;
    for (std::size_t i = 0; i < n; ++i) {
        nIssue += recorder.issue(i) != kNoCycle;
        nDispatch += recorder.dispatch(i) != kNoCycle;
        nComplete += recorder.complete(i) != kNoCycle;
        nInsert += recorder.insert(i) != kNoCycle;
        nCommit += recorder.commit(i) != kNoCycle;
    }
    metrics.counter("events.issue").add(nIssue);
    metrics.counter("events.dispatch").add(nDispatch);
    metrics.counter("events.complete").add(nComplete);
    metrics.counter("events.insert").add(nInsert);
    metrics.counter("events.commit").add(nCommit);

    if (total == 0)
        return;

    // ---- the per-cycle accounting identity -----------------------
    // A cycle is front-active if at least one op had its front event
    // (issue / insert) then.  Events stamped exactly at `total` (an
    // op completing on the final cycle boundary) fall outside the
    // counted range by definition.
    std::vector<std::uint8_t> frontActive(std::size_t(total), 0);
    for (std::size_t i = 0; i < n; ++i) {
        const ClockCycle front = recorder.front(i);
        if (front != kNoCycle && front < total)
            frontActive[std::size_t(front)] = 1;
    }
    std::uint64_t activeCycles = 0;
    for (const std::uint8_t a : frontActive)
        activeCycles += a;
    metrics.counter("cycles.front_active").add(activeCycles);

    std::uint64_t stallCycles = 0;
    std::array<std::uint64_t, kNumStallCauses> byCause{};
    for (const StallSample &s : recorder.stalls()) {
        if (s.from >= total)
            continue;
        const std::uint64_t charge =
            std::min<std::uint64_t>(s.cycles, total - s.from);
        byCause[unsigned(s.cause)] += charge;
        stallCycles += charge;
    }
    for (unsigned c = 0; c < kNumStallCauses; ++c) {
        if (byCause[c])
            metrics.counter(stallCounterName(StallCause(c)))
                .add(byCause[c]);
    }

    if (activeCycles + stallCycles > total) {
        throw Error("populateRunMetrics: stall attribution overlaps "
                    "issue cycles for " + sim.name() + " on " +
                    trace.name() + ": " +
                    std::to_string(activeCycles) + " active + " +
                    std::to_string(stallCycles) + " stalled > " +
                    std::to_string(total) + " total");
    }
    metrics.counter("cycles.drain")
        .add(total - activeCycles - stallCycles);

    // ---- per-FU busy cycles and utilization ----------------------
    std::array<std::uint64_t, kNumFuClasses> fuBusy{};
    std::vector<std::pair<ClockCycle, ClockCycle>> inflight;
    inflight.reserve(n);
    std::uint64_t completions = 0;
    std::vector<std::uint32_t> perCycleCompletes(std::size_t(total) + 1,
                                                 0);
    for (std::size_t i = 0; i < n; ++i) {
        const ClockCycle exec = recorder.exec(i);
        const ClockCycle complete = recorder.complete(i);
        if (exec != kNoCycle && complete != kNoCycle &&
            complete > exec)
            fuBusy[unsigned(trace.fu(i))] += complete - exec;
        const ClockCycle front = recorder.front(i);
        if (front != kNoCycle && complete != kNoCycle)
            inflight.emplace_back(front, complete);
        if (complete != kNoCycle && trace.producesResult(i)) {
            ++completions;
            if (complete <= total)
                ++perCycleCompletes[std::size_t(
                    std::min(complete, total))];
        }
    }
    for (unsigned fu = 0; fu < kNumFuClasses; ++fu) {
        if (!fuBusy[fu])
            continue;
        const std::string base =
            std::string("fu.") + fuClassName(FuClass(fu));
        metrics.counter(base + ".busy_cycles").add(fuBusy[fu]);
        metrics.gauge(base + ".utilization")
            .add(double(fuBusy[fu]) / double(total));
    }

    // ---- result-bus pressure -------------------------------------
    metrics.counter("bus.completions").add(completions);
    Histogram &busHist =
        metrics.histogram("bus.completions_per_cycle", 1, 9);
    for (ClockCycle c = 1; c <= total; ++c)
        busHist.record(perCycleCompletes[std::size_t(c)]);

    // ---- occupancy profiles --------------------------------------
    recordOccupancy(metrics, "occupancy.inflight", inflight, total);
    if (nInsert) {
        std::vector<std::pair<ClockCycle, ClockCycle>> window;
        window.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const ClockCycle in = recorder.insert(i);
            if (in == kNoCycle)
                continue;
            ClockCycle out = recorder.commit(i);
            if (out == kNoCycle)
                out = recorder.complete(i);
            if (out == kNoCycle)
                out = in + 1;
            window.emplace_back(in, out);
        }
        recordOccupancy(metrics, "occupancy.window", window, total);
    }

    // ---- front-to-dispatch wait decomposition --------------------
    // For machines that park ops past the front end (CDC, Tomasulo,
    // RUU), split each op's front->dispatch gap into operand waiting
    // (a producer completed inside the gap) and everything else
    // (unit / slot contention).  Purely diagnostic: these overlap
    // each other across ops and are NOT part of the cycle identity.
    std::uint64_t overlapRaw = 0, overlapStructural = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const ClockCycle front = recorder.front(i);
        const ClockCycle dispatch = recorder.dispatch(i);
        if (front == kNoCycle || dispatch == kNoCycle ||
            dispatch <= front)
            continue;
        const std::uint64_t wait = dispatch - front;
        ClockCycle rawUntil = 0;
        for (const std::uint32_t prod :
             { trace.prodA(i), trace.prodB(i) }) {
            if (prod == DecodedTrace::kNoProducer ||
                prod >= recorder.opCount())
                continue;
            const ClockCycle done = recorder.complete(prod);
            if (done != kNoCycle)
                rawUntil = std::max(rawUntil, done);
        }
        const std::uint64_t rawPart = rawUntil > front
            ? std::min<std::uint64_t>(wait, rawUntil - front)
            : 0;
        overlapRaw += rawPart;
        overlapStructural += wait - rawPart;
    }
    if (overlapRaw)
        metrics.counter("overlap.raw_wait_cycles").add(overlapRaw);
    if (overlapStructural)
        metrics.counter("overlap.structural_wait_cycles")
            .add(overlapStructural);

    // ---- steady-state telemetry ----------------------------------
    const TracePeriodicity &periodicity = trace.periodicity();
    metrics.gauge("steady.segments")
        .add(double(periodicity.segments.size()));
    if (!trace.empty())
        metrics.gauge("steady.coverage_pct")
            .add(100.0 * double(periodicity.coveredOps) /
                 double(trace.size()));
    metrics.counter("steady.ops_skipped").add(result.steadyOpsSkipped);
}

} // namespace mfusim
