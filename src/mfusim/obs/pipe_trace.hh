/**
 * @file
 * PipeTraceRecorder: per-op pipeline schedules from the audit event
 * stream, exported as Chrome/Perfetto trace-event JSON or an ASCII
 * pipeview.
 *
 * The recorder is a passive AuditSink: it stores each op's phase
 * cycles (issue / dispatch / complete, plus insert / commit for the
 * RUU) and every attributed stall sample, nothing else.  Exporters
 * then lay the schedule out on tracks:
 *
 *   - one track per issue slot (multi-issue machines tag issue
 *     events with their slot; single-issue machines use slot 0),
 *   - one track per functional-unit class showing [exec, complete)
 *     busy intervals,
 *   - one track per result bus / CDB showing completion slots,
 *   - one stall track with the attributed front-end waits, and
 *   - a counter track with the in-flight op count over time.
 *
 * Cycle N maps to timestamp N µs, so Perfetto's time axis reads
 * directly in cycles.
 */

#ifndef MFUSIM_OBS_PIPE_TRACE_HH
#define MFUSIM_OBS_PIPE_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/types.hh"
#include "mfusim/sim/audit.hh"

namespace mfusim
{

/** Records a full per-op pipeline schedule from the event stream. */
class PipeTraceRecorder : public AuditSink
{
  public:
    /** Phase not reached by this op (e.g. dispatch on SimpleSim). */
    static constexpr ClockCycle kNoCycle = ~ClockCycle(0);

    void onEvent(const AuditEvent &event) override;
    void onStall(const StallSample &sample) override;

    /** Ops seen so far (grows with the largest op index observed). */
    std::size_t opCount() const { return issue_.size(); }

    ClockCycle issue(std::size_t i) const { return issue_[i]; }
    ClockCycle dispatch(std::size_t i) const { return dispatch_[i]; }
    ClockCycle complete(std::size_t i) const { return complete_[i]; }
    ClockCycle insert(std::size_t i) const { return insert_[i]; }
    ClockCycle commit(std::size_t i) const { return commit_[i]; }

    std::int32_t issueUnit(std::size_t i) const { return issueUnit_[i]; }
    std::int32_t
    completeUnit(std::size_t i) const
    {
        return completeUnit_[i];
    }

    /**
     * The op's front-event cycle: insert for windowed machines,
     * otherwise issue.  kNoCycle if the op never entered the front.
     */
    ClockCycle front(std::size_t i) const;

    /**
     * The op's execution-start cycle: dispatch where the machine
     * distinguishes it, otherwise the front event.
     */
    ClockCycle exec(std::size_t i) const;

    const std::vector<StallSample> &stalls() const { return stalls_; }

  private:
    void ensure(std::size_t op);

    std::vector<ClockCycle> issue_, dispatch_, complete_, insert_,
        commit_;
    std::vector<std::int32_t> issueUnit_, completeUnit_;
    std::vector<StallSample> stalls_;
};

/**
 * Write the recorded schedule as Chrome trace-event JSON (the format
 * Perfetto, chrome://tracing and speedscope load).  @p trace supplies
 * mnemonics and FU classes for track assignment; @p label names the
 * process (conventionally "<sim> <config> <trace>").
 */
void writeChromeTrace(std::ostream &os,
                      const PipeTraceRecorder &recorder,
                      const DecodedTrace &trace,
                      const std::string &label);

/**
 * Write a compact ASCII pipeview: one row per op, one column per
 * cycle.  Markers: I issue/insert, D dispatch, C complete, R retire
 * (commit), '=' executing, '.' waiting in the front end / window.
 * Shows the first @p maxOps ops and at most @p maxCols cycle columns
 * (both clamped), noting any truncation.
 */
void writePipeview(std::ostream &os, const PipeTraceRecorder &recorder,
                   const DecodedTrace &trace, std::size_t maxOps = 48,
                   std::size_t maxCols = 120);

} // namespace mfusim

#endif // MFUSIM_OBS_PIPE_TRACE_HH
