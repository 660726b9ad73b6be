/**
 * @file
 * SimAudit: an opt-in cycle-level legality auditor.
 *
 * Every simulator computes a schedule — (issue, dispatch, complete)
 * cycles per op — under its organization's issue rules.  A bug in the
 * hazard logic does not crash; it silently shifts an issue rate.
 * SimAudit closes that gap: with an AuditSink attached, a simulator
 * emits one AuditEvent per pipeline event, and an Auditor re-checks
 * the *complete* schedule against an independent statement of the
 * organization's invariants (AuditRules):
 *
 *  - RAW: no op executes before its program-order producers' results
 *    are available (vector chaining adjusts availability to the
 *    producer's first element);
 *  - FU occupancy: concurrent busy intervals per functional-unit
 *    class never exceed the configured unit / memory-port counts
 *    under the configured discipline;
 *  - result busses: completion slots are exclusive per bus per cycle
 *    (per-unit, single, or crossbar-counted);
 *  - issue order and width: sequential-issue machines issue in
 *    buffer order; no machine exceeds its per-cycle issue width;
 *  - branches: nothing issues under a blocking branch's floor, and a
 *    blocking branch waits for its condition;
 *  - WAW-serial machines complete same-register writes in order;
 *  - windowed machines (RUU capacity, Tomasulo reservation stations,
 *    CDC 6600 waiting stations) never exceed their buffer sizes;
 *  - completion times are consistent with issue + latency +
 *    occupancy.
 *
 * A violation raises AuditError with a cycle-stamped dump of the ops
 * involved.  The auditor re-derives everything from the decoded
 * trace, so it shares no hazard code with the simulators — the two
 * implementations check each other.
 *
 * Cost model: emission is one predictable null-pointer test per
 * event when no sink is attached (audit-off runs are unchanged);
 * checking happens once, after the run.
 */

#ifndef MFUSIM_SIM_AUDIT_HH
#define MFUSIM_SIM_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/types.hh"
#include "mfusim/funits/functional_unit.hh"
#include "mfusim/funits/memory_port.hh"
#include "mfusim/funits/result_bus.hh"

namespace mfusim
{

/** Pipeline event kinds a simulator can emit. */
enum class AuditPhase : std::uint8_t
{
    kIssue,     //!< op left the issue stage (front event of most sims)
    kDispatch,  //!< op entered its functional unit
    kComplete,  //!< op's result became available
    kInsert,    //!< op entered the RUU window (RUU front event)
    kCommit,    //!< op retired from the RUU head
    kWrongPath, //!< a wrong-path op occupied a fetch slot (op =
                //!< the mispredicted branch, unit = slot ordinal)
    kSquash,    //!< a mispredicted branch resolved and flushed its
                //!< younger ops (op = the branch)
};

/** One cycle-stamped pipeline event. */
struct AuditEvent
{
    ClockCycle cycle;       //!< when the event happened
    std::uint64_t op;       //!< trace index of the op
    std::int32_t unit;      //!< bus / slot / bank id, or -1 if none
    AuditPhase phase;
};

/**
 * Why an issue stage lost cycles.  The schedule alone cannot say
 * which hazard was binding while the issue stage sat idle, so every
 * simulator reports it at the exact point where it resolves a wait
 * (binding hazard in check order).  The causes mirror the paper's
 * conflict classes:
 *
 *   | cause        | paper conflict class                          |
 *   |--------------|-----------------------------------------------|
 *   | kRaw         | data-dependency conflict (operand not ready)  |
 *   | kWaw         | register reservation (WAW-serial completion)  |
 *   | kFuBusy      | functional-unit conflict                      |
 *   | kBusBusy     | result-bus / CDB completion-slot conflict     |
 *   | kBranch      | control: condition wait + branch issue floor  |
 *   | kBufferDrain | issue buffer / RUU window / station pool full |
 *   | kSerial      | Simple machine's one-op-at-a-time execution   |
 */
enum class StallCause : std::uint8_t
{
    kRaw,           //!< source operand not yet available
    kWaw,           //!< destination register still reserved
    kFuBusy,        //!< functional unit / memory port busy
    kBusBusy,       //!< no free result-bus / CDB completion slot
    kBranch,        //!< branch condition wait + branch issue floor
    kBufferDrain,   //!< issue buffer / RUU window / stations full
    kSerial,        //!< serial execution (Simple machine)
    kMispredict,    //!< front end fetching the wrong path
    kSquashDrain,   //!< post-squash refetch (branchTime redirect)
    kOther,         //!< unclassifiable (should not occur)
    kNumCauses
};

constexpr unsigned kNumStallCauses =
    static_cast<unsigned>(StallCause::kNumCauses);

/** Stable metric-name spelling of a cause, e.g. "fu_busy". */
inline const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::kRaw:         return "raw";
      case StallCause::kWaw:         return "waw";
      case StallCause::kFuBusy:      return "fu_busy";
      case StallCause::kBusBusy:     return "bus_busy";
      case StallCause::kBranch:      return "branch";
      case StallCause::kBufferDrain: return "buffer_drain";
      case StallCause::kSerial:      return "serial";
      case StallCause::kMispredict:  return "mispredict";
      case StallCause::kSquashDrain: return "squash_drain";
      default:                       return "other";
    }
}

/**
 * One attributed front-end stall: the issue stage lost @p cycles
 * consecutive cycles starting at @p from because op @p op was blocked
 * by @p cause.  Samples from one run never overlap each other or an
 * issue cycle, so their lengths sum into an exclusive per-cycle
 * accounting (see obs/run_metrics.hh).
 */
struct StallSample
{
    ClockCycle from;        //!< first stalled cycle
    ClockCycle cycles;      //!< consecutive cycles lost (>= 1)
    std::uint64_t op;       //!< trace index of the blocked op
    StallCause cause;
};

/**
 * Receiver of a simulator's audit event stream and of its stall
 * samples, the one stall accounting every simulator feeds.  Sinks
 * that check only the schedule (Auditor) keep the no-op onStall.
 */
class AuditSink
{
  public:
    virtual ~AuditSink() = default;

    virtual void onEvent(const AuditEvent &event) = 0;
    virtual void onStall(const StallSample &sample) { (void)sample; }
};

/**
 * Fan a simulator's event and stall streams out to several sinks
 * (e.g. an Auditor and a PipeTraceRecorder in the same run).  The
 * caller owns the children and must keep them alive across the run.
 */
class FanoutSink : public AuditSink
{
  public:
    void
    add(AuditSink *sink)
    {
        if (sink)
            sinks_.push_back(sink);
    }

    void
    onEvent(const AuditEvent &event) override
    {
        for (AuditSink *sink : sinks_)
            sink->onEvent(event);
    }

    void
    onStall(const StallSample &sample) override
    {
        for (AuditSink *sink : sinks_)
            sink->onStall(sample);
    }

  private:
    std::vector<AuditSink *> sinks_;
};

/**
 * The organization legality rules an Auditor enforces, stated
 * independently of the simulator implementation.  Each simulator
 * overrides Simulator::auditRules() to describe itself.
 */
struct AuditRules
{
    /** Pipeline stage at which RAW hazards must be resolved. */
    enum class RawAt : std::uint8_t
    {
        kNone,      //!< no RAW checking (rules not modeled)
        kIssue,     //!< operands must exist at issue (scoreboard)
        kDispatch,  //!< operands must exist at dispatch (CDC,
                    //!< Tomasulo, RUU)
    };

    RawAt rawAt = RawAt::kNone;

    /** The per-op front event: kIssue, or kInsert for the RUU. */
    AuditPhase frontPhase = AuditPhase::kIssue;
    /** The stage whose cycle RAW / FU checks apply to. */
    AuditPhase execPhase = AuditPhase::kIssue;

    /** Front events are nondecreasing in program order. */
    bool inOrderFront = false;
    /** At most one front event per cycle (single-issue machines). */
    bool strictSingleFront = false;
    /** If nonzero, at most this many front events per cycle. */
    unsigned frontWidth = 0;

    /** Nothing issues below a blocking branch's issue + BR floor. */
    bool checkBranchFloor = false;
    /** Op i's front event waits for op i-1's completion (Simple). */
    bool serialExecution = false;
    /** Same-register writes complete in program order. */
    bool wawOrdered = false;
    /** complete == exec + latency + occupancy - 1 for every op. */
    bool completionConsistent = false;
    /** Vector chaining: consumers may start on the first element. */
    bool vectorChaining = false;

    /**
     * The machine's branch model.  Disarmed, every branch is a
     * blocking one.  Armed, the auditor replays the prediction stream
     * (precomputePredictions): a correctly predicted branch imposes
     * no floor, and a mispredicted one blocks under a `:w0` spec.
     * With a wrong-path window it enforces the squash-legality
     * invariants instead — a mispredicted branch must emit exactly
     * one kSquash at its resolve cycle, younger ops' front events
     * obey resolve + branchTime, and kWrongPath events stay within
     * [branch front + 1, resolve) and the wrong-path window.
     * Wrong-path ops are not trace ops, so they can never appear in
     * a kCommit event by construction.
     */
    PredictorSpec predictor;

    /** Result busses; 0 disables the exclusivity check. */
    unsigned busCount = 0;
    BusKind busKind = BusKind::kSingle;

    /** Check FU / memory-port occupancy against the counts below. */
    bool checkFuCaps = false;
    FuDiscipline fuDiscipline = FuDiscipline::kSegmented;
    MemDiscipline memDiscipline = MemDiscipline::kInterleaved;
    unsigned fuCopies = 1;
    unsigned memPorts = 1;

    /** RUU entries; live [insert, commit) intervals must fit. */
    unsigned windowCapacity = 0;
    /** Reservation stations per FU class (Tomasulo); 0 disables. */
    unsigned stationsPerFu = 0;
    /** Single waiting station per FU class (CDC 6600). */
    bool waitingStations = false;
    /** If nonzero, at most this many dispatch events per cycle. */
    unsigned dispatchWidth = 0;
    /** Restricted N-Bus: at most one dispatch per bank per cycle. */
    bool bankedDispatch = false;
    /** If nonzero, at most this many commit events per cycle. */
    unsigned commitWidth = 0;
    /** Commit events are nondecreasing in program order. */
    bool inOrderCommit = false;
};

/**
 * The reference checker: buffers a simulator's event stream into
 * per-op schedules and, in finish(), verifies every AuditRules
 * invariant against the decoded trace, throwing AuditError on the
 * first violation.  Single-use: one Auditor per run.
 */
class Auditor : public AuditSink
{
  public:
    Auditor(const DecodedTrace &trace, const AuditRules &rules,
            std::string label = {});

    void onEvent(const AuditEvent &event) override;

    /** Run all checks over the recorded schedule. @throws AuditError */
    void finish();

    std::uint64_t eventCount() const { return eventCount_; }

  private:
    [[noreturn]] void fail(const std::string &check, ClockCycle cycle,
                           std::uint64_t op,
                           const std::string &detail) const;

    std::string describeOp(std::uint64_t i) const;
    bool predictedFree(std::uint64_t i) const;
    /** Cycle src of op i can read producer prod's result. */
    ClockCycle availableAt(std::uint64_t i, RegId src,
                           std::uint32_t prod) const;

    void checkCompleteness();
    void checkFrontOrder();
    void checkRaw();
    void checkWawAndCompletion();
    void checkBusses();
    void checkFuOccupancy();
    void checkWindows();
    void checkDispatchCommit();
    void checkSpeculation();

    /** Resolve cycle of mispredicted branch @p i (front + preds). */
    ClockCycle resolveCycle(std::uint64_t i) const;

    const DecodedTrace &trace_;
    AuditRules rules_;
    std::string label_;
    std::uint64_t eventCount_ = 0;

    // Per-op event cycles (kNoCycle = not seen) and unit ids.
    static constexpr ClockCycle kNoCycle = ~ClockCycle(0);
    std::vector<ClockCycle> issue_, dispatch_, complete_, insert_,
        commit_;
    std::vector<std::int32_t> completeUnit_, dispatchUnit_,
        insertUnit_;

    // Speculation stream: replayed predictions (empty unless the
    // rules arm a predictor), per-op squash cycles, and the raw
    // wrong-path events for checkSpeculation().
    std::vector<std::uint8_t> predOk_;
    std::vector<ClockCycle> squash_;
    std::vector<AuditEvent> wrongPath_;

    ClockCycle front(std::uint64_t i) const;
    ClockCycle exec(std::uint64_t i) const;
};

/**
 * Process-wide "audit everything" request flag, consumed by
 * parallelPerLoopRates() (and hence every table bench) and the CLI.
 * Defaults to the MFUSIM_AUDIT environment variable (any nonempty
 * value but "0" enables).
 */
bool auditRequested();
void setAuditRequested(bool enabled);

} // namespace mfusim

#endif // MFUSIM_SIM_AUDIT_HH
