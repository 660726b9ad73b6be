/**
 * @file
 * Result-bus reservation models.
 *
 * A result bus carries a completing instruction's result from its
 * functional unit to the register file.  An instruction reserves a
 * bus slot for its completion cycle at issue time; if no slot is
 * available, issue blocks.  The paper studies three interconnects
 * for an N-issue-unit machine:
 *
 *  - N-Bus: N busses, the instruction issued by unit i must use
 *    bus i;
 *  - 1-Bus: a single shared bus (single register-file write port);
 *  - X-Bar: N busses, any instruction may use any free bus (the
 *    paper found this "essentially the same" as N-Bus).
 *
 * Branches and stores produce no register result and use no bus.
 */

#ifndef MFUSIM_FUNITS_RESULT_BUS_HH
#define MFUSIM_FUNITS_RESULT_BUS_HH

#include <cstdint>
#include <vector>

#include "mfusim/core/machine_config.hh"
#include "mfusim/core/types.hh"

namespace mfusim
{

/** Cycles a CycleReservations window spans. */
constexpr unsigned kBusWindowCycles = 64;

/**
 * Reject a configuration whose results could complete beyond the
 * bus window: a machine that reserves result-bus slots at issue
 * needs every result-producing latency under @p cfg (memLatency, or
 * 14 for the reciprocal unit) below kBusWindowCycles.
 *
 * @throws ConfigError naming @p machine and the offending latency.
 */
void checkBusWindow(const MachineConfig &cfg, const char *machine);

/**
 * A sliding 64-cycle window of single-cycle reservations.
 *
 * Reservations are made at absolute cycles within [base, base+64);
 * advanceTo() slides the window forward as simulated time advances.
 * The window holds any completion whose latency is below 64 cycles;
 * checkBusWindow() rejects configurations with longer ones.
 */
class CycleReservations
{
  public:
    /** True if cycle @p t is already reserved. */
    bool isReserved(ClockCycle t) const;

    /** Reserve cycle @p t; returns false if it was already taken. */
    bool tryReserve(ClockCycle t);

    /** Slide the window so cycles before @p now can be forgotten. */
    void advanceTo(ClockCycle now);

    /**
     * Earliest unreserved cycle >= @p from.  Exact: reservations are
     * never cancelled, so between state changes this is the first
     * cycle at which tryReserve(@p from-or-later) can succeed.
     */
    ClockCycle nextFreeSlot(ClockCycle from) const;

    /** Shift the whole window forward (steady-state extrapolation). */
    void shiftTime(ClockCycle delta) { base_ += delta; }

    /** Raw occupancy bits relative to base() (state signatures). */
    std::uint64_t bits() const { return bits_; }
    ClockCycle base() const { return base_; }

    void reset();

  private:
    std::uint64_t maskFor(ClockCycle t) const;

    ClockCycle base_ = 0;
    std::uint64_t bits_ = 0;
};

/** Result-bus interconnect styles from the paper. */
enum class BusKind
{
    kPerUnit,   //!< N-Bus: issue unit i owns bus i
    kSingle,    //!< 1-Bus: one shared bus
    kCrossbar,  //!< X-Bar: any unit may use any free bus
};

/** Short display name: "N-Bus", "1-Bus" or "X-Bar". */
const char *busKindName(BusKind kind);

/**
 * The set of result busses of an N-issue-unit machine.
 */
class ResultBusSet
{
  public:
    ResultBusSet(BusKind kind, unsigned numUnits);

    /**
     * Can the instruction issued by unit @p unit deliver a result at
     * cycle @p completion?
     */
    bool canReserve(unsigned unit, ClockCycle completion) const;

    /** Commit the reservation; canReserve() must hold. */
    void reserve(unsigned unit, ClockCycle completion);

    /**
     * Earliest cycle >= @p completion at which unit @p unit could
     * deliver a result (the exact next-event time of a bus-conflict
     * stall: nothing changes before it while no new reservations are
     * made).
     */
    ClockCycle earliestReserve(unsigned unit,
                               ClockCycle completion) const;

    /** Slide all bus windows forward to @p now. */
    void advanceTo(ClockCycle now);

    /** Shift all windows forward (steady-state extrapolation). */
    void shiftTime(ClockCycle delta);

    /**
     * Append the busses' live state to @p out, rebased to @p base:
     * slides the windows to @p base (reservations strictly before it
     * can never conflict again) and records each occupancy word.
     */
    void appendSignature(ClockCycle base,
                         std::vector<std::uint64_t> &out);

    void reset();

    BusKind kind() const { return kind_; }
    unsigned numBusses() const { return unsigned(busses_.size()); }

  private:
    BusKind kind_;
    std::vector<CycleReservations> busses_;
};

} // namespace mfusim

#endif // MFUSIM_FUNITS_RESULT_BUS_HH
