/**
 * @file
 * Result-bus reservation implementation.
 */

#include "mfusim/funits/result_bus.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "mfusim/core/error.hh"
#include "mfusim/core/opcode.hh"

namespace mfusim
{

void
checkBusWindow(const MachineConfig &cfg, const char *machine)
{
    for (unsigned i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        if (!producesResult(op))
            continue;
        const unsigned latency = latencyOf(op, cfg);
        if (latency >= kBusWindowCycles) {
            throw ConfigError(
                std::string(machine) + ": " + mnemonicOf(op) +
                " latency " + std::to_string(latency) +
                " does not fit the " +
                std::to_string(kBusWindowCycles) +
                "-cycle result-bus window (memLatency must be < " +
                std::to_string(kBusWindowCycles) + ")");
        }
    }
}

std::uint64_t
CycleReservations::maskFor(ClockCycle t) const
{
    assert(t >= base_ && "reservation in the forgotten past");
    assert(t < base_ + 64 && "reservation beyond the 64-cycle window");
    return std::uint64_t(1) << (t - base_);
}

bool
CycleReservations::isReserved(ClockCycle t) const
{
    if (t < base_)
        return false;
    if (t >= base_ + 64)
        return false;
    return (bits_ & (std::uint64_t(1) << (t - base_))) != 0;
}

bool
CycleReservations::tryReserve(ClockCycle t)
{
    const std::uint64_t mask = maskFor(t);
    if (bits_ & mask)
        return false;
    bits_ |= mask;
    return true;
}

void
CycleReservations::advanceTo(ClockCycle now)
{
    if (now <= base_)
        return;
    const ClockCycle shift = now - base_;
    bits_ = shift >= 64 ? 0 : bits_ >> shift;
    base_ = now;
}

void
CycleReservations::reset()
{
    base_ = 0;
    bits_ = 0;
}

ClockCycle
CycleReservations::nextFreeSlot(ClockCycle from) const
{
    if (from < base_)
        return from;                    // forgotten past: free
    if (from >= base_ + 64)
        return from;                    // beyond the window: free
    // countr_one finds the run of reserved cycles starting at
    // `from`; the window's high bits are zero past base_ + 64, so
    // the scan always terminates inside it.
    const std::uint64_t occupied = bits_ >> (from - base_);
    return from + std::countr_one(occupied);
}

ClockCycle
ResultBusSet::earliestReserve(unsigned unit,
                              ClockCycle completion) const
{
    switch (kind_) {
      case BusKind::kSingle:
        return busses_[0].nextFreeSlot(completion);
      case BusKind::kPerUnit:
        assert(unit < busses_.size());
        return busses_[unit].nextFreeSlot(completion);
      default:  // crossbar: first cycle at which any bus is free
        {
            ClockCycle best = busses_[0].nextFreeSlot(completion);
            for (std::size_t b = 1; b < busses_.size(); ++b) {
                best = std::min(best,
                                busses_[b].nextFreeSlot(completion));
            }
            return best;
        }
    }
}

void
ResultBusSet::shiftTime(ClockCycle delta)
{
    for (CycleReservations &bus : busses_)
        bus.shiftTime(delta);
}

void
ResultBusSet::appendSignature(ClockCycle base,
                              std::vector<std::uint64_t> &out)
{
    for (CycleReservations &bus : busses_) {
        bus.advanceTo(base);
        out.push_back(bus.bits());
    }
}

const char *
busKindName(BusKind kind)
{
    switch (kind) {
      case BusKind::kPerUnit:
        return "N-Bus";
      case BusKind::kSingle:
        return "1-Bus";
      default:
        return "X-Bar";
    }
}

ResultBusSet::ResultBusSet(BusKind kind, unsigned numUnits)
    : kind_(kind)
{
    assert(numUnits >= 1);
    const unsigned count = kind == BusKind::kSingle ? 1 : numUnits;
    busses_.resize(count);
}

bool
ResultBusSet::canReserve(unsigned unit, ClockCycle completion) const
{
    switch (kind_) {
      case BusKind::kSingle:
        return !busses_[0].isReserved(completion);
      case BusKind::kPerUnit:
        assert(unit < busses_.size());
        return !busses_[unit].isReserved(completion);
      default:  // crossbar: any free bus will do
        for (const CycleReservations &bus : busses_) {
            if (!bus.isReserved(completion))
                return true;
        }
        return false;
    }
}

void
ResultBusSet::reserve(unsigned unit, ClockCycle completion)
{
    switch (kind_) {
      case BusKind::kSingle:
        {
            const bool ok = busses_[0].tryReserve(completion);
            assert(ok && "1-Bus slot taken");
            (void)ok;
        }
        break;
      case BusKind::kPerUnit:
        {
            assert(unit < busses_.size());
            const bool ok = busses_[unit].tryReserve(completion);
            assert(ok && "N-Bus slot taken");
            (void)ok;
        }
        break;
      default:
        for (CycleReservations &bus : busses_) {
            if (bus.tryReserve(completion))
                return;
        }
        assert(false && "X-Bar: all busses taken");
        break;
    }
}

void
ResultBusSet::advanceTo(ClockCycle now)
{
    for (CycleReservations &bus : busses_)
        bus.advanceTo(now);
}

void
ResultBusSet::reset()
{
    for (CycleReservations &bus : busses_)
        bus.reset();
}

} // namespace mfusim
