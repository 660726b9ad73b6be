/**
 * @file
 * Result-bus reservation tests.
 */

#include <gtest/gtest.h>

#include "mfusim/core/error.hh"
#include "mfusim/funits/result_bus.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"

namespace mfusim
{
namespace
{

TEST(CycleReservations, ReserveAndQuery)
{
    CycleReservations res;
    EXPECT_FALSE(res.isReserved(5));
    EXPECT_TRUE(res.tryReserve(5));
    EXPECT_TRUE(res.isReserved(5));
    EXPECT_FALSE(res.tryReserve(5));
    EXPECT_FALSE(res.isReserved(4));
    EXPECT_FALSE(res.isReserved(6));
}

TEST(CycleReservations, AdvancePreservesFutureReservations)
{
    CycleReservations res;
    res.tryReserve(10);
    res.tryReserve(20);
    res.advanceTo(15);
    EXPECT_FALSE(res.isReserved(10));   // past, forgotten
    EXPECT_TRUE(res.isReserved(20));
}

TEST(CycleReservations, AdvanceFarClearsEverything)
{
    CycleReservations res;
    res.tryReserve(3);
    res.advanceTo(1000);
    EXPECT_FALSE(res.isReserved(1000));
    EXPECT_TRUE(res.tryReserve(1001));
}

TEST(CycleReservations, WindowEdge)
{
    CycleReservations res;
    res.advanceTo(100);
    EXPECT_TRUE(res.tryReserve(100));
    EXPECT_TRUE(res.tryReserve(163));   // last cycle in window
    EXPECT_TRUE(res.isReserved(163));
}

TEST(CycleReservations, Reset)
{
    CycleReservations res;
    res.advanceTo(50);
    res.tryReserve(55);
    res.reset();
    EXPECT_FALSE(res.isReserved(55));
    EXPECT_TRUE(res.tryReserve(5));
}

TEST(ResultBusSet, SingleBusConflicts)
{
    ResultBusSet bus(BusKind::kSingle, 4);
    EXPECT_EQ(bus.numBusses(), 1u);
    EXPECT_TRUE(bus.canReserve(0, 7));
    bus.reserve(0, 7);
    // All units share the one bus.
    EXPECT_FALSE(bus.canReserve(3, 7));
    EXPECT_TRUE(bus.canReserve(3, 8));
}

TEST(ResultBusSet, PerUnitBussesAreIndependent)
{
    ResultBusSet bus(BusKind::kPerUnit, 4);
    EXPECT_EQ(bus.numBusses(), 4u);
    bus.reserve(0, 7);
    EXPECT_FALSE(bus.canReserve(0, 7));
    EXPECT_TRUE(bus.canReserve(1, 7));
    EXPECT_TRUE(bus.canReserve(2, 7));
    bus.reserve(1, 7);
    EXPECT_FALSE(bus.canReserve(1, 7));
}

TEST(ResultBusSet, CrossbarUsesAnyFreeBus)
{
    ResultBusSet bus(BusKind::kCrossbar, 2);
    // Two results in the same cycle fit on the two busses
    // regardless of which unit produced them.
    EXPECT_TRUE(bus.canReserve(0, 9));
    bus.reserve(0, 9);
    EXPECT_TRUE(bus.canReserve(0, 9));  // second bus still free
    bus.reserve(0, 9);
    EXPECT_FALSE(bus.canReserve(1, 9)); // both taken now
    EXPECT_TRUE(bus.canReserve(1, 10));
}

TEST(ResultBusSet, AdvanceAllBusses)
{
    ResultBusSet bus(BusKind::kPerUnit, 2);
    bus.reserve(0, 5);
    bus.advanceTo(60);              // slides both bus windows
    bus.reserve(1, 70);
    EXPECT_TRUE(bus.canReserve(0, 65));
    EXPECT_TRUE(bus.canReserve(0, 70));     // bus 0 free at 70
    EXPECT_FALSE(bus.canReserve(1, 70));    // bus 1 taken at 70
}

TEST(ResultBusSet, Names)
{
    EXPECT_STREQ(busKindName(BusKind::kPerUnit), "N-Bus");
    EXPECT_STREQ(busKindName(BusKind::kSingle), "1-Bus");
    EXPECT_STREQ(busKindName(BusKind::kCrossbar), "X-Bar");
}

TEST(ResultBusWindow, LatencyBeyondWindowIsConfigError)
{
    // A 64-cycle load would reserve its completion one cycle past
    // the bus window: every machine that books result busses at
    // issue must refuse the configuration, in every build.
    const MachineConfig tooSlow{ 64, 5, {} };
    EXPECT_THROW(RuuSim({ 2, 20, BusKind::kPerUnit }, tooSlow),
                 ConfigError);
    EXPECT_THROW(MultiIssueSim({ 4, true, BusKind::kPerUnit }, tooSlow),
                 ConfigError);
    EXPECT_THROW(ScoreboardSim(ScoreboardConfig::crayLike(), tooSlow),
                 ConfigError);
}

TEST(ResultBusWindow, LongestLatencyThatFitsStillRuns)
{
    const MachineConfig edge{ 63, 5, {} };
    const DecodedTrace &trace = TraceLibrary::instance().decoded(1, edge);
    RuuSim ruu({ 2, 20, BusKind::kPerUnit }, edge);
    MultiIssueSim ooo({ 4, true, BusKind::kPerUnit }, edge);
    ScoreboardSim cray(ScoreboardConfig::crayLike(), edge);
    for (Simulator *sim : { static_cast<Simulator *>(&ruu),
                            static_cast<Simulator *>(&ooo),
                            static_cast<Simulator *>(&cray) }) {
        const SimResult r = sim->run(trace);
        EXPECT_EQ(r.instructions, trace.size()) << sim->name();
        EXPECT_GT(r.cycles, 0u) << sim->name();
    }
}

} // namespace
} // namespace mfusim
