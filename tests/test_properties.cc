/**
 * @file
 * Property tests: model invariants that must hold on every benchmark
 * trace under every machine configuration.  These encode the
 * qualitative claims of the paper (orderings between machine
 * organizations, monotonicity in resources, limits dominating
 * simulated rates) as executable checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "mfusim/dataflow/limits.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"

namespace mfusim
{
namespace
{

/** (loop id, config index) sweep. */
class LoopConfig
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    const DynTrace &
    trace() const
    {
        return TraceLibrary::instance().trace(std::get<0>(GetParam()));
    }

    MachineConfig
    cfg() const
    {
        return standardConfigs()[std::size_t(std::get<1>(GetParam()))];
    }

    double
    rateSimple() const
    {
        SimpleSim sim(cfg());
        return sim.run(trace()).issueRate();
    }

    double
    rateScoreboard(const ScoreboardConfig &org) const
    {
        ScoreboardSim sim(org, cfg());
        return sim.run(trace()).issueRate();
    }

    double
    rateMulti(unsigned width, bool ooo, BusKind bus) const
    {
        MultiIssueSim sim({ width, ooo, bus, false }, cfg());
        return sim.run(trace()).issueRate();
    }

    double
    rateRuu(unsigned width, unsigned size, BusKind bus) const
    {
        RuuSim sim({ width, size, bus }, cfg());
        return sim.run(trace()).issueRate();
    }
};

TEST_P(LoopConfig, MachineOrderingOfTable1)
{
    // Simple <= SerialMemory <= NonSegmented <= CRAY-like.
    const double simple = rateSimple();
    const double serial =
        rateScoreboard(ScoreboardConfig::serialMemory());
    const double nonseg =
        rateScoreboard(ScoreboardConfig::nonSegmented());
    const double cray = rateScoreboard(ScoreboardConfig::crayLike());
    EXPECT_LE(simple, serial + 1e-12);
    EXPECT_LE(serial, nonseg + 1e-12);
    EXPECT_LE(nonseg, cray + 1e-12);
}

TEST_P(LoopConfig, SingleIssueNeverExceedsOne)
{
    EXPECT_LE(rateScoreboard(ScoreboardConfig::crayLike()), 1.0);
    EXPECT_LE(rateSimple(), 1.0);
}

TEST_P(LoopConfig, MultiIssueBoundedByWidth)
{
    for (unsigned w : { 1u, 2u, 4u }) {
        EXPECT_LE(rateMulti(w, true, BusKind::kPerUnit),
                  double(w) + 1e-12);
    }
}

TEST_P(LoopConfig, SequentialIssueRoughlyMonotoneInWidth)
{
    // A wider buffer mostly helps, but the refill-on-drain rule
    // makes issue rates depend on how branches fall into the buffer
    // -- the paper: "there are cases where previously a branch
    // instruction was the last instruction in the buffer and now it
    // resides alone in the instruction buffer.  This leads to the
    // 'sawtooth' pattern".  LL11's 7-op body against a 3-wide buffer
    // dips ~6%, so bound the dip at 8%.
    double prev = 0.0;
    for (unsigned w = 1; w <= 8; ++w) {
        const double rate = rateMulti(w, false, BusKind::kPerUnit);
        EXPECT_GE(rate, prev * 0.92) << "width " << w;
        prev = std::max(prev, rate);
    }
    // And width 8 must not be worse than width 1.
    EXPECT_GE(rateMulti(8, false, BusKind::kPerUnit),
              rateMulti(1, false, BusKind::kPerUnit) - 1e-12);
}

TEST_P(LoopConfig, OutOfOrderAtLeastSequential)
{
    for (unsigned w : { 2u, 4u, 8u }) {
        EXPECT_GE(rateMulti(w, true, BusKind::kPerUnit),
                  rateMulti(w, false, BusKind::kPerUnit) - 1e-12)
            << "width " << w;
    }
}

TEST_P(LoopConfig, NBusAtLeastOneBus)
{
    for (unsigned w : { 2u, 4u }) {
        EXPECT_GE(rateMulti(w, false, BusKind::kPerUnit),
                  rateMulti(w, false, BusKind::kSingle) - 1e-12);
        EXPECT_GE(rateMulti(w, true, BusKind::kPerUnit),
                  rateMulti(w, true, BusKind::kSingle) - 1e-12);
    }
}

TEST_P(LoopConfig, CrossbarAtLeastNBus)
{
    for (unsigned w : { 2u, 4u }) {
        EXPECT_GE(rateMulti(w, false, BusKind::kCrossbar),
                  rateMulti(w, false, BusKind::kPerUnit) - 1e-12);
    }
}

TEST_P(LoopConfig, WidthOneConsistencyAcrossSimulators)
{
    // Table 3 row 1 equals Table 1's CRAY-like row: a 1-wide buffer
    // machine is the CRAY-like single-issue machine.
    const double multi = rateMulti(1, false, BusKind::kSingle);
    const double cray = rateScoreboard(ScoreboardConfig::crayLike());
    EXPECT_DOUBLE_EQ(multi, cray);
    // And out-of-order within a 1-entry buffer changes nothing.
    EXPECT_DOUBLE_EQ(rateMulti(1, true, BusKind::kSingle), cray);
    // Nor does the bus organization at width 1.
    EXPECT_DOUBLE_EQ(rateMulti(1, false, BusKind::kPerUnit), cray);
}

TEST_P(LoopConfig, RuuMonotoneInRuuSize)
{
    for (unsigned w : { 1u, 2u, 4u }) {
        double prev = 0.0;
        for (unsigned size : { 10u, 20u, 40u, 100u }) {
            if (size < w)
                continue;
            const double rate = rateRuu(w, size, BusKind::kPerUnit);
            EXPECT_GE(rate, prev - 0.03)
                << "w=" << w << " size=" << size;
            prev = rate;
        }
    }
}

TEST_P(LoopConfig, RuuBeatsCrayScoreboardGivenEnoughBuffering)
{
    // Dependency resolution with a large RUU can only help: blocked
    // issue is strictly less opportunity than waiting in the RUU.
    EXPECT_GE(rateRuu(1, 50, BusKind::kPerUnit),
              rateScoreboard(ScoreboardConfig::crayLike()) - 1e-9);
}

TEST_P(LoopConfig, NoSimulatorBeatsTheDataflowLimit)
{
    const LimitResult limit = computeLimits(trace(), cfg(), false);
    const double bound = limit.actualRate + 1e-9;
    EXPECT_LE(rateSimple(), bound);
    EXPECT_LE(rateScoreboard(ScoreboardConfig::crayLike()), bound);
    EXPECT_LE(rateMulti(8, true, BusKind::kCrossbar), bound);
    EXPECT_LE(rateRuu(4, 100, BusKind::kPerUnit), bound);
}

TEST_P(LoopConfig, SingleIssueBoundedBySerialLimit)
{
    // The serial limit (in-order completion per register, unlimited
    // issue) bounds every machine that blocks issue on WAW hazards.
    const LimitResult serial = computeLimits(trace(), cfg(), true);
    EXPECT_LE(rateScoreboard(ScoreboardConfig::crayLike()),
              serial.actualRate + 1e-9);
    EXPECT_LE(rateMulti(8, true, BusKind::kPerUnit),
              serial.actualRate + 1e-9);
}

// The two latency relations halve the latency of whatever config
// they run on: the paper's 11 -> 5 memory and 5 -> 2 branch steps on
// the baseline configs, 5 -> 2 and 2 -> 1 on the fast ones, so every
// instance checks a step.

TEST_P(LoopConfig, FasterMemoryNeverHurts)
{
    MachineConfig fast = cfg();
    fast.memLatency = cfg().memLatency / 2;
    ScoreboardSim slow_sim(ScoreboardConfig::crayLike(), cfg());
    ScoreboardSim fast_sim(ScoreboardConfig::crayLike(), fast);
    EXPECT_GE(fast_sim.run(trace()).issueRate(),
              slow_sim.run(trace()).issueRate() - 1e-12);
}

TEST_P(LoopConfig, FasterBranchNeverHurts)
{
    MachineConfig fast = cfg();
    fast.branchTime = cfg().branchTime / 2;
    ScoreboardSim slow_sim(ScoreboardConfig::crayLike(), cfg());
    ScoreboardSim fast_sim(ScoreboardConfig::crayLike(), fast);
    EXPECT_GE(fast_sim.run(trace()).issueRate(),
              slow_sim.run(trace()).issueRate() - 1e-12);
}

TEST_P(LoopConfig, RatesAreDeterministic)
{
    EXPECT_DOUBLE_EQ(rateRuu(2, 20, BusKind::kPerUnit),
                     rateRuu(2, 20, BusKind::kPerUnit));
    EXPECT_DOUBLE_EQ(rateMulti(4, true, BusKind::kPerUnit),
                     rateMulti(4, true, BusKind::kPerUnit));
}

INSTANTIATE_TEST_SUITE_P(
    AllLoopsAllConfigs, LoopConfig,
    ::testing::Combine(::testing::Range(1, 15),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return "LL" + std::to_string(std::get<0>(info.param)) + "_" +
            standardConfigs()[std::size_t(std::get<1>(info.param))]
                .name();
    });

} // namespace
} // namespace mfusim
