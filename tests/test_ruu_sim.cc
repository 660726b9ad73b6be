/**
 * @file
 * RUU machine golden tests: renaming, RUU-size stalls, in-order
 * commit, branch stalls, and bus-capacity limits, plus a digest pin
 * of the whole Table 7/8 sweep.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "mfusim/harness/paper_data.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/steady_state.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::traceOf;

ClockCycle
cyclesOn(const RuuConfig &org, const MachineConfig &cfg,
         const DynTrace &trace)
{
    RuuSim sim(org, cfg);
    return sim.run(trace).cycles;
}

TEST(RuuSim, SingleOpPipeline)
{
    // Insert at 0, dispatch at 1, result at 2, commit at 2.
    const DynTrace trace = traceOf({ dyn(Op::kSConst, S1) });
    EXPECT_EQ(cyclesOn({ 1, 10, BusKind::kPerUnit }, configM11BR5(),
                       trace),
              2u);
}

TEST(RuuSim, RenamingRemovesWawStall)
{
    // Scoreboard blocks the sconst on the load's register
    // reservation; the RUU renames S1 and never stalls it.
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, S1, A1),
        dyn(Op::kSConst, S1),
        dyn(Op::kSMovS, S2, S1),
    });
    const MachineConfig cfg = configM11BR5();
    ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
    // Scoreboard: sconst at 11, smovs at 12, done 13.
    EXPECT_EQ(cray.run(trace).cycles, 13u);
    // RUU (width 4, so all inserted at cycle 0): load dispatches 1
    // (result 12); sconst dispatches 1 (result 2); smovs reads the
    // renamed S1 instance (the sconst), dispatches 2 (result 3);
    // commits wait for the load at the head: 12, then both at 12.
    EXPECT_EQ(cyclesOn({ 4, 12, BusKind::kPerUnit }, cfg, trace), 12u);
}

TEST(RuuSim, RawStillHonored)
{
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, S1, A1),
        dyn(Op::kFAdd, S2, S1, S1),
    });
    // Load inserted 0, dispatched 1, result 12; fadd dispatches 12,
    // result 18; commits 12 and 18.
    EXPECT_EQ(cyclesOn({ 4, 12, BusKind::kPerUnit }, configM11BR5(),
                       trace),
              18u);
}

TEST(RuuSim, TinyRuuSerializes)
{
    // One slot: insert/dispatch/commit must fully drain per op.
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kSConst, S2),
        dyn(Op::kSConst, S3),
    });
    // op0: insert 0, dispatch 1, result/commit 2; op1: insert 2,
    // dispatch 3, commit 4; op2: insert 4 ... commit 6.
    EXPECT_EQ(cyclesOn({ 1, 1, BusKind::kPerUnit }, configM11BR5(),
                       trace),
              6u);
}

TEST(RuuSim, BiggerRuuToleratesSlowMemory)
{
    // Repeated [load + filler] groups: with a small RUU the
    // in-order head blocks on each load and the next load cannot
    // even enter, serializing the memory latencies; a large RUU
    // keeps many loads in flight.
    DynTrace trace("loadwall");
    for (int it = 0; it < 10; ++it) {
        trace.append(dyn(Op::kLoadS, S1, A1));
        for (int i = 0; i < 7; ++i)
            trace.append(dyn(Op::kSConst, regS(2 + unsigned(i) % 6)));
    }
    const MachineConfig cfg = configM11BR5();
    const ClockCycle small =
        cyclesOn({ 4, 8, BusKind::kPerUnit }, cfg, trace);
    const ClockCycle big =
        cyclesOn({ 4, 40, BusKind::kPerUnit }, cfg, trace);
    EXPECT_LT(big, small);
}

TEST(RuuSim, CommitIsInOrder)
{
    // The cheap op behind a slow load cannot retire before it; end
    // time is governed by the load's commit.
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, S1, A1),
        dyn(Op::kSConst, S2),
    });
    // Load result at 12; both commit at 12.
    EXPECT_EQ(cyclesOn({ 2, 10, BusKind::kPerUnit }, configM11BR5(),
                       trace),
              12u);
}

TEST(RuuSim, BranchStallsIssueUntilConditionReady)
{
    const DynTrace trace = traceOf({
        dyn(Op::kLoadA, A0, A1),
        dyn(Op::kBrANZ, kNoReg, A0, kNoReg, true),
        dyn(Op::kSConst, S1),
    });
    // Load inserted 0, dispatched 1, A0 at 12.  Branch waits at the
    // issue stage until 12, blocks until 17.  sconst inserted 17,
    // dispatched 18, result 19, commit 19.
    EXPECT_EQ(cyclesOn({ 4, 10, BusKind::kPerUnit }, configM11BR5(),
                       trace),
              19u);
    // Fast branch: blocked until 14; sconst commits at 16.
    EXPECT_EQ(cyclesOn({ 4, 10, BusKind::kPerUnit }, configM11BR2(),
                       trace),
              16u);
}

TEST(RuuSim, OneBusDispatchesOnePerCycle)
{
    // Four independent 1-cycle ops, width 4.
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kSConst, S2),
        dyn(Op::kSConst, S3),
        dyn(Op::kSConst, S4),
    });
    // N-Bus: all inserted at 0, all dispatched at 1, results 2, all
    // commit at 2.
    EXPECT_EQ(cyclesOn({ 4, 8, BusKind::kPerUnit }, configM11BR5(),
                       trace),
              2u);
    // 1-Bus: dispatches at 1,2,3,4 -> results 2,3,4,5; commits
    // (1/cycle) at 2,3,4,5.
    EXPECT_EQ(cyclesOn({ 4, 8, BusKind::kSingle }, configM11BR5(),
                       trace),
              5u);
}

TEST(RuuSim, StructuralFuConflictDelaysDispatch)
{
    // Two fadds, width 2 N-Bus: the segmented FP add unit accepts
    // one per cycle, so the second dispatches a cycle later.
    const DynTrace trace = traceOf({
        dyn(Op::kFAdd, S1, S3, S4),
        dyn(Op::kFAdd, S2, S5, S6),
    });
    // Dispatch 1 and 2; results 7 and 8; commits 7, 8.
    EXPECT_EQ(cyclesOn({ 2, 8, BusKind::kPerUnit }, configM11BR5(),
                       trace),
              8u);
}

TEST(RuuSim, WidthLimitsInsertionRate)
{
    // Eight independent ops, plenty of RUU: width 1 inserts one per
    // cycle; width 4 inserts four per cycle.
    DynTrace trace("eight");
    for (int i = 0; i < 8; ++i)
        trace.append(dyn(Op::kSConst, regS(unsigned(i))));
    const MachineConfig cfg = configM11BR5();
    const ClockCycle w1 =
        cyclesOn({ 1, 16, BusKind::kPerUnit }, cfg, trace);
    const ClockCycle w4 =
        cyclesOn({ 4, 16, BusKind::kPerUnit }, cfg, trace);
    EXPECT_LT(w4, w1);
}

TEST(RuuSim, BypassMakesResultUsableSameCycleItExists)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kSMovS, S2, S1),
    });
    // sconst: insert 0, dispatch 1, result 2.  smovs: insert 0,
    // wakes the cycle the result exists (2), result 3; commits 2, 3.
    EXPECT_EQ(cyclesOn({ 2, 8, BusKind::kPerUnit }, configM11BR5(),
                       trace),
              3u);
}

TEST(RuuSim, EmptyTrace)
{
    RuuSim sim({ 2, 10, BusKind::kPerUnit }, configM11BR5());
    EXPECT_EQ(sim.run(traceOf({})).cycles, 0u);
}

TEST(RuuSim, Name)
{
    RuuSim sim({ 3, 30, BusKind::kSingle }, configM11BR5());
    EXPECT_EQ(sim.name(), "RUU(w=3, size=30, 1-Bus)");
}

// ---- sweep digest pin ------------------------------------------------
//
// Every SimResult field the RUU fills, over the whole Table 7/8 grid
// (6 sizes x widths 1-4 x N-Bus/1-Bus x 14 loops) with the steady-
// state fast path on and off, over X-Bar, and under two armed
// predictors, folded into one FNV-1a digest per (slice, config).  A
// dispatch or commit rewrite must leave every digest unchanged.

enum class RuuSlice
{
    kGridSteady,    //!< Table 7/8 grid, steady state on
    kGridPlain,     //!< Table 7/8 grid, steady state off
    kXBar,          //!< the same sizes and widths on X-Bar
    kPred2Bit,      //!< grid busses under 2bit:256:w8
    kPredFixed,     //!< grid busses under fixed:90:s1:w4
};

constexpr std::array<const char *, 5> kSliceNames = {
    "GridSteady", "GridPlain", "XBar", "Pred2Bit", "PredFixed",
};

// Indexed [slice][config] in standardConfigs() order.
constexpr std::array<std::array<std::uint64_t, 4>, 5> kRuuDigests = {{
    { 0xbb3f473d255890b6, 0xdbdb98a1256e08bb, 0x2696e8ef9270ec72,
      0x7c4f8f3a0c7f65ae },
    { 0xf2bc336b823ef566, 0x849f312d86ceb776, 0xfcf7140247596af5,
      0x8ab1e21b4a9e432b },
    { 0xe04a02bb476a4a98, 0x6fff82c2ad9e7d77, 0xe9cbf7fcc162e8df,
      0xe4c490b10b95b9de },
    { 0x5caf4a0626f949fe, 0xf85773aac2813f98, 0x738f1b3f3c2da70c,
      0x77d621e87768d79d },
    { 0x2e98b4f10053cb29, 0xf210d99b49ba5dc7, 0xff06977c0bf3d8d0,
      0x4ea89fc3f2feb1d4 },
}};

class RuuGolden
    : public ::testing::TestWithParam<std::tuple<RuuSlice, int>>
{};

TEST_P(RuuGolden, DigestMatchesPin)
{
    const RuuSlice slice = std::get<0>(GetParam());
    const int cfgIdx = std::get<1>(GetParam());
    const MachineConfig &base = standardConfigs()[std::size_t(cfgIdx)];
    MachineConfig cfg = base;
    if (slice == RuuSlice::kPred2Bit)
        cfg.predictor = PredictorSpec::parse("2bit:256:w8");
    if (slice == RuuSlice::kPredFixed)
        cfg.predictor = PredictorSpec::parse("fixed:90:s1:w4");

    const bool wasSteady = steadyStateEnabled();
    setSteadyStateEnabled(slice != RuuSlice::kGridPlain);
    const std::vector<BusKind> busses =
        slice == RuuSlice::kXBar
            ? std::vector<BusKind>{ BusKind::kCrossbar }
            : std::vector<BusKind>{ BusKind::kPerUnit,
                                    BusKind::kSingle };

    std::uint64_t digest = 14695981039346656037ull;
    const auto fold = [&digest](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            digest ^= (v >> (8 * b)) & 0xff;
            digest *= 1099511628211ull;
        }
    };
    for (int loop = 1; loop <= 14; ++loop) {
        const DecodedTrace &trace =
            TraceLibrary::instance().decoded(loop, base);
        for (const int size : paper::ruuSizes()) {
            for (unsigned width = 1; width <= 4; ++width) {
                for (const BusKind bus : busses) {
                    RuuSim sim({ width, unsigned(size), bus }, cfg);
                    const SimResult r = sim.run(trace);
                    fold(r.instructions);
                    fold(r.cycles);
                    fold(r.steadyOpsSkipped);
                    fold(r.squashes);
                    fold(r.wrongPathOps);
                }
            }
        }
    }
    setSteadyStateEnabled(wasSteady);

    EXPECT_EQ(digest,
              kRuuDigests[std::size_t(slice)][std::size_t(cfgIdx)])
        << "digest 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    TablesSevenEight, RuuGolden,
    ::testing::Combine(::testing::Values(RuuSlice::kGridSteady,
                                         RuuSlice::kGridPlain,
                                         RuuSlice::kXBar,
                                         RuuSlice::kPred2Bit,
                                         RuuSlice::kPredFixed),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<RuuSlice, int>> &info) {
        return std::string(
                   kSliceNames[std::size_t(std::get<0>(info.param))]) +
            "_" +
            standardConfigs()[std::size_t(std::get<1>(info.param))]
                .name();
    });

} // namespace
} // namespace mfusim
