/**
 * @file
 * Branch-model tests: golden timings for BTFN and perfect prediction
 * without wrong-path fetch (btfn:w0, perfect:w0) on all three issue
 * organizations, ordering properties across the benchmark traces,
 * and a digest pin of the whole predictor grid.
 */

#include <gtest/gtest.h>

#include "mfusim/codegen/interpreter.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/multi_issue_sim.hh"
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

DynOp
branch(bool taken, bool backward)
{
    DynOp op = dyn(Op::kBrANZ, kNoReg, A0, kNoReg, taken);
    op.backward = backward;
    return op;
}

/** M11BR5 with @p spec armed ("" = disarmed). */
MachineConfig
m11br5(const char *spec)
{
    MachineConfig cfg = configM11BR5();
    if (*spec != '\0')
        cfg.predictor = PredictorSpec::parse(spec);
    return cfg;
}

TEST(BranchPolicy, BtfnPredicts)
{
    EXPECT_TRUE(btfnCorrect(/*backward=*/true, /*taken=*/true));
    EXPECT_TRUE(btfnCorrect(false, false));
    EXPECT_FALSE(btfnCorrect(true, false));
    EXPECT_FALSE(btfnCorrect(false, true));
}

TEST(BranchPolicy, InterpreterMarksBackwardBranches)
{
    Assembler as;
    as.aconst(A0, 2);
    const auto loop = as.here();
    as.aaddi(A0, A0, -1);
    as.branz(loop);             // backward
    as.halt();
    Program p = as.finish();
    Interpreter interp(p, 8);
    const DynTrace trace = interp.run("t");
    for (const DynOp &op : trace.ops()) {
        if (isBranch(op.op)) {
            EXPECT_TRUE(op.backward);
        }
    }

    Assembler fw;
    const auto skip = fw.newLabel();
    fw.aconst(A0, 0);
    fw.braz(skip);              // forward
    fw.aconst(A1, 1);
    fw.bind(skip);
    fw.halt();
    Program p2 = fw.finish();
    Interpreter interp2(p2, 8);
    const DynTrace trace2 = interp2.run("t");
    EXPECT_FALSE(trace2[1].backward);
}

TEST(BranchPolicy, ScoreboardOracleRemovesBranchWall)
{
    // aconst A0 (ready 1); branch; aconst A1.
    const DynTrace trace = traceOf({
        dyn(Op::kAConst, A0),
        branch(true, true),
        dyn(Op::kAConst, A1),
    });
    const ScoreboardConfig cray = ScoreboardConfig::crayLike();
    // Blocking: branch at 1, next at 6, done 7.
    EXPECT_EQ(ScoreboardSim(cray, m11br5("")).run(trace).cycles, 7u);
    // Oracle: branch at 1 (one slot), next at 2, done 3.
    EXPECT_EQ(
        ScoreboardSim(cray, m11br5("perfect:w0")).run(trace).cycles,
        3u);
}

TEST(BranchPolicy, ScoreboardBtfnMatchesOracleWhenCorrect)
{
    const DynTrace correct = traceOf({
        dyn(Op::kAConst, A0),
        branch(/*taken=*/true, /*backward=*/true),  // predicted right
        dyn(Op::kAConst, A1),
    });
    const DynTrace wrong = traceOf({
        dyn(Op::kAConst, A0),
        branch(/*taken=*/false, /*backward=*/true), // predicted wrong
        dyn(Op::kAConst, A1),
    });
    ScoreboardSim btfn(ScoreboardConfig::crayLike(), m11br5("btfn:w0"));

    EXPECT_EQ(btfn.run(correct).cycles, 3u);
    // Mispredicted: behaves like blocking -> 7.
    EXPECT_EQ(btfn.run(wrong).cycles, 7u);
}

TEST(BranchPolicy, OracleBranchDoesNotWaitForCondition)
{
    // The condition comes from a load (ready 11); oracle branch
    // must not wait for it.
    const DynTrace trace = traceOf({
        dyn(Op::kLoadA, A0, A1),
        branch(true, true),
        dyn(Op::kAConst, A2),
    });
    ScoreboardSim oracle(ScoreboardConfig::crayLike(),
                         m11br5("perfect:w0"));
    // load@0 (done 11), branch@1, aconst@2 done 3 -> end 11.
    EXPECT_EQ(oracle.run(trace).cycles, 11u);
}

TEST(BranchPolicy, MultiIssueOracleKeepsWindowAcrossTakenBranch)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        branch(true, true),
        dyn(Op::kSConst, S2),
        dyn(Op::kSConst, S3),
    });
    // Blocking: squash + floor -> 6 (see MultiIssueSim tests).
    MultiIssueSim blocking({ 4, false, BusKind::kPerUnit, false },
                           m11br5(""));
    EXPECT_EQ(blocking.run(trace).cycles, 6u);
    // Oracle: all four in one window; sconsts at 0, branch at 0,
    // the rest at 0 -> done 1.
    MultiIssueSim oracle({ 4, false, BusKind::kPerUnit, false },
                         m11br5("perfect:w0"));
    EXPECT_EQ(oracle.run(trace).cycles, 1u);
}

TEST(BranchPolicy, MultiIssueMispredictSquashesBuffer)
{
    // Backward branch that falls through: BTFN predicts taken ->
    // mispredict -> squash and pay the branch time.
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        branch(/*taken=*/false, /*backward=*/true),
        dyn(Op::kSConst, S2),
    });
    MultiIssueSim btfn({ 4, false, BusKind::kPerUnit, false },
                       m11br5("btfn:w0"));
    // sconst@0, branch@0 (A0 ready), floor 5, S2@5 -> done 6.
    EXPECT_EQ(btfn.run(trace).cycles, 6u);
}

TEST(BranchPolicy, RuuOracleKeepsInserting)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        branch(true, true),
        dyn(Op::kSConst, S2),
    });
    // Blocking: sconst ins@0; branch waits nothing (A0 ready),
    // blocks until 5; S2 ins@5, disp 6, result 7, commit 7.
    RuuSim blocking({ 4, 10, BusKind::kPerUnit }, m11br5(""));
    EXPECT_EQ(blocking.run(trace).cycles, 7u);
    // Oracle: all three consumed at cycle 0 (branch takes a slot);
    // dispatch at 1, results 2, commits 2.
    RuuSim oracle({ 4, 10, BusKind::kPerUnit }, m11br5("perfect:w0"));
    EXPECT_EQ(oracle.run(trace).cycles, 2u);
}

// ---- properties over the benchmark traces --------------------------

class PolicyLoop : public ::testing::TestWithParam<int>
{
};

TEST_P(PolicyLoop, OracleAtLeastBtfnAtLeastBlocking)
{
    const DynTrace &trace =
        TraceLibrary::instance().trace(GetParam());
    const auto rate = [&](const char *spec) {
        RuuSim sim({ 4, 48, BusKind::kPerUnit }, m11br5(spec));
        return sim.run(trace).issueRate();
    };
    const double blocking = rate("");
    const double btfn = rate("btfn:w0");
    const double oracle = rate("perfect:w0");
    // Speculation inserts younger work earlier, and a greedily
    // dispatched younger op can occupy a functional unit or bus the
    // cycle before an older (critical-path) op wakes -- a Graham
    // list-scheduling anomaly, real in speculative machines too.
    // So per-loop rates may dip a few percent below blocking; they
    // must never collapse.
    EXPECT_GE(btfn, blocking * 0.95);
    EXPECT_GE(oracle, btfn * 0.97);
    EXPECT_GE(oracle, blocking * 0.95);
}

TEST_P(PolicyLoop, BtfnIsAccurateOnLoopCode)
{
    // Loop-closing backward branches dominate these kernels, so the
    // static predictor should be right most of the time.
    const TraceStats stats =
        TraceLibrary::instance().trace(GetParam()).stats();
    EXPECT_GT(stats.btfnAccuracy(), 0.80) << "loop " << GetParam();
}

TEST_P(PolicyLoop, OracleStillBelowDataflowLimitMinusBranches)
{
    // Even with free branches, issue rate cannot exceed the issue
    // width.
    const DynTrace &trace =
        TraceLibrary::instance().trace(GetParam());
    RuuSim oracle({ 4, 100, BusKind::kPerUnit }, m11br5("perfect:w0"));
    EXPECT_LE(oracle.run(trace).issueRate(), 4.0);
}

INSTANTIATE_TEST_SUITE_P(AllLoops, PolicyLoop,
                         ::testing::Range(1, 15));

// ---- branch-model grid digest pin -----------------------------------
//
// instructions, cycles, steadyOpsSkipped, squashes and wrongPathOps of
// every run over 6 machines x {blocking, btfn, oracle} x LL1-14 x the
// 4 standard configs x steady state on/off (2016 runs), folded into
// one FNV-1a digest.  Recorded from the static branch policies the
// ",btfn" / ",oracle" machine options selected before the predictor
// spec became the only branch model; btfn:w0 and perfect:w0 must
// reproduce them.

constexpr std::uint64_t kBranchGridDigest = 0xafa49e3df21d922f;

TEST(BranchPolicy, GridDigestMatchesPin)
{
    const char *const machines[] = { "cray",  "cdc",   "tomasulo:3:1",
                                     "seq:4", "ooo:4", "ruu:4:100" };
    const char *const branches[] = { "", ",pred=btfn:w0",
                                     ",pred=perfect:w0" };
    std::uint64_t digest = 14695981039346656037ull;
    const auto fold = [&digest](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            digest ^= (v >> (8 * b)) & 0xff;
            digest *= 1099511628211ull;
        }
    };
    const bool wasSteady = steadyStateEnabled();
    for (const bool steady : { true, false }) {
        setSteadyStateEnabled(steady);
        for (const char *machine : machines) {
            for (const char *branch : branches) {
                for (const MachineConfig &cfg : standardConfigs()) {
                    for (int id = 1; id <= 14; ++id) {
                        const auto sim = parseMachineSpec(
                            std::string(machine) + branch, cfg);
                        const SimResult r = sim->run(
                            TraceLibrary::instance().decoded(id, cfg));
                        for (const std::uint64_t v :
                             { r.instructions, r.cycles,
                               r.steadyOpsSkipped, r.squashes,
                               r.wrongPathOps })
                            fold(v);
                    }
                }
            }
        }
    }
    setSteadyStateEnabled(wasSteady);
    EXPECT_EQ(digest, kBranchGridDigest)
        << "digest 0x" << std::hex << digest;

    // The predicting machines also pass a full legality audit.
    const MachineConfig cfg = configM11BR5();
    for (const char *machine : machines) {
        for (const char *branch : { branches[1], branches[2] }) {
            for (int id = 1; id <= 14; ++id) {
                const auto sim =
                    parseMachineSpec(std::string(machine) + branch, cfg);
                EXPECT_NO_THROW(runAudited(
                    *sim, TraceLibrary::instance().decoded(id, cfg)))
                    << machine << branch << " LL" << id;
            }
        }
    }
}

} // namespace
} // namespace mfusim
