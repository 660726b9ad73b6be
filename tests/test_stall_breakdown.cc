/**
 * @file
 * Stall-attribution tests for the scoreboard machine.
 */

#include <gtest/gtest.h>

#include <string>

#include "mfusim/harness/trace_library.hh"
#include "mfusim/obs/run_metrics.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::traceOf;

/**
 * A run's cycles and its lost issue cycles per cause, read from the
 * StallSample stream through populateRunMetrics (the path
 * bench/stall_breakdown renders).
 */
struct Stalls
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t raw = 0;
    std::uint64_t waw = 0;
    std::uint64_t fuBusy = 0;
    std::uint64_t busBusy = 0;
    std::uint64_t branch = 0;

    std::uint64_t
    total() const
    {
        return raw + waw + fuBusy + busBusy + branch;
    }
};

Stalls
recordStalls(ScoreboardSim &sim, const DecodedTrace &trace)
{
    PipeTraceRecorder recorder;
    sim.attachAudit(&recorder);
    const SimResult r = sim.run(trace);
    sim.attachAudit(nullptr);
    MetricsRegistry reg;
    populateRunMetrics(reg, trace, recorder, r, sim);
    const auto stall = [&reg](const char *cause) {
        return reg.counterValue(std::string("cycles.stall.") + cause);
    };
    return { r.instructions,  r.cycles,          stall("raw"),
             stall("waw"),    stall("fu_busy"),  stall("bus_busy"),
             stall("branch") };
}

Stalls
runOn(const ScoreboardConfig &org, const DynTrace &trace)
{
    ScoreboardSim sim(org, configM11BR5());
    return recordStalls(sim, DecodedTrace(trace, configM11BR5()));
}

Stalls
runCray(const DynTrace &trace)
{
    return runOn(ScoreboardConfig::crayLike(), trace);
}

TEST(StallBreakdown, NoHazardsNoStalls)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kSConst, S2),
        dyn(Op::kSConst, S3),
    });
    EXPECT_EQ(runCray(trace).total(), 0u);
}

TEST(StallBreakdown, RawWaitAttributed)
{
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, S1, A1),
        dyn(Op::kFAdd, S2, S1, S1),
    });
    const Stalls r = runCray(trace);
    // fadd waits cycles 1..10 on the load: 10 RAW stall cycles.
    EXPECT_EQ(r.raw, 10u);
    EXPECT_EQ(r.waw, 0u);
    EXPECT_EQ(r.branch, 0u);
}

TEST(StallBreakdown, WawWaitAttributed)
{
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, S1, A1),
        dyn(Op::kSConst, S1),
    });
    const Stalls r = runCray(trace);
    EXPECT_EQ(r.waw, 10u);
    EXPECT_EQ(r.raw, 0u);
}

TEST(StallBreakdown, StructuralWaitAttributed)
{
    // Serial memory: second load blocked on the memory unit.
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, S1, A1),
        dyn(Op::kLoadS, S2, A2),
    });
    EXPECT_EQ(runOn(ScoreboardConfig::serialMemory(), trace).fuBusy,
              10u);
}

TEST(StallBreakdown, ResultBusConflictAttributed)
{
    const DynTrace trace = traceOf({
        dyn(Op::kFMul, S1, S4, S5),
        dyn(Op::kFAdd, S2, S6, S7),     // would complete with fmul
    });
    EXPECT_EQ(runCray(trace).busBusy, 1u);
}

TEST(StallBreakdown, BranchTimeAttributed)
{
    const DynTrace trace = traceOf({
        dyn(Op::kAConst, A0),
        dyn(Op::kBrANZ, kNoReg, A0, kNoReg, true),
        dyn(Op::kAConst, A1),
    });
    // Branch: no condition wait (A0 ready at its issue slot 1), 4
    // dead issue slots from the 5-cycle branch time.
    EXPECT_EQ(runCray(trace).branch, 4u);

    // Condition wait also charged to branch:
    const DynTrace wait = traceOf({
        dyn(Op::kLoadA, A0, A1),
        dyn(Op::kBrAZ, kNoReg, A0, kNoReg, false),
    });
    // Branch slot 1, condition at 11: 10 wait + 4 dead slots.
    EXPECT_EQ(runCray(wait).branch, 14u);
}

TEST(StallBreakdown, AccountingConsistentOnBenchmarks)
{
    // busy + stalls explains (almost all of) the elapsed cycles:
    // the residue is the final instructions' in-flight latency.
    for (int id = 1; id <= 14; ++id) {
        const Stalls r = runCray(TraceLibrary::instance().trace(id));
        const std::uint64_t accounted = r.instructions + r.total();
        EXPECT_LE(accounted, r.cycles) << "loop " << id;
        EXPECT_GT(accounted, r.cycles - 30) << "loop " << id;
    }
}

TEST(StallBreakdown, RawDominatesOnRecurrenceLoop)
{
    const Stalls r = runCray(TraceLibrary::instance().trace(5));
    EXPECT_GT(r.raw, r.waw);
    EXPECT_GT(r.raw, r.fuBusy);
    EXPECT_GT(r.raw, r.busBusy);
}

TEST(StallBreakdown, InterleavingRemovesStructuralStalls)
{
    const DynTrace &trace = TraceLibrary::instance().trace(1);
    EXPECT_GT(runOn(ScoreboardConfig::serialMemory(), trace).fuBusy,
              runOn(ScoreboardConfig::nonSegmented(), trace).fuBusy * 2);
}

// ---- bench/stall_breakdown digest pin -------------------------------
//
// cycles and the raw / waw / fu_busy / bus_busy / branch stall cycles
// of every run in the bench/stall_breakdown grid (3 machines x
// M11BR5/M5BR2 x LL1-14 = 84 runs), folded into one FNV-1a digest.
// Recorded from the summary counters the scoreboard kept before the
// stall stream became the only stall accounting.

constexpr std::uint64_t kStallGridDigest = 0x6a90dcf863153ff4;

TEST(StallBreakdown, StreamDigestMatchesPin)
{
    const ScoreboardConfig machines[] = {
        ScoreboardConfig::serialMemory(),
        ScoreboardConfig::nonSegmented(),
        ScoreboardConfig::crayLike(),
    };
    std::uint64_t digest = 14695981039346656037ull;
    const auto fold = [&digest](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            digest ^= (v >> (8 * b)) & 0xff;
            digest *= 1099511628211ull;
        }
    };
    for (const ScoreboardConfig &org : machines) {
        for (const MachineConfig &cfg :
             { configM11BR5(), configM5BR2() }) {
            for (int id = 1; id <= 14; ++id) {
                ScoreboardSim sim(org, cfg);
                const Stalls r = recordStalls(
                    sim, TraceLibrary::instance().decoded(id, cfg));
                for (const std::uint64_t v :
                     { r.cycles, r.raw, r.waw, r.fuBusy, r.busBusy,
                       r.branch })
                    fold(v);
            }
        }
    }
    EXPECT_EQ(digest, kStallGridDigest)
        << "digest 0x" << std::hex << digest;
}

} // namespace
} // namespace mfusim
