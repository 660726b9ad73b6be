/**
 * @file
 * Branch-predictor specifications: the one branch model of every
 * machine but the serial one.
 *
 * The paper's machines never speculate: a branch waits for its
 * condition and then blocks issue for the branch time.  That is the
 * disarmed spec.  An armed spec predicts every branch; a correctly
 * predicted branch costs one issue slot and never gates the stream.
 * What a mispredict costs depends on the wrong-path window:
 *
 *  - `:w0` (no wrong-path fetch): the mispredicted branch behaves like
 *    the paper's blocking branch -- it waits for its condition, then
 *    holds issue for the branch time (and squashes the instruction
 *    buffer behind it on the multiple-issue machine).  `btfn:w0` is
 *    the static backward-taken/forward-not-taken front end and
 *    `perfect` the oracle bound.
 *  - `:wN`, N > 0 (MultiIssue and RUU only): the fetch stream follows
 *    the predicted path, up to N wrong-path instructions occupy real
 *    issue/FU/bus resources until the branch resolves, and the
 *    mispredict squashes them precisely (see docs/MODEL.md,
 *    "Branch handling").
 *
 * The spec is a value type carried inside MachineConfig; this header
 * is therefore deliberately self-contained (no simulator includes).
 * Prediction outcomes are a pure function of the *architectural*
 * branch stream — wrong-path ops never update predictor state — so
 * they can be precomputed once per (trace, spec) pair in trace order
 * and replayed identically by the simulators and the auditor.
 */

#ifndef MFUSIM_SPEC_PREDICTOR_HH
#define MFUSIM_SPEC_PREDICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mfusim
{

class DecodedTrace;

/**
 * One branch-predictor configuration.  `kind == kNone` (the default)
 * means prediction is disarmed: every branch blocks, as in the paper.
 */
struct PredictorSpec
{
    enum class Kind : std::uint8_t
    {
        kNone,     //!< speculation disarmed (paper mode)
        kPerfect,  //!< every branch predicted correctly
        kTaken,    //!< static always-taken
        kBtfn,     //!< static backward-taken / forward-not-taken
        kTwoBit,   //!< 2-bit saturating counters, direct-mapped table
        kFixed,    //!< synthetic fixed accuracy (seeded, deterministic)
    };

    Kind kind = Kind::kNone;

    /** 2-bit counter table entries (power of two; kTwoBit only). */
    unsigned tableSize = 512;

    /** Percent of branches predicted correctly (kFixed only). */
    unsigned accuracyPct = 90;

    /** Seed for the kFixed outcome stream. */
    std::uint64_t seed = 1;

    /**
     * Wrong-path fetch window: how many wrong-path instructions the
     * front end can push past a mispredicted branch before it runs
     * out of fetched-ahead instructions.  Bounds the resource
     * pollution a single mispredict can cause.  0 means no wrong-path
     * fetch: a mispredict blocks like the paper's branch.
     */
    unsigned wrongPathWindow = 8;

    /** True when a predictor is configured (kind != kNone). */
    bool armed() const { return kind != Kind::kNone; }

    /**
     * True when a mispredict fetches down the wrong path and is
     * squashed (armed with a window above 0).  The single-issue
     * machines have no wrong-path fetch and reject such a spec.
     */
    bool speculates() const { return armed() && wrongPathWindow > 0; }

    /**
     * True where the steady-state fast path may engage: disarmed,
     * perfect (it never mispredicts) and btfn:w0.  Other mispredict
     * streams (2-bit counters, fixed-accuracy hashes) do not respect
     * the trace's loop period in general, and a wrong-path window
     * feeds trace-relative fetch into the timing state.
     */
    bool
    allowsSteadyState() const
    {
        return !armed() || kind == Kind::kPerfect ||
            (kind == Kind::kBtfn && wrongPathWindow == 0);
    }

    /**
     * Canonical short form, e.g. "2bit:512:w8" or "fixed:90:s1:w8";
     * parse(key()) round-trips.  Empty when disarmed.
     */
    std::string key() const;

    /**
     * Parse a spec string:
     *
     *   perfect | taken | btfn
     *   2bit[:TABLE]            (TABLE a power of two, default 512)
     *   fixed:PCT[:sSEED]       (PCT in [0,100], default seed 1)
     *
     * any form may append ":wN" to set the wrong-path window
     * (":w0": no wrong-path fetch).
     *
     * @throws ConfigError on malformed input.
     */
    static PredictorSpec parse(const std::string &text);

    /** @throws ConfigError on out-of-range fields. */
    void validate() const;

    bool
    operator==(const PredictorSpec &other) const
    {
        return kind == other.kind && tableSize == other.tableSize &&
            accuracyPct == other.accuracyPct && seed == other.seed &&
            wrongPathWindow == other.wrongPathWindow;
    }
};

/**
 * Replay @p spec over the architectural branch stream of @p trace:
 * element i is 1 when op i is a branch the predictor gets right, 0
 * when it is a mispredicted branch, and 1 for non-branches (they are
 * never squash points).  Deterministic and timing-independent — the
 * predictor state advances only on retired branches, in trace order,
 * so the simulators and the auditor share one ground truth.
 */
std::vector<std::uint8_t>
precomputePredictions(const DecodedTrace &trace,
                      const PredictorSpec &spec);

/**
 * Process-wide speculative-run telemetry, mirrored into the serve
 * tier's /metrics exposition (mfusim_sim_squashes_total etc.).
 */
struct SpecTelemetry
{
    std::uint64_t squashes = 0;
    std::uint64_t wrongPathOps = 0;
    /** Cycles lost to mispredicts (wrong-path + squash drain). */
    std::uint64_t mispredictCycles = 0;
};

/** Fold one finished speculative run into the process counters. */
void recordSpecRun(std::uint64_t squashes, std::uint64_t wrongPathOps,
                   std::uint64_t mispredictCycles);

/** Snapshot the process-wide speculative telemetry. */
SpecTelemetry specTelemetry();

} // namespace mfusim

#endif // MFUSIM_SPEC_PREDICTOR_HH
