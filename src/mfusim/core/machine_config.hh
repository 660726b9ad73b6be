/**
 * @file
 * Machine parameter configurations (memory latency x branch time).
 *
 * The paper varies two orthogonal machine parameters on top of every
 * issue organization:
 *
 *  - memory access time: 11 cycles ("slow memory", the CRAY-1 main
 *    memory path) or 5 cycles ("fast memory", standing in for a cache
 *    or the CRAY-1S trick of staging scalar data through vector
 *    registers);
 *  - branch execution time: 5 cycles ("slow branch", the CRAY-1S
 *    behaviour where a branch blocks the issue stage for 4 extra
 *    cycles) or 2 cycles ("fast branch").
 *
 * The cross product yields the four configurations M11BR5, M11BR2,
 * M5BR5 and M5BR2 that appear in every table of the paper.
 */

#ifndef MFUSIM_CORE_MACHINE_CONFIG_HH
#define MFUSIM_CORE_MACHINE_CONFIG_HH

#include <array>
#include <string>

#include "mfusim/core/types.hh"
#include "mfusim/spec/predictor.hh"

namespace mfusim
{

/**
 * The two machine parameters the paper sweeps in every experiment.
 *
 * A MachineConfig does not say anything about the issue organization;
 * that is chosen by instantiating a particular simulator.
 */
struct MachineConfig
{
    /**
     * Cycles from issuing a load until the destination register is
     * usable by a dependent instruction (11 slow / 5 fast).
     */
    unsigned memLatency = 11;

    /**
     * Cycles a branch occupies the issue stage once its condition
     * register is available (5 slow / 2 fast).  No instruction that
     * follows a branch in program order may issue earlier than
     * branch-issue-time + branchTime.
     */
    unsigned branchTime = 5;

    /**
     * The branch model (disarmed by default: every branch blocks,
     * as in the paper).  When armed, a correctly predicted branch
     * costs one issue slot; a mispredict blocks (":w0") or fetches
     * down the wrong path and squashes (MultiIssue / RUU).  The
     * paper-mode configurations all leave this at kNone.
     */
    PredictorSpec predictor;

    /**
     * Short name in the paper's notation, e.g. "M11BR5"; an armed
     * predictor appends its key ("M11BR5+2bit:512:w8").
     */
    std::string name() const;

    /**
     * Reject a nonsensical parameterization: both latencies must be
     * in [1, 4096] (zero breaks every completion formula; the upper
     * bound catches garbage from unchecked arithmetic or parsing).
     *
     * @throws ConfigError naming the offending field and value.
     */
    void validate() const;

    bool
    operator==(const MachineConfig &other) const
    {
        return memLatency == other.memLatency &&
            branchTime == other.branchTime &&
            predictor == other.predictor;
    }
};

/** Slow memory, slow branch: the CRAY-1S-like baseline. */
MachineConfig configM11BR5();
/** Slow memory, fast branch. */
MachineConfig configM11BR2();
/** Fast memory, slow branch. */
MachineConfig configM5BR5();
/** Fast memory, fast branch. */
MachineConfig configM5BR2();

/**
 * The four configurations in the order the paper's tables use:
 * M11BR5, M11BR2, M5BR5, M5BR2.
 */
const std::array<MachineConfig, 4> &standardConfigs();

} // namespace mfusim

#endif // MFUSIM_CORE_MACHINE_CONFIG_HH
