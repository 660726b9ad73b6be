/**
 * @file
 * Textual spec parsing shared by the CLI and the serve daemon.
 *
 * The grammar is the CLI's:
 *
 *   config   M11BR5 | M11BR2 | M5BR5 | M5BR2
 *   loop     <id> | <id>x<factor> | <id>v        (e.g. 5, 1x4, 7v)
 *   machine  simple | serialmem | nonseg | cray | cdc |
 *            tomasulo[:<rs>[:<cdb>]] | seq:<w> | ooo:<w> |
 *            ruu:<w>:<size>
 *            with optional ",1bus" / ",xbar" and ",pred=<predictor>"
 *            suffixes, e.g. "ruu:4:50,1bus,pred=2bit"; ",btfn" and
 *            ",oracle" are aliases for ",pred=btfn:w0" and
 *            ",pred=perfect:w0"
 *
 * Numeric machine fields are bounded by the kMaxSpec* caps below.
 *
 * Unlike the original CLI helpers these functions never exit the
 * process — bad input throws ConfigError, so a long-lived daemon can
 * map it to a 400 and keep serving.  The CLI wraps them to keep its
 * historical exit codes.
 */

#ifndef MFUSIM_HARNESS_SPEC_PARSE_HH
#define MFUSIM_HARNESS_SPEC_PARSE_HH

#include <memory>
#include <string>

#include "mfusim/codegen/livermore.hh"
#include "mfusim/core/machine_config.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/**
 * Upper bounds on the numeric fields of a machine spec.  They sit far
 * above anything the paper sweeps (widths 1-4, RUU sizes 10-100) and
 * stop a request from allocating per-unit state for an absurd
 * machine; a larger value is a ConfigError (CLI exit 3, serve 400).
 */
constexpr unsigned kMaxSpecWidth = 64;      //!< seq / ooo / ruu issue units
constexpr unsigned kMaxSpecRuuSize = 4096;  //!< RUU entries
constexpr unsigned kMaxSpecStations = 64;   //!< Tomasulo stations per FU
constexpr unsigned kMaxSpecCdbs = 64;       //!< Tomasulo common data busses

/**
 * Named standard configuration.
 * @throws ConfigError on an unknown name.
 */
MachineConfig parseConfigSpec(const std::string &name);

/**
 * "5" -> canonical loop 5; "1x4" -> loop 1 unrolled by 4; "7v" ->
 * loop 7 compiled for the vector unit.
 * @throws ConfigError on unparseable input or an unknown loop.
 */
Kernel parseKernelSpec(const std::string &spec);

/**
 * Build the loop's kernel, execute it against the reference model
 * and return its validated dynamic trace.
 * @throws ConfigError on a bad spec; Error if the kernel's results
 *         disagree with the reference model.
 */
DynTrace traceForLoopSpec(const std::string &spec);

/**
 * Instantiate a simulator from a machine spec string.
 * @throws ConfigError on an unknown machine / option / malformed
 *         numeric field, or a numeric field above its kMaxSpec* cap.
 */
std::unique_ptr<Simulator> parseMachineSpec(const std::string &spec,
                                            const MachineConfig &cfg);

} // namespace mfusim

#endif // MFUSIM_HARNESS_SPEC_PARSE_HH
