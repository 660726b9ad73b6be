/**
 * @file
 * The benchmark's workloads.  Each runs for RunOptions::seconds,
 * checks its outputs, and fills a RunResult with the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "util.hh"

namespace perfbench
{

/** Paper Tables 1-8 regenerated in-process, pass after pass. */
RunResult runTables(const RunOptions &opt);

/** Distinct cache-missing /v1/simulate cells at a Poisson rate. */
RunResult runServeCold(const RunOptions &opt);

/** Cache hits from a warm-loaded journal, closed loop, pipelined. */
RunResult runServeHot(const RunOptions &opt);

/**
 * Closed-loop saturation run of the serve_cold request mix; prints
 * the daemon's capacity, from which serve_cold's offered rate is set.
 */
RunResult runServeColdCapacity(const RunOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
