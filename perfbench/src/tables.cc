/**
 * @file
 * The `tables` workload: repeated regenerations of the grids behind
 * paper Tables 1-8 through the harness entry points the table
 * binaries in bench/ call (meanIssueRateAllConfigs, computeLimits,
 * runGrid + batchedPerLoopRates), with the ResultCache cleared
 * between passes so every pass simulates.
 */

#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>

#include "mfusim/codegen/livermore.hh"
#include "mfusim/core/stats.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/dataflow/period_detector.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/paper_data.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "spans.hh"

namespace perfbench
{

using namespace mfusim;

namespace
{

/** Passes of the traced run, and as many untraced for reference. */
constexpr int kTracedPasses = 5;

struct Variant
{
    std::string label;
    SimFactory factory;
};

/** One simulation cell of the grid. */
struct CellRecord
{
    const Variant *variant;
    const MachineConfig *cfg;
    int loop;
};

/** What a pass produced, read back after its timing ends. */
struct Collected
{
    /** Canonical output lines, one per cell (golden digest input). */
    std::vector<std::string> lines;
    std::vector<std::string> problems;
    std::uint64_t instructions = 0;
    std::uint64_t steadySkipped = 0;

    void
    add(std::string line, const SimResult &r)
    {
        lines.push_back(std::move(line));
        instructions += r.instructions;
        steadySkipped += r.steadyOpsSkipped;
    }
};

/**
 * One paper table: how to regenerate its grid (the timed part) and
 * how to read its outputs back.  Table 2 fills no simulation cells;
 * its limits are kept as returned.
 */
struct PaperTable
{
    std::size_t cells = 0;
    std::function<void()> regenerate;
    std::function<void(Collected &)> collect;
};

/** Process CPU time the traced run's sweeps used, summed. */
double &
sweepCpuSeconds()
{
    static double seconds = 0;
    return seconds;
}

/**
 * A harness.sweep span; in the traced run it also adds the CPU time
 * of every thread of the process over the sweep to sweepCpuSeconds().
 */
class SweepSpan
{
  public:
    explicit SweepSpan(const std::string &ref)
        : span_("harness.sweep", "harness", ref),
          cpu0_(spans().enabled() ? cpuSeconds(getpid()) : 0)
    {}
    ~SweepSpan()
    {
        if (spans().enabled())
            sweepCpuSeconds() += cpuSeconds(getpid()) - cpu0_;
    }

  private:
    ScopedSpan span_;
    double cpu0_;
};

std::string
loopKey(int loop)
{
    return "LL" + std::to_string(loop);
}

/** Look a computed cell up in the ResultCache (counts nothing). */
bool
cachedResult(const Variant &variant, const MachineConfig &cfg, int loop,
             SimResult *out)
{
    const auto sim = variant.factory(cfg);
    return ResultCache::instance().lookup(sim->cacheKey(), loopKey(loop),
                                          cfg, false, out);
}

std::string
cellLine(int table, const std::string &variant, const MachineConfig &cfg,
         int loop, const SimResult &r)
{
    return "T" + std::to_string(table) + " " + variant + " " +
        cfg.name() + " " + loopKey(loop) + " " +
        std::to_string(r.instructions) + " " + std::to_string(r.cycles);
}

std::vector<Variant>
table1Machines()
{
    std::vector<Variant> out;
    out.push_back({ "simple", [](const MachineConfig &c)
                        -> std::unique_ptr<Simulator> {
                        return std::make_unique<SimpleSim>(c);
                    } });
    const std::pair<const char *, ScoreboardConfig> boards[] = {
        { "serialmem", ScoreboardConfig::serialMemory() },
        { "nonseg", ScoreboardConfig::nonSegmented() },
        { "cray", ScoreboardConfig::crayLike() },
    };
    for (const auto &[label, org] : boards) {
        out.push_back({ label, [org](const MachineConfig &c)
                            -> std::unique_ptr<Simulator> {
                            return std::make_unique<ScoreboardSim>(org,
                                                                   c);
                        } });
    }
    return out;
}

std::vector<Variant>
multiIssueVariants(bool outOfOrder)
{
    std::vector<Variant> out;
    for (unsigned stations = 1; stations <= 8; ++stations) {
        for (const BusKind bus : { BusKind::kPerUnit, BusKind::kSingle }) {
            out.push_back(
                { std::string(outOfOrder ? "ooo:" : "seq:") +
                      std::to_string(stations) +
                      (bus == BusKind::kSingle ? ",1bus" : ""),
                  [stations, bus, outOfOrder](const MachineConfig &c)
                      -> std::unique_ptr<Simulator> {
                      return std::make_unique<MultiIssueSim>(
                          MultiIssueConfig{ stations, outOfOrder, bus,
                                            false },
                          c);
                  } });
        }
    }
    return out;
}

std::vector<Variant>
ruuVariants()
{
    std::vector<Variant> out;
    for (const int size : paper::ruuSizes()) {
        for (unsigned units = 1; units <= 4; ++units) {
            for (const BusKind bus :
                 { BusKind::kPerUnit, BusKind::kSingle }) {
                out.push_back(
                    { "ruu:" + std::to_string(units) + ":" +
                          std::to_string(size) +
                          (bus == BusKind::kSingle ? ",1bus" : ""),
                      [units, size, bus](const MachineConfig &c)
                          -> std::unique_ptr<Simulator> {
                          return std::make_unique<RuuSim>(
                              RuuConfig{ units, unsigned(size), bus }, c);
                      } });
            }
        }
    }
    return out;
}

/**
 * The paper's eight tables, regenerated the way bench/table*.cc do
 * it.  Owns the variant lists and result slots the closures use.
 */
class PaperGrid
{
  public:
    PaperGrid()
    {
        machines1_ = table1Machines();
        for (const bool ooo : { false, true })
            multi_[ooo] = multiIssueVariants(ooo);
        ruu_ = ruuVariants();
        addTable1();
        addTable2();
        addGridTable(3, LoopClass::kScalar, multi_[0]);
        addGridTable(4, LoopClass::kVectorizable, multi_[0]);
        addGridTable(5, LoopClass::kScalar, multi_[1]);
        addGridTable(6, LoopClass::kVectorizable, multi_[1]);
        addGridTable(7, LoopClass::kScalar, ruu_);
        addGridTable(8, LoopClass::kVectorizable, ruu_);
    }

    std::vector<PaperTable> &tables() { return tables_; }

    /** Every simulation cell of one pass, in canonical order. */
    const std::vector<CellRecord> &simCells() const { return simCells_; }

    std::size_t
    cellsPerPass() const
    {
        std::size_t n = 0;
        for (const PaperTable &t : tables_)
            n += t.cells;
        return n;
    }

  private:
    void
    addTable1()
    {
        // bench/table1_single_issue.cc: one meanIssueRateAllConfigs
        // call per (class, machine).
        means1_.assign(2 * machines1_.size(), {});
        PaperTable t;
        for (const LoopClass cls :
             { LoopClass::kScalar, LoopClass::kVectorizable })
            for (const Variant &m : machines1_)
                for (const MachineConfig &cfg : standardConfigs())
                    for (const int loop : loopsOf(cls))
                        simCells_.push_back({ &m, &cfg, loop });
        t.cells = 4 * 4 * 14;
        t.regenerate = [this] {
            std::size_t slot = 0;
            for (const LoopClass cls :
                 { LoopClass::kScalar, LoopClass::kVectorizable }) {
                for (const Variant &m : machines1_) {
                    SweepSpan span("T1");
                    means1_[slot++] =
                        meanIssueRateAllConfigs(m.factory, cls);
                }
            }
        };
        t.collect = [this](Collected &out) {
            std::size_t slot = 0;
            for (const LoopClass cls :
                 { LoopClass::kScalar, LoopClass::kVectorizable }) {
                for (const Variant &m : machines1_) {
                    for (std::size_t c = 0; c < 4; ++c) {
                        const MachineConfig &cfg = standardConfigs()[c];
                        std::vector<double> rates;
                        for (const int loop : loopsOf(cls)) {
                            SimResult r;
                            if (!cachedResult(m, cfg, loop, &r)) {
                                out.problems.push_back(
                                    "T1 cell not cached");
                                return;
                            }
                            rates.push_back(r.issueRate());
                            out.add(cellLine(1, m.label, cfg, loop, r),
                                    r);
                        }
                        if (harmonicMean(rates) != means1_[slot][c])
                            out.problems.push_back(
                                "T1 mean disagrees with its cells: " +
                                m.label + " " + cfg.name());
                    }
                    ++slot;
                }
            }
        };
        tables_.push_back(std::move(t));
    }

    void
    addTable2()
    {
        // bench/table2_dataflow_limits.cc: one computeLimits call per
        // (serial, class, config, loop).
        PaperTable t;
        t.cells = 2 * 4 * 14;
        limits2_.resize(t.cells);
        t.regenerate = [this] {
            std::size_t slot = 0;
            for (const bool serial : { false, true })
                for (const LoopClass cls :
                     { LoopClass::kScalar, LoopClass::kVectorizable })
                    for (const MachineConfig &cfg : standardConfigs())
                        for (const int id : loopsOf(cls)) {
                            ScopedSpan span("dataflow.limits",
                                            "dataflow", "T2");
                            limits2_[slot++] = computeLimits(
                                TraceLibrary::instance().trace(id), cfg,
                                serial);
                        }
        };
        t.collect = [this](Collected &out) {
            std::size_t slot = 0;
            char buf[160];
            for (const bool serial : { false, true })
                for (const LoopClass cls :
                     { LoopClass::kScalar, LoopClass::kVectorizable })
                    for (const MachineConfig &cfg : standardConfigs())
                        for (const int id : loopsOf(cls)) {
                            const LimitResult &r = limits2_[slot++];
                            std::snprintf(buf, sizeof(buf),
                                          "%.17g %.17g %.17g",
                                          r.pseudoRate, r.resourceRate,
                                          r.actualRate);
                            out.lines.push_back(
                                std::string("T2 ") +
                                (serial ? "serial " : "pure ") +
                                cfg.name() + " " + loopKey(id) + " " +
                                buf);
                        }
        };
        tables_.push_back(std::move(t));
    }

    /**
     * Tables 3-8 (bench/multi_issue_table.hh, bench/ruu_table.hh):
     * one runGrid over (config, loop), each cell one
     * batchedPerLoopRates call over every variant.
     */
    void
    addGridTable(int number, LoopClass cls,
                 const std::vector<Variant> &variants)
    {
        const std::vector<int> &loops = loopsOf(cls);
        auto factories = std::make_shared<std::vector<SimFactory>>();
        for (const Variant &v : variants)
            factories->push_back(v.factory);
        auto cube = std::make_shared<std::vector<double>>(
            4 * variants.size() * loops.size());
        for (const Variant &v : variants)
            for (const MachineConfig &cfg : standardConfigs())
                for (const int loop : loops)
                    simCells_.push_back({ &v, &cfg, loop });

        PaperTable t;
        t.cells = cube->size();
        const std::string ref = "T" + std::to_string(number);
        t.regenerate = [factories, cube, &loops, ref] {
            SweepSpan span(ref);
            const auto &configs = standardConfigs();
            const std::size_t nv = factories->size();
            runGrid(configs.size() * loops.size(), [&](std::size_t i) {
                const std::size_t cfg = i / loops.size();
                const std::size_t li = i % loops.size();
                const auto cell = batchedPerLoopRates(
                    *factories, { loops[li] }, configs[cfg]);
                for (std::size_t v = 0; v < nv; ++v)
                    (*cube)[(cfg * nv + v) * loops.size() + li] =
                        cell[v].front();
            });
        };
        t.collect = [cube, &variants, &loops, number](Collected &out) {
            const std::size_t nv = variants.size();
            for (std::size_t v = 0; v < nv; ++v) {
                for (std::size_t c = 0; c < 4; ++c) {
                    const MachineConfig &cfg = standardConfigs()[c];
                    for (std::size_t li = 0; li < loops.size(); ++li) {
                        SimResult r;
                        if (!cachedResult(variants[v], cfg, loops[li],
                                          &r)) {
                            out.problems.push_back(
                                "T" + std::to_string(number) +
                                " cell not cached");
                            return;
                        }
                        if (r.issueRate() !=
                            (*cube)[(c * nv + v) * loops.size() + li])
                            out.problems.push_back(
                                "T" + std::to_string(number) +
                                " rate disagrees with its cell: " +
                                variants[v].label + " " + cfg.name() +
                                " " + loopKey(loops[li]));
                        out.add(cellLine(number, variants[v].label, cfg,
                                         loops[li], r),
                                r);
                    }
                }
            }
        };
        tables_.push_back(std::move(t));
    }

    std::vector<Variant> machines1_;
    std::vector<Variant> multi_[2];
    std::vector<Variant> ruu_;
    std::vector<std::vector<double>> means1_;
    std::vector<LimitResult> limits2_;
    std::vector<PaperTable> tables_;
    std::vector<CellRecord> simCells_;
};

/**
 * Build, validate and decode the 14 loops and detect their periods:
 * into the process-wide TraceLibrary the passes use, or (@p viaLibrary
 * false) through the same public calls uncached, so set-up can be
 * timed more than once per run.
 */
void
setUpLibrary(bool viaLibrary)
{
    for (const KernelSpec &k : kernelSpecs()) {
        if (viaLibrary) {
            for (const MachineConfig &cfg : standardConfigs())
                TraceLibrary::instance().decoded(k.id, cfg).periodicity();
            continue;
        }
        std::unique_ptr<DynTrace> trace;
        {
            ScopedSpan span("codegen.trace", "codegen", loopKey(k.id));
            trace = std::make_unique<DynTrace>(traceKernel(k.id));
        }
        for (const MachineConfig &cfg : standardConfigs()) {
            std::unique_ptr<DecodedTrace> decoded;
            {
                ScopedSpan span("core.decode", "core", loopKey(k.id));
                decoded = std::make_unique<DecodedTrace>(*trace, cfg);
            }
            ScopedSpan span("dataflow.period", "dataflow", loopKey(k.id));
            decoded->periodicity();
        }
    }
}

struct PassOutcome
{
    double wallMs = 0;
    double cpuS = 0;
    std::vector<double> tableMs;
    Collected out;
};

/** One full regeneration; verification happens outside the timing. */
PassOutcome
runPass(PaperGrid &grid, Rng &rng)
{
    std::vector<std::size_t> order(grid.tables().size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    PassOutcome pass;
    {
        ScopedSpan span("pass", "driver");
        const double cpu0 = cpuSeconds(getpid());
        for (const std::size_t i : order) {
            const std::uint64_t t0 = monoNanos();
            grid.tables()[i].regenerate();
            pass.tableMs.push_back(msSince(t0));
            pass.wallMs += pass.tableMs.back();
        }
        pass.cpuS = cpuSeconds(getpid()) - cpu0;
    }
    ScopedSpan span("verify", "driver");
    for (PaperTable &t : grid.tables())
        t.collect(pass.out);
    ResultCache::instance().clear();
    return pass;
}

/**
 * Traced run only: time every simulation cell of one pass on its own
 * through Simulator::run, single-threaded, so the sim layer's share
 * of a pass is measured rather than hidden inside the sweep.
 */
void
replayTableCells(const PaperGrid &grid, RunResult &res)
{
    ScopedSpan replay("replay", "driver");
    std::uint64_t inst = 0, skipped = 0, squashes = 0, wrongPath = 0;
    for (const CellRecord &c : grid.simCells()) {
        const DecodedTrace &trace =
            TraceLibrary::instance().decoded(c.loop, *c.cfg);
        const auto sim = c.variant->factory(*c.cfg);
        SimResult r;
        {
            ScopedSpan span("sim.run", "sim", c.variant->label);
            r = sim->run(trace);
        }
        inst += r.instructions;
        skipped += r.steadyOpsSkipped;
        squashes += r.squashes;
        wrongPath += r.wrongPathOps;
    }
    const double simMs = double(spans().totalNanos("sim.run")) / 1e6;
    res.metric("sim.cells", double(grid.simCells().size()), "count");
    res.metric("sim.minst", double(inst) / 1e6, "Minst");
    res.metric("sim.ns_per_inst", simMs * 1e6 / double(inst), "ns");
    res.metric("sim.steady_skip_ratio", double(skipped) / double(inst),
               "ratio");
    res.metric("sim.wrong_path_ratio", double(wrongPath) / double(inst),
               "ratio");
    res.metric("sim.squashes", double(squashes), "count");
}

} // namespace

RunResult
runTables(const RunOptions &opt)
{
    RunResult res;
    const unsigned jobs = workerCount();
    setDefaultSweepJobs(jobs);
    res.params["jobs"] = std::to_string(jobs);

    // Set-up is timed once before the passes, warming the TraceLibrary
    // they use, and again after every timed pass with the same public
    // calls uncached.  Spread over the run, the samples meet the host
    // as the passes do: taken in one burst, they all landed on a fast
    // or a slow core (the sibling hyperthread busy or not) and the
    // median moved 1.6x between runs.
    std::vector<double> setupS, setupWallS;
    const auto timeSetUp = [&](bool viaLibrary) {
        const std::uint64_t t0 = monoNanos();
        const double cpu0 = cpuSeconds(getpid());
        setUpLibrary(viaLibrary);
        setupS.push_back(cpuSeconds(getpid()) - cpu0);
        setupWallS.push_back(double(monoNanos() - t0) / 1e9);
    };
    timeSetUp(true);

    PaperGrid grid;
    Rng rng(opt.seed);

    // Untimed first pass: the reference output every later pass must
    // reproduce, and the cell listing run.py checks against the golden
    // digest.
    const PassOutcome reference = runPass(grid, rng);
    {
        const std::string path = opt.outDir + "/" + opt.stem + ".cells.txt";
        std::ofstream cells(path);
        for (const std::string &line : reference.out.lines)
            cells << line << "\n";
        res.files["cells"] = path;
    }
    for (const std::string &p : reference.out.problems)
        res.fail(p);

    const std::size_t cellsPerPass = grid.cellsPerPass();
    std::vector<std::vector<double>> tableMs;   // per pass
    std::vector<double> passCpuS;
    std::size_t mismatches = 0;
    // Passes until `seconds` of pass time has accrued, or exactly
    // `count` passes when count > 0.
    const auto timedPasses = [&](int count, double seconds) {
        std::vector<double> walls;
        double total = 0;
        for (int n = 0; count > 0 ? n < count : total < seconds * 1e3;
             ++n) {
            const PassOutcome p = runPass(grid, rng);
            if (p.out.lines != reference.out.lines ||
                !p.out.problems.empty())
                ++mismatches;
            walls.push_back(p.wallMs);
            total += p.wallMs;
            tableMs.push_back(p.tableMs);
            passCpuS.push_back(p.cpuS);
            if (!opt.trace)
                timeSetUp(false);
        }
        return walls;
    };

    std::vector<double> passMs;
    if (!opt.trace) {
        const HostTicks host0 = hostTicks();
        passMs = timedPasses(0, opt.seconds);
        res.params["host_stolen_share"] =
            std::to_string(stolenShare(host0, hostTicks()));
    } else {
        // Reference passes without spans, then the traced run proper.
        const std::vector<double> plain = timedPasses(kTracedPasses, 0);
        spans().setEnabled(true);
        {
            ScopedSpan root("run", "driver", "tables");
            {
                ScopedSpan setup("setup", "driver");
                setUpLibrary(false);
            }
            {
                ScopedSpan window("window", "driver");
                passMs = timedPasses(kTracedPasses, 0);
            }
            replayTableCells(grid, res);
        }
        spans().setEnabled(false);
        res.metric("obs.trace_overhead", median(passMs) / median(plain) - 1.0,
                   "ratio");
        // The sweeps' CPU time over their wall time x jobs: 1 when
        // every worker computes for the whole sweep.
        res.metric("harness.parallel_eff",
                   sweepCpuSeconds() * 1e9 /
                       (double(spans().totalNanos("harness.sweep")) * jobs),
                   "ratio");
    }

    const double ops = double(passMs.size() * cellsPerPass);
    res.attempted = std::uint64_t(ops);
    if (mismatches > 0) {
        res.failed = std::uint64_t(mismatches * cellsPerPass);
        res.fail(std::to_string(mismatches) +
                 " pass(es) disagreed with the reference pass");
    }

    const Collected &ref = reference.out;
    res.properties["sim.steady_skip_ratio"] =
        double(ref.steadySkipped) / double(ref.instructions);
    res.properties["codegen.nonlibrary_share"] = 0;
    res.properties["serve.result_cache.hit_ratio"] = 0;
    res.properties["serve.fastpath_ratio"] = 0;

    res.params["setup_samples"] = std::to_string(setupS.size());
    res.metric("setup_s", median(setupS), "s");
    res.metric("setup_wall_s", median(setupWallS), "s");
    // Per-pass figures, reported as the median over passes; latencies
    // as the median over sub-windows of passes (the pass index is their
    // clock): a burst of host noise moves one pass, not the figure.
    std::vector<double> passRate, cpuPerCell, instPerCpu, wallPerCpu;
    SubWindows latency;
    latency.setWindow(0, passMs.size());
    const std::size_t first = passCpuS.size() - passMs.size();
    for (std::size_t i = 0; i < passMs.size(); ++i) {
        passRate.push_back(double(cellsPerPass) / (passMs[i] / 1e3));
        cpuPerCell.push_back(passCpuS[first + i] * 1e6 /
                             double(cellsPerPass));
        instPerCpu.push_back(double(ref.instructions) /
                             passCpuS[first + i]);
        wallPerCpu.push_back(passMs[i] / 1e3 * jobs / passCpuS[first + i]);
        for (const double ms : tableMs[first + i])
            latency.latency(i, ms);
    }
    res.metric("cpu_us_per_op", median(cpuPerCell), "us");
    res.metric("sim_mips", median(instPerCpu) / 1e6, "Minst/cpu-s");
    // Wall time x sweep workers per CPU-second of a pass: near 1 while
    // both workers compute, 2 if the sweep ran on one.
    res.metric("wall_per_cpu", median(wallPerCpu), "ratio");
    res.metric("rps", median(passRate), "1/s");
    res.metric("p50_ms", latency.quantile(0.50), "ms");
    res.metric("p99_ms", latency.quantile(0.99), "ms");
    res.metric("peak_rss_mb", peakRssMb(getpid()), "MB");
    res.params["cells_per_pass"] = std::to_string(cellsPerPass);
    res.params["passes"] = std::to_string(passMs.size());
    res.params["latency_samples"] =
        std::to_string(passMs.size() * grid.tables().size());
    res.params["latency_subwindows"] = std::to_string(SubWindows::kCount);
    return res;
}

} // namespace perfbench
