/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints its result.
 *
 *   perfbench_driver --workload tables|serve_cold|serve_hot
 *                    --seed N --seconds S --trace 0|1
 *                    --mfusim PATH --out-dir DIR --stem NAME
 *                    [--calibrate]
 *
 * The last stdout line is one JSON object: the metrics of the mode
 * (end-to-end with --trace 0, per-layer with --trace 1) plus the
 * checks, property shares, parameters and files run.py stamps into
 * the result file.  --trace 1 also writes DIR/NAME.trace.json, the
 * traced run's spans as trace-event JSON.  --calibrate (serve_cold
 * only) measures the daemon's closed-loop capacity on the cold mix.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "mfusim/serve/json.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;
using mfusim::Json;

namespace
{

/** Per-layer metrics every traced run reports (0 where idle). */
const std::vector<std::pair<std::string, const char *>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, const char *>> names =
        [] {
            std::vector<std::pair<std::string, const char *>> n = {
                { "codegen.trace_gen_ms", "ms" },
                { "codegen.traces", "count" },
                { "codegen.nonlibrary_share", "ratio" },
                { "core.decode_ms", "ms" },
                { "core.decodes", "count" },
                { "dataflow.period_detect_ms", "ms" },
                { "dataflow.limits_ms", "ms" },
                { "sim.simulate_ms", "ms" },
                { "sim.cells", "count" },
                { "sim.minst", "Minst" },
                { "sim.ns_per_inst", "ns" },
                { "sim.steady_skip_ratio", "ratio" },
                { "sim.wrong_path_ratio", "ratio" },
                { "sim.squashes", "count" },
                { "harness.sweep_ms", "ms" },
                { "harness.parallel_eff", "ratio" },
                { "harness.spec_parse_us", "us" },
            };
            for (const char *phase :
                 { "parse", "dispatch", "queue", "compute", "serialize",
                   "write_first", "write_drain" }) {
                const std::string base = std::string("serve.phase.") + phase;
                n.push_back({ base + ".mean_ms", "ms" });
                n.push_back({ base + ".p99_ms", "ms" });
            }
            for (const auto &m :
                 std::vector<std::pair<std::string, const char *>>{
                     { "serve.json.parse_us", "us" },
                     { "serve.json.render_us", "us" },
                     { "serve.result_cache.hit_ratio", "ratio" },
                     { "serve.result_cache.probe_us", "us" },
                     { "serve.result_cache.store_us", "us" },
                     { "serve.persist.appends", "count" },
                     { "serve.persist.fsyncs", "count" },
                     { "serve.persist.load_ms", "ms" },
                     { "serve.fastpath_ratio", "ratio" },
                     { "serve.pipelined_ratio", "ratio" },
                     { "loadgen.late_p99_ms", "ms" },
                     { "obs.trace_overhead", "ratio" },
                 })
                n.push_back(m);
            for (const std::string &layer : spanLayers())
                n.push_back({ "split." +
                                  (layer == "driver" ? "unattributed"
                                                     : layer) +
                                  "_ms",
                              "ms" });
            n.push_back({ "split.wall_ms", "ms" });
            return n;
        }();
    return names;
}

const char *const kEndToEnd[] = { "setup_s", "cpu_us_per_op", "sim_mips",
                                  "peak_rss_mb" };

/**
 * Wall-clock figures, reported with the end-to-end metrics but
 * carrying no bound: on a shared VM the host's scheduling sets them
 * (between runs of the same code, closed-loop rps moved by an
 * interquartile 0.44 of its median, serve_cold p50 by 0.37, p99 by up
 * to 5x), which no regression bound can absorb.  The bounded metrics
 * are CPU time, which the host's stolen time does not inflate.
 * wall_per_cpu, wall time as a multiple of CPU time, is the figure
 * that shows work waiting; it repeats within about 0.01 on tables and
 * serve_hot, but on serve_cold it carries the journal's fsync latency
 * and moved by up to 0.2.
 */
const char *const kInformational[] = { "setup_wall_s", "rps", "p50_ms",
                                       "p99_ms", "wall_per_cpu" };

/** Per-layer metrics read straight off the recorded spans. */
void
spanMetrics(RunResult &res)
{
    const SpanRecorder &rec = spans();
    const auto totalMs = [&](const char *span) {
        return double(rec.totalNanos(span)) / 1e6;
    };
    const auto meanUs = [&](const char *span) {
        const std::size_t n = rec.count(span);
        return n ? double(rec.totalNanos(span)) / 1e3 / double(n) : 0.0;
    };
    res.metric("codegen.trace_gen_ms", totalMs("codegen.trace"), "ms");
    res.metric("codegen.traces", double(rec.count("codegen.trace")), "count");
    res.metric("core.decode_ms", totalMs("core.decode"), "ms");
    res.metric("core.decodes", double(rec.count("core.decode")), "count");
    res.metric("dataflow.period_detect_ms", totalMs("dataflow.period"), "ms");
    res.metric("dataflow.limits_ms", totalMs("dataflow.limits"), "ms");
    res.metric("sim.simulate_ms", totalMs("sim.run"), "ms");
    res.metric("harness.sweep_ms", totalMs("harness.sweep"), "ms");
    res.metric("harness.spec_parse_us", meanUs("harness.spec_parse"), "us");
    res.metric("serve.json.parse_us", meanUs("serve.json_parse"), "us");
    res.metric("serve.json.render_us", meanUs("serve.json_render"), "us");
    res.metric("serve.result_cache.probe_us", meanUs("serve.cache_probe"),
               "us");
    res.metric("serve.result_cache.store_us", meanUs("serve.cache_store"),
               "us");
    res.metric("serve.persist.load_ms", totalMs("serve.persist_load"), "ms");
    for (const auto &[layer, ns] : rec.selfNanos())
        res.metric("split." + (layer == "driver" ? "unattributed" : layer) +
                       "_ms",
                   double(ns) / 1e6, "ms");
    res.metric("split.wall_ms", double(rec.wallNanos()) / 1e6, "ms");
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --mfusim PATH --out-dir DIR "
                 "--stem NAME [--calibrate]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    bool calibrate = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--calibrate") {
            calibrate = true;
            continue;
        }
        if (i + 1 >= argc)
            usage();
        const std::string value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::stoull(value);
        else if (arg == "--seconds")
            opt.seconds = std::stod(value);
        else if (arg == "--trace")
            opt.trace = value == "1";
        else if (arg == "--mfusim")
            opt.mfusimBinary = value;
        else if (arg == "--out-dir")
            opt.outDir = value;
        else if (arg == "--stem")
            opt.stem = value;
        else
            usage();
    }
    if (opt.outDir.empty() || opt.stem.empty() || opt.seconds <= 0)
        usage();

    RunResult res;
    try {
        if (opt.workload == "tables")
            res = runTables(opt);
        else if (opt.workload == "serve_cold")
            res = calibrate ? runServeColdCapacity(opt) : runServeCold(opt);
        else if (opt.workload == "serve_hot")
            res = runServeHot(opt);
        else
            usage();
    } catch (const std::exception &e) {
        res.fail(std::string("workload aborted: ") + e.what());
    }

    if (opt.trace) {
        spanMetrics(res);
        for (const auto &[name, share] : res.properties)
            if (!res.metrics.count(name))
                res.metric(name, share, "ratio");
        for (const auto &[name, unit] : perLayerMetrics())
            if (!res.metrics.count(name))
                res.metric(name, 0, unit);
        const std::string path = opt.outDir + "/" + opt.stem + ".trace.json";
        std::ofstream out(path);
        spans().writeTraceEvents(out, opt.workload);
        res.files["trace"] = path;
    }

    Json metrics = Json::object();
    Json informational = Json::object();
    const auto emit = [&](const std::string &name, Json &into,
                          const char *note) {
        const auto it = res.metrics.find(name);
        if (it == res.metrics.end())
            return;
        Json m = Json::object();
        m.set("value", Json(it->second.first));
        m.set("unit", Json(it->second.second));
        into.set(name, std::move(m));
        std::printf("%-36s %14.6g %s%s\n", name.c_str(), it->second.first,
                    it->second.second.c_str(), note);
    };
    if (calibrate) {
        emit("capacity_rps", metrics, "");
    } else if (opt.trace) {
        for (const auto &[name, unit] : perLayerMetrics())
            emit(name, metrics, "");
    } else {
        for (const char *name : kEndToEnd)
            emit(name, metrics, "");
        for (const char *name : kInformational)
            emit(name, informational, " (informational, no bound)");
    }

    Json out = Json::object();
    out.set("correct", Json(res.correct));
    out.set("attempted", Json(std::uint64_t(res.attempted)));
    out.set("failed", Json(std::uint64_t(res.failed)));
    out.set("metrics", std::move(metrics));
    out.set("informational", std::move(informational));
    Json problems = Json::array();
    for (const std::string &p : res.problems) {
        std::fprintf(stderr, "problem: %s\n", p.c_str());
        problems.push(Json(p));
    }
    out.set("problems", std::move(problems));
    Json properties = Json::object();
    for (const auto &[name, share] : res.properties)
        properties.set(name, Json(share));
    out.set("properties", std::move(properties));
    Json params = Json::object();
    for (const auto &[name, value] : res.params)
        params.set(name, Json(value));
    out.set("params", std::move(params));
    Json files = Json::object();
    for (const auto &[role, path] : res.files)
        files.set(role, Json(path));
    out.set("files", std::move(files));
    std::printf("%s\n", out.dump().c_str());
    return res.correct ? 0 : 1;
}
