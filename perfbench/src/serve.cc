/**
 * @file
 * The serve workloads: `mfusim serve` launched from the repository's
 * own binary and driven over HTTP by one client thread.
 *
 *  - serve_cold: an open loop of distinct /v1/simulate cells, so every
 *    request misses the cache.  Most carry an armed non-perfect
 *    predictor (steady state off, every cycle simulated) and a fixed
 *    share name unrolled loops outside the trace library (traced and
 *    decoded per request).
 *  - serve_hot: a closed, pipelined loop over a small set of bodies
 *    that all sit in a journal the daemon warm-loads at start-up, so
 *    every request is a cache hit on the reactor fast path.
 *
 * Responses are checked against the same cells computed in-process,
 * after the timed window.
 */

#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <thread>

#include "daemon.hh"
#include "loadgen.hh"
#include "mfusim/codegen/livermore.hh"
#include "mfusim/dataflow/period_detector.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/serve/json.hh"
#include "mfusim/serve/persist_cache.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/spec/predictor.hh"
#include "spans.hh"

namespace perfbench
{

using namespace mfusim;
namespace fs = std::filesystem;

namespace
{

/**
 * serve_cold's offered rate: about a quarter of the seed commit's
 * daemon capacity on this mix (1750-2300 req/s measured with
 * --calibrate on a 4-vCPU VM, 2 workers); at half, queueing on a
 * shared host made runs of the same code disagree fivefold.  Fixed, so
 * every commit is offered the same load.
 */
constexpr double kColdRate = 500.0;
/**
 * Cells the serve_hot journal holds, and how many of them per loop the
 * hot subset requests (the same for every loop, so the instructions an
 * answer covers do not depend on the seed).
 */
constexpr std::size_t kJournalCells = 2000;
constexpr std::size_t kHotCellsPerLoop = 4;
/**
 * Client shape.  The daemon computes the requests of one connection
 * strictly in order, so serve_cold spreads its open loop over up to
 * four connections (never more than nproc) to keep head-of-line
 * blocking from dominating its latency; serve_hot pipelines over two.
 */
constexpr unsigned kColdConnections = 4;
constexpr unsigned kHotConnections = 2;
constexpr unsigned kHotDepth = 8;
/** Daemon launches per run; setup_s is the median. */
constexpr int kSetupSamples = 15;
/** serve_cold responses re-computed in-process per run. */
constexpr std::size_t kColdVerify = 300;
/**
 * A send later than this at p99 means the generator fell behind its
 * schedule: the run is marked invalid (`valid: no`), its latencies
 * unusable.  The outputs are still checked and the bounded metrics,
 * CPU time per request, do not depend on the schedule, so it is not a
 * failure.  Lateness up to the limit comes from the client thread
 * being descheduled on a shared host and is part of the latencies,
 * which run from the scheduled time.
 */
constexpr double kMaxLateP99Ms = 10.0;
/** Request spans recorded per traced slice (bounds the trace file). */
constexpr std::size_t kSpansPerSlice = 2000;
/** Traced run: alternate traced/untraced slices of this length. */
constexpr std::uint64_t kSliceNs = 500'000'000ull;
constexpr std::uint64_t kDrainNs = 10'000'000'000ull;

struct Cell
{
    std::string loop;       //!< "5" or an unrolled variant like "1x4"
    std::string machine;
    std::string config;
    std::string predictor;  //!< empty: no predictor field
    bool library = true;

    std::string
    body() const
    {
        std::string b = "{\"loop\":\"" + loop + "\",\"machine\":\"" +
            machine + "\",\"config\":\"" + config + "\"";
        if (!predictor.empty())
            b += ",\"predictor\":\"" + predictor + "\"";
        return b + "}";
    }
};

const char *const kConfigs[] = { "M11BR5", "M11BR2", "M5BR5", "M5BR2" };

template <typename T, std::size_t N>
const T &
pick(Rng &rng, const T (&items)[N])
{
    return items[rng.below(N)];
}

/**
 * A shuffled deck of choices, dealt in order and reshuffled when
 * empty: every stretch of draws as long as the deck holds each value
 * in its fixed share.
 */
class Deck
{
  public:
    explicit Deck(std::vector<int> values) : values_(std::move(values)) {}

    int
    draw(Rng &rng)
    {
        if (next_ == values_.size()) {
            for (std::size_t i = values_.size(); i > 1; --i)
                std::swap(values_[i - 1], values_[rng.below(i)]);
            next_ = 0;
        }
        return values_[next_++];
    }

  private:
    std::vector<int> values_;
    std::size_t next_ = 0;
};

std::vector<int>
range(int from, int to)
{
    std::vector<int> v;
    for (int i = from; i <= to; ++i)
        v.push_back(i);
    return v;
}

/**
 * The serve_cold request mix.  Its categorical choices come from
 * decks, not independent draws, so the costly combinations (long
 * loops on RUU machines with armed predictors) spread evenly over the
 * window instead of clustering by chance: p99 then reflects the
 * daemon, not how many expensive cells a seed happened to draw.
 */
class ColdMix
{
  public:
    explicit ColdMix(Rng &rng) : rng_(rng) {}

    Cell
    next()
    {
        Cell c;
        if (nonLibrary_.draw(rng_) != 0) {
            c.loop = std::to_string(unrollable_.draw(rng_)) + "x" +
                std::to_string(factor_.draw(rng_));
            c.library = false;
        } else {
            c.loop = std::to_string(loop_.draw(rng_));
        }
        const int kind = kind_.draw(rng_);
        if (kind == 2) {
            c.machine = "ruu:" + std::to_string(ruuWidth_.draw(rng_)) + ":" +
                std::to_string(ruuSize_.draw(rng_)) +
                (ruuBus_.draw(rng_) != 0 ? ",1bus" : "");
        } else {
            static const char *const buses[] = { "", ",1bus", ",xbar" };
            c.machine = std::string(kind == 0 ? "seq:" : "ooo:") +
                std::to_string(width_.draw(rng_)) + buses[bus_.draw(rng_)];
        }
        c.config = kConfigs[config_.draw(rng_)];
        if (armed_.draw(rng_) != 0) {
            std::string p;
            if (twoBit_.draw(rng_) != 0) {
                p = "2bit:" + std::to_string(64 << table_.draw(rng_));
            } else {
                p = "fixed:" + std::to_string(50 + rng_.below(50)) + ":s" +
                    std::to_string(1 + rng_.below(1000000));
            }
            p += ":w" + std::to_string(window_.draw(rng_));
            // Canonical, so distinct bodies are distinct cache keys.
            c.predictor = PredictorSpec::parse(p).key();
        }
        return c;
    }

  private:
    Rng &rng_;
    // A quarter of the cells name a loop outside the trace library.
    Deck nonLibrary_{ { 1, 0, 0, 0 } };
    Deck loop_{ range(1, 14) };
    Deck unrollable_{ { 1, 5, 11, 12 } };
    Deck factor_{ { 1, 2, 4, 8 } };
    Deck kind_{ { 0, 1, 2 } };
    Deck width_{ range(1, 8) };
    Deck bus_{ { 0, 0, 1, 2 } };
    Deck ruuWidth_{ range(1, 4) };
    Deck ruuSize_{ { 10, 20, 30, 50, 70, 100 } };
    Deck ruuBus_{ { 0, 0, 1 } };
    Deck config_{ range(0, 3) };
    // 17 in 20 cells arm a non-perfect predictor.
    Deck armed_{ [] {
        std::vector<int> v(20, 1);
        v[0] = v[1] = v[2] = 0;
        return v;
    }() };
    Deck twoBit_{ { 0, 1 } };
    Deck table_{ range(0, 6) };
    Deck window_{ range(1, 16) };
};

/** One serve_hot journal cell: library loops, any machine. */
Cell
journalCell(Rng &rng)
{
    Cell c;
    c.loop = std::to_string(1 + rng.below(14));
    c.config = pick(rng, kConfigs);
    static const char *const single[] = { "simple", "serialmem", "nonseg",
                                          "cray",   "cdc",       "tomasulo" };
    static const char *const buses[] = { "", ",1bus", ",xbar" };
    if (rng.below(4) == 0) {
        c.machine = pick(rng, single);
    } else if (rng.below(3) == 0) {
        c.machine = "ruu:" + std::to_string(1 + rng.below(4)) + ":" +
            std::to_string(10 * (1 + rng.below(10)));
    } else {
        c.machine = std::string(rng.below(2) ? "seq:" : "ooo:") +
            std::to_string(1 + rng.below(8)) + pick(rng, buses);
        if (rng.below(5) == 0)
            c.predictor = PredictorSpec::parse(
                              "fixed:" + std::to_string(50 + rng.below(50)) +
                              ":s" + std::to_string(1 + rng.below(1000)))
                              .key();
    }
    return c;
}

/** @p n distinct cells from @p make. */
std::vector<Cell>
distinctCells(std::size_t n, const std::function<Cell()> &make)
{
    std::vector<Cell> cells;
    std::set<std::string> seen;
    while (cells.size() < n) {
        Cell c = make();
        if (seen.insert(c.body()).second)
            cells.push_back(std::move(c));
    }
    return cells;
}

/** Spec parsing exactly as SimService does it for a request body. */
std::unique_ptr<Simulator>
parseCell(const Json &request, MachineConfig *cfg)
{
    *cfg = parseConfigSpec(request.find("config")->asString());
    if (const Json *p = request.find("predictor")) {
        cfg->predictor = PredictorSpec::parse(p->asString());
        cfg->predictor.validate();
    }
    return parseMachineSpec(request.find("machine")->asString(), *cfg);
}

/**
 * Re-run one served cell through the layers' public functions, with
 * a span around each call, and return what the daemon should have
 * answered.  @p simulate false stops after the cache probe (a hit
 * needs no simulation).
 */
SimResult
replayCell(const Cell &cell, ResultCache &cache, bool simulate)
{
    ScopedSpan span("cell", "driver", cell.body());
    Json request;
    {
        ScopedSpan s("serve.json_parse", "serve");
        request = parseJson(cell.body());
    }
    MachineConfig cfg;
    std::unique_ptr<Simulator> sim;
    {
        ScopedSpan s("harness.spec_parse", "harness");
        sim = parseCell(request, &cfg);
    }
    const std::string key = sim->cacheKey();
    const std::string traceKey = "LL" + cell.loop;
    SimResult result;
    {
        ScopedSpan s("serve.cache_probe", "serve");
        cache.lookup(key, traceKey, cfg, false, &result);
    }
    if (!simulate)
        return result;
    std::unique_ptr<DynTrace> dyn;
    std::unique_ptr<DecodedTrace> own;
    const DecodedTrace *decoded = nullptr;
    if (cell.library) {
        decoded = &TraceLibrary::instance().decoded(std::stoi(cell.loop),
                                                    cfg);
    } else {
        {
            ScopedSpan s("codegen.trace", "codegen");
            dyn = std::make_unique<DynTrace>(traceForLoopSpec(cell.loop));
        }
        ScopedSpan s("core.decode", "core");
        own = std::make_unique<DecodedTrace>(*dyn, cfg);
        decoded = own.get();
    }
    if (!cfg.predictor.armed()) {
        ScopedSpan s("dataflow.period", "dataflow");
        decoded->periodicity();
    }
    {
        ScopedSpan s("sim.run", "sim");
        result = sim->run(*decoded);
    }
    {
        ScopedSpan s("serve.cache_store", "serve");
        cache.store(key, traceKey, cfg, false, result);
    }
    return result;
}

/** Numeric response field, or -1 when absent. */
double
number(const Json &resp, const char *field)
{
    const Json *v = resp.find(field);
    return v != nullptr && v->isNumber() ? v->asNumber() : -1;
}

/** Compare a response with the expected cell; empty when it agrees. */
std::string
checkResponse(const Cell &cell, const Json &resp, const SimResult &want)
{
    const auto num = [&](const char *field) {
        return number(resp, field);
    };
    const Json *loop = resp.find("loop");
    const Json *spec = resp.find("machine_spec");
    if (loop == nullptr || loop->asString() != "LL" + cell.loop ||
        spec == nullptr || spec->asString() != cell.machine)
        return "response names another cell: " + cell.body();
    if (num("instructions") != double(want.instructions) ||
        num("cycles") != double(want.cycles) ||
        num("steady_ops_skipped") != double(want.steadyOpsSkipped))
        return "wrong result for " + cell.body();
    if (!cell.predictor.empty() &&
        (num("squashes") != double(want.squashes) ||
         num("wrong_path_ops") != double(want.wrongPathOps)))
        return "wrong speculation counts for " + cell.body();
    return "";
}

/**
 * "N request(s) failed (status 400: 3, no reply: 1, ...)": the
 * statuses of @p exchanges other than 200; the rest of @p n were 200s
 * whose body did not parse.
 */
std::string
unanswered(std::size_t n, const std::vector<Exchange> &exchanges)
{
    std::map<int, std::size_t> byStatus;
    std::size_t listed = 0;
    for (const Exchange &x : exchanges)
        if (x.status != 200 && x.status >= 0) {
            ++byStatus[x.status];
            ++listed;
        }
    if (listed < n)
        byStatus[200] = n - listed;
    std::string s = std::to_string(n) + " request(s) failed (";
    for (const auto &[status, count] : byStatus)
        s += (s.back() == '(' ? "" : ", ") +
            (status == 0     ? std::string("no reply")
                 : status == 200 ? std::string("unreadable 200")
                                 : "status " + std::to_string(status)) +
            ": " + std::to_string(count);
    return s + ")";
}

/** Counter deltas of two /metrics scrapes. */
double
delta(const std::map<std::string, double> &a,
      const std::map<std::string, double> &b, const std::string &key)
{
    const auto ia = a.find(key);
    const auto ib = b.find(key);
    return (ib == b.end() ? 0 : ib->second) -
        (ia == a.end() ? 0 : ia->second);
}

/** Per-phase mean and p99 (log2 bucket bound) over the window. */
void
phaseMetrics(const std::map<std::string, double> &m0,
             const std::map<std::string, double> &m1, RunResult &res)
{
    for (const char *phase : { "parse", "dispatch", "queue", "compute",
                               "serialize", "write_first",
                               "write_drain" }) {
        const std::string label = std::string("phase=\"") + phase + "\"";
        const double count = delta(
            m0, m1, "mfusim_http_phase_seconds_count{" + label + "}");
        const double sum = delta(
            m0, m1, "mfusim_http_phase_seconds_sum{" + label + "}");
        std::vector<std::pair<double, double>> buckets;
        const std::string prefix =
            "mfusim_http_phase_seconds_bucket{" + label + ",le=\"";
        for (auto it = m1.lower_bound(prefix);
             it != m1.end() && it->first.rfind(prefix, 0) == 0; ++it) {
            const std::string le = it->first.substr(prefix.size());
            buckets.push_back(
                { le.rfind("+Inf", 0) == 0 ? INFINITY : std::stod(le),
                  delta(m0, m1, it->first) });
        }
        std::sort(buckets.begin(), buckets.end());
        double p99 = 0;
        for (const auto &[le, cumulative] : buckets) {
            if (count > 0 && cumulative >= 0.99 * count) {
                p99 = le;
                break;
            }
        }
        const std::string base = std::string("serve.phase.") + phase;
        res.metric(base + ".mean_ms", count > 0 ? sum / count * 1e3 : 0,
                   "ms");
        res.metric(base + ".p99_ms", std::isinf(p99) ? 0 : p99 * 1e3,
                   "ms");
    }
}

/** Everything one serve run shares between its two workloads. */
class ServeRun
{
  public:
    ServeRun(const RunOptions &opt, bool hot)
        : opt_(opt), hot_(hot), rng_(opt.seed),
          base_(opt.outDir + "/" + opt.stem + ".serve")
    {
        fs::remove_all(base_);
        fs::create_directories(base_);
        res_.params["daemon_workers"] = std::to_string(kDaemonWorkers);
        connections_ = std::min(hot ? kHotConnections : kColdConnections,
                                std::max(1u, std::thread::hardware_concurrency()));
        res_.params["connections"] = std::to_string(connections_);
        res_.params["setup_samples"] = std::to_string(kSetupSamples);
    }

    ~ServeRun()
    {
        live_.reset();
        std::error_code ignored;
        fs::remove_all(base_, ignored);
    }

    RunResult
    run()
    {
        if (hot_)
            buildJournal();
        if (opt_.trace)
            openRoot();
        if (res_.correct)
            setUp();
        if (res_.correct)
            hot_ ? loadHot() : loadCold();
        if (live_ != nullptr) {
            peakRss_ = peakRssMb(live_->pid());
            std::string problem;
            if (!live_->stop(&problem)) {
                res_.fail(problem);
                ++res_.failed;
            }
            live_.reset();
        }
        if (res_.correct)
            hot_ ? verifyHot() : verifyCold();
        finish();
        return std::move(res_);
    }

    /** Closed-loop saturation of the cold mix (calibration only). */
    RunResult
    capacity()
    {
        setUp();
        if (!res_.correct)
            return std::move(res_);
        ColdMix mix(rng_);
        const std::vector<Cell> cells = distinctCells(
            std::size_t(opt_.seconds * 20000), [&] { return mix.next(); });
        std::vector<std::string> wires;
        for (const Cell &c : cells)
            wires.push_back(simulateWire(c.body()));
        std::size_t next = 0, ok = 0;
        LoadClient client(live_->port(), connections_);
        const std::uint64_t t0 = monoNanos();
        client.runClosed(
            wires, [&] { return next++ % wires.size(); }, kHotDepth,
            t0 + std::uint64_t(opt_.seconds * 1e9), 0, kDrainNs,
            [&](Exchange &&x) { ok += x.status == 200; });
        res_.attempted = next;
        res_.failed = next - ok;
        res_.metric("capacity_rps", double(ok) / msSince(t0) * 1e3, "1/s");
        std::string problem;
        live_->stop(&problem);
        live_.reset();
        return std::move(res_);
    }

  private:
    /** serve_hot: journal the cells through a daemon of their own. */
    void
    buildJournal()
    {
        journal_ = distinctCells(kJournalCells,
                                 [&] { return journalCell(rng_); });
        Daemon journalDaemon(opt_.mfusimBinary, base_ + "/journal");
        std::string problem;
        if (!journalDaemon.start(&problem)) {
            res_.fail(problem);
            return;
        }
        std::vector<std::string> wires;
        for (const Cell &c : journal_)
            wires.push_back(simulateWire(c.body()));
        std::size_t next = 0, ok = 0;
        LoadClient client(journalDaemon.port(), connections_);
        client.runClosed(
            wires, [&] { return next++; }, kHotDepth, UINT64_MAX,
            wires.size(), kDrainNs,
            [&](Exchange &&x) { ok += x.status == 200; });
        if (ok != wires.size())
            res_.fail("journal build: " + std::to_string(wires.size() - ok) +
                      " request(s) failed");
        if (!journalDaemon.stop(&problem))
            res_.fail("journal build: " + problem);
    }

    /** Launch the daemon kSetupSamples times; keep the last one. */
    void
    setUp()
    {
        std::vector<double> samples, wall;
        for (int i = 0; i < kSetupSamples; ++i) {
            const std::string dir = base_ + "/cache" + std::to_string(i);
            fs::create_directories(dir);
            if (hot_)
                fs::copy_file(base_ + "/journal/results.mfuj",
                              dir + "/results.mfuj");
            auto daemon = std::make_unique<Daemon>(opt_.mfusimBinary, dir);
            std::string problem;
            {
                ScopedSpan span("serve.spawn", "serve");
                if (!daemon->start(&problem)) {
                    res_.fail(problem);
                    return;
                }
            }
            samples.push_back(daemon->readyCpuSeconds());
            wall.push_back(daemon->readySeconds());
            if (i + 1 < kSetupSamples) {
                if (!daemon->stop(&problem)) {
                    res_.fail(problem);
                    return;
                }
            } else {
                live_ = std::move(daemon);
            }
        }
        setupS_ = median(samples);
        setupWallS_ = median(wall);
        HttpReply health;
        if (httpGet(live_->port(), "/healthz", &health))
            if (const Json *sha = parseJson(health.body).find("git_sha"))
                daemonVersion_ = sha->asString();
    }

    bool
    tracedSlice(std::uint64_t t) const
    {
        return opt_.trace && t >= windowStart_ &&
            ((t - windowStart_) / kSliceNs) % 2 == 1;
    }

    /** Record a request span in traced slices (track = connection). */
    void
    traceRequest(const Exchange &x)
    {
        if (!tracedSlice(x.sentNs))
            return;
        const std::uint64_t slice = (x.sentNs - windowStart_) / kSliceNs;
        if (slice != spanSlice_) {
            spanSlice_ = slice;
            spansInSlice_ = 0;
        }
        if (spansInSlice_++ < kSpansPerSlice)
            spans().addRequest("request", x.dueNs, x.doneNs, windowSpan_,
                               "cell " + std::to_string(x.request),
                               x.connection + 1);
    }

    void
    loadCold()
    {
        // Exponential gaps, scaled so exactly rate x seconds requests
        // arrive in the window: seeds change when, never how many.
        const double seconds = opt_.seconds;
        const std::size_t count = std::size_t(kColdRate * seconds);
        std::vector<double> at(count);
        double t = 0;
        for (double &a : at) {
            a = t;
            t += rng_.exponential(1.0);
        }
        std::vector<std::pair<std::uint64_t, std::size_t>> schedule;
        for (std::size_t i = 0; i < count; ++i)
            schedule.push_back(
                { std::uint64_t((0.02 + at[i] * seconds / t) * 1e9), i });
        ColdMix mix(rng_);
        cells_ = distinctCells(schedule.size(), [&] { return mix.next(); });
        std::vector<std::string> wires;
        for (const Cell &c : cells_)
            wires.push_back(simulateWire(c.body()));
        replies_.assign(cells_.size(), Exchange{});

        beginWindow();
        for (auto &s : schedule)
            s.first += windowStart_;
        std::vector<double> late;
        {
            LoadClient client(live_->port(), connections_);
            if (!client.ok())
                res_.fail(client.error());
            client.runOpen(wires, schedule, kDrainNs,
                           [&](Exchange &&x) {
                               traceRequest(x);
                               replies_[x.request] = std::move(x);
                           },
                           &late);
        }
        endWindow(schedule.front().first,
                  schedule.front().first + std::uint64_t(seconds * 1e9));

        res_.attempted = schedule.size();
        const double lateP99 = quantile(late, 0.99);
        res_.params["offered_rps"] = std::to_string(kColdRate);
        res_.params["latency_from"] = "scheduled send time";
        res_.metric("loadgen.late_p99_ms", lateP99, "ms");
        res_.params["late_max_ms"] = std::to_string(quantile(late, 1.0));
        res_.params["valid"] = lateP99 <= kMaxLateP99Ms ? "yes" : "no";
        if (lateP99 > kMaxLateP99Ms)
            std::fprintf(stderr,
                         "warning: run invalid, the load generator fell "
                         "behind (late p99 %.3f ms)\n",
                         lateP99);
    }

    void
    loadHot()
    {
        Rng pickRng(opt_.seed ^ 0x5eedull);
        std::map<std::string, std::size_t> perLoop;
        for (const Cell &c : journal_)
            if (perLoop[c.loop]++ < kHotCellsPerLoop)
                cells_.push_back(c);
        std::vector<std::string> wires;
        for (const Cell &c : cells_)
            wires.push_back(simulateWire(c.body()));
        replies_.assign(cells_.size(), Exchange{});

        beginWindow();
        std::uint64_t sent = 0;
        {
            LoadClient client(live_->port(), connections_);
            if (!client.ok())
                res_.fail(client.error());
            client.runClosed(
                wires,
                [&] {
                    ++sent;
                    return std::size_t(pickRng.below(wires.size()));
                },
                kHotDepth,
                windowStart_ + std::uint64_t(opt_.seconds * 1e9), 0,
                kDrainNs, [&](Exchange &&x) {
                    traceRequest(x);
                    Exchange &first = replies_[x.request];
                    if (first.status == 0 && x.status == 200) {
                        first = std::move(x);
                        hotDone_.push_back(first);
                        hotDone_.back().body.clear();
                        return;
                    }
                    if (x.status == 200 && x.body != first.body)
                        x.status = -1;   // differs from its first answer
                    x.body.clear();
                    hotDone_.push_back(std::move(x));
                });
        }
        endWindow(windowStart_,
                  windowStart_ + std::uint64_t(opt_.seconds * 1e9));
        res_.attempted = sent;
        res_.params["pipeline_depth"] = std::to_string(kHotDepth);
        res_.params["journal_cells"] = std::to_string(kJournalCells);
        res_.params["hot_cells"] = std::to_string(cells_.size());
        res_.metric("loadgen.late_p99_ms", 0, "ms");
    }

    /** Traced run: everything after the (untimed) journal build. */
    void
    openRoot()
    {
        // Warm the trace library as the daemon's is after its first
        // requests, so the replay times steady-state per-request work.
        for (const KernelSpec &k : kernelSpecs())
            for (const MachineConfig &cfg : standardConfigs())
                TraceLibrary::instance().decoded(k.id, cfg).periodicity();
        spans().setEnabled(true);
        rootSpan_ = spans().open("run", "driver", opt_.workload);
    }

    void
    beginWindow()
    {
        m0_ = scrapeMetrics(live_->port());
        cpu0_ = cpuSeconds(live_->pid());
        clientCpu0_ = cpuSeconds(getpid());
        host0_ = hostTicks();
        if (opt_.trace)
            windowSpan_ = spans().open("serve.window", "serve");
        windowStart_ = monoNanos();
    }

    void
    endWindow(std::uint64_t from, std::uint64_t to)
    {
        if (opt_.trace)
            spans().close(windowSpan_);
        window_.setWindow(from, to);
        windowWallS_ = double(monoNanos() - windowStart_) / 1e9;
        daemonCpuS_ = cpuSeconds(live_->pid()) - cpu0_;
        clientCpuS_ = cpuSeconds(getpid()) - clientCpu0_;
        stolen_ = stolenShare(host0_, hostTicks());
        m1_ = scrapeMetrics(live_->port());
    }

    /** File one answered request under its sub-windows. */
    void
    recordLatency(std::uint64_t fromNs, std::uint64_t doneNs, double inst)
    {
        const double ms = double(doneNs - fromNs) / 1e6;
        ++answered_;
        instAnswered_ += inst;
        window_.latency(fromNs, ms);
        window_.completion(doneNs);
        (tracedSlice(fromNs) ? tracedLat_ : plainLat_).push_back(ms);
    }

    /** The response JSON of a successful exchange, or null. */
    static Json
    parsed(const Exchange &x)
    {
        if (x.status != 200)
            return Json();
        try {
            return parseJson(x.body);
        } catch (...) {
            return Json();
        }
    }

    void
    verifyCold()
    {
        ResultCache cache;
        {
            ScopedSpan span("serve.persist_load", "serve");
            cache.attachPersist(
                std::make_unique<PersistentCache>(base_ + "/replay"));
        }
        std::vector<Json> bodies(replies_.size());
        std::size_t ok = 0;
        for (std::size_t i = 0; i < replies_.size(); ++i) {
            bodies[i] = parsed(replies_[i]);
            if (!bodies[i].isObject())
                continue;
            ++ok;
            const Exchange &x = replies_[i];
            const double inst = number(bodies[i], "instructions");
            recordLatency(x.dueNs, x.doneNs, inst);
            instTotal_ += inst;
            skippedTotal_ += number(bodies[i], "steady_ops_skipped");
        }
        if (ok != replies_.size()) {
            res_.failed += replies_.size() - ok;
            res_.fail(unanswered(replies_.size() - ok, replies_));
        }

        // A seeded sample of distinct answered cells.
        Rng sample(opt_.seed ^ 0xc01dull);
        std::vector<std::size_t> order(cells_.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        const std::size_t n = std::min(kColdVerify, order.size());
        for (std::size_t k = 0; k < n; ++k)
            std::swap(order[k], order[k + sample.below(order.size() - k)]);
        std::size_t inst = 0, squashes = 0, wrongPath = 0, skipped = 0,
                    checked = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = order[k];
            if (!bodies[i].isObject())
                continue;
            const SimResult want = replayCell(cells_[i], cache, true);
            {
                ScopedSpan s("serve.json_render", "serve");
                bodies[i].dump();
            }
            ++checked;
            inst += want.instructions;
            skipped += want.steadyOpsSkipped;
            squashes += want.squashes;
            wrongPath += want.wrongPathOps;
            const std::string problem =
                checkResponse(cells_[i], bodies[i], want);
            if (!problem.empty()) {
                ++res_.failed;
                res_.fail(problem);
            }
        }
        res_.params["verified_responses"] = std::to_string(checked);
        const PersistStats ps = cache.persist()->stats();
        cache.detachPersist();
        if (opt_.trace) {
            const double simMs = double(spans().totalNanos("sim.run")) / 1e6;
            res_.metric("sim.cells", double(checked), "count");
            res_.metric("sim.minst", double(inst) / 1e6, "Minst");
            res_.metric("sim.ns_per_inst", simMs * 1e6 / double(inst), "ns");
            res_.metric("sim.steady_skip_ratio",
                        double(skipped) / double(inst), "ratio");
            res_.metric("sim.wrong_path_ratio",
                        double(wrongPath) / double(inst), "ratio");
            res_.metric("sim.squashes", double(squashes), "count");
            res_.metric("serve.persist.appends", double(ps.appends), "count");
            res_.metric("serve.persist.fsyncs", double(ps.fsyncs), "count");
        }
    }

    void
    verifyHot()
    {
        // The replay of the serve layer's own calls (traced run) ...
        if (opt_.trace) {
            ResultCache cache;
            cache.setVersion(daemonVersion_);
            const std::string dir = base_ + "/replay";
            fs::create_directories(dir);
            fs::copy_file(base_ + "/journal/results.mfuj",
                          dir + "/results.mfuj");
            {
                ScopedSpan span("serve.persist_load", "serve");
                cache.attachPersist(std::make_unique<PersistentCache>(dir));
            }
            for (std::size_t i = 0; i < cells_.size(); ++i) {
                replayCell(cells_[i], cache, false);
                const Json body = parsed(replies_[i]);
                ScopedSpan s("serve.json_render", "serve");
                body.dump();
            }
            cache.detachPersist();
        }
        closeRoot();
        // ... then the correctness check, outside the trace: every hot
        // cell's first answer against an in-process simulation (later
        // answers were compared byte for byte with the first, so a
        // wrong first answer makes every answer to that cell wrong).
        std::vector<char> wrong(cells_.size(), 0);
        std::vector<double> inst(cells_.size(), 0);
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const Json body = parsed(replies_[i]);
            if (!body.isObject()) {
                // Never answered (counted below), or answered with a
                // body that does not parse.
                if (replies_[i].status == 200) {
                    wrong[i] = 1;
                    res_.fail("unreadable answer for " + cells_[i].body());
                }
                continue;
            }
            ResultCache scratch;
            const SimResult want = replayCell(cells_[i], scratch, true);
            const std::string problem = checkResponse(cells_[i], body, want);
            if (!problem.empty()) {
                wrong[i] = 1;
                res_.fail(problem);
            }
            inst[i] = number(body, "instructions");
            const Json *cached = body.find("cached");
            hotCached_ += cached != nullptr && cached->asBool();
        }
        std::size_t ok = 0, differed = 0, notOk = 0;
        for (const Exchange &x : hotDone_) {
            differed += x.status < 0;
            notOk += x.status >= 0 && x.status != 200;
            if (x.status != 200 || wrong[x.request]) {
                ++res_.failed;
                continue;
            }
            ++ok;
            recordLatency(x.sentNs, x.doneNs, inst[x.request]);
        }
        if (differed > 0)
            res_.fail(std::to_string(differed) +
                      " repeated answer(s) differed from the first");
        if (notOk > 0)
            res_.fail(unanswered(notOk, hotDone_));
        const std::uint64_t lost =
            res_.attempted -
            std::min<std::uint64_t>(res_.attempted, hotDone_.size());
        if (lost > 0) {
            res_.failed += lost;
            res_.fail(std::to_string(lost) + " request(s) never finished");
        }
        res_.params["verified_responses"] = std::to_string(ok);
    }

    void
    closeRoot()
    {
        if (opt_.trace && rootSpan_ >= 0) {
            spans().close(rootSpan_);
            rootSpan_ = -1;
            spans().setEnabled(false);
        }
    }

    void
    finish()
    {
        closeRoot();
        res_.failed = std::min(res_.failed, res_.attempted);
        const double hits = delta(m0_, m1_, "mfusim_result_cache_hits_total");
        const double misses =
            delta(m0_, m1_, "mfusim_result_cache_misses_total");
        const double simulate =
            delta(m0_, m1_, "mfusim_http_simulate_requests_total");
        const double requests = delta(m0_, m1_, "mfusim_http_requests_total");
        std::size_t nonLibrary = 0;
        for (const Cell &c : cells_)
            nonLibrary += !c.library;
        res_.properties["sim.steady_skip_ratio"] =
            hot_ || instTotal_ == 0 ? 0 : skippedTotal_ / instTotal_;
        res_.properties["codegen.nonlibrary_share"] =
            cells_.empty() ? 0 : double(nonLibrary) / double(cells_.size());
        res_.properties["serve.result_cache.hit_ratio"] =
            hits + misses > 0 ? hits / (hits + misses) : 0;
        res_.properties["serve.fastpath_ratio"] =
            simulate > 0
                ? delta(m0_, m1_, "mfusim_http_requests_fastpath_total") /
                    simulate
                : 0;
        if (hot_)
            res_.params["cached_flag_share"] =
                std::to_string(cells_.empty() ? 0.0
                                              : hotCached_ / cells_.size());

        if (!opt_.trace) {
            // A run that answered nothing, or whose daemon CPU could not
            // be read, has no figures to report: fail it rather than
            // print a zero that reads as a perfect score.
            if (res_.correct && answered_ == 0)
                res_.fail("no request was answered");
            if (res_.correct && (daemonCpuS_ <= 0 || clientCpuS_ <= 0))
                res_.fail("no CPU time measured over the window");
            res_.metric("setup_s", setupS_, "s");
            res_.metric("setup_wall_s", setupWallS_, "s");
            res_.metric("cpu_us_per_op",
                        answered_ ? daemonCpuS_ * 1e6 / double(answered_) : 0,
                        "us");
            res_.metric("sim_mips",
                        daemonCpuS_ > 0 ? instAnswered_ / daemonCpuS_ / 1e6
                                        : 0,
                        "Minst/cpu-s");
            res_.metric("wall_per_cpu", wallPerCpu(), "ratio");
            res_.params["daemon_cpu_s"] = std::to_string(daemonCpuS_);
            res_.params["client_cpu_s"] = std::to_string(clientCpuS_);
            res_.params["host_stolen_share"] = std::to_string(stolen_);
            res_.metric("rps", window_.rate(), "1/s");
            res_.metric("p50_ms", window_.quantile(0.50), "ms");
            res_.metric("p99_ms", window_.quantile(0.99), "ms");
            res_.metric("peak_rss_mb", peakRss_, "MB");
            if (!hot_)
                res_.params["backlog_grew"] =
                    window_.rate() < 0.95 * kColdRate ? "yes" : "no";
            res_.params["latency_samples"] = std::to_string(answered_);
            res_.params["latency_subwindows"] =
                std::to_string(SubWindows::kCount);
            res_.params["latency_samples_per_subwindow_min"] =
                std::to_string(window_.minSamples());
            return;
        }
        phaseMetrics(m0_, m1_, res_);
        res_.metric("serve.pipelined_ratio",
                    requests > 0
                        ? delta(m0_, m1_, "mfusim_http_requests_pipelined_total") /
                            requests
                        : 0,
                    "ratio");
        // Traced slices against untraced ones: latency in the open
        // loop, completed requests in the closed one.
        double overhead = 0;
        if (hot_ && !tracedLat_.empty())
            overhead = double(plainLat_.size()) / double(tracedLat_.size()) -
                1.0;
        else if (!hot_ && !plainLat_.empty())
            overhead = median(tracedLat_) / median(plainLat_) - 1.0;
        res_.metric("obs.trace_overhead", overhead, "ratio");
    }

    /**
     * Wall-clock time per CPU-second of the work, which rises when the
     * work waits (a lock, a blocking write, a sleep) while its CPU cost
     * stays.  serve_hot: the window's wall time over the CPU time of
     * the busier side of the closed loop, daemon or client, so it stays
     * near 1 whichever of the two bounds the rate.  serve_cold, an open
     * loop that leaves the daemon mostly idle: the workers' compute
     * phases (from /metrics) summed, over the daemon's CPU time.
     */
    double
    wallPerCpu() const
    {
        if (hot_)
            return windowWallS_ / std::max(daemonCpuS_, clientCpuS_);
        return delta(m0_, m1_,
                     "mfusim_http_phase_seconds_sum{phase=\"compute\"}") /
            daemonCpuS_;
    }

    const RunOptions &opt_;
    const bool hot_;
    unsigned connections_ = 1;
    Rng rng_;
    const std::string base_;
    RunResult res_;
    std::unique_ptr<Daemon> live_;
    std::string daemonVersion_ = "unknown";
    double setupS_ = 0, setupWallS_ = 0;
    double peakRss_ = 0;

    std::vector<Cell> journal_;
    std::vector<Cell> cells_;
    std::vector<Exchange> replies_;   //!< per cell: the (first) answer
    std::vector<Exchange> hotDone_;   //!< serve_hot: every answer
    double hotCached_ = 0;

    std::map<std::string, double> m0_, m1_;
    std::uint64_t windowStart_ = 0;
    SubWindows window_;
    std::int64_t rootSpan_ = -1, windowSpan_ = -1;
    std::uint64_t spanSlice_ = 0;
    std::size_t spansInSlice_ = 0;

    std::vector<double> tracedLat_, plainLat_;
    std::size_t answered_ = 0;
    double instAnswered_ = 0;
    double cpu0_ = 0, daemonCpuS_ = 0;
    double clientCpu0_ = 0, clientCpuS_ = 0, windowWallS_ = 0;
    HostTicks host0_;
    double stolen_ = 0;
    double instTotal_ = 0, skippedTotal_ = 0;
};

} // namespace

RunResult
runServeCold(const RunOptions &opt)
{
    return ServeRun(opt, false).run();
}

RunResult
runServeHot(const RunOptions &opt)
{
    return ServeRun(opt, true).run();
}

RunResult
runServeColdCapacity(const RunOptions &opt)
{
    return ServeRun(opt, false).capacity();
}

} // namespace perfbench
