/**
 * @file
 * End-to-end host-performance benchmark of the EMC simulator.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--smoke] [--trace-out <file>] [--git-sha <sha>]
 *             [--src-hash <hash>]
 *
 * Each workload is one lifecycle of System public calls (constructor,
 * run / fastwarmCheckpointBytes / restoreCheckpointBytes / runSampled,
 * dump, destructor), repeated in forked, time-limited workers for
 * --seconds. --trace 0 reports the end-to-end metrics as medians over
 * the repeats; --trace 1 alternates untraced and traced repeats, then
 * runs the per-layer replay drivers, and reports the per-layer
 * metrics. The last stdout line is the JSON result. METRICS.md
 * documents every metric.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "ckpt/ckpt.hh"
#include "isolate.hh"
#include "layers.hh"
#include "ledger.hh"
#include "sim/system.hh"

namespace perfbench
{

using namespace emc;

namespace
{

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One benchmark workload: four copies of one profile. */
struct Workload
{
    const char *name;
    const char *profile;
    /// Fast-warm once, then restore into two configurations and run
    /// each sampled; otherwise one detailed run with detailed warmup.
    bool warmfork;
    std::uint64_t uops;        ///< measured uops per core
    std::uint64_t warmup;      ///< warmup uops per core
    LayerBudget layers;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        {"mcf-emc", "mcf", false, 50000, 25000, {500000, 20000, 3000}},
        {"lbm-stream", "lbm", false, 6000, 3000, {500000, 6000, 3000}},
        {"hashjoin-warmfork", "hashjoin", true, 20000, 50000,
         {500000, 20000, 3000}},
    };
    return w;
}

/** Smoke mode: the same workloads at a tiny length. */
Workload
smokeOf(Workload w)
{
    w.uops = 1000;
    w.warmup = w.warmfork ? 2000 : 500;
    w.layers = {5000, 1000, 200};
    return w;
}

const SampleParams kSample{10000, 1000};

/** The configurations a workload's lifecycle constructs, in order. */
std::vector<SystemConfig>
configsOf(const Workload &w, std::uint64_t seed)
{
    auto make = [&](PrefetchConfig pf, bool emc_on, std::uint64_t warm) {
        SystemConfig c = bench::quadConfig(pf, emc_on);
        c.seed = seed;
        c.target_uops = w.uops;
        c.warmup_uops = warm;
        return c;
    };
    if (!w.warmfork)
        return {make(PrefetchConfig::kGhb, true, w.warmup)};
    // Warm once (no prefetcher or EMC: a warmup-level image carries
    // neither), then fork into a stream-prefetcher and an EMC+GHB
    // measurement, exactly as bench::runManyWarmShared does.
    return {make(PrefetchConfig::kNone, false, w.warmup),
            make(PrefetchConfig::kStream, false, 0),
            make(PrefetchConfig::kGhb, true, 0)};
}

// ---------------------------------------------------------------------
// One lifecycle
// ---------------------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/** FNV-1a over every stat name and the exact bits of its value. */
std::uint64_t
digestOf(const StatDump &d, std::uint64_t h)
{
    for (const auto &[k, v] : d.all()) {
        h = ckpt::fnv1a(reinterpret_cast<const std::uint8_t *>(k.data()),
                        k.size(), h);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        h = ckpt::fnv1a(reinterpret_cast<const std::uint8_t *>(&bits),
                        sizeof bits, h);
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
require(bool ok, const std::string &what)
{
    if (!ok)
        throw std::runtime_error("check failed: " + what);
}

/** Summed per-core stat @p leaf over the dump's cores. */
double
sumCores(const StatDump &d, const std::string &leaf)
{
    double s = 0;
    const auto n = static_cast<unsigned>(d.get("system.num_cores"));
    for (unsigned i = 0; i < n; ++i)
        s += d.get("core" + std::to_string(i) + "." + leaf);
    return s;
}

/** The simulated results a dump explains (reported, never gated). */
std::map<std::string, double>
simulatedOf(const StatDump &d)
{
    const double retired = sumCores(d, "retired");
    const double per_kuop = retired > 0 ? 1000.0 / retired : 0.0;
    const double accepted = d.get("emc.chains_accepted");
    const double core_lat = d.get("lat.core_total");
    const double emc_lat = d.get("lat.emc_total");
    return {
        {"sim.ipc", sumCores(d, "ipc")},
        {"sim.cycles", d.get("system.cycles")},
        {"core.fw_stalls_per_kuop",
         sumCores(d, "full_window_stalls") * per_kuop},
        {"llc.mpki", d.get("llc.demand_misses") * per_kuop},
        {"llc.dep_miss_frac", d.get("llc.dep_miss_frac")},
        {"dram.avg_queue_wait", d.get("dram.avg_queue_wait")},
        {"ring.avg_latency", d.get("ring.avg_latency")},
        {"emc.chains_accepted", accepted},
        {"emc.chain_completion_rate",
         accepted > 0 ? d.get("emc.chains_completed") / accepted : 0.0},
        {"emc.lat_saving",
         core_lat > 0 && emc_lat > 0 ? 1.0 - emc_lat / core_lat : 0.0},
        {"prefetch.accuracy", d.get("prefetch.accuracy")},
        {"pred.emc.accuracy", d.get("pred.emc.accuracy")},
    };
}

/** Correctness checks every measured dump must pass. */
void
checkDump(const StatDump &d, const SystemConfig &cfg, bool sampled)
{
    require(d.get("system.cycles") > 0, "no cycles simulated");
    require(d.get("system.cycles") < static_cast<double>(cfg.max_cycles),
            "run hit max_cycles");
    for (unsigned i = 0; i < cfg.num_cores; ++i) {
        const std::string p = "core" + std::to_string(i) + ".";
        const double ipc = d.get(p + "ipc");
        require(std::isfinite(ipc) && ipc > 0, p + "ipc not positive");
        if (!sampled) {
            require(d.get(p + "retired")
                        >= static_cast<double>(cfg.target_uops),
                    p + "retired fewer uops than its target");
        }
    }
    require(d.get("emc.chains_completed") <= d.get("emc.chains_accepted"),
            "EMC completed more chains than it accepted");
}

/**
 * One lifecycle of @p w: the timed System calls, the correctness
 * checks, the stat digest and (when the ledger traces) every span.
 */
Record
lifecycle(const Workload &w, std::uint64_t seed, Ledger &lg)
{
    const auto cfgs = configsOf(w, seed);
    const auto benches = bench::homo(w.profile);
    double setup = 0, sim = 0, sim_uops = 0, cycles = 0;
    std::uint64_t digest = kFnvBasis;
    std::map<std::string, double> simulated;
    std::vector<std::uint8_t> image;

    std::unique_ptr<System> sys;
    auto build = [&](const SystemConfig &c) {
        setup += lg.timed("sim.build", [&] {
            sys = std::make_unique<System>(c, benches);
        });
    };
    auto destroy = [&] {
        lg.timed("sim.teardown", [&] { sys.reset(); });
    };
    // Check one dump and fold it into the lifecycle's digest.
    // @return the dump's own digest.
    auto measure = [&](const SystemConfig &c, bool sampled) {
        const StatDump d = sys->dump();
        checkDump(d, c, sampled);
        digest = digestOf(d, digest);
        cycles += d.get("system.cycles");
        simulated = simulatedOf(d);
        return digestOf(d, kFnvBasis);
    };

    const double t0 = nowS();
    if (!w.warmfork) {
        const SystemConfig &c = cfgs[0];
        build(c);
        sim += lg.timed("sim.run", [&] { sys->run(); });
        sim_uops += static_cast<double>(c.num_cores)
                    * static_cast<double>(c.target_uops + c.warmup_uops);
        require(sys->finished(), "a core did not finish");
        measure(c, false);
        destroy();
    } else {
        const SystemConfig &wc = cfgs[0];
        build(wc);
        sim += lg.timed("sim.fastwarm", [&] {
            image = sys->fastwarmCheckpointBytes();
        });
        sim_uops += static_cast<double>(wc.num_cores * wc.warmup_uops);
        destroy();
        require(!image.empty(), "empty warmup image");
        const std::uint64_t windows =
            (w.uops + kSample.period - 1) / kSample.period;
        std::vector<std::uint64_t> forks;
        for (std::size_t i = 1; i < cfgs.size(); ++i) {
            const SystemConfig &c = cfgs[i];
            build(c);
            lg.timed("ckpt.restore", [&] {
                sys->restoreCheckpointBytes(image);
            });
            sim += lg.timed("sim.sampled", [&] { sys->runSampled(kSample); });
            sim_uops += static_cast<double>(c.num_cores * c.target_uops);
            require(sys->sampled().windows == windows,
                    "sampled run covered the wrong number of windows");
            forks.push_back(measure(c, true));
            destroy();
        }
        require(forks[0] != forks[1],
                "forked configurations produced identical stats");
    }
    const double wall = nowS() - t0;

    Record r;
    r.num = {{"wall_s", wall},
             {"setup_s", setup},
             {"sim_s", sim},
             {"sim_uops", sim_uops},
             {"sim_cycles", cycles},
             {"image_mb", static_cast<double>(image.size()) / 1e6}};
    for (const auto &[k, v] : simulated)
        r.num["simulated." + k] = v;
    r.str["digest"] = hex(digest);

    // Traced runs only, and outside the wall-clock window: time writing
    // an image of a System holding the restored warm state (a warmup
    // image can only be taken before measurement, so this writes a
    // full-level one, a superset of the same state).
    if (lg.tracing() && w.warmfork) {
        System probe(cfgs.back(), benches);
        probe.restoreCheckpointBytes(image);
        std::vector<std::uint8_t> saved;
        lg.timed("ckpt.save", [&] {
            saved = probe.saveCheckpointBytes(ckpt::Level::kFull);
        });
        require(saved.size() >= image.size(),
                "full image smaller than the warmup image it holds");
    }
    r.spans = lg.spans();
    return r;
}

// ---------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(10);
    os << v;
    return os.str();
}

std::string
quote(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o + "\"";
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string o = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i)
            o += ", ";
        o += quote(ms[i].name) + ": {\"value\": " + num(ms[i].value)
             + ", \"unit\": " + quote(ms[i].unit) + "}";
    }
    return o + "}";
}

/** Chrome trace_event JSON of every recorded span (one pid per run). */
void
writeTrace(const std::string &path,
           const std::vector<std::vector<Span>> &runs)
{
    if (path.empty())
        return;
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    double base = -1;
    for (const auto &run : runs)
        for (const Span &s : run)
            base = base < 0 ? s.start : std::min(base, s.start);
    f << "{\"traceEvents\": [";
    bool first = true;
    for (std::size_t p = 0; p < runs.size(); ++p) {
        for (const Span &s : runs[p]) {
            f << (first ? "\n" : ",\n") << "{\"name\": " << quote(s.name)
              << ", \"ph\": \"X\", \"pid\": " << p << ", \"tid\": 0"
              << ", \"ts\": " << num((s.start - base) * 1e6)
              << ", \"dur\": " << num((s.end - s.start) * 1e6) << "}";
            first = false;
        }
    }
    f << "\n]}\n";
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string trace_out;
    std::string git_sha = "unknown";
    std::string src_hash = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
                 "[--trace-out <file>] [--git-sha <sha>] "
                 "[--src-hash <hash>]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--trace-out")
            a.trace_out = v;
        else if (k == "--git-sha")
            a.git_sha = v;
        else if (k == "--src-hash")
            a.src_hash = v;
        else
            usage(("unknown option " + k).c_str());
    }
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

/** Why this build's numbers are not comparable (empty if they are). */
std::string
buildRefusal()
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        return "CMAKE_BUILD_TYPE=" + type;
    if (std::strlen(PERFBENCH_SANITIZE) > 0)
        return std::string("EMC_SANITIZE=") + PERFBENCH_SANITIZE;
    if (PERFBENCH_SIM_CHECK)
        return "EMC_SIM_CHECK=ON";
    return "";
}

void
printMetadata(const Args &a, const Workload &w, bool comparable)
{
    std::uint64_t cfg_hash = kFnvBasis;
    for (const SystemConfig &c : configsOf(w, a.seed)) {
        const std::uint64_t h =
            ckpt::fullConfigHash(c, bench::homo(w.profile));
        cfg_hash = ckpt::fnv1a(reinterpret_cast<const std::uint8_t *>(&h),
                               sizeof h, cfg_hash);
    }
    std::printf("{\"metadata\": {\"workload\": %s, \"seed\": %llu, "
                "\"trace\": %d, \"smoke\": %d, \"git_sha\": %s, "
                "\"src_hash\": %s, \"build_type\": %s, \"sanitize\": %s, "
                "\"sim_check\": %d, \"sim_trace\": %d, \"nproc\": %ld, "
                "\"uops_per_core\": %llu, \"warmup_uops_per_core\": %llu, "
                "\"config_hash\": \"%s\", \"comparable\": %s}}\n",
                quote(w.name).c_str(),
                static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
                a.smoke ? 1 : 0, quote(a.git_sha).c_str(),
                quote(a.src_hash).c_str(),
                quote(PERFBENCH_BUILD_TYPE).c_str(),
                quote(PERFBENCH_SANITIZE).c_str(), PERFBENCH_SIM_CHECK,
                PERFBENCH_SIM_TRACE, ::sysconf(_SC_NPROCESSORS_ONLN),
                static_cast<unsigned long long>(w.uops),
                static_cast<unsigned long long>(w.warmup),
                hex(cfg_hash).c_str(), comparable ? "true" : "false");
}

/// Wall-clock limit of one worker. A normal lifecycle takes a few
/// seconds; with this limit a run that hangs still exits in 180 s.
constexpr double kWorkerTimeout = 60;

/** One isolated lifecycle and the values derived from it. */
struct Lifecycle
{
    Isolated run;
    bool traced = false;
    std::map<std::string, double> values;  ///< record + derived metrics
};

/**
 * Repeat lifecycles for a.seconds. Start another only if it should end
 * in time, but make at least enough to compare digests (and, traced,
 * both sides of the overhead) while time remains or in smoke mode.
 */
std::vector<Lifecycle>
repeatLifecycles(const Args &a, const Workload &w)
{
    const std::size_t min_runs = a.trace ? 4 : 3;
    std::vector<Lifecycle> runs;
    const double start = nowS();
    double longest = 0;
    for (;;) {
        const double used = nowS() - start;
        const bool need = runs.size() < min_runs
                          && (a.smoke || used < a.seconds);
        if (!need && (used + longest > a.seconds || runs.size() >= 64))
            break;
        // Traced mode alternates untraced and traced lifecycles in the
        // order U T T U, so neither side always runs first.
        Lifecycle lc;
        lc.traced = a.trace && (runs.size() % 4 == 1 || runs.size() % 4 == 2);
        const double t0 = nowS();
        lc.run = runIsolated(
            [&] {
                Ledger lg(lc.traced);
                return lifecycle(w, a.seed, lg);
            },
            kWorkerTimeout);
        longest = std::max(longest, nowS() - t0);
        std::string line = lc.run.error;
        if (lc.run.ok) {
            lc.values = lc.run.record.num;
            auto &v = lc.values;
            v["peak_rss_mb"] = lc.run.peak_rss_mb;
            v["sim_kuops_per_s"] = v["sim_uops"] / v["sim_s"] / 1000.0;
            for (const Span &sp : lc.run.record.spans)
                v["span." + sp.name] += sp.end - sp.start;
            line = "wall " + num(v["wall_s"]) + " s, setup "
                   + num(v["setup_s"]) + " s, sim " + num(v["sim_s"])
                   + " s, digest " + lc.run.record.str.at("digest");
        }
        std::fprintf(stderr, "perfbench: %s run %zu%s: %s\n", w.name,
                     runs.size() + 1, lc.traced ? " (traced)" : "",
                     line.c_str());
        runs.push_back(std::move(lc));
    }
    return runs;
}

/**
 * Fail every lifecycle whose stat digest differs from the most common
 * one (the simulator is deterministic). @return that digest.
 */
std::string
failDigestOutliers(std::vector<Lifecycle> &runs)
{
    std::map<std::string, int> votes;
    for (const Lifecycle &lc : runs)
        if (lc.run.ok)
            ++votes[lc.run.record.str.at("digest")];
    std::string digest;
    int best = 0;
    for (const auto &[d, n] : votes)
        if (n > best)
            best = n, digest = d;
    for (Lifecycle &lc : runs) {
        if (lc.run.ok && lc.run.record.str.at("digest") != digest) {
            lc.run.ok = false;
            lc.run.error = "stat digest " + lc.run.record.str.at("digest")
                           + " differs from " + digest;
        }
    }
    return digest;
}

/** Median of @p key over the successful lifecycles @p pick accepts. */
template <class Pick>
double
medianOf(const std::vector<Lifecycle> &runs, const std::string &key,
         Pick pick)
{
    std::vector<double> v;
    for (const Lifecycle &lc : runs) {
        if (lc.run.ok && pick(lc)) {
            const auto it = lc.values.find(key);
            v.push_back(it == lc.values.end() ? 0.0 : it->second);
        }
    }
    return median(v);
}

std::vector<Metric>
endToEndMetrics(const std::vector<Lifecycle> &runs)
{
    auto all = [](const Lifecycle &) { return true; };
    return {
        {"wall_s", medianOf(runs, "wall_s", all), "s"},
        {"setup_s", medianOf(runs, "setup_s", all), "s"},
        {"sim_kuops_per_s", medianOf(runs, "sim_kuops_per_s", all),
         "kuops/s"},
        {"peak_rss_mb", medianOf(runs, "peak_rss_mb", all), "MB"},
    };
}

/** Host metrics of the traced lifecycles (spans around System calls). */
std::vector<Metric>
tracedLifecycleMetrics(const std::vector<Lifecycle> &runs,
                       const Workload &w)
{
    auto traced = [](const Lifecycle &lc) { return lc.traced; };
    auto untraced = [](const Lifecycle &lc) { return !lc.traced; };
    auto span = [&](const char *name) {
        return medianOf(runs, std::string("span.") + name, traced);
    };
    const double cycles = medianOf(runs, "sim_cycles", traced);
    const double detailed = span("sim.run") + span("sim.sampled");
    return {
        {"trace.overhead_s",
         medianOf(runs, "wall_s", traced) - medianOf(runs, "wall_s", untraced),
         "s"},
        {"sim.build_s", span("sim.build"), "s"},
        {"sim.teardown_s", span("sim.teardown"), "s"},
        {"sim.run_s", span("sim.run"), "s"},
        {"sim.host_ns_per_cycle", cycles > 0 ? detailed * 1e9 / cycles : 0.0,
         "ns"},
        {"sim.fastwarm_s", span("sim.fastwarm"), "s"},
        {"sim.sampled_s", span("sim.sampled"), "s"},
        {"ckpt.save_s", span("ckpt.save"), "s"},
        // Mean per restore: the warm-fork lifecycle restores twice.
        {"ckpt.restore_s", w.warmfork ? span("ckpt.restore") / 2 : 0.0, "s"},
        {"ckpt.image_mb", medianOf(runs, "image_mb", traced), "MB"},
    };
}

/** The per-layer replay drivers' metrics, in BENCHMARK.json order. */
std::vector<Metric>
layerMetrics(const Record &layers)
{
    static const std::vector<std::pair<const char *, const char *>> kLayer = {
        {"workload.build_s", "s"},      {"workload.ns_per_uop", "ns"},
        {"mem.footprint_mwords", "Mwords"}, {"mem.read_ns", "ns"},
        {"vm.translate_ns", "ns"},      {"vm.tlb_hit_rate", "ratio"},
        {"cache.access_ns", "ns"},      {"cache.l1_hit_rate", "ratio"},
        {"prefetch.train_ns", "ns"},    {"prefetch.issue_per_miss", "ratio"},
        {"pred.predict_ns", "ns"},      {"pred.train_ns", "ns"},
        {"dram.ns_per_req", "ns"},      {"dram.row_hit_rate", "ratio"},
        {"ring.ns_per_msg", "ns"},      {"sim.eventq_ns_per_event", "ns"},
        {"core.ns_per_cycle", "ns"},    {"emc.ns_per_chain", "ns"},
        {"emc.chain_accept_rate", "ratio"},
    };
    std::vector<Metric> out;
    for (const auto &[name, unit] : kLayer) {
        const auto it = layers.num.find(name);
        out.push_back({name, it == layers.num.end() ? 0.0 : it->second, unit});
    }
    return out;
}

int
benchMain(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const Workload *found = nullptr;
    for (const Workload &w : workloads())
        if (a.workload == w.name)
            found = &w;
    if (!found)
        usage(("unknown workload '" + a.workload + "'").c_str());
    const Workload w = a.smoke ? smokeOf(*found) : *found;

    const std::string refusal = buildRefusal();
    if (!refusal.empty() && !a.smoke) {
        std::fprintf(stderr,
                     "perfbench: refusing to produce comparable numbers "
                     "from a build with %s; configure with "
                     "CMAKE_BUILD_TYPE=Release\n",
                     refusal.c_str());
        return 2;
    }
    printMetadata(a, w, refusal.empty());

    std::vector<Lifecycle> runs = repeatLifecycles(a, w);
    const std::string digest = failDigestOutliers(runs);
    std::size_t attempted = runs.size(), failed = 0;
    for (const Lifecycle &lc : runs) {
        if (!lc.run.ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: failed run: %s\n",
                         lc.run.error.c_str());
        }
    }

    std::vector<Metric> metrics;
    if (!a.trace) {
        metrics = endToEndMetrics(runs);
    } else {
        metrics = tracedLifecycleMetrics(runs, w);
        std::fprintf(stderr, "perfbench: %s layer drivers\n", w.name);
        const Isolated layers = runIsolated(
            [&] {
                Ledger lg(true);
                Record r = replayLayers(configsOf(w, a.seed).back(),
                                        w.profile, w.layers, lg);
                r.spans = lg.spans();
                return r;
            },
            kWorkerTimeout);
        ++attempted;
        if (!layers.ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: layer drivers failed: %s\n",
                         layers.error.c_str());
        }
        for (Metric &m : layerMetrics(layers.record))
            metrics.push_back(std::move(m));
        std::vector<std::vector<Span>> spans;
        for (const Lifecycle &lc : runs)
            if (lc.run.ok && lc.traced)
                spans.push_back(lc.run.record.spans);
        spans.push_back(layers.record.spans);
        writeTrace(a.trace_out, spans);
    }

    // Simulated results explain the host numbers; they have no better
    // direction and are checked by digest, never gated.
    std::string sim_json;
    for (const Lifecycle &lc : runs) {
        if (!lc.run.ok)
            continue;
        for (const auto &[k, v] : lc.values) {
            if (k.rfind("simulated.", 0) == 0) {
                sim_json += (sim_json.empty() ? "" : ", ")
                            + quote(k.substr(10)) + ": " + num(v);
            }
        }
        break;
    }
    std::printf("{\"simulated\": {%s}, \"digest\": %s, \"failed_frac\": %s}\n",
                sim_json.c_str(), quote(digest).c_str(),
                num(static_cast<double>(failed)
                    / static_cast<double>(attempted))
                    .c_str());

    bool finite = true;
    for (const Metric &m : metrics) {
        std::printf("%-26s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        finite = finite && std::isfinite(m.value);
    }
    const bool correct = failed == 0 && finite && !digest.empty();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
