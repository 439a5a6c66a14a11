#include "bench/bench_util.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "ckpt/store.hh"
#include "sweep/sweep.hh"
#include "workload/profile.hh"

namespace emc::bench
{

namespace
{

/** Next unreserved "<EMC_TRACE>.runK.json" number, process-wide. */
std::atomic<unsigned> next_trace_run{0};

/**
 * Apply the EMC_TRACE / EMC_TRACE_INTERVAL env overrides (DESIGN.md
 * §6) to one run's config, naming its trace "<EMC_TRACE>.run@p k.json".
 * Callers reserve @p k from next_trace_run when they submit the run,
 * so a sweep's trace names follow job order, not thread timing.
 */
void
applyTraceEnv(SystemConfig &cfg, unsigned k)
{
    const char *prefix = std::getenv("EMC_TRACE");
    if (!prefix || !*prefix || !cfg.trace_path.empty())
        return;
    cfg.trace_path =
        std::string(prefix) + ".run" + std::to_string(k) + ".json";
    if (const char *iv = std::getenv("EMC_TRACE_INTERVAL"))
        cfg.trace_interval = std::strtoull(iv, nullptr, 10);
}

/**
 * Stats sidecar files for crash-resumable sweeps: "name value" rows,
 * %.17g so a reloaded dump is bit-identical to the original doubles.
 * An empty path (resume off) loads and writes nothing.
 */
bool
loadStatsFile(const std::string &path, StatDump &out)
{
    if (path.empty())
        return false;
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t space = line.rfind(' ');
        if (space == std::string::npos || space == 0)
            return false;
        char *end = nullptr;
        const double v = std::strtod(line.c_str() + space + 1, &end);
        if (!end || *end != '\0')
            return false;
        out.put(line.substr(0, space), v);
    }
    return true;
}

void
writeStatsFile(const std::string &path, const StatDump &d)
{
    if (path.empty())
        return;
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out)
            throw std::runtime_error("cannot write " + tmp);
        char buf[64];
        for (const auto &[name, value] : d.all()) {
            std::snprintf(buf, sizeof buf, "%.17g", value);
            out << name << ' ' << buf << '\n';
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot rename " + tmp);
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Non-empty env var, or nullptr. */
const char *
envOr(const char *name)
{
    const char *v = std::getenv(name);
    return (v && *v) ? v : nullptr;
}

/**
 * Job @p index's resume file "<dir>/job<index><suffix>", where dir is
 * EMC_CKPT_DIR (or EMC_CKPT_STORE when only that is set); empty when
 * neither is set and the sweep is not resumable. Every entry point
 * keeps a finished job's stats sidecar here, and a rerun reloads it
 * instead of simulating.
 */
std::string
resumeFile(std::size_t index, const char *suffix)
{
    const char *dir = envOr("EMC_CKPT_DIR");
    if (!dir)
        dir = envOr("EMC_CKPT_STORE");
    if (!dir)
        return {};
    return std::string(dir) + "/job" + std::to_string(index) + suffix;
}

/** Build, run and dump one System. */
StatDump
simulate(const SystemConfig &cfg,
         const std::vector<std::string> &benchmarks)
{
    System sys(cfg, benchmarks);
    sys.run();
    return sys.dump();
}

/**
 * One runMany() job, honoring the crash-resume protocol: load the
 * job's .stats sidecar if a previous sweep already finished it,
 * otherwise restore its autosaved checkpoint (if any), run with
 * periodic autosave, and leave the sidecar behind for the next rerun.
 * Autosaves go to flat "<EMC_CKPT_DIR>/jobN.ckpt" files, or — when
 * EMC_CKPT_STORE is set instead — into a content-addressed
 * ckpt::Store, where config-point images of one sweep deduplicate
 * against each other. @p trace_run is the job's reserved trace number.
 */
StatDump
runJob(const RunJob &job, std::size_t index, unsigned trace_run)
{
    SystemConfig cfg = job.cfg;
    applyTraceEnv(cfg, trace_run);
    const std::string sidecar = resumeFile(index, ".stats");
    if (sidecar.empty())
        return simulate(cfg, job.benchmarks);
    StatDump cached;
    if (loadStatsFile(sidecar, cached))
        return cached;

    Cycle interval = 1000000;
    if (const char *iv = std::getenv("EMC_CKPT_INTERVAL"))
        interval = std::strtoull(iv, nullptr, 10);

    const std::string jobname = "job" + std::to_string(index);
    System sys(cfg, job.benchmarks);
    if (const char *store_dir = envOr("EMC_CKPT_STORE")) {
        auto store = std::make_shared<ckpt::Store>(store_dir);
        if (store->has(jobname))
            sys.restoreCheckpointBytes(store->get(jobname));
        sys.setAutosave(
            [store, jobname](std::vector<std::uint8_t> &&img) {
                store->put(jobname, img);
            },
            interval);
    } else {
        const std::string ckpt = resumeFile(index, ".ckpt");
        if (fileExists(ckpt))
            sys.restoreCheckpoint(ckpt);
        sys.setAutosave(ckpt, interval);
    }
    sys.run();
    StatDump d = sys.dump();
    writeStatsFile(sidecar, d);
    return d;
}

/**
 * One runManySampled() job with sidecar-granular resume: a finished
 * job's "jobN.sampled.stats" sidecar is reloaded instead of
 * re-simulating; an *interrupted* sampled job restarts from scratch
 * (the fastwarm phase has no mid-run checkpoint), so resume here is
 * job-granular, not cycle-granular.
 */
StatDump
runSampledJob(const RunJob &job, const SampleParams &p,
              std::size_t index)
{
    const std::string sidecar = resumeFile(index, ".sampled.stats");
    StatDump cached;
    if (loadStatsFile(sidecar, cached))
        return cached;
    System sys(job.cfg, job.benchmarks);
    sys.runSampled(p);
    StatDump d = sys.dump();
    writeStatsFile(sidecar, d);
    return d;
}

/**
 * runMany()'s jobs on the runner. The block of trace numbers is
 * reserved up front, so job i always traces to run (first + i).
 */
sweep::Report
runManyReport(const std::vector<RunJob> &jobs)
{
    const unsigned first_run = next_trace_run.fetch_add(
        static_cast<unsigned>(jobs.size()));
    return sweep::run(jobs.size(), benchThreads(), [&](std::size_t i) {
        return runJob(jobs[i], i, first_run + static_cast<unsigned>(i));
    });
}

/**
 * The results of @p rep, or — if any job failed — print every failure
 * to stderr and throw one error naming the first.
 */
std::vector<StatDump>
resultsOrThrow(const char *who, sweep::Report &&rep)
{
    if (rep.failures.empty())
        return std::move(rep.results);
    for (const RunFailure &f : rep.failures)
        std::fprintf(stderr, "%s: job %zu failed: %s\n", who, f.job,
                     f.what.c_str());
    const RunFailure &first = rep.failures.front();
    throw std::runtime_error(
        std::string(who) + ": " + std::to_string(rep.failures.size())
        + " of " + std::to_string(rep.results.size())
        + " jobs failed (job " + std::to_string(first.job) + ": "
        + first.what + ")");
}

} // namespace

std::uint64_t
defaultUops()
{
    return targetUopsFromEnv(20000);
}

SystemConfig
quadConfig(PrefetchConfig pf, bool emc)
{
    SystemConfig cfg;
    cfg.prefetch = pf;
    cfg.emc_enabled = emc;
    cfg.target_uops = defaultUops();
    cfg.warmup_uops = defaultUops() / 2;
    return cfg;
}

SystemConfig
eightConfig(PrefetchConfig pf, bool emc, bool dual_mc)
{
    SystemConfig cfg;
    cfg.scaleToEightCores(dual_mc);
    cfg.prefetch = pf;
    cfg.emc_enabled = emc;
    cfg.target_uops = defaultUops();
    cfg.warmup_uops = defaultUops() / 2;
    return cfg;
}

StatDump
run(const SystemConfig &cfg, const std::vector<std::string> &benchmarks)
{
    SystemConfig traced_cfg = cfg;
    applyTraceEnv(traced_cfg, next_trace_run.fetch_add(1));
    return simulate(traced_cfg, benchmarks);
}

unsigned
benchThreads()
{
    // An explicit EMC_BENCH_THREADS always wins. Otherwise fall back
    // to inline (single-thread) execution on machines with <= 2
    // hardware threads: thread overhead and memory pressure outweigh
    // any overlap there.
    if (const char *env = std::getenv("EMC_BENCH_THREADS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw <= 2 ? 1 : hw;
}

std::vector<StatDump>
runMany(const std::vector<RunJob> &jobs,
        std::vector<RunFailure> *failures)
{
    sweep::Report rep = runManyReport(jobs);
    if (failures)
        *failures = std::move(rep.failures);
    return std::move(rep.results);
}

std::vector<StatDump>
runMany(const std::vector<RunJob> &jobs)
{
    return resultsOrThrow("runMany", runManyReport(jobs));
}

std::vector<StatDump>
runManySampled(const std::vector<RunJob> &jobs, const SampleParams &p)
{
    return resultsOrThrow(
        "runManySampled",
        sweep::run(jobs.size(), benchThreads(), [&](std::size_t i) {
            return runSampledJob(jobs[i], p, i);
        }));
}

std::vector<StatDump>
runManyWarmShared(const SystemConfig &warm_cfg,
                  const std::vector<std::string> &benchmarks,
                  const std::vector<SystemConfig> &cfgs)
{
    // Reload finished jobs' sidecars first: the warm image is built
    // only if some job still has to run.
    std::vector<std::optional<StatDump>> cached(cfgs.size());
    bool need_warm = false;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        StatDump d;
        if (loadStatsFile(resumeFile(i, ".warm.stats"), d))
            cached[i] = std::move(d);
        else
            need_warm = true;
    }
    std::vector<std::uint8_t> warm;
    if (need_warm)
        warm = System(warm_cfg, benchmarks).warmupCheckpointBytes();
    return resultsOrThrow(
        "runManyWarmShared",
        sweep::run(cfgs.size(), benchThreads(), [&](std::size_t i) {
            if (cached[i])
                return *cached[i];
            SystemConfig cfg = cfgs[i];
            cfg.warmup_uops = 0;
            System sys(cfg, benchmarks);
            sys.restoreCheckpointBytes(warm);
            sys.run();
            StatDump d = sys.dump();
            writeStatsFile(resumeFile(i, ".warm.stats"), d);
            return d;
        }));
}

double
relPerf(const StatDump &d, const StatDump &base, unsigned cores)
{
    double log_sum = 0;
    for (unsigned i = 0; i < cores; ++i) {
        const std::string key = "core" + std::to_string(i) + ".ipc";
        const double a = d.get(key);
        const double b = base.get(key);
        if (a > 0 && b > 0)
            log_sum += std::log(a / b);
    }
    return std::exp(log_sum / cores);
}

void
banner(const std::string &item, const std::string &what,
       const std::string &paper_says)
{
    std::printf("================================================================\n");
    std::printf("%s — %s\n", item.c_str(), what.c_str());
    if (!paper_says.empty())
        std::printf("paper: %s\n", paper_says.c_str());
    std::printf("uops/core: %llu (set EMC_SIM_UOPS to lengthen)\n",
                static_cast<unsigned long long>(defaultUops()));
    std::printf("================================================================\n");
}

void
note(const std::string &text)
{
    std::printf("%s\n", text.c_str());
}

std::vector<std::string>
homo(const std::string &name)
{
    return {name, name, name, name};
}

void
barChart(const std::vector<std::pair<std::string, double>> &rows,
         const std::string &unit, unsigned width)
{
    double max = 0;
    for (const auto &[label, v] : rows)
        max = std::max(max, v);
    if (max <= 0)
        max = 1;
    for (const auto &[label, v] : rows) {
        const unsigned n = static_cast<unsigned>(
            width * (v / max) + 0.5);
        std::printf("  %-14s |", label.c_str());
        for (unsigned i = 0; i < n; ++i)
            std::printf("#");
        std::printf("%*s %.2f%s\n", static_cast<int>(width - n + 1),
                    "", v, unit.c_str());
    }
}

void
groupedChart(const std::vector<std::string> &series,
             const std::vector<std::pair<std::string,
                                         std::vector<double>>> &rows,
             unsigned width)
{
    static const char glyphs[] = {'#', '=', '+', ':', '.'};
    double max = 0;
    for (const auto &[label, vs] : rows) {
        for (double v : vs)
            max = std::max(max, v);
    }
    if (max <= 0)
        max = 1;
    std::printf("  legend:");
    for (std::size_t s = 0; s < series.size(); ++s)
        std::printf("  %c %s", glyphs[s % sizeof(glyphs)],
                    series[s].c_str());
    std::printf("\n");
    for (const auto &[label, vs] : rows) {
        for (std::size_t s = 0; s < vs.size(); ++s) {
            const unsigned n = static_cast<unsigned>(
                width * (vs[s] / max) + 0.5);
            std::printf("  %-8s %c |", s == 0 ? label.c_str() : "",
                        glyphs[s % sizeof(glyphs)]);
            for (unsigned i = 0; i < n; ++i)
                std::printf("%c", glyphs[s % sizeof(glyphs)]);
            std::printf("%*s %.3f\n", static_cast<int>(width - n + 1),
                        "", vs[s]);
        }
    }
}

std::vector<std::string>
eightCoreMix(std::size_t h_index)
{
    const auto &mix = quadWorkloads().at(h_index);
    std::vector<std::string> out = mix;
    out.insert(out.end(), mix.begin(), mix.end());
    return out;
}

} // namespace emc::bench
