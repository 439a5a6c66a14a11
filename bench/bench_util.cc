#include "bench/bench_util.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ckpt/store.hh"
#include "common/thread_pool.hh"
#include "sweep/sweep.hh"
#include "workload/profile.hh"

namespace emc::bench
{

namespace
{

/**
 * Apply the EMC_TRACE / EMC_TRACE_INTERVAL env overrides (DESIGN.md
 * §6) to one run's config. Bench binaries launch many Systems — some
 * concurrently via runMany() — so each traced run gets a distinct
 * "<EMC_TRACE>.runK.json" path from a process-wide counter.
 */
void
applyTraceEnv(SystemConfig &cfg)
{
    static std::atomic<unsigned> next_run{0};
    const char *prefix = std::getenv("EMC_TRACE");
    if (!prefix || !*prefix || !cfg.trace_path.empty())
        return;
    const unsigned k = next_run.fetch_add(1);
    cfg.trace_path =
        std::string(prefix) + ".run" + std::to_string(k) + ".json";
    if (const char *iv = std::getenv("EMC_TRACE_INTERVAL"))
        cfg.trace_interval = std::strtoull(iv, nullptr, 10);
}

/**
 * Stats sidecar files for crash-resumable sweeps: "name value" rows,
 * %.17g so a reloaded dump is bit-identical to the original doubles.
 */
bool
loadStatsFile(const std::string &path, StatDump &out)
{
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
 * Sharded-run trace naming: job-indexed instead of the process-wide
 * counter, because forked workers each inherit a copy of that counter
 * and would collide on "<prefix>.run0.json".
 */
void
applyShardedTraceEnv(SystemConfig &cfg, std::size_t index)
{
    const char *prefix = envOr("EMC_TRACE");
    if (!prefix || !cfg.trace_path.empty())
        return;
    cfg.trace_path =
        std::string(prefix) + ".job" + std::to_string(index) + ".json";
    if (const char *iv = std::getenv("EMC_TRACE_INTERVAL"))
        cfg.trace_interval = std::strtoull(iv, nullptr, 10);
}

/**
 * Attach best-effort interval streaming onto the worker's message
 * pipe (EMC_SWEEP_STREAM_INTERVAL cycles; off unless set). The lines
 * ride the coordinator protocol as "interval" records.
 */
void
maybeAttachStream(System &sys, std::size_t index, std::FILE *msg)
{
    const char *iv = msg ? envOr("EMC_SWEEP_STREAM_INTERVAL") : nullptr;
    if (!iv)
        return;
    char prefix[64];
    std::snprintf(prefix, sizeof prefix,
                  "\"type\":\"interval\",\"job\":%zu,", index);
    sys.enableStatStream(msg, std::strtoull(iv, nullptr, 10), prefix);
}

/**
 * One runMany() job, honoring the crash-resume protocol: load the
 * job's .stats sidecar if a previous sweep already finished it,
 * otherwise restore its autosaved checkpoint (if any), run with
 * periodic autosave, and leave the sidecar behind for the next rerun.
 * Autosaves go to flat "<EMC_CKPT_DIR>/jobN.ckpt" files, or — when
 * EMC_CKPT_STORE is set instead — into a content-addressed
 * ckpt::Store, where config-point images of one sweep deduplicate
 * against each other. @p msg is the sharded worker's message pipe
 * (null for in-process runs).
 */
StatDump
runJob(const RunJob &job, std::size_t index, std::FILE *msg = nullptr)
{
    const char *dir = envOr("EMC_CKPT_DIR");
    const char *store_dir = envOr("EMC_CKPT_STORE");
    if (!dir && !store_dir && !msg)
        return run(job.cfg, job.benchmarks);

    SystemConfig cfg = job.cfg;
    if (msg)
        applyShardedTraceEnv(cfg, index);
    else
        applyTraceEnv(cfg);

    const std::string jobname = "job" + std::to_string(index);
    const std::string base = dir ? dir : (store_dir ? store_dir : "");
    StatDump cached;
    if (!base.empty()
        && loadStatsFile(base + "/" + jobname + ".stats", cached))
        return cached;

    Cycle interval = 1000000;
    if (const char *iv = std::getenv("EMC_CKPT_INTERVAL"))
        interval = std::strtoull(iv, nullptr, 10);

    System sys(cfg, job.benchmarks);
    std::shared_ptr<ckpt::Store> store;
    if (store_dir) {
        store = std::make_shared<ckpt::Store>(store_dir);
        if (store->has(jobname))
            sys.restoreCheckpointBytes(store->get(jobname));
    } else if (dir) {
        const std::string ckpt = base + "/" + jobname + ".ckpt";
        if (fileExists(ckpt))
            sys.restoreCheckpoint(ckpt);
    }
    maybeAttachStream(sys, index, msg);
    if (store) {
        sys.setAutosave(
            [store, jobname](std::vector<std::uint8_t> &&img) {
                store->put(jobname, img);
            },
            interval);
    } else if (dir) {
        sys.setAutosave(base + "/" + jobname + ".ckpt", interval);
    }
    sys.run();
    StatDump d = sys.dump();
    if (!base.empty())
        writeStatsFile(base + "/" + jobname + ".stats", d);
    return d;
}

/**
 * One runManySampled() job with sidecar-granular resume: a finished
 * job's "<EMC_CKPT_DIR>/jobN.sampled.stats" is reloaded instead of
 * re-simulating; an *interrupted* sampled job restarts from scratch
 * (the fastwarm phase has no mid-run checkpoint), so resume here is
 * job-granular, not cycle-granular.
 */
StatDump
runSampledJob(const RunJob &job, const SampleParams &p,
              std::size_t index, std::FILE *msg = nullptr)
{
    std::string sidecar;
    if (const char *dir = envOr("EMC_CKPT_DIR")) {
        sidecar = std::string(dir) + "/job" + std::to_string(index)
                  + ".sampled.stats";
        StatDump cached;
        if (loadStatsFile(sidecar, cached))
            return cached;
    }
    System sys(job.cfg, job.benchmarks);
    maybeAttachStream(sys, index, msg);
    sys.runSampled(p);
    StatDump d = sys.dump();
    if (!sidecar.empty())
        writeStatsFile(sidecar, d);
    return d;
}

/** Coordinator-side merged interval stream (EMC_SWEEP_STREAM=path). */
std::FILE *
openStreamSink()
{
    const char *path = envOr("EMC_SWEEP_STREAM");
    return path ? std::fopen(path, "a") : nullptr;
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
    applyTraceEnv(traced_cfg);
    System sys(traced_cfg, benchmarks);
    sys.run();
    return sys.dump();
}

unsigned
benchThreads()
{
    // An explicit EMC_BENCH_THREADS always wins. Otherwise fall back
    // to inline (single-thread) execution on machines with <= 2
    // hardware threads — pool overhead and memory pressure outweigh
    // any overlap there, and a 1-thread ThreadPool runs jobs inline.
    if (std::getenv("EMC_BENCH_THREADS") != nullptr)
        return ThreadPool::defaultThreads();
    if (std::thread::hardware_concurrency() <= 2)
        return 1;
    return ThreadPool::defaultThreads();
}

unsigned
benchProcs()
{
    const char *e = envOr("EMC_BENCH_PROCS");
    if (!e)
        return 0;
    return static_cast<unsigned>(std::strtoul(e, nullptr, 10));
}

std::vector<StatDump>
runManySharded(const std::vector<RunJob> &jobs, unsigned procs,
               std::vector<RunFailure> *failures)
{
    sweep::ShardOptions opt;
    opt.abort_on_fail = false;
    opt.forward_intervals = openStreamSink();

    sweep::ShardReport rep;
    try {
        rep = sweep::runShardedReport(
            jobs.size(), procs,
            [&jobs](std::size_t i, std::FILE *msg) {
                return runJob(jobs[i], i, msg);
            },
            opt);
    } catch (...) {
        if (opt.forward_intervals)
            std::fclose(opt.forward_intervals);
        throw;
    }
    if (opt.forward_intervals)
        std::fclose(opt.forward_intervals);

    std::vector<RunFailure> failed;
    for (const sweep::JobFailure &f : rep.failures)
        failed.push_back({f.job, f.what});
    if (failures) {
        *failures = std::move(failed);
    } else if (!failed.empty()) {
        for (const RunFailure &f : failed) {
            std::fprintf(stderr, "runManySharded: job %zu failed: %s\n",
                         f.index, f.what.c_str());
        }
        throw std::runtime_error(
            "runManySharded: " + std::to_string(failed.size()) + " of "
            + std::to_string(jobs.size()) + " jobs failed (job "
            + std::to_string(failed.front().index) + ": "
            + failed.front().what + ")");
    }
    return std::move(rep.results);
}

std::vector<StatDump>
runMany(const std::vector<RunJob> &jobs,
        std::vector<RunFailure> *failures)
{
    if (const unsigned procs = benchProcs())
        return runManySharded(jobs, procs, failures);

    std::vector<StatDump> results(jobs.size());
    std::vector<RunFailure> failed;
    std::mutex mu;
    ThreadPool pool(benchThreads());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const RunJob &job = jobs[i];
        pool.submit([&, i] {
            try {
                results[i] = runJob(job, i);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mu);
                failed.push_back({i, e.what()});
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                failed.push_back({i, "unknown exception"});
            }
        });
    }
    pool.waitAll();
    std::sort(failed.begin(), failed.end(),
              [](const RunFailure &a, const RunFailure &b) {
                  return a.index < b.index;
              });
    if (failures)
        *failures = std::move(failed);
    return results;
}

std::vector<StatDump>
runMany(const std::vector<RunJob> &jobs)
{
    std::vector<RunFailure> failures;
    std::vector<StatDump> results = runMany(jobs, &failures);
    if (!failures.empty()) {
        for (const RunFailure &f : failures) {
            std::fprintf(stderr, "runMany: job %zu failed: %s\n",
                         f.index, f.what.c_str());
        }
        throw std::runtime_error(
            "runMany: " + std::to_string(failures.size()) + " of "
            + std::to_string(jobs.size()) + " jobs failed (job "
            + std::to_string(failures.front().index) + ": "
            + failures.front().what + ")");
    }
    return results;
}

std::vector<StatDump>
runManySampled(const std::vector<RunJob> &jobs, const SampleParams &p)
{
    if (const unsigned procs = benchProcs()) {
        sweep::ShardOptions opt;
        opt.forward_intervals = openStreamSink();
        std::vector<StatDump> results;
        try {
            results = sweep::runSharded(
                jobs.size(), procs,
                [&jobs, &p](std::size_t i, std::FILE *msg) {
                    return runSampledJob(jobs[i], p, i, msg);
                },
                opt);
        } catch (...) {
            if (opt.forward_intervals)
                std::fclose(opt.forward_intervals);
            throw;
        }
        if (opt.forward_intervals)
            std::fclose(opt.forward_intervals);
        return results;
    }

    std::vector<StatDump> results(jobs.size());
    std::vector<RunFailure> failed;
    std::mutex mu;
    ThreadPool pool(benchThreads());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const RunJob &job = jobs[i];
        pool.submit([&, i] {
            try {
                results[i] = runSampledJob(job, p, i);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mu);
                failed.push_back({i, e.what()});
            }
        });
    }
    pool.waitAll();
    if (!failed.empty()) {
        std::sort(failed.begin(), failed.end(),
                  [](const RunFailure &a, const RunFailure &b) {
                      return a.index < b.index;
                  });
        throw std::runtime_error(
            "runManySampled: " + std::to_string(failed.size()) + " of "
            + std::to_string(jobs.size()) + " jobs failed (job "
            + std::to_string(failed.front().index) + ": "
            + failed.front().what + ")");
    }
    return results;
}

std::vector<StatDump>
runManyWarmShared(const SystemConfig &warm_cfg,
                  const std::vector<std::string> &benchmarks,
                  const std::vector<SystemConfig> &cfgs)
{
    const std::vector<std::uint8_t> warm =
        System(warm_cfg, benchmarks).warmupCheckpointBytes();

    if (const unsigned procs = benchProcs()) {
        // The warm image is materialized *before* the fork, so every
        // worker shares its pages copy-on-write — N processes, one
        // warmup RSS.
        sweep::ShardOptions opt;
        opt.forward_intervals = openStreamSink();
        std::vector<StatDump> results;
        try {
            results = sweep::runSharded(
                cfgs.size(), procs,
                [&](std::size_t i, std::FILE *msg) {
                    SystemConfig cfg = cfgs[i];
                    cfg.warmup_uops = 0;
                    System sys(cfg, benchmarks);
                    sys.restoreCheckpointBytes(warm);
                    maybeAttachStream(sys, i, msg);
                    sys.run();
                    return sys.dump();
                },
                opt);
        } catch (...) {
            if (opt.forward_intervals)
                std::fclose(opt.forward_intervals);
            throw;
        }
        if (opt.forward_intervals)
            std::fclose(opt.forward_intervals);
        return results;
    }

    std::vector<StatDump> results(cfgs.size());
    std::vector<RunFailure> failed;
    std::mutex mu;
    ThreadPool pool(benchThreads());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        pool.submit([&, i] {
            try {
                SystemConfig cfg = cfgs[i];
                cfg.warmup_uops = 0;
                System sys(cfg, benchmarks);
                sys.restoreCheckpointBytes(warm);
                sys.run();
                results[i] = sys.dump();
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mu);
                failed.push_back({i, e.what()});
            }
        });
    }
    pool.waitAll();
    if (!failed.empty()) {
        std::sort(failed.begin(), failed.end(),
                  [](const RunFailure &a, const RunFailure &b) {
                      return a.index < b.index;
                  });
        for (const RunFailure &f : failed) {
            std::fprintf(stderr,
                         "runManyWarmShared: config %zu failed: %s\n",
                         f.index, f.what.c_str());
        }
        throw std::runtime_error(
            "runManyWarmShared: " + std::to_string(failed.size())
            + " of " + std::to_string(cfgs.size())
            + " configs failed (config "
            + std::to_string(failed.front().index) + ": "
            + failed.front().what + ")");
    }
    return results;
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
