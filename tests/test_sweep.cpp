/**
 * @file
 * Job runner tests (DESIGN.md §9):
 *
 *  - job-indexed results at any worker count, even when jobs finish
 *    out of order
 *  - every exception a job throws, std:: or not, is collected against
 *    its job while the other jobs run to completion
 *  - the bench entry points fail with one message format
 *  - EMC_TRACE names follow submission order, not thread timing
 *  - runManySampled()'s and runManyWarmShared()'s EMC_CKPT_DIR
 *    sidecar resume
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "sim/system.hh"
#include "sweep/sweep.hh"

using emc::StatDump;
using emc::bench::RunJob;

namespace
{

std::string
tmpDir(const std::string &name)
{
    const std::string d = testing::TempDir() + "emc_sweep_"
                          + std::to_string(::getpid()) + "_" + name;
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Cheap dual-core sim jobs for the end-to-end tests. */
std::vector<RunJob>
smallJobs()
{
    std::vector<RunJob> jobs;
    for (int i = 0; i < 3; ++i) {
        RunJob j;
        j.cfg.num_cores = 2;
        j.cfg.emc_enabled = (i != 0);
        j.cfg.target_uops = 800;
        j.cfg.warmup_uops = 400;
        j.benchmarks = {"mcf", "sphinx3"};
        jobs.push_back(std::move(j));
    }
    return jobs;
}

void
expectSameStats(const std::vector<StatDump> &a,
                const std::vector<StatDump> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].all().size(), b[i].all().size())
            << what << ": job " << i << " stat count";
        auto ia = a[i].all().begin();
        auto ib = b[i].all().begin();
        for (; ia != a[i].all().end(); ++ia, ++ib) {
            EXPECT_EQ(ia->first, ib->first) << what;
            EXPECT_EQ(ia->second, ib->second)
                << what << ": job " << i << " stat " << ia->first;
        }
    }
}

/** A thrown type that does not derive from std::exception. */
struct NotStd
{
    int code;
};

} // namespace

TEST(Sweep, ResultsAreJobIndexedAtAnyWorkerCount)
{
    // Early jobs sleep longest, so with several workers the jobs
    // finish in roughly reverse order of their indices.
    constexpr std::size_t kJobs = 9;
    const auto fn = [](std::size_t job) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2 * (kJobs - job)));
        StatDump d;
        d.put("job", static_cast<double>(job));
        d.put("val", 1.0 / (1.0 + static_cast<double>(job)));
        return d;
    };
    for (unsigned workers : {1u, 2u, 5u, 16u}) {
        const emc::sweep::Report rep = emc::sweep::run(kJobs, workers, fn);
        EXPECT_TRUE(rep.failures.empty()) << "workers=" << workers;
        ASSERT_EQ(rep.results.size(), kJobs) << "workers=" << workers;
        for (std::size_t j = 0; j < kJobs; ++j) {
            EXPECT_EQ(rep.results[j].get("job"), static_cast<double>(j));
            EXPECT_EQ(rep.results[j].get("val"),
                      1.0 / (1.0 + static_cast<double>(j)));
        }
    }
    EXPECT_TRUE(emc::sweep::run(0, 4, fn).results.empty());
}

TEST(Sweep, CollectedFailuresLeaveOtherJobsIntact)
{
    const auto fn = [](std::size_t job) {
        if (job == 1 || job == 3)
            throw std::runtime_error("boom " + std::to_string(job));
        if (job == 4)
            throw NotStd{4};
        StatDump d;
        d.put("job", static_cast<double>(job));
        return d;
    };
    for (unsigned workers : {1u, 3u}) {
        const emc::sweep::Report rep = emc::sweep::run(6, workers, fn);
        ASSERT_EQ(rep.failures.size(), 3u) << "workers=" << workers;
        EXPECT_EQ(rep.failures[0].job, 1u);
        EXPECT_EQ(rep.failures[1].job, 3u);
        EXPECT_EQ(rep.failures[2].job, 4u);
        EXPECT_EQ(rep.failures[1].what, "boom 3");
        EXPECT_EQ(rep.failures[2].what, "unknown exception");
        for (std::size_t j : {0u, 2u, 5u})
            EXPECT_EQ(rep.results[j].get("job"), static_cast<double>(j));
        EXPECT_TRUE(rep.results[1].all().empty());
        EXPECT_TRUE(rep.results[4].all().empty());
    }
}

TEST(Sweep, BenchEntryPointsThrowNamingTheFirstFailedJob)
{
    // Jobs 1 and 2 cannot write their EMC_CKPT_DIR stats sidecars (a
    // directory sits where the temp file goes), so they throw after
    // simulating; job 0 still completes.
    const std::vector<RunJob> jobs = smallJobs();
    const std::string dir = tmpDir("fail");
    for (const char *blocked :
         {"job1.stats.tmp", "job2.stats.tmp", "job1.sampled.stats.tmp",
          "job2.sampled.stats.tmp"})
        std::filesystem::create_directories(dir + "/" + blocked);
    setenv("EMC_CKPT_DIR", dir.c_str(), 1);
    setenv("EMC_BENCH_THREADS", "2", 1);

    std::vector<emc::bench::RunFailure> failures;
    const std::vector<StatDump> res =
        emc::bench::runMany(jobs, &failures);
    ASSERT_EQ(failures.size(), 2u);
    EXPECT_EQ(failures[0].job, 1u);
    EXPECT_EQ(failures[1].job, 2u);
    EXPECT_GT(res[0].get("system.cycles"), 0.0);

    const auto expectNamesJob1 = [](const auto &call, const char *who) {
        try {
            call();
            ADD_FAILURE() << who << " did not throw";
        } catch (const std::runtime_error &e) {
            const std::string want =
                std::string(who) + ": 2 of 3 jobs failed (job 1: cannot";
            EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u)
                << e.what();
        }
    };
    expectNamesJob1([&] { emc::bench::runMany(jobs); }, "runMany");
    emc::SampleParams p;
    p.period = 1000;
    p.detail = 250;
    expectNamesJob1([&] { emc::bench::runManySampled(jobs, p); },
                    "runManySampled");
    unsetenv("EMC_BENCH_THREADS");
    unsetenv("EMC_CKPT_DIR");
    std::filesystem::remove_all(dir);
}

TEST(Sweep, TraceNamesFollowSubmissionOrder)
{
    // Jobs that tell themselves apart in their trace's metadata: one
    // or two cores, EMC on or off, each kind twice. Two runMany()
    // calls on two threads submit them in opposite orders at the same
    // time, so their jobs start interleaved.
    std::vector<RunJob> forward;
    for (unsigned cores : {1u, 2u, 1u, 2u}) {
        for (bool emc_on : {false, true}) {
            RunJob j;
            j.cfg.num_cores = cores;
            j.cfg.emc_enabled = emc_on;
            j.cfg.target_uops = 300;
            j.cfg.warmup_uops = 0;
            j.benchmarks.assign(cores, "mcf");
            forward.push_back(std::move(j));
        }
    }
    const std::vector<RunJob> backward(forward.rbegin(), forward.rend());
    const auto label = [](const RunJob &j) {
        return std::string(j.cfg.num_cores == 2 ? "2c" : "1c")
               + (j.cfg.emc_enabled ? "+emc" : "");
    };

    const std::string dir = tmpDir("trace");
    const std::string prefix = dir + "/t";
    setenv("EMC_TRACE", prefix.c_str(), 1);
    setenv("EMC_BENCH_THREADS", "4", 1);
    std::thread other([&] { emc::bench::runMany(backward); });
    emc::bench::runMany(forward);
    other.join();
    unsetenv("EMC_BENCH_THREADS");
    unsetenv("EMC_TRACE");

    // Run numbers are process-wide, so this test's 16 traces start
    // wherever earlier runs left the counter. Label each by content.
    std::map<unsigned, std::string> traces;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        unsigned k = 0;
        char tail[8] = {};
        if (std::sscanf(name.c_str(), "t.run%u.%7s", &k, tail) != 2
            || std::string(tail) != "json")
            continue;
        const std::string body = slurp(e.path().string());
        traces[k] =
            std::string(body.find("\"name\":\"core1\"") != std::string::npos
                            ? "2c"
                            : "1c")
            + (body.find("\"name\":\"emc0\"") != std::string::npos ? "+emc"
                                                                    : "");
    }
    ASSERT_EQ(traces.size(), 2 * forward.size());
    std::vector<std::string> got;
    for (const auto &[k, what] : traces) {
        EXPECT_EQ(k, traces.begin()->first + got.size())
            << "run numbers must be consecutive";
        got.push_back(what);
    }

    // Each call reserved one block of numbers, in job order.
    std::vector<std::string> fwd, bwd;
    for (const RunJob &j : forward)
        fwd.push_back(label(j));
    for (const RunJob &j : backward)
        bwd.push_back(label(j));
    const auto mid = got.begin() + static_cast<long>(forward.size());
    const std::vector<std::string> first_block(got.begin(), mid);
    const std::vector<std::string> second_block(mid, got.end());
    EXPECT_TRUE((first_block == fwd && second_block == bwd)
                || (first_block == bwd && second_block == fwd))
        << "traces by run number: " << ::testing::PrintToString(got);
    std::filesystem::remove_all(dir);
}

TEST(Sweep, SampledSidecarResume)
{
    // runManySampled() honors EMC_CKPT_DIR at job granularity: the
    // second invocation reloads sidecars bit-exactly without
    // re-simulating.
    std::vector<RunJob> jobs = smallJobs();
    jobs.resize(2);
    for (RunJob &j : jobs) {
        j.cfg.target_uops = 4000;
        j.cfg.warmup_uops = 1000;
    }
    emc::SampleParams p;
    p.period = 1000;
    p.detail = 250;

    const std::vector<StatDump> fresh =
        emc::bench::runManySampled(jobs, p);

    const std::string dir = tmpDir("sampled");
    setenv("EMC_CKPT_DIR", dir.c_str(), 1);
    const std::vector<StatDump> first =
        emc::bench::runManySampled(jobs, p);
    ASSERT_TRUE(fileExists(dir + "/job0.sampled.stats"));
    ASSERT_TRUE(fileExists(dir + "/job1.sampled.stats"));
    const std::vector<StatDump> resumed =
        emc::bench::runManySampled(jobs, p);
    unsetenv("EMC_CKPT_DIR");

    expectSameStats(fresh, first, "sampled with sidecars");
    expectSameStats(first, resumed, "sampled resumed from sidecars");
}

TEST(Sweep, WarmSharedSidecarResume)
{
    // runManyWarmShared() honors EMC_CKPT_DIR at job granularity: a
    // rerun reloads every finished job's sidecar, builds no warm
    // image when all jobs have one, and re-simulates only the jobs
    // whose sidecar is missing.
    emc::SystemConfig warm_cfg;
    warm_cfg.num_cores = 1;
    warm_cfg.target_uops = 800;
    warm_cfg.warmup_uops = 400;
    const std::vector<std::string> mix = {"mcf"};
    std::vector<emc::SystemConfig> points = {warm_cfg, warm_cfg};
    points[1].emc_enabled = true;

    const std::vector<StatDump> fresh =
        emc::bench::runManyWarmShared(warm_cfg, mix, points);

    const std::string dir = tmpDir("warm");
    setenv("EMC_CKPT_DIR", dir.c_str(), 1);
    const std::vector<StatDump> first =
        emc::bench::runManyWarmShared(warm_cfg, mix, points);
    ASSERT_TRUE(fileExists(dir + "/job0.warm.stats"));
    ASSERT_TRUE(fileExists(dir + "/job1.warm.stats"));

    // With every sidecar present the warm image is never built: a
    // warm config that cannot take one would otherwise throw. A
    // marker row shows job 1 came from its sidecar.
    std::ofstream(dir + "/job1.warm.stats", std::ios::app)
        << "test.marker 7\n";
    emc::SystemConfig no_warmup = warm_cfg;
    no_warmup.warmup_uops = 0;
    std::vector<StatDump> resumed;
    ASSERT_NO_THROW(
        resumed = emc::bench::runManyWarmShared(no_warmup, mix, points));
    EXPECT_EQ(resumed[1].get("test.marker"), 7.0);
    EXPECT_EQ(resumed[1].get("system.cycles"),
              fresh[1].get("system.cycles"));

    // A job without a sidecar is re-simulated from a fresh warm image.
    std::filesystem::remove(dir + "/job0.warm.stats");
    const std::vector<StatDump> partial =
        emc::bench::runManyWarmShared(warm_cfg, mix, points);
    ASSERT_TRUE(fileExists(dir + "/job0.warm.stats"));
    unsetenv("EMC_CKPT_DIR");

    expectSameStats(fresh, first, "warm-shared with sidecars");
    expectSameStats({fresh[0]}, {resumed[0]},
                    "warm-shared resumed from sidecars");
    expectSameStats({fresh[0]}, {partial[0]},
                    "warm-shared job re-simulated after resume");
    EXPECT_NE(fresh[0].get("system.cycles"),
              fresh[1].get("system.cycles"));
    std::filesystem::remove_all(dir);
}
