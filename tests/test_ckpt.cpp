/**
 * @file
 * Checkpoint/restore subsystem tests (DESIGN.md §7):
 *
 *  - full-level roundtrip exactness on fig13-class mcf and lbm
 *    configs: save at cycle C (measured phase or mid-warmup), restore,
 *    run to the end — every stat bit-identical to an uninterrupted
 *    run, the saving run itself unperturbed, and an image saved later
 *    byte-equal to one saved at that cycle by an uninterrupted run
 *  - restored state passes the src/check invariant suite with zero
 *    violations
 *  - warmup-level images fork into differing EMC/prefetcher configs,
 *    deterministically (byte-identical images run-to-run)
 *  - config-hash gating, corrupt/truncated images, images of the
 *    previous format version, forged inflate sizes, and refusal paths
 *  - container element counts read from a stream are bounded by the
 *    bytes left, so a corrupt count throws ckpt::Error
 *  - bench harness: per-job failure isolation in runMany(), the
 *    shared-vs-per-job warmup equivalence of runManyWarmShared(), and
 *    crash-resume through EMC_CKPT_DIR autosaves
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "ckpt/ckpt.hh"
#include "sim/system.hh"

using emc::Cycle;
using emc::StatDump;
using emc::System;
using emc::SystemConfig;

namespace
{

/** Fig 13 class: homogeneous quad-core mcf, EMC + GHB prefetcher. */
SystemConfig
fig13Config()
{
    SystemConfig cfg;
    cfg.prefetch = emc::PrefetchConfig::kGhb;
    cfg.emc_enabled = true;
    cfg.target_uops = 1000;
    cfg.warmup_uops = 500;
    return cfg;
}

std::vector<std::string>
fig13Mix()
{
    return emc::bench::homo("mcf");
}

/** Smaller dual-core config for the cheap error-path tests. */
SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.emc_enabled = true;
    cfg.target_uops = 800;
    cfg.warmup_uops = 400;
    return cfg;
}

std::vector<std::string>
smallMix()
{
    return {"mcf", "sphinx3"};
}

void
expectIdentical(const StatDump &a, const StatDump &b, const char *what)
{
    ASSERT_EQ(a.all().size(), b.all().size()) << what;
    auto ia = a.all().begin();
    auto ib = b.all().begin();
    for (; ia != a.all().end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first) << what;
        EXPECT_EQ(ia->second, ib->second)
            << what << ": stat " << ia->first << " diverged";
    }
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "emc_ckpt_"
           + std::to_string(::getpid()) + "_" + name;
}

/**
 * Save at mid-run, restore, run to the end: the saving and restored
 * runs dump the straight run's stats. Then a full image saved at one
 * later cycle is byte-equal between a straight run and the restored
 * run, which covers state no stat shows (TLB hit counter, LRU order).
 */
void
expectRoundtripExact(const SystemConfig &cfg,
                     const std::vector<std::string> &mix)
{
    System straight(cfg, mix);
    straight.run();
    const StatDump d_straight = straight.dump();
    // Past warmup (500 uops/core retire well within half the run).
    const Cycle mid = straight.cycles() / 2;
    const Cycle late = mid + straight.cycles() / 4;

    const std::string path = tmpPath("roundtrip.ckpt");
    System saver(cfg, mix);
    saver.scheduleCheckpoint(path, mid);
    saver.run();
    // Saving is observation-only: the saver's own run is unperturbed.
    expectIdentical(d_straight, saver.dump(), "saving run");

    const std::string late_restored = tmpPath("late_restored.ckpt");
    System restored(cfg, mix);
    restored.restoreCheckpoint(path);
    restored.scheduleCheckpoint(late_restored, late);
    restored.run();
    expectIdentical(d_straight, restored.dump(), "restored run");

    const std::string late_straight = tmpPath("late_straight.ckpt");
    System straight_late(cfg, mix);
    straight_late.scheduleCheckpoint(late_straight, late);
    straight_late.run();
    expectIdentical(d_straight, straight_late.dump(), "late-saving run");
    EXPECT_EQ(emc::ckpt::readFile(late_straight),
              emc::ckpt::readFile(late_restored))
        << "full image at cycle " << late
        << " differs between the straight and restored runs";
    for (const std::string &p : {path, late_restored, late_straight})
        std::remove(p.c_str());
}

} // namespace

TEST(CkptFull, RoundtripIsExact)
{
    expectRoundtripExact(fig13Config(), fig13Mix());
    // Streaming lbm: loads sit parked behind unresolved stores for most
    // of the run, so the saves land mid-stall.
    expectRoundtripExact(fig13Config(), emc::bench::homo("lbm"));
}

TEST(CkptFull, MidWarmupSaveRoundtrips)
{
    const SystemConfig cfg = smallConfig();
    System straight(cfg, smallMix());
    straight.run();

    const std::string path = tmpPath("midwarm.ckpt");
    System saver(cfg, smallMix());
    saver.scheduleCheckpoint(path, 50);  // long before warmup ends
    saver.run();

    System restored(cfg, smallMix());
    restored.restoreCheckpoint(path);
    restored.run();
    expectIdentical(straight.dump(), restored.dump(),
                    "mid-warmup restore");
    std::remove(path.c_str());
}

TEST(CkptFull, RestoredStatePassesInvariantChecks)
{
    const SystemConfig cfg = smallConfig();
    System straight(cfg, smallMix());
    straight.run();

    System saver(cfg, smallMix());
    const std::vector<std::uint8_t> image = [&] {
        saver.scheduleCheckpoint(tmpPath("checked.ckpt"), 2000);
        saver.run();
        return emc::ckpt::readFile(tmpPath("checked.ckpt"));
    }();
    std::remove(tmpPath("checked.ckpt").c_str());

    System restored(cfg, smallMix());
    restored.enableInvariantChecks();
    std::uint64_t seen = 0;
    restored.checkRegistry()->setHandler(
        [&seen](const emc::check::Violation &v) {
            ++seen;
            std::fprintf(stderr, "violation: %s\n", v.format().c_str());
        });
    // restore runs the deep checks once on the restored state, and the
    // run that follows keeps every per-tick / end-of-run checker live.
    restored.restoreCheckpointBytes(image);
    restored.run();
    EXPECT_EQ(seen, 0u) << "invariant violations on restored state";
    EXPECT_EQ(restored.checkRegistry()->violationCount(), 0u);
    // Checks are observation-only, restored or not.
    expectIdentical(straight.dump(), restored.dump(),
                    "checked restored run");
}

TEST(CkptFull, SaveIsDeterministic)
{
    const SystemConfig cfg = smallConfig();
    System a(cfg, smallMix());
    System b(cfg, smallMix());
    EXPECT_EQ(a.saveCheckpointBytes(emc::ckpt::Level::kFull),
              b.saveCheckpointBytes(emc::ckpt::Level::kFull));
}

TEST(CkptFull, ConfigHashGatesRestore)
{
    System saver(smallConfig(), smallMix());
    const auto image =
        saver.saveCheckpointBytes(emc::ckpt::Level::kFull);

    SystemConfig other = smallConfig();
    other.emc_enabled = false;
    System wrong(other, smallMix());
    EXPECT_THROW(wrong.restoreCheckpointBytes(image),
                 emc::ckpt::Error);

    // The same config accepts it.
    System right(smallConfig(), smallMix());
    EXPECT_NO_THROW(right.restoreCheckpointBytes(image));
}

TEST(CkptFull, CorruptImagesAreRejected)
{
    System saver(smallConfig(), smallMix());
    const auto image =
        saver.saveCheckpointBytes(emc::ckpt::Level::kFull);

    {
        auto t = image;
        t.resize(t.size() / 2);  // truncated payload
        System sys(smallConfig(), smallMix());
        EXPECT_THROW(sys.restoreCheckpointBytes(t), emc::ckpt::Error);
    }
    {
        auto t = image;
        t[0] ^= 0xff;  // bad magic
        System sys(smallConfig(), smallMix());
        EXPECT_THROW(sys.restoreCheckpointBytes(t), emc::ckpt::Error);
    }
    {
        auto t = image;
        t[t.size() - 9] ^= 0x01;  // payload bit flip -> CRC mismatch
        System sys(smallConfig(), smallMix());
        EXPECT_THROW(sys.restoreCheckpointBytes(t), emc::ckpt::Error);
    }
    {
        System sys(smallConfig(), smallMix());
        EXPECT_THROW(sys.restoreCheckpointBytes({}), emc::ckpt::Error);
        EXPECT_THROW(sys.restoreCheckpoint(tmpPath("missing.ckpt")),
                     emc::ckpt::Error);
    }
}

TEST(CkptFull, PreviousVersionIsRejected)
{
    System saver(smallConfig(), smallMix());
    const auto image =
        saver.saveCheckpointBytes(emc::ckpt::Level::kFull);

    // Re-serialise the header with the previous version word. The
    // payload and its CRC are untouched and the header keeps its
    // length, so only the version check can reject the image.
    std::size_t payload_off = 0;
    emc::ckpt::Header h = emc::ckpt::parseHeader(image, &payload_off);
    ASSERT_EQ(h.version, emc::ckpt::kVersion);
    const std::uint32_t old_version = emc::ckpt::kVersion - 1;
    h.version = old_version;
    const std::vector<std::uint8_t> hb = emc::ckpt::save(h);
    ASSERT_EQ(16 + hb.size(), payload_off);
    auto forged = image;
    std::copy(hb.begin(), hb.end(), forged.begin() + 16);

    System sys(smallConfig(), smallMix());
    try {
        sys.restoreCheckpointBytes(forged);
        FAIL() << "a version " << old_version << " image was restored";
    } catch (const emc::ckpt::Error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "version " + std::to_string(old_version)),
                  std::string::npos)
            << e.what();
    }
}

TEST(CkptFull, ForgedInflateSizeIsRejected)
{
    if (!emc::ckpt::compressionAvailable())
        GTEST_SKIP() << "no zlib in this build";
    const std::vector<std::uint8_t> raw(4096, 7);
    std::vector<std::uint8_t> z = emc::ckpt::compressImage(raw);
    // A 2^40-byte raw size in the EMCKPTZ header must be refused
    // before anything is allocated for it.
    const std::uint64_t forged = std::uint64_t{1} << 40;
    for (unsigned i = 0; i < 8; ++i)
        z[8 + i] = static_cast<std::uint8_t>(forged >> (8 * i));
    EXPECT_THROW(emc::ckpt::maybeDecompressImage(z), emc::ckpt::Error);
    EXPECT_THROW(emc::ckpt::inflateBytes(z.data() + 16, z.size() - 16,
                                         forged),
                 emc::ckpt::Error);
    EXPECT_EQ(emc::ckpt::inflateBytes(z.data() + 16, z.size() - 16,
                                      raw.size()),
              raw);
}

namespace
{

/** A stream holding the count @p n followed by @p words zero words. */
std::vector<std::uint8_t>
countImage(std::uint64_t n, std::uint64_t words)
{
    emc::ckpt::Ar ar = emc::ckpt::Ar::saver();
    ar.raw64(n);
    for (std::uint64_t i = 0; i < words; ++i) {
        std::uint64_t zero = 0;
        ar.raw64(zero);
    }
    return ar.takeBytes();
}

/** Load a @p T from @p bytes; true when ckpt::Error was thrown. */
template <class T>
bool
loadThrowsCkptError(const std::vector<std::uint8_t> &bytes)
{
    T v{};
    try {
        emc::ckpt::load(v, bytes);
    } catch (const emc::ckpt::Error &) {
        return true;
    }
    return false;
}

} // namespace

TEST(CkptSerial, HugeCountsThrowCkptError)
{
    for (std::uint64_t n : {std::uint64_t{1} << 40,
                            std::uint64_t{1} << 61}) {
        const auto img = countImage(n, 2);
        EXPECT_TRUE(loadThrowsCkptError<std::vector<std::uint64_t>>(img))
            << n;
        EXPECT_TRUE(loadThrowsCkptError<std::vector<std::uint32_t>>(img))
            << n;
        EXPECT_TRUE(loadThrowsCkptError<std::vector<bool>>(img)) << n;
        EXPECT_TRUE(loadThrowsCkptError<std::deque<int>>(img)) << n;
        EXPECT_TRUE(loadThrowsCkptError<std::string>(img)) << n;
        EXPECT_TRUE((loadThrowsCkptError<
                        std::unordered_map<std::uint64_t, std::uint64_t>>(
            img)))
            << n;
        EXPECT_TRUE(
            loadThrowsCkptError<std::unordered_set<std::uint64_t>>(img))
            << n;
        EXPECT_TRUE(
            (loadThrowsCkptError<std::map<std::uint64_t, std::uint64_t>>(
                img)))
            << n;
    }
}

TEST(CkptSerial, CountsThatFitStillLoad)
{
    // Four payload words: exactly four words or two pairs.
    const auto four = countImage(4, 4);
    std::vector<std::uint64_t> words;
    emc::ckpt::load(words, four);
    EXPECT_EQ(words.size(), 4u);
    std::vector<std::uint32_t> narrow;
    emc::ckpt::load(narrow, four);
    EXPECT_EQ(narrow.size(), 4u);
    EXPECT_TRUE(loadThrowsCkptError<std::vector<std::uint64_t>>(
        countImage(5, 4)));

    emc::ckpt::Ar ar = emc::ckpt::Ar::saver();
    std::uint64_t two = 2;
    ar.raw64(two);
    for (std::uint64_t k = 1; k <= 4; ++k)
        ar.raw64(k);
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    emc::ckpt::load(map, ar.takeBytes());
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.at(3), 4u);
}

TEST(CkptFull, RefusesRestoreAfterRunAndSaveUnderTracing)
{
    System saver(smallConfig(), smallMix());
    const auto image =
        saver.saveCheckpointBytes(emc::ckpt::Level::kFull);

    System ran(smallConfig(), smallMix());
    ran.run();
    EXPECT_THROW(ran.restoreCheckpointBytes(image), emc::ckpt::Error);

    System traced(smallConfig(), smallMix());
    traced.enableTracing(tmpPath("trace.json"));
    EXPECT_THROW(traced.saveCheckpointBytes(emc::ckpt::Level::kFull),
                 emc::ckpt::Error);
    std::remove(tmpPath("trace.json").c_str());
}

TEST(CkptWarmup, ForksIntoDifferingConfigs)
{
    SystemConfig warm_cfg;
    warm_cfg.num_cores = 1;
    warm_cfg.target_uops = 1200;
    warm_cfg.warmup_uops = 600;
    const std::vector<std::string> mix = {"mcf"};

    const auto image = System(warm_cfg, mix).warmupCheckpointBytes();

    // The image is deterministic: a second warmup run produces the
    // same bytes, which is what makes shared and per-job warmup
    // equivalent in runManyWarmShared().
    EXPECT_EQ(image, System(warm_cfg, mix).warmupCheckpointBytes());

    // Fork the one warm image across EMC / prefetcher config points.
    std::vector<SystemConfig> points;
    {
        SystemConfig c = warm_cfg;
        c.emc_enabled = true;
        points.push_back(c);
    }
    {
        SystemConfig c = warm_cfg;
        c.prefetch = emc::PrefetchConfig::kStream;
        points.push_back(c);
    }
    {
        SystemConfig c = warm_cfg;
        c.emc_enabled = true;
        c.emc.contexts = 4;
        c.prefetch = emc::PrefetchConfig::kGhb;
        points.push_back(c);
    }
    for (SystemConfig &c : points) {
        c.warmup_uops = 0;  // irrelevant after a warmup restore
        System sys(c, mix);
        sys.restoreCheckpointBytes(image);
        sys.run();
        const StatDump d = sys.dump();
        EXPECT_GT(d.get("system.cycles"), 0.0);
        EXPECT_GT(d.get("core0.retired"), 0.0);

        // Restoring the same image into the same config twice is
        // deterministic end to end.
        System again(c, mix);
        again.restoreCheckpointBytes(image);
        again.run();
        expectIdentical(d, again.dump(), "re-forked config");
    }
}

TEST(CkptWarmup, HashRejectsWarmupIncompatibleConfigs)
{
    SystemConfig warm_cfg;
    warm_cfg.num_cores = 1;
    warm_cfg.target_uops = 600;
    warm_cfg.warmup_uops = 300;
    const std::vector<std::string> mix = {"mcf"};
    const auto image = System(warm_cfg, mix).warmupCheckpointBytes();

    SystemConfig reseeded = warm_cfg;
    reseeded.seed = warm_cfg.seed + 1;
    System sys(reseeded, mix);
    EXPECT_THROW(sys.restoreCheckpointBytes(image), emc::ckpt::Error);

    // A different workload is a different warm state too.
    System other_mix(warm_cfg, {"libquantum"});
    EXPECT_THROW(other_mix.restoreCheckpointBytes(image),
                 emc::ckpt::Error);
}

TEST(CkptWarmup, RequiresAConfiguredWarmupPhase)
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.target_uops = 600;
    cfg.warmup_uops = 0;
    System sys(cfg, {"mcf"});
    EXPECT_THROW(sys.warmupCheckpointBytes(), emc::ckpt::Error);
}

TEST(BenchHarness, RunManyIsolatesPerJobFailures)
{
    // Plant a corrupt autosave for job 1: its restore throws, the
    // other jobs must still complete, and the failure must carry the
    // job index and the exception text.
    const std::string dir = tmpPath("runmany_fail");
    std::filesystem::create_directories(dir);
    {
        std::FILE *f =
            std::fopen((dir + "/job1.ckpt").c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("this is not a checkpoint", f);
        std::fclose(f);
    }
    setenv("EMC_CKPT_DIR", dir.c_str(), 1);

    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.target_uops = 400;
    cfg.warmup_uops = 0;
    const emc::bench::RunJob job{cfg, {"mcf"}};
    const std::vector<emc::bench::RunJob> jobs(3, job);

    std::vector<emc::bench::RunFailure> failures;
    const std::vector<StatDump> res =
        emc::bench::runMany(jobs, &failures);
    ASSERT_EQ(res.size(), 3u);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].job, 1u);
    EXPECT_FALSE(failures[0].what.empty());
    EXPECT_GT(res[0].get("system.cycles"), 0.0);
    EXPECT_GT(res[2].get("system.cycles"), 0.0);
    EXPECT_FALSE(res[1].has("system.cycles"));  // failed slot empty

    // The throwing overload reports the same thing.
    EXPECT_THROW(emc::bench::runMany(jobs), std::runtime_error);

    unsetenv("EMC_CKPT_DIR");
    std::filesystem::remove_all(dir);
}

TEST(BenchHarness, CkptDirResumesInterruptedSweeps)
{
    const SystemConfig cfg = smallConfig();
    const std::vector<emc::bench::RunJob> jobs{{cfg, smallMix()}};
    const StatDump plain = emc::bench::runMany(jobs).at(0);

    const std::string dir = tmpPath("resume");
    std::filesystem::create_directories(dir);
    setenv("EMC_CKPT_DIR", dir.c_str(), 1);
    setenv("EMC_CKPT_INTERVAL", "3000", 1);

    // First sweep: autosaves land next to the stats sidecar.
    const StatDump first = emc::bench::runMany(jobs).at(0);
    expectIdentical(plain, first, "checkpointed sweep");
    ASSERT_TRUE(std::filesystem::exists(dir + "/job0.stats"));
    ASSERT_TRUE(std::filesystem::exists(dir + "/job0.ckpt"));

    // "Crash" after the last autosave: drop the sidecar and rerun —
    // the job resumes from job0.ckpt and must land on the same stats.
    std::filesystem::remove(dir + "/job0.stats");
    const StatDump resumed = emc::bench::runMany(jobs).at(0);
    expectIdentical(plain, resumed, "resumed sweep");

    // A finished job short-circuits through its sidecar.
    const StatDump cached = emc::bench::runMany(jobs).at(0);
    expectIdentical(plain, cached, "sidecar reload");

    unsetenv("EMC_CKPT_DIR");
    unsetenv("EMC_CKPT_INTERVAL");
    std::filesystem::remove_all(dir);
}

TEST(BenchHarness, SharedWarmupMatchesPerJobWarmup)
{
    SystemConfig warm_cfg;
    warm_cfg.num_cores = 1;
    warm_cfg.target_uops = 800;
    warm_cfg.warmup_uops = 400;
    const std::vector<std::string> mix = {"mcf"};

    std::vector<SystemConfig> points;
    points.push_back(warm_cfg);
    {
        SystemConfig c = warm_cfg;
        c.emc_enabled = true;
        points.push_back(c);
    }

    const std::vector<StatDump> shared =
        emc::bench::runManyWarmShared(warm_cfg, mix, points);
    ASSERT_EQ(shared.size(), points.size());

    // Reference: every config warms up on its own, then restores its
    // private image and runs the measured phase.
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::vector<std::uint8_t> own =
            System(warm_cfg, mix).warmupCheckpointBytes();
        SystemConfig cfg = points[i];
        cfg.warmup_uops = 0;
        System sys(cfg, mix);
        sys.restoreCheckpointBytes(own);
        sys.run();
        expectIdentical(shared[i], sys.dump(), "shared vs per-job");
        EXPECT_GT(shared[i].get("system.cycles"), 0.0);
    }
    // The EMC point must actually differ from the baseline point —
    // otherwise the equality above compares two copies of one run.
    EXPECT_NE(shared[0].get("system.cycles"),
              shared[1].get("system.cycles"));
}
