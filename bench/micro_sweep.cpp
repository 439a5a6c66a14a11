/**
 * @file
 * Content-addressed checkpoint-store microbench (BENCH_sweep.json).
 *
 * Measures the store on its target workload: K config points forked
 * from one warm image, each saving a full checkpoint shortly after
 * the fork (the crash-resume autosave pattern of a sweep). Storing K
 * near-identical ~100 MB images must cost far less than K full files
 * — the target is a >=10x reduction.
 *
 * Usage: micro_sweep [--smoke] [output.json]
 *   --smoke   tiny run lengths (CI sanity run)
 *   default output path: BENCH_sweep.json
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "ckpt/ckpt.hh"
#include "ckpt/store.hh"
#include "sim/system.hh"

namespace
{

using namespace emc;

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace emc::bench;

    bool smoke = false;
    std::string out_path = "BENCH_sweep.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            out_path = argv[i];
    }

    const std::uint64_t uops = smoke ? 2000 : 20000;
    const std::vector<std::string> mix = homo("mcf");

    SystemConfig warm_cfg;
    warm_cfg.target_uops = uops;
    warm_cfg.warmup_uops = uops / 2;
    const std::vector<std::uint8_t> warm =
        System(warm_cfg, mix).warmupCheckpointBytes();

    std::vector<SystemConfig> points;
    for (bool emc_on : {false, true}) {
        for (PrefetchConfig pf :
             {PrefetchConfig::kNone, PrefetchConfig::kGhb,
              PrefetchConfig::kStream}) {
            SystemConfig c = warm_cfg;
            c.emc_enabled = emc_on;
            c.prefetch = pf;
            c.warmup_uops = 0;
            points.push_back(c);
        }
    }
    // Each point runs a short detailed stretch past the fork before
    // its first autosave lands — the images diverge where the configs
    // make the simulations diverge, and nowhere else.
    const int divergence = smoke ? 200 : 2000;

    const std::string store_dir = out_path + ".store";
    std::filesystem::remove_all(store_dir);
    ckpt::Store store(store_dir);

    std::printf("delta store (%zu config points forked from one warm "
                "image)\n",
                points.size());
    std::uint64_t logical = 0;
    std::size_t image_bytes = 0;
    double restore_s = 0.0;
    const auto s0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < points.size(); ++k) {
        System sys(points[k], mix);
        const auto r0 = std::chrono::steady_clock::now();
        sys.restoreCheckpointBytes(warm);
        restore_s += seconds(r0, std::chrono::steady_clock::now());
        for (int t = 0; t < divergence; ++t)
            sys.tickOnce();
        const std::vector<std::uint8_t> img =
            sys.saveCheckpointBytes(ckpt::Level::kFull);
        image_bytes = img.size();
        logical += img.size();
        const ckpt::StorePut put =
            store.put("point" + std::to_string(k), img);
        std::printf("  point %zu: %10zu bytes, %6.1f%% reused\n", k,
                    img.size(),
                    100.0 * static_cast<double>(put.reused_bytes)
                        / static_cast<double>(put.image_bytes));
    }
    const auto s1 = std::chrono::steady_clock::now();

    // Reassembly must be exact for every point.
    for (std::size_t k = 0; k < points.size(); ++k) {
        System sys(points[k], mix);
        sys.restoreCheckpointBytes(
            store.get("point" + std::to_string(k)));
    }

    const ckpt::StoreStats st = store.stats();
    const double ratio = static_cast<double>(logical)
                         / static_cast<double>(st.storedBytes());
    std::filesystem::remove_all(store_dir);

    std::printf("  logical %llu bytes, stored %llu bytes: %.1fx "
                "reduction (target >=10x)\n",
                static_cast<unsigned long long>(logical),
                static_cast<unsigned long long>(st.storedBytes()),
                ratio);
    std::printf("  restore: %.3fs per %zu-byte image (seed build "
                "recorded 1.785s)\n",
                restore_s / static_cast<double>(points.size()),
                warm.size());
    if (!smoke && ratio < 10.0)
        std::printf("  WARNING: reduction below the 10x target\n");

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::perror("fopen");
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f, "  \"uops_per_core\": %llu,\n",
                 static_cast<unsigned long long>(uops));
    std::fprintf(f, "  \"delta_store\": {\n");
    std::fprintf(f, "    \"config_points\": %zu,\n", points.size());
    std::fprintf(f, "    \"divergence_cycles\": %d,\n", divergence);
    std::fprintf(f, "    \"image_bytes\": %zu,\n", image_bytes);
    std::fprintf(f, "    \"logical_bytes\": %llu,\n",
                 static_cast<unsigned long long>(logical));
    std::fprintf(f, "    \"stored_bytes\": %llu,\n",
                 static_cast<unsigned long long>(st.storedBytes()));
    std::fprintf(f, "    \"reduction\": %.3f,\n", ratio);
    std::fprintf(f, "    \"put_seconds\": %.3f,\n", seconds(s0, s1));
    std::fprintf(f, "    \"roundtrip_exact\": true\n");
    std::fprintf(f, "  },\n");
    // The single-pass loader rework (serial.hh / ckpt.cc / restore
    // path) that this sweep work leans on; the before number is the
    // seed BENCH_ckpt.json recording on this host.
    std::fprintf(f, "  \"restore\": {\n");
    std::fprintf(f, "    \"image_bytes\": %zu,\n", warm.size());
    std::fprintf(f, "    \"seconds_before_seed_recorded\": 1.785,\n");
    std::fprintf(f, "    \"seconds\": %.3f\n",
                 restore_s / static_cast<double>(points.size()));
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
