#include "workload/profile.hh"

#include "common/log.hh"

namespace emc
{

namespace
{

/**
 * Build the profile table. Parameters are tuned so that the measured
 * MPKI class (>=10 high / <10 low) and the rough dependent-miss
 * fraction match the paper's Figure 2 / Table 2 characterization:
 *
 *   mcf       — dominant pointer chasing, huge footprint, ~40% dep
 *   omnetpp   — pointer-heavy event queues, ~25% dep
 *   soplex    — sparse LP: mixed indirection + streaming, ~15% dep
 *   sphinx3   — acoustic scoring: streams + some indirection, ~12% dep
 *   bwaves    — FP stencil streams, ~0% dep
 *   milc      — FP lattice streams, ~0% dep
 *   libquantum— pure streaming over a large vector, ~0% dep
 *   lbm       — pure streaming writes/reads, ~0% dep
 *
 * Low-intensity benchmarks get small working sets and compute-heavy
 * mixes so they rarely miss the LLC.
 */
std::vector<BenchmarkProfile>
buildProfiles()
{
    std::vector<BenchmarkProfile> v;

    auto add = [&](BenchmarkProfile p) { v.push_back(std::move(p)); };

    // ---- high memory intensity (Table 2) ----
    {
        BenchmarkProfile p;
        p.name = "mcf";
        p.mix_chase = 0.70;
        p.mix_random = 0.10;
        p.mix_compute = 0.20;
        p.ws_bytes = 1ull << 25;  // 32 MB
        p.chase_streams = 3;      // arc-list traversal has real MLP
        p.chase_interop = 3;
        p.chase_field_loads = 1;
        p.store_frac = 0.10;
        p.spill_rate = 0.08;
        p.mispredict_rate = 0.06;
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "omnetpp";
        p.mix_chase = 0.45;
        p.mix_random = 0.15;
        p.mix_compute = 0.40;
        p.ws_bytes = 1ull << 24;  // 16 MB
        p.chase_streams = 2;
        p.chase_interop = 4;
        p.chase_field_loads = 1;
        p.store_frac = 0.20;
        p.spill_rate = 0.06;
        p.mispredict_rate = 0.05;
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "soplex";
        p.mix_chase = 0.22;
        p.mix_stream = 0.38;
        p.mix_random = 0.10;
        p.mix_compute = 0.30;
        p.ws_bytes = 1ull << 24;
        p.chase_interop = 4;
        p.fp_frac = 0.30;
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "sphinx3";
        p.mix_chase = 0.15;
        p.mix_stream = 0.45;
        p.mix_compute = 0.40;
        p.ws_bytes = 1ull << 23;  // 8 MB
        p.chase_interop = 5;
        p.fp_frac = 0.40;
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "bwaves";
        p.mix_stream = 0.70;
        p.mix_compute = 0.30;
        p.ws_bytes = 1ull << 24;
        p.fp_frac = 0.60;
        p.store_frac = 0.25;
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "milc";
        p.mix_stream = 0.65;
        p.mix_random = 0.05;
        p.mix_compute = 0.30;
        p.ws_bytes = 1ull << 24;
        p.fp_frac = 0.65;
        p.store_frac = 0.25;
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "libquantum";
        p.mix_stream = 0.85;
        p.mix_compute = 0.15;
        p.ws_bytes = 1ull << 25;
        p.store_frac = 0.30;
        p.mispredict_rate = 0.005;
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "lbm";
        p.mix_stream = 0.90;
        p.mix_compute = 0.10;
        p.ws_bytes = 1ull << 25;
        p.fp_frac = 0.50;
        p.store_frac = 0.40;
        p.mispredict_rate = 0.002;
        p.high_intensity = true;
        add(p);
    }

    // ---- low memory intensity (Table 2) ----
    // Compute-dominated with small footprints; a handful keep a mild
    // streaming or chasing flavor (astar/xalancbmk chase pointers but
    // fit mostly in cache).
    struct LowSpec
    {
        const char *name;
        double chase, stream, compute;
        std::uint64_t ws;
        double fp;
    };
    // Working sets are cache-resident (the defining property of the
    // low-MPKI class): tiny kernels fit the L1, the larger ones fit
    // comfortably in the 4 MB LLC, so after warmup their MPKI is
    // below the paper's 10-MPKI threshold.
    const LowSpec lows[] = {
        {"calculix", 0.00, 0.10, 0.90, 1u << 13, 0.60},
        {"povray", 0.02, 0.05, 0.93, 1u << 13, 0.50},
        {"namd", 0.00, 0.15, 0.85, 1u << 13, 0.70},
        {"gamess", 0.00, 0.08, 0.92, 1u << 13, 0.60},
        {"perlbench", 0.06, 0.06, 0.88, 1u << 13, 0.00},
        {"tonto", 0.00, 0.10, 0.90, 1u << 14, 0.60},
        {"gromacs", 0.00, 0.15, 0.85, 1u << 14, 0.65},
        {"gobmk", 0.04, 0.05, 0.91, 1u << 14, 0.00},
        {"dealII", 0.03, 0.12, 0.85, 1u << 15, 0.40},
        {"sjeng", 0.03, 0.04, 0.93, 1u << 13, 0.00},
        {"gcc", 0.06, 0.08, 0.86, 1u << 15, 0.00},
        {"hmmer", 0.00, 0.20, 0.80, 1u << 14, 0.10},
        {"h264ref", 0.01, 0.20, 0.79, 1u << 15, 0.20},
        {"bzip2", 0.02, 0.25, 0.73, 1u << 15, 0.00},
        {"astar", 0.10, 0.05, 0.85, 1u << 13, 0.00},
        {"xalancbmk", 0.10, 0.06, 0.84, 1u << 13, 0.00},
        {"zeusmp", 0.00, 0.30, 0.70, 1u << 16, 0.60},
        {"cactusADM", 0.00, 0.30, 0.70, 1u << 16, 0.70},
        {"wrf", 0.00, 0.25, 0.75, 1u << 16, 0.60},
        {"GemsFDTD", 0.00, 0.35, 0.65, 1u << 16, 0.65},
        {"leslie3d", 0.00, 0.40, 0.60, 1u << 16, 0.60},
    };
    for (const auto &ls : lows) {
        BenchmarkProfile p;
        p.name = ls.name;
        p.mix_chase = ls.chase;
        p.mix_stream = ls.stream;
        p.mix_compute = ls.compute;
        p.ws_bytes = ls.ws;
        p.fp_frac = ls.fp;
        p.chase_interop = 4;
        p.high_intensity = false;
        add(p);
    }

    // ---- irregular-workload trace library (DESIGN.md §11) ----
    // Beyond the paper's SPEC set: kernel families whose dependent
    // misses come from real data structures (CSR graphs, bucket
    // chains, embedding tables) built and functionally executed at
    // start-up, not from an abstract pointer ring.
    {
        BenchmarkProfile p;
        p.name = "bfs";  // sparse frontier walk, few edges per vertex
        p.mix_graph = 0.85;
        p.mix_compute = 0.15;
        p.ws_bytes = 1ull << 25;
        p.graph_degree = 2;
        p.store_frac = 0.05;
        p.mispredict_rate = 0.08;  // data-dependent frontier tests
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "pagerank";  // denser rows + streaming rank updates
        p.mix_graph = 0.70;
        p.mix_stream = 0.20;
        p.mix_compute = 0.10;
        p.ws_bytes = 1ull << 25;
        p.graph_degree = 6;
        p.fp_frac = 0.30;
        p.store_frac = 0.15;
        p.mispredict_rate = 0.02;
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "hashjoin";  // probe-side bucket-chain walks
        p.mix_hash = 0.80;
        p.mix_stream = 0.10;  // build-side scan flavor
        p.mix_compute = 0.10;
        p.ws_bytes = 1ull << 25;
        p.hash_chain = 4;
        p.hash_node_fields = 1;
        p.store_frac = 0.10;
        p.mispredict_rate = 0.04;
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "btree";  // root-to-leaf probes, wide nodes
        p.mix_hash = 0.70;
        p.mix_compute = 0.30;
        p.ws_bytes = 1ull << 24;
        p.hash_chain = 3;        // tree levels per probe
        p.hash_node_fields = 2;  // key comparisons within a node
        p.mispredict_rate = 0.06;
        p.high_intensity = true;
        add(p);
    }
    {
        BenchmarkProfile p;
        p.name = "embed";  // embedding-table gathers, hot/cold skew
        p.mix_gather = 0.85;
        p.mix_compute = 0.15;
        p.ws_bytes = 1ull << 25;
        p.gather_lines = 2;
        p.gather_hot_frac = 0.85;
        p.fp_frac = 0.40;
        p.mispredict_rate = 0.01;
        p.high_intensity = true;
        add(p);
    }

    return v;
}

const std::vector<BenchmarkProfile> &
profiles()
{
    static const std::vector<BenchmarkProfile> v = buildProfiles();
    return v;
}

} // namespace

const std::vector<BenchmarkProfile> &
allProfiles()
{
    return profiles();
}

const BenchmarkProfile &
profileByName(const std::string &name)
{
    for (const auto &p : profiles()) {
        if (p.name == name)
            return p;
    }
    emc_fatal("unknown benchmark profile: " + name);
}

const std::vector<std::string> &
highIntensityNames()
{
    static const std::vector<std::string> v = {
        "omnetpp", "milc", "soplex", "sphinx3",
        "bwaves", "libquantum", "lbm", "mcf",
    };
    return v;
}

const std::vector<std::string> &
lowIntensityNames()
{
    static const std::vector<std::string> v = {
        "calculix", "povray", "namd", "gamess", "perlbench", "tonto",
        "gromacs", "gobmk", "dealII", "sjeng", "gcc", "hmmer",
        "h264ref", "bzip2", "astar", "xalancbmk", "zeusmp",
        "cactusADM", "wrf", "GemsFDTD", "leslie3d",
    };
    return v;
}

const std::vector<std::string> &
irregularNames()
{
    static const std::vector<std::string> v = {
        "bfs", "pagerank", "hashjoin", "btree", "embed",
    };
    return v;
}

const std::vector<std::vector<std::string>> &
quadWorkloads()
{
    // Paper Table 3.
    static const std::vector<std::vector<std::string>> v = {
        {"bwaves", "lbm", "milc", "omnetpp"},               // H1
        {"soplex", "omnetpp", "bwaves", "libquantum"},      // H2
        {"sphinx3", "mcf", "omnetpp", "milc"},              // H3
        {"mcf", "sphinx3", "soplex", "libquantum"},         // H4
        {"lbm", "mcf", "libquantum", "bwaves"},             // H5
        {"lbm", "soplex", "mcf", "milc"},                   // H6
        {"bwaves", "libquantum", "sphinx3", "omnetpp"},     // H7
        {"omnetpp", "soplex", "mcf", "bwaves"},             // H8
        {"lbm", "mcf", "libquantum", "soplex"},             // H9
        {"libquantum", "bwaves", "soplex", "omnetpp"},      // H10
    };
    return v;
}

std::string
quadWorkloadName(std::size_t i)
{
    // Appended, not "H" + std::to_string(): GCC 12 warns
    // (-Wrestrict) on the inlined insert-at-front.
    std::string name = "H";
    name += std::to_string(i + 1);
    return name;
}

} // namespace emc
