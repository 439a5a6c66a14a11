/**
 * @file
 * Fast-forward functional warming and SMARTS-style interval sampling
 * (DESIGN.md §8).
 *
 * Everything in this file runs *outside* simulated time: no event is
 * scheduled, no cycle passes and no statistic is touched (the
 * fastwarm-timing lint rule enforces this). The only state that
 * advances is the warmable set — architectural registers, branch
 * predictors, TLB residency, L1/LLC tags+metadata and the EMC miss
 * predictors — via the warm*() hooks on Core, Cache, Tlb and Emc.
 *
 * runSampled() is the exception that proves the rule: it alternates
 * fast-forwarded gaps with ordinary detailed windows (tickOnce), and
 * all timing/stat mutation happens inside those windows through the
 * same code paths run() uses.
 */

#include "sim/system.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/log.hh"

namespace emc
{

// --------------------------------------------------------------------
// Fast-forward
// --------------------------------------------------------------------

/**
 * WarmPort adapter: a core's functional L1-miss/store stream lands at
 * the owning LLC slice, exactly where requestLine()/storeThrough()
 * would deliver it in detailed simulation.
 */
class LlcWarmPort : public WarmPort
{
  public:
    explicit LlcWarmPort(System &sys) : sys_(sys) {}

    void
    warmLine(CoreId core, Addr paddr_line, Addr pc,
             bool is_store) override
    {
        sys_.warmLineAtLlc(core, paddr_line, pc, is_store);
    }

  private:
    System &sys_;
};

void
System::warmLineAtLlc(CoreId core, Addr paddr_line, Addr pc,
                      bool is_store)
{
    // Mirrors handleSliceLookup / handleSliceStore / insertIntoLlc /
    // handleFillAtSlice with every timing, stat, traffic, FDP and
    // trace side effect removed. Prefetchers are deliberately not
    // trained here — they are timing-coupled (degree throttling reacts
    // to lateness/pollution that only exists in simulated time), so
    // they warm during detailed windows only.
    const unsigned slice = sliceOf(paddr_line);
    CacheLineMeta *meta = slices_[slice]->warmAccess(paddr_line);
    const bool hit = meta != nullptr;

    // The EMC hit/miss predictor trains on non-store demand lookups
    // (observeAtLlc); keep its training stream identical. The warm
    // variant applies the same table/history mutations stat-free.
    if (!is_store && !emcs_.empty()) {
        for (auto &e : emcs_)
            e->warmMissPredUpdate(core, pc, paddr_line, !hit);
    }

    if (hit) {
        if (is_store)
            meta->dirty = true;          // write-through store hit
        else
            meta->presence |= (1u << core);  // fill reaches the L1
        return;
    }

    // Miss: in detailed simulation the line is fetched from DRAM and
    // installed (fetch-on-write for stores); presence is set when the
    // fill passes the slice on its way to a loading core.
    CacheLineMeta nm;
    nm.dirty = is_store;
    if (!is_store)
        nm.presence = 1u << core;
    const Cache::Victim victim =
        slices_[slice]->warmInsert(paddr_line, nm);
    if (victim.valid) {
        // Inclusive hierarchy: back-invalidate L1 (and EMC dcache)
        // copies, as insertIntoLlc does. The victim's writeback has no
        // destination here — there is no DRAM in the fast path — and
        // functional memory already holds every committed value.
        if (victim.meta.emc && !emcs_.empty()) {
            for (auto &e : emcs_)
                e->warmInvalidateLine(victim.addr);
        }
        for (unsigned c = 0; c < cfg_.num_cores; ++c) {
            if (victim.meta.presence & (1u << c))
                cores_[c]->warmInvalidateL1(victim.addr);
        }
    }
}

std::uint64_t
System::fastForward(std::uint64_t uops_per_core)
{
    return fastForward(
        std::vector<std::uint64_t>(cfg_.num_cores, uops_per_core));
}

std::uint64_t
System::fastForward(const std::vector<std::uint64_t> &uops_per_core)
{
    emc_assert(uops_per_core.size() == cfg_.num_cores,
               "fastForward needs one uop count per core");
    LlcWarmPort port(*this);
    std::vector<std::uint64_t> left = uops_per_core;
    std::uint64_t consumed = 0;
    // Round-robin one uop per core so cores interleave at the shared
    // LLC roughly as they would in detailed simulation (LRU and victim
    // choice are interleaving-sensitive).
    bool any = true;
    while (any) {
        any = false;
        for (unsigned i = 0; i < cfg_.num_cores; ++i) {
            if (left[i] == 0)
                continue;
            if (!cores_[i]->warmStep(port)) {
                throwTraceOverrun(i, "fast-forwarded",
                                  uops_per_core[i] - left[i],
                                  uops_per_core[i]);
            }
            --left[i];
            ++consumed;
            any = true;
        }
    }
    return consumed;
}

std::vector<std::uint8_t>
System::fastwarmCheckpointBytes()
{
    ckptRefuseIfObserved("fastwarm checkpoint");
    if (cfg_.warmup_uops == 0) {
        throw ckpt::Error(
            "fastwarm checkpoint needs cfg.warmup_uops > 0");
    }
    if (warmed_up_ || now_ != 0) {
        throw ckpt::Error("fastwarm checkpoint must be taken on a "
                          "fresh System");
    }
    fastForward(cfg_.warmup_uops);
    // Nothing is in flight — no drain needed; the image is assembled
    // exactly as a detailed warmup checkpoint would be and restores
    // through the same path.
    return warmupImageBytes();
}

// --------------------------------------------------------------------
// SMARTS-style sampled simulation
// --------------------------------------------------------------------

SampledStats
System::runSampled(const SampleParams &p)
{
    emc_assert(p.detail > 0 && p.detail <= p.period,
               "sample detail must be in (0, period]");
    sampled_ = SampledStats{};

    if (!warmed_up_) {
        if (cfg_.warmup_uops > 0)
            fastForward(cfg_.warmup_uops);
        resetMeasurement();
        warmed_up_ = true;
    }

    const Histogram &dep = phases_.hist(obs::PhaseClass::kCoreDep,
                                        obs::PhaseIndex::kPhaseTotal);

    std::uint64_t covered = 0;  // uops per core handled so far
    while (covered < cfg_.target_uops && now_ < cfg_.max_cycles) {
        const std::uint64_t detail =
            std::min<std::uint64_t>(p.detail, cfg_.target_uops - covered);

        // Detailed window: simulate until every core retires `detail`
        // more uops. IPC is measured over the pre-drain span so the
        // fetch-gated drain tail doesn't deflate it; the
        // dependent-miss latency delta is read after the drain so
        // misses in flight at the window edge land in this window.
        std::vector<std::uint64_t> goal(cfg_.num_cores);
        std::uint64_t start_retired = 0;
        for (unsigned i = 0; i < cfg_.num_cores; ++i) {
            goal[i] = cores_[i]->retired() + detail;
            start_retired += cores_[i]->retired();
        }
        auto window_done = [&] {
            for (unsigned i = 0; i < cfg_.num_cores; ++i) {
                if (cores_[i]->retired() < goal[i]) {
                    checkTraceLeft(i, goal[i]);
                    return false;
                }
            }
            return true;
        };
        const double dep_sum0 = dep.mean() * dep.samples();
        const std::uint64_t dep_n0 = dep.samples();
        const Cycle win_start = now_;

        for (auto &c : cores_)
            c->pauseFetch(false);
        while (!window_done() && now_ < cfg_.max_cycles)
            tickOnce();

        const Cycle win_cycles = now_ - win_start;
        std::uint64_t end_retired = 0;
        for (unsigned i = 0; i < cfg_.num_cores; ++i)
            end_retired += cores_[i]->retired();
        if (win_cycles > 0) {
            sampled_.window_ipc.push_back(
                static_cast<double>(end_retired - start_retired)
                / static_cast<double>(win_cycles));
        }

        drainInFlight();  // leaves fetch gated for the fast-forward

        const std::uint64_t dep_n1 = dep.samples();
        if (dep_n1 > dep_n0) {
            sampled_.window_dep_lat.push_back(
                (dep.mean() * dep_n1 - dep_sum0)
                / static_cast<double>(dep_n1 - dep_n0));
        }
        ++sampled_.windows;
        covered += detail;

        // Fast-forward across the rest of the sampling period.
        if (covered >= cfg_.target_uops)
            break;
        const std::uint64_t gap = std::min<std::uint64_t>(
            p.period - detail, cfg_.target_uops - covered);
        if (gap > 0) {
            fastForward(gap);
            covered += gap;
        }
    }

    for (auto &c : cores_)
        c->pauseFetch(false);
    // Freeze per-core finish snapshots so dump() reports the detailed
    // windows' aggregate (retired() only advances in detailed time).
    for (unsigned i = 0; i < cfg_.num_cores; ++i) {
        if (!snapshotted_[i]) {
            snapshotted_[i] = true;
            finish_cycle_[i] = now_;
            finish_snapshot_[i] = cores_[i]->stats();
        }
    }

    sampled_.ipc_mean = sampleMean(sampled_.window_ipc);
    sampled_.ipc_ci95 = ciHalfWidth95(sampled_.window_ipc);
    sampled_.dep_lat_mean = sampleMean(sampled_.window_dep_lat);
    sampled_.dep_lat_ci95 = ciHalfWidth95(sampled_.window_dep_lat);

    if (check_)
        finalizeChecks();
    return sampled_;
}

// --------------------------------------------------------------------
// Validation-mode comparison
// --------------------------------------------------------------------

namespace
{

/// (core, virtual line/page address) — the space where program-order
/// and execute-order runs agree (physical frames are first-touch
/// ordered and so differ between the two).
using CoreLine = std::pair<unsigned, Addr>;

/** Global pframe -> vpage reverse map (frames are core-disjoint). */
std::unordered_map<Addr, Addr>
frameToVpage(const System &s)
{
    std::unordered_map<Addr, Addr> rev;
    for (unsigned i = 0; i < s.config().num_cores; ++i) {
        s.pageTable(i).forEachMapping(
            [&](Addr vpage, Addr pframe) { rev.emplace(pframe, vpage); });
    }
    return rev;
}

/** Translate a physical line address back to (owning core, vline). */
bool
virtLineOf(const std::unordered_map<Addr, Addr> &rev, Addr paddr_line,
           CoreLine *out)
{
    const Addr pframe = pageNum(paddr_line);
    const auto it = rev.find(pframe);
    if (it == rev.end())
        return false;
    // allocFrame() embeds the owning core in frame bits [28, ...).
    out->first = static_cast<unsigned>(pframe >> 28);
    out->second =
        (it->second << kPageShift) | (paddr_line & (kPageBytes - 1));
    return true;
}

std::set<CoreLine>
tlbSet(const System &s)
{
    std::set<CoreLine> out;
    for (unsigned i = 0; i < s.config().num_cores; ++i) {
        for (Addr vp : s.core(i).tlb().residentPages())
            out.emplace(i, vp);
    }
    return out;
}

std::set<CoreLine>
l1Set(const System &s, const std::unordered_map<Addr, Addr> &rev)
{
    std::set<CoreLine> out;
    for (unsigned i = 0; i < s.config().num_cores; ++i) {
        s.core(i).l1d().forEachValidLine(
            [&](Addr line, const CacheLineMeta &) {
                CoreLine cl;
                if (virtLineOf(rev, line, &cl))
                    out.insert({i, cl.second});
            });
    }
    return out;
}

std::set<CoreLine>
llcSet(const System &s, const std::unordered_map<Addr, Addr> &rev)
{
    std::set<CoreLine> out;
    for (unsigned i = 0; i < s.config().num_cores; ++i) {
        s.llcSlice(i).forEachValidLine(
            [&](Addr line, const CacheLineMeta &) {
                CoreLine cl;
                if (virtLineOf(rev, line, &cl))
                    out.insert(cl);
            });
    }
    return out;
}

double
jaccard(const std::set<CoreLine> &a, const std::set<CoreLine> &b)
{
    if (a.empty() && b.empty())
        return 1.0;
    std::size_t inter = 0;
    for (const auto &x : a)
        inter += b.count(x);
    return static_cast<double>(inter)
           / static_cast<double>(a.size() + b.size() - inter);
}

std::vector<std::uint8_t>
bpBytes(const HybridBranchPredictor &bp)
{
    // Compare the *warmable* predictor image — tables, chooser and
    // history. The stats counters are masked: detailed warming counts
    // lookups while functional warming must not touch statistics
    // (DESIGN.md §8), and the counters are measurement artifacts, not
    // predictor state.
    HybridBranchPredictor copy = bp;
    copy.resetStats();
    ckpt::Ar ar = ckpt::Ar::saver();
    ar.io(copy);
    return ar.takeBytes();
}

} // namespace

WarmStateDiff
compareWarmState(const System &a, const System &b)
{
    emc_assert(a.config().num_cores == b.config().num_cores,
               "compareWarmState needs equal core counts");
    WarmStateDiff d;

    d.bp_equal = true;
    for (unsigned i = 0; i < a.config().num_cores; ++i) {
        if (bpBytes(a.core(i).branchPredictor())
            != bpBytes(b.core(i).branchPredictor())) {
            d.bp_equal = false;
            break;
        }
    }

    const auto rev_a = frameToVpage(a);
    const auto rev_b = frameToVpage(b);

    d.tlb_jaccard = jaccard(tlbSet(a), tlbSet(b));

    const auto l1a = l1Set(a, rev_a);
    const auto l1b = l1Set(b, rev_b);
    d.l1_jaccard = jaccard(l1a, l1b);
    d.l1_lines_a = l1a.size();
    d.l1_lines_b = l1b.size();

    const auto llca = llcSet(a, rev_a);
    const auto llcb = llcSet(b, rev_b);
    d.llc_jaccard = jaccard(llca, llcb);
    d.llc_lines_a = llca.size();
    d.llc_lines_b = llcb.size();

    return d;
}

// --------------------------------------------------------------------
// Small statistics helpers
// --------------------------------------------------------------------

double
sampleMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0;
    double s = 0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
ciHalfWidth95(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    if (n < 2)
        return 0;
    const double m = sampleMean(xs);
    double ss = 0;
    for (double x : xs)
        ss += (x - m) * (x - m);
    const double sd = std::sqrt(ss / static_cast<double>(n - 1));
    return 1.96 * sd / std::sqrt(static_cast<double>(n));
}

} // namespace emc
