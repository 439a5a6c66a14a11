#include "layers.hh"

#include <deque>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "core/core.hh"
#include "dram/dram_channel.hh"
#include "emc/emc.hh"
#include "mem/functional_memory.hh"
#include "pred/predictor.hh"
#include "prefetch/ghb.hh"
#include "ring/ring.hh"
#include "sim/event_queue.hh"
#include "trace/record.hh"
#include "vm/tlb.hh"
#include "workload/profile.hh"
#include "workload/synthetic.hh"

namespace perfbench
{

using namespace emc;

namespace
{

/** Fixed service latencies of the stand-in ports (core cycles). */
constexpr Cycle kMissDetermined = 40;  ///< LLC tag lookup answered
constexpr Cycle kFillLatency = 200;    ///< DRAM round trip
constexpr Cycle kLlcHitLatency = 18;

double
perOp(double seconds, double ops)
{
    return ops > 0 ? seconds * 1e9 / ops : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** One memory access of the replayed stream. */
struct Access
{
    Addr pc;
    Addr vaddr;
    Addr paddr = 0;
};

/** An L1 miss of the replayed stream, with its LLC outcome. */
struct Miss
{
    Addr pc;
    Addr vaddr;
    Addr line;
    bool offchip;
};

/** A chain the Core driver generated, with the cycle it was offered. */
struct Captured
{
    Cycle at;
    ChainRequest chain;
};

/**
 * CorePort that serves every L1 miss as an LLC miss with a fixed
 * latency and records, instead of accepting, every chain the core
 * offers to an EMC.
 */
class FixedLatencyPort : public CorePort
{
  public:
    bool
    requestLine(CoreId, Addr line, Addr, bool, bool) override
    {
        misses_.push_back({now_ + kMissDetermined, line});
        fills_.push_back({now_ + kFillLatency, line});
        return true;
    }
    void storeThrough(CoreId, Addr) override {}
    bool
    offloadChain(const ChainRequest &chain) override
    {
        chains.push_back({now_, chain});
        return false;
    }
    bool emcTlbResident(CoreId, Addr) override { return false; }
    Cycle now() const override { return now_; }

    /** Deliver due notifications, tick the core, advance the clock. */
    void
    step(Core &core)
    {
        while (!misses_.empty() && misses_.front().first <= now_) {
            core.llcMissDetermined(misses_.front().second);
            misses_.pop_front();
        }
        while (!fills_.empty() && fills_.front().first <= now_) {
            core.fillArrived(fills_.front().second, true);
            fills_.pop_front();
        }
        core.tick();
        ++now_;
    }

    std::vector<Captured> chains;

  private:
    Cycle now_ = 0;
    std::deque<std::pair<Cycle, Addr>> misses_;
    std::deque<std::pair<Cycle, Addr>> fills_;
};

/** EmcPort that answers every memory request after a fixed latency. */
class FixedLatencyEmcPort : public EmcPort
{
  public:
    bool
    emcDirectDram(CoreId, Addr, std::uint64_t token) override
    {
        replies_.push_back({now_ + kFillLatency, token, true});
        return true;
    }
    bool
    emcLlcQuery(CoreId, Addr, std::uint64_t token, Addr) override
    {
        replies_.push_back({now_ + kMissDetermined, token, false});
        return true;
    }
    void emcLsqPopulate(CoreId, std::uint64_t, Addr, std::uint64_t) override
    {}
    void emcChainResult(const ChainResult &, unsigned) override {}
    Cycle now() const override { return now_; }

    /** Deliver due replies, tick the EMC, advance the clock. */
    void
    step(Emc &emc)
    {
        // Direct-DRAM and LLC-query replies have different latencies:
        // deliver every due one, keeping the rest in issue order.
        for (std::size_t i = 0; i < replies_.size();) {
            if (replies_[i].due <= now_) {
                const Reply r = replies_[i];
                replies_.erase(replies_.begin()
                               + static_cast<std::ptrdiff_t>(i));
                emc.memResponse(r.token, r.llc_miss);
            } else {
                ++i;
            }
        }
        emc.tick();
        ++now_;
    }
    bool pending() const { return !replies_.empty(); }
    void setNow(Cycle c) { now_ = c; }

  private:
    struct Reply
    {
        Cycle due;
        std::uint64_t token;
        bool llc_miss;
    };
    Cycle now_ = 0;
    std::deque<Reply> replies_;
};

} // namespace

Record
replayLayers(const SystemConfig &cfg, const std::string &profile,
             const LayerBudget &budget, Ledger &ledger)
{
    Record out;
    auto &m = out.num;
    const unsigned cores = cfg.num_cores;

    // ---- workload + mem: build the per-core generators and images ----
    std::vector<std::unique_ptr<FunctionalMemory>> mems;
    std::vector<std::unique_ptr<SyntheticProgram>> progs;
    m["workload.build_s"] = ledger.timed("workload.build", [&] {
        for (unsigned i = 0; i < cores; ++i) {
            mems.push_back(std::make_unique<FunctionalMemory>());
            progs.push_back(std::make_unique<SyntheticProgram>(
                profileByName(profile), *mems.back(),
                trace::generatorSeed(cfg.seed, i)));
        }
    });
    double words = 0;
    for (const auto &mem : mems)
        words += static_cast<double>(mem->footprintWords());
    m["mem.footprint_mwords"] = words / 1e6;

    std::vector<Access> acc;
    {
        std::vector<DynUop> uops(budget.stream_uops);
        std::size_t n = 0;
        const double s = ledger.timed("workload.next", [&] {
            while (n < uops.size() && progs[0]->next(uops[n]))
                ++n;
        });
        m["workload.ns_per_uop"] = perOp(s, static_cast<double>(n));
        for (std::size_t i = 0; i < n; ++i) {
            if (isMem(uops[i].uop.op) && uops[i].vaddr != kNoAddr)
                acc.push_back({uops[i].uop.pc, uops[i].vaddr});
        }
    }
    const double n_acc = static_cast<double>(acc.size());

    {
        // Several passes so the timed region is long enough to read.
        constexpr int kPasses = 8;
        std::uint64_t sink = 0;
        const double s = ledger.timed("mem.read", [&] {
            for (int p = 0; p < kPasses; ++p)
                for (const Access &a : acc)
                    sink += mems[0]->read(a.vaddr);
        });
        m["mem.read_ns"] = perOp(s, kPasses * n_acc);
        out.str["mem.read_checksum"] = std::to_string(sink);
    }

    // ---- vm: TLB + page table on the stream's addresses ----
    PageTable pt(0, cfg.seed);
    Tlb tlb(cfg.core.tlb_entries, cfg.core.tlb_walk_latency);
    {
        const double s = ledger.timed("vm.translate", [&] {
            Cycle extra = 0;
            for (Access &a : acc)
                a.paddr = tlb.translate(pt, a.vaddr, extra);
        });
        m["vm.translate_ns"] = perOp(s, n_acc);
        m["vm.tlb_hit_rate"] =
            ratio(static_cast<double>(tlb.hits()),
                  static_cast<double>(tlb.hits() + tlb.misses()));
    }

    // ---- cache: L1D in front of an LLC of the configured size ----
    std::vector<Miss> misses;
    {
        Cache l1(cfg.core.l1d_bytes, cfg.core.l1d_ways, "l1d");
        Cache llc(cfg.llc_slice_bytes * cores, cfg.llc_ways, "llc");
        const double s = ledger.timed("cache.access", [&] {
            for (const Access &a : acc) {
                const Addr line = lineAlign(a.paddr);
                if (l1.access(line))
                    continue;
                l1.insert(line);
                const bool offchip = llc.access(line) == nullptr;
                if (offchip)
                    llc.insert(line);
                misses.push_back({a.pc, a.vaddr, line, offchip});
            }
        });
        m["cache.access_ns"] = perOp(s, n_acc);
        m["cache.l1_hit_rate"] = l1.stats().hitRate();
    }
    const double n_miss = static_cast<double>(misses.size());

    // ---- prefetch: GHB trained on the L1 miss stream ----
    {
        GhbPrefetcher ghb(1);
        std::uint64_t issued = 0;
        const double s = ledger.timed("prefetch.train", [&] {
            PrefetchCandidate c;
            for (const Miss &x : misses) {
                ghb.observe(0, x.line, x.pc, true, 4);
                while (ghb.nextCandidate(c))
                    ++issued;
            }
        });
        m["prefetch.train_ns"] = perOp(s, n_miss);
        m["prefetch.issue_per_miss"] =
            ratio(static_cast<double>(issued), n_miss);
    }

    // ---- pred: the EMC's LLC-bypass predictor on the miss stream ----
    {
        auto pred = pred::makePredictor(cfg.emc.pred, 1);
        const double st = ledger.timed("pred.train", [&] {
            for (const Miss &x : misses) {
                pred::PredFeatures f{0, x.pc, x.line, x.vaddr};
                pred->train(f, x.offchip);
            }
        });
        std::uint64_t said_offchip = 0;
        const double sp = ledger.timed("pred.predict", [&] {
            for (const Miss &x : misses) {
                pred::PredFeatures f{0, x.pc, x.line, x.vaddr};
                said_offchip += pred->predict(f);
            }
        });
        m["pred.train_ns"] = perOp(st, n_miss);
        m["pred.predict_ns"] = perOp(sp, n_miss);
        out.str["pred.predicted_offchip"] = std::to_string(said_offchip);
    }

    // ---- dram: one channel serving the off-chip misses ----
    {
        DramChannel ch(cfg.dram, cfg.timing, cfg.sched,
                       cfg.mc_queue_entries / cfg.dram.channels, cores);
        std::uint64_t done = 0;
        ch.setCallback([&](const MemRequest &) { ++done; });
        std::vector<Addr> lines;
        for (const Miss &x : misses)
            if (x.offchip && lines.size() < budget.dram_reqs)
                lines.push_back(x.line);
        const double s = ledger.timed("dram.serve", [&] {
            std::size_t next = 0;
            for (Cycle now = 1; done < lines.size(); ++now) {
                while (next < lines.size() && ch.canAccept()) {
                    MemRequest r;
                    r.id = next;
                    r.paddr = lines[next];
                    r.cycle_llc_miss = now;
                    ch.enqueue(r, now);
                    ++next;
                }
                ch.tick(now);
            }
        });
        const auto &ds = ch.stats();
        m["dram.ns_per_req"] = perOp(s, static_cast<double>(done));
        m["dram.row_hit_rate"] =
            ratio(static_cast<double>(ds.row_hits),
                  static_cast<double>(ds.row_hits + ds.row_empty
                                      + ds.row_conflicts));
    }

    // ---- ring: each L1 miss as a request from core 0 to its slice ----
    {
        Ring ring(cores + cfg.num_mcs, false);
        std::uint64_t delivered = 0;
        ring.setDeliver([&](const RingMsg &) { ++delivered; });
        const double s = ledger.timed("ring.route", [&] {
            Cycle now = 0;
            for (const Miss &x : misses) {
                RingMsg msg;
                msg.type = MsgType::kMemRead;
                msg.src = 0;
                msg.dst = static_cast<unsigned>((x.line >> 6) % cores);
                if (msg.dst == 0)
                    msg.dst = cores;  // the MC stop
                ring.send(msg, now);
                ring.tick(now++);
            }
            while (delivered < misses.size())
                ring.tick(now++);
        });
        m["ring.ns_per_msg"] = perOp(s, static_cast<double>(delivered));
    }

    // ---- event queue: one completion event per L1 miss ----
    {
        CalendarQueue<std::uint64_t> q;
        std::uint64_t popped = 0;
        const double s = ledger.timed("sim.eventq", [&] {
            std::uint64_t ev = 0;
            Cycle now = 0;
            for (std::size_t i = 0; i < misses.size(); ++i, ++now) {
                while (q.popUpTo(now, ev))
                    ++popped;
                const Miss &x = misses[i];
                q.push(now + (x.offchip ? kFillLatency + ((x.line >> 6) & 63)
                                        : kLlcHitLatency),
                       i);
            }
            for (; !q.empty(); ++now)
                while (q.popUpTo(now, ev))
                    ++popped;
        });
        m["sim.eventq_ns_per_event"] =
            perOp(s, static_cast<double>(popped));
    }

    // ---- core: core 1's program on a fixed-latency CorePort ----
    FixedLatencyPort port;
    {
        CoreConfig ccfg = cfg.core;
        ccfg.emc_enabled = cfg.emc_enabled;
        PageTable cpt(1, cfg.seed + 1);
        Core core(1, ccfg, progs[1].get(), &cpt, &port);
        Cycle cycles = 0;
        const Cycle cap = budget.core_uops * 400;
        const double s = ledger.timed("core.tick", [&] {
            while (core.retired() < budget.core_uops && cycles < cap) {
                port.step(core);
                ++cycles;
            }
        });
        m["core.ns_per_cycle"] = perOp(s, static_cast<double>(cycles));
    }

    // ---- emc: replay the captured chains at their offer cycles ----
    {
        FixedLatencyEmcPort eport;
        Emc emc(cfg.emc, cores, &eport);
        std::uint64_t accepted = 0;
        const auto &chains = port.chains;
        const double s = ledger.timed("emc.replay", [&] {
            if (chains.empty())
                return;
            eport.setNow(chains.front().at);
            std::size_t next = 0;
            const Cycle cap = chains.back().at + 100000;
            while ((next < chains.size() || !emc.idle() || eport.pending())
                   && eport.now() < cap) {
                while (next < chains.size()
                       && chains[next].at <= eport.now()) {
                    if (emc.hasFreeContext()
                        && emc.acceptChain(chains[next].chain, true))
                        ++accepted;
                    ++next;
                }
                eport.step(emc);
            }
        });
        const double offered = static_cast<double>(chains.size());
        m["emc.ns_per_chain"] = perOp(s, offered);
        m["emc.chain_accept_rate"] =
            ratio(static_cast<double>(accepted), offered);
    }
    return out;
}

} // namespace perfbench
