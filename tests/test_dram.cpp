/**
 * @file
 * Unit and property tests for the DDR3 channel model: address mapping,
 * bank timing, row-buffer outcomes, scheduling policies, write drain
 * and refresh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "ckpt/serial.hh"
#include "common/rng.hh"
#include "dram/dram_channel.hh"

namespace emc
{
namespace
{

DramGeometry
quadGeo()
{
    DramGeometry g;
    g.channels = 2;
    g.ranks_per_channel = 1;
    g.banks_per_rank = 8;
    g.row_bytes = 8192;
    return g;
}

TEST(DramMapTest, ChannelInterleavesByLine)
{
    const DramGeometry g = quadGeo();
    const DramCoord a = mapAddress(0, g);
    const DramCoord b = mapAddress(64, g);
    EXPECT_NE(a.channel, b.channel);
    EXPECT_EQ(mapAddress(128, g).channel, a.channel);
}

TEST(DramMapTest, RowHoldsManyLines)
{
    const DramGeometry g = quadGeo();
    // Two lines in the same channel+bank separated by less than a row
    // must map to the same row.
    const Addr a = 0;
    const Addr b = a + 64 * g.channels * g.banks_per_rank;  // next column
    const DramCoord ca = mapAddress(a, g);
    const DramCoord cb = mapAddress(b, g);
    EXPECT_EQ(ca.channel, cb.channel);
    EXPECT_EQ(ca.bank, cb.bank);
    EXPECT_EQ(ca.row, cb.row);
    EXPECT_NE(ca.column, cb.column);
}

TEST(DramMapTest, CoordinatesWithinBounds)
{
    const DramGeometry g = quadGeo();
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng.next() & ~0x3full;
        const DramCoord c = mapAddress(a, g);
        EXPECT_LT(c.channel, g.channels);
        EXPECT_LT(c.rank, g.ranks_per_channel);
        EXPECT_LT(c.bank, g.banks_per_rank);
        EXPECT_LT(c.column, g.linesPerRow());
    }
}

TEST(BankTest, RowOutcomeSequence)
{
    Bank b;
    DramTiming t;
    EXPECT_EQ(b.classify(5), RowOutcome::kEmpty);
    RowOutcome out;
    const Cycle d1 = b.access(5, 0, t, false, out);
    EXPECT_EQ(out, RowOutcome::kEmpty);
    EXPECT_EQ(d1, t.tRCD + t.tCL);

    const Cycle earliest = b.readyCycle();
    const Cycle d2 = b.access(5, earliest, t, false, out);
    EXPECT_EQ(out, RowOutcome::kHit);
    EXPECT_EQ(d2, earliest + t.tCL);

    const Cycle before = d2;
    const Cycle d3 = b.access(9, b.readyCycle(), t, false, out);
    EXPECT_EQ(out, RowOutcome::kConflict);
    EXPECT_GT(d3, before);
}

TEST(BankTest, ConflictRespectsTras)
{
    Bank b;
    DramTiming t;
    RowOutcome out;
    b.access(1, 0, t, false, out);  // activate at 0
    // Immediately conflicting access: precharge cannot start before
    // tRAS from the activate.
    const Cycle d = b.access(2, t.tCCD, t, false, out);
    EXPECT_EQ(out, RowOutcome::kConflict);
    EXPECT_GE(d, t.tRAS + t.tRP + t.tRCD + t.tCL);
}

TEST(BankTest, RefreshClosesRow)
{
    Bank b;
    DramTiming t;
    RowOutcome out;
    b.access(1, 0, t, false, out);
    b.refresh(100, t);
    EXPECT_FALSE(b.rowOpen());
    EXPECT_GE(b.readyCycle(), 100 + t.tRFC);
}

TEST(BankTest, WriteRecoveryLongerThanRead)
{
    Bank br, bw;
    DramTiming t;
    RowOutcome out;
    br.access(1, 0, t, false, out);
    bw.access(1, 0, t, true, out);
    EXPECT_GT(bw.readyCycle(), br.readyCycle());
}

class DramChannelTest : public ::testing::Test
{
  protected:
    DramChannelTest()
        : chan_(quadGeo(), DramTiming{}, SchedPolicy::kFrFcfs, 64, 4)
    {
        chan_.setCallback([this](const MemRequest &req) {
            done_.push_back(req);
        });
    }

    void
    runTo(Cycle end)
    {
        for (; now_ <= end; ++now_)
            chan_.tick(now_);
    }

    MemRequest
    read(Addr a, CoreId core = 0)
    {
        MemRequest r;
        r.paddr = a;
        r.core = core;
        r.token = next_token_++;
        return r;
    }

    DramChannel chan_;
    std::vector<MemRequest> done_;
    Cycle now_ = 1;
    std::uint64_t next_token_ = 1;
};

TEST_F(DramChannelTest, SingleReadCompletes)
{
    ASSERT_TRUE(chan_.enqueue(read(0), now_));
    runTo(500);
    ASSERT_EQ(done_.size(), 1u);
    const MemRequest &r = done_[0];
    EXPECT_NE(r.cycle_dram_issue, kNoCycle);
    EXPECT_GT(r.cycle_dram_data, r.cycle_dram_issue);
    EXPECT_EQ(r.outcome, RowOutcome::kEmpty);
}

TEST_F(DramChannelTest, RowHitFasterThanConflict)
{
    const DramGeometry g = quadGeo();
    const Addr same_row = 64 * g.channels * g.banks_per_rank;
    ASSERT_TRUE(chan_.enqueue(read(0), now_));
    runTo(400);
    done_.clear();

    // Row hit.
    ASSERT_TRUE(chan_.enqueue(read(same_row), now_));
    runTo(now_ + 400);
    ASSERT_EQ(done_.size(), 1u);
    const Cycle hit_latency =
        done_[0].cycle_dram_data - done_[0].cycle_dram_issue;
    EXPECT_EQ(done_[0].outcome, RowOutcome::kHit);
    done_.clear();

    // Conflict: same bank, different row.
    const Addr other_row =
        static_cast<Addr>(g.linesPerRow()) * 64 * g.channels
        * g.banks_per_rank * 4;
    const DramCoord c0 = mapAddress(0, g);
    const DramCoord c1 = mapAddress(other_row, g);
    ASSERT_EQ(c0.bank, c1.bank);
    ASSERT_NE(c0.row, c1.row);
    ASSERT_TRUE(chan_.enqueue(read(other_row), now_));
    runTo(now_ + 800);
    ASSERT_EQ(done_.size(), 1u);
    const Cycle conf_latency =
        done_[0].cycle_dram_data - done_[0].cycle_dram_issue;
    EXPECT_EQ(done_[0].outcome, RowOutcome::kConflict);
    EXPECT_GT(conf_latency, hit_latency);
}

TEST_F(DramChannelTest, FrFcfsPrefersRowHit)
{
    const DramGeometry g = quadGeo();
    const Addr same_row = 64 * g.channels * g.banks_per_rank;
    // Open a row.
    ASSERT_TRUE(chan_.enqueue(read(0), now_));
    runTo(400);
    done_.clear();

    // Enqueue a conflict (older) and a row hit (younger) to the same
    // bank: the hit must be serviced first.
    const Addr conflict_addr =
        static_cast<Addr>(g.linesPerRow()) * 64 * g.channels
        * g.banks_per_rank * 8;
    ASSERT_EQ(mapAddress(conflict_addr, g).bank, mapAddress(0, g).bank);
    MemRequest older = read(conflict_addr);
    MemRequest younger = read(same_row);
    ASSERT_TRUE(chan_.enqueue(older, now_));
    ASSERT_TRUE(chan_.enqueue(younger, now_));
    runTo(now_ + 1200);
    ASSERT_EQ(done_.size(), 2u);
    EXPECT_EQ(done_[0].token, younger.token);
    EXPECT_EQ(done_[1].token, older.token);
}

TEST_F(DramChannelTest, QueueLimitEnforced)
{
    DramChannel small(quadGeo(), DramTiming{}, SchedPolicy::kFrFcfs, 2, 4);
    EXPECT_TRUE(small.enqueue(read(0), 1));
    EXPECT_TRUE(small.enqueue(read(64 * 2), 1));
    EXPECT_FALSE(small.enqueue(read(64 * 4), 1));
    EXPECT_FALSE(small.canAccept());
}

TEST_F(DramChannelTest, WritesDoNotStarveReads)
{
    // Saturate with writes below the drain watermark; reads must still
    // complete promptly.
    for (int i = 0; i < 8; ++i) {
        MemRequest w = read(static_cast<Addr>(i) * 4096);
        w.is_write = true;
        ASSERT_TRUE(chan_.enqueue(w, now_));
    }
    ASSERT_TRUE(chan_.enqueue(read(1 << 20), now_));
    runTo(600);
    ASSERT_GE(done_.size(), 1u);
}

TEST_F(DramChannelTest, WriteDrainAtWatermark)
{
    // Push writes past the high watermark; they must eventually issue
    // even with a continuous trickle of reads.
    for (int i = 0; i < 40; ++i) {
        MemRequest w = read(static_cast<Addr>(i) * 4096);
        w.is_write = true;
        ASSERT_TRUE(chan_.enqueue(w, now_));
    }
    runTo(20000);
    EXPECT_LT(chan_.writeQueueDepth(), 40u);
    EXPECT_GT(chan_.stats().writes, 0u);
}

TEST_F(DramChannelTest, BatchSchedulerServesAllCores)
{
    DramChannel batch(quadGeo(), DramTiming{}, SchedPolicy::kBatch, 64, 4);
    std::vector<MemRequest> finished;
    batch.setCallback([&](const MemRequest &r) { finished.push_back(r); });
    // Core 0 floods one bank; core 1 has a single request. PAR-BS
    // marking must bound core 0's lead.
    for (int i = 0; i < 16; ++i) {
        MemRequest r = read(static_cast<Addr>(i) * 4096
                            * quadGeo().banks_per_rank, 0);
        r.token = 100 + i;
        batch.enqueue(r, 1);
    }
    MemRequest lone = read(1 << 22, 1);
    lone.token = 999;
    batch.enqueue(lone, 1);
    for (Cycle c = 1; c < 30000 && finished.size() < 17; ++c)
        batch.tick(c);
    ASSERT_EQ(finished.size(), 17u);
    // The lone request must not finish last.
    EXPECT_NE(finished.back().token, 999u);
}

TEST_F(DramChannelTest, RefreshHappensPeriodically)
{
    runTo(3 * DramTiming{}.tREFI + 10);
    EXPECT_GE(chan_.stats().refreshes, 3u);
}

/** Property: every enqueued read completes exactly once. */
TEST_F(DramChannelTest, AllReadsCompleteOnce)
{
    Rng rng(77);
    std::vector<std::uint64_t> tokens;
    unsigned enqueued = 0;
    for (Cycle c = 1; c < 60000; ++c) {
        if (enqueued < 200 && rng.chance(0.02) && chan_.canAccept()) {
            MemRequest r = read(rng.below(1 << 22) << kLineShift,
                                static_cast<CoreId>(rng.below(4)));
            if (chan_.enqueue(r, c)) {
                tokens.push_back(r.token);
                ++enqueued;
            }
        }
        chan_.tick(c);
    }
    ASSERT_EQ(done_.size(), tokens.size());
    std::vector<std::uint64_t> got;
    for (const auto &r : done_)
        got.push_back(r.token);
    std::sort(got.begin(), got.end());
    std::sort(tokens.begin(), tokens.end());
    EXPECT_EQ(got, tokens);
}

/** Property: data timestamps are monotone per bank bus occupancy. */
TEST_F(DramChannelTest, DataBusNeverOverlaps)
{
    Rng rng(5);
    for (Cycle c = 1; c < 40000; ++c) {
        if (rng.chance(0.05) && chan_.canAccept())
            chan_.enqueue(read(rng.below(1 << 20) << kLineShift), c);
        chan_.tick(c);
    }
    std::vector<Cycle> ends;
    for (const auto &r : done_)
        ends.push_back(r.cycle_dram_data);
    std::sort(ends.begin(), ends.end());
    for (std::size_t i = 1; i < ends.size(); ++i)
        EXPECT_GE(ends[i] - ends[i - 1], DramTiming{}.tBurst)
            << "bursts overlap on the data bus";
}

/**
 * Reference channel: the straightforward scheduler, mapping every
 * address on every comparison and picking every cycle with no
 * horizon. DramChannel must issue in exactly its order.
 */
class RefChannel
{
  public:
    RefChannel(const DramGeometry &geo, SchedPolicy policy,
               std::size_t limit, unsigned cores)
        : geo_(geo), policy_(policy), limit_(limit), cores_(cores),
          banks_(geo.ranks_per_channel * geo.banks_per_rank),
          next_refresh_(t_.tREFI), rank_(cores, 0)
    {}

    bool
    enqueue(const MemRequest &req, Cycle now)
    {
        Queued qe{req, false};
        qe.req.cycle_mc_enqueue = now;
        if (!req.is_write && read_q_.size() >= limit_)
            return false;
        (req.is_write ? write_q_ : read_q_).push_back(qe);
        return true;
    }

    void
    tick(Cycle now)
    {
        if (now >= next_refresh_) {
            next_refresh_ += t_.tREFI;
            ++stats.refreshes;
            for (auto &b : banks_)
                b.refresh(now, t_);
        }
        for (std::size_t i = 0; i < in_flight_.size();) {
            if (in_flight_[i].cycle_dram_data <= now) {
                done.push_back(in_flight_[i]);
                in_flight_[i] = in_flight_.back();
                in_flight_.pop_back();
            } else {
                ++i;
            }
        }
        if (draining_ && write_q_.size() <= 8)
            draining_ = false;
        if (!draining_ && write_q_.size() >= 32)
            draining_ = true;
        if ((draining_ || read_q_.empty()) && !write_q_.empty()) {
            const int idx = pickFrFcfs(write_q_, now);
            if (idx >= 0) {
                issue(write_q_[idx], now, true);
                write_q_.erase(write_q_.begin() + idx);
                return;
            }
        }
        if (read_q_.empty())
            return;
        const int idx = policy_ == SchedPolicy::kFrFcfs
                            ? pickFrFcfs(read_q_, now)
                            : pickBatch(now);
        if (idx >= 0) {
            if (read_q_[idx].marked && marked_ > 0)
                --marked_;
            issue(read_q_[idx], now, false);
            read_q_.erase(read_q_.begin() + idx);
        }
    }

    std::size_t readDepth() const { return read_q_.size(); }
    std::size_t writeDepth() const { return write_q_.size(); }
    const Bank &bank(unsigned i) const { return banks_[i]; }

    std::vector<MemRequest> done;
    DramChannelStats stats;

  private:
    struct Queued
    {
        MemRequest req;
        bool marked;
    };

    Bank &
    bankOf(const Queued &qe)
    {
        const DramCoord c = mapAddress(qe.req.paddr, geo_);
        return banks_[c.rank * geo_.banks_per_rank + c.bank];
    }

    bool
    rowHit(const Queued &qe)
    {
        return bankOf(qe).classify(mapAddress(qe.req.paddr, geo_).row)
               == RowOutcome::kHit;
    }

    int
    pickFrFcfs(std::deque<Queued> &q, Cycle now)
    {
        int best = -1;
        bool best_hit = false;
        for (std::size_t i = 0; i < q.size(); ++i) {
            if (bankOf(q[i]).readyCycle() > now)
                continue;
            const bool hit = rowHit(q[i]);
            if (best < 0 || (hit && !best_hit)) {
                best = static_cast<int>(i);
                best_hit = hit;
                if (hit)
                    break;
            }
        }
        return best;
    }

    void
    formBatch()
    {
        marked_ = 0;
        std::vector<std::vector<unsigned>> counts(
            cores_, std::vector<unsigned>(banks_.size(), 0));
        for (auto &qe : read_q_) {
            const DramCoord c = mapAddress(qe.req.paddr, geo_);
            auto &n = counts[qe.req.core % cores_]
                            [c.rank * geo_.banks_per_rank + c.bank];
            qe.marked = n < 5;
            if (qe.marked) {
                ++n;
                ++marked_;
            }
        }
        std::vector<std::pair<std::uint64_t, std::uint64_t>> load(cores_);
        for (unsigned core = 0; core < cores_; ++core) {
            for (unsigned n : counts[core]) {
                load[core].first = std::max<std::uint64_t>(
                    load[core].first, n);
                load[core].second += n;
            }
        }
        std::vector<unsigned> order(cores_);
        for (unsigned i = 0; i < cores_; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](unsigned a, unsigned b) {
                             return load[a] < load[b];
                         });
        for (unsigned pos = 0; pos < cores_; ++pos)
            rank_[order[pos]] = pos;
    }

    int
    pickBatch(Cycle now)
    {
        if (marked_ == 0)
            formBatch();
        auto better = [&](const Queued &a, const Queued &b) {
            if (a.marked != b.marked)
                return a.marked;
            const bool ha = rowHit(a);
            const bool hb = rowHit(b);
            if (ha != hb)
                return ha;
            const auto ra = rank_[a.req.core % cores_];
            const auto rb = rank_[b.req.core % cores_];
            if (ra != rb)
                return ra < rb;
            return a.req.cycle_mc_enqueue < b.req.cycle_mc_enqueue;
        };
        int best = -1;
        for (std::size_t i = 0; i < read_q_.size(); ++i) {
            if (bankOf(read_q_[i]).readyCycle() > now)
                continue;
            if (best < 0 || better(read_q_[i], read_q_[best]))
                best = static_cast<int>(i);
        }
        return best;
    }

    void
    issue(Queued &qe, Cycle now, bool is_write)
    {
        const DramCoord c = mapAddress(qe.req.paddr, geo_);
        Bank &bank = bankOf(qe);
        RowOutcome outcome;
        Cycle data = bank.access(c.row, now, t_, is_write, outcome);
        data = std::max(data, bus_free_) + t_.tBurst;
        bus_free_ = data;
        stats.busy_bus_cycles += t_.tBurst;
        if (outcome != RowOutcome::kHit) {
            for (unsigned b = 0; b < geo_.banks_per_rank; ++b) {
                banks_[c.rank * geo_.banks_per_rank + b]
                    .blockActivateUntil(bank.lastActivate() + t_.tRRD);
            }
        }
        qe.req.cycle_dram_issue = now;
        qe.req.cycle_dram_data = data;
        qe.req.outcome = outcome;
        switch (outcome) {
          case RowOutcome::kHit: ++stats.row_hits; break;
          case RowOutcome::kEmpty: ++stats.row_empty; break;
          case RowOutcome::kConflict: ++stats.row_conflicts; break;
        }
        if (is_write) {
            ++stats.writes;
        } else {
            ++stats.reads;
            in_flight_.push_back(qe.req);
        }
    }

    DramGeometry geo_;
    DramTiming t_;
    SchedPolicy policy_;
    std::size_t limit_;
    unsigned cores_;
    std::vector<Bank> banks_;
    std::deque<Queued> read_q_;
    std::deque<Queued> write_q_;
    std::vector<MemRequest> in_flight_;
    Cycle bus_free_ = 0;
    Cycle next_refresh_;
    bool draining_ = false;
    std::uint64_t marked_ = 0;
    std::vector<std::uint64_t> rank_;
};

void
expectSameCompletions(const std::vector<MemRequest> &got,
                      const std::vector<MemRequest> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].token, want[i].token) << "completion " << i;
        EXPECT_EQ(got[i].cycle_dram_issue, want[i].cycle_dram_issue);
        EXPECT_EQ(got[i].cycle_dram_data, want[i].cycle_dram_data);
        EXPECT_EQ(got[i].outcome, want[i].outcome);
    }
}

/**
 * Drives a DramChannel and the reference in lockstep through bursts
 * and idle gaps of random reads and writes over a few hot rows, so
 * the run sees row hits, conflicts, queue-full rejections, write
 * drains and several refreshes.
 */
struct PickRace
{
    PickRace(const DramGeometry &geo, SchedPolicy policy)
        : geo(geo), policy(policy),
          chan(std::make_unique<DramChannel>(geo, DramTiming{}, policy,
                                             kLimit, kCores)),
          ref(geo, policy, kLimit, kCores)
    {
        attach(*chan);
    }

    static constexpr std::size_t kLimit = 16;
    static constexpr unsigned kCores = 4;

    void
    attach(DramChannel &c)
    {
        c.setCallback([this](const MemRequest &r) { got.push_back(r); });
    }

    /** One cycle: maybe enqueue, tick both, compare. */
    void
    step(Rng &rng, Cycle now)
    {
        // Alternate busy phases with idle stretches.
        const bool busy_phase = (now / 3000) % 3 != 2;
        if (busy_phase && rng.chance(0.15)) {
            MemRequest r;
            r.paddr = (rng.below(48) * 8192 * geo.banks_per_rank
                       * geo.channels
                       + rng.below(512) * kLineBytes);
            r.core = static_cast<CoreId>(rng.below(kCores));
            r.is_write = rng.chance(0.35);
            r.token = next_token++;
            ASSERT_EQ(chan->enqueue(r, now), ref.enqueue(r, now));
        }
        chan->tick(now);
        ref.tick(now);
        ASSERT_EQ(chan->readQueueDepth(), ref.readDepth()) << now;
        ASSERT_EQ(chan->writeQueueDepth(), ref.writeDepth()) << now;
        ASSERT_EQ(chan->stats().writes, ref.stats.writes) << now;
        ASSERT_EQ(chan->stats().reads, ref.stats.reads) << now;
        ASSERT_EQ(chan->stats().row_hits, ref.stats.row_hits) << now;
        ASSERT_EQ(chan->stats().row_conflicts, ref.stats.row_conflicts)
            << now;
        ASSERT_EQ(chan->stats().refreshes, ref.stats.refreshes) << now;
        ASSERT_EQ(got.size(), ref.done.size()) << now;
        for (unsigned rk = 0; rk < geo.ranks_per_channel; ++rk) {
            for (unsigned b = 0; b < geo.banks_per_rank; ++b) {
                const Bank &x = chan->bank(rk, b);
                const Bank &y = ref.bank(rk * geo.banks_per_rank + b);
                ASSERT_EQ(x.readyCycle(), y.readyCycle()) << now;
                ASSERT_EQ(x.rowOpen(), y.rowOpen()) << now;
                ASSERT_EQ(x.openRow(), y.openRow()) << now;
            }
        }
    }

    DramGeometry geo;
    SchedPolicy policy;
    std::unique_ptr<DramChannel> chan;
    RefChannel ref;
    std::vector<MemRequest> got;
    std::uint64_t next_token = 1;
};

DramGeometry
twoRankGeo()
{
    DramGeometry g = quadGeo();
    g.ranks_per_channel = 2;
    return g;
}

class DramPickTest
    : public ::testing::TestWithParam<std::pair<SchedPolicy, bool>>
{};

/** Property: the horizon and cached coordinates never change a pick. */
TEST_P(DramPickTest, MatchesReferenceScan)
{
    const auto [policy, two_ranks] = GetParam();
    PickRace race(two_ranks ? twoRankGeo() : quadGeo(), policy);
    Rng rng(two_ranks ? 11 : 29);
    const Cycle end = 3 * DramTiming{}.tREFI + 500;
    for (Cycle now = 1; now <= end; ++now) {
        race.step(rng, now);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GE(race.ref.stats.refreshes, 3u);
    EXPECT_GT(race.ref.stats.writes, 100u);
    EXPECT_GT(race.ref.stats.row_hits, 0u);
    EXPECT_GT(race.ref.stats.row_conflicts, 0u);
    expectSameCompletions(race.got, race.ref.done);
}

/**
 * A channel restored from a mid-queue image (cached coordinates and
 * horizon re-derived on load) resumes in the reference's issue order.
 */
TEST_P(DramPickTest, MidQueueRestoreResumesSameOrder)
{
    const auto [policy, two_ranks] = GetParam();
    PickRace race(two_ranks ? twoRankGeo() : quadGeo(), policy);
    Rng rng(two_ranks ? 5 : 17);
    Cycle now = 1;
    // Run until both queues hold requests, then snapshot and swap.
    for (; now < 20000; ++now) {
        race.step(rng, now);
        if (HasFatalFailure())
            return;
        if (now > 2000 && race.chan->readQueueDepth() >= 4
            && race.chan->writeQueueDepth() >= 2)
            break;
    }
    ASSERT_LT(now, 20000u) << "queues never filled";
    ckpt::Ar saver = ckpt::Ar::saver();
    race.chan->ser(saver);
    auto restored = std::make_unique<DramChannel>(
        race.geo, DramTiming{}, policy, PickRace::kLimit,
        PickRace::kCores);
    ckpt::Ar loader = ckpt::Ar::loader(saver.takeBytes());
    restored->ser(loader);
    ASSERT_TRUE(loader.exhausted());
    race.chan = std::move(restored);
    race.attach(*race.chan);
    for (++now; now < 2 * DramTiming{}.tREFI; ++now) {
        race.step(rng, now);
        if (HasFatalFailure())
            return;
    }
    expectSameCompletions(race.got, race.ref.done);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DramPickTest,
    ::testing::Values(std::make_pair(SchedPolicy::kFrFcfs, false),
                      std::make_pair(SchedPolicy::kBatch, false),
                      std::make_pair(SchedPolicy::kFrFcfs, true),
                      std::make_pair(SchedPolicy::kBatch, true)));

} // namespace
} // namespace emc
