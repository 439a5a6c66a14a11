/**
 * @file
 * Unit and property tests for the bidirectional slotted ring.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "ckpt/serial.hh"
#include "common/rng.hh"
#include "ring/ring.hh"

namespace emc
{
namespace
{

struct Harness
{
    explicit Harness(unsigned stops, bool data = false)
        : ring(stops, data)
    {
        ring.setDeliver([this](const RingMsg &m) {
            delivered.push_back({m, now});
        });
    }

    void
    run(Cycle until)
    {
        for (; now <= until; ++now)
            ring.tick(now);
    }

    RingMsg
    msg(unsigned src, unsigned dst, std::uint64_t token = 0)
    {
        RingMsg m;
        m.src = src;
        m.dst = dst;
        m.token = token;
        m.type = MsgType::kMemRead;
        return m;
    }

    Ring ring;
    std::vector<std::pair<RingMsg, Cycle>> delivered;
    Cycle now = 1;
};

TEST(RingTest, DistanceShortestPath)
{
    Ring r(5, false);
    EXPECT_EQ(r.distance(0, 1), 1u);
    EXPECT_EQ(r.distance(0, 4), 1u);
    EXPECT_EQ(r.distance(0, 2), 2u);
    EXPECT_EQ(r.distance(1, 4), 2u);
    EXPECT_EQ(r.distance(3, 3), 0u);
}

TEST(RingTest, DeliversAtHopDistance)
{
    Harness h(5);
    h.ring.send(h.msg(0, 2), h.now);
    h.run(10);
    ASSERT_EQ(h.delivered.size(), 1u);
    // Injection next tick, then one tick per hop: 2 hops.
    EXPECT_EQ(h.delivered[0].second - 1, 2u);
}

TEST(RingTest, ChoosesShorterDirection)
{
    Harness h(8);
    h.ring.send(h.msg(0, 7), h.now);  // 1 hop counter-clockwise
    h.run(10);
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_LE(h.delivered[0].second, 3u);
}

TEST(RingTest, RejectsSameStop)
{
    Ring r(4, false);
    RingMsg m;
    m.src = 2;
    m.dst = 2;
    EXPECT_DEATH(r.send(m, 0), "same-stop");
}

TEST(RingTest, ContentionDelaysInjection)
{
    // Saturate stop 0 with messages: later ones wait for free slots.
    Harness h(4);
    for (int i = 0; i < 6; ++i)
        h.ring.send(h.msg(0, 2, i), h.now);
    h.run(30);
    ASSERT_EQ(h.delivered.size(), 6u);
    EXPECT_GT(h.delivered.back().second, h.delivered.front().second);
    EXPECT_GT(h.ring.stats().inject_stalls, 0u);
}

TEST(RingTest, StatsCountMessages)
{
    Harness hc(4, false);
    hc.ring.send(hc.msg(0, 1), hc.now);
    EXPECT_EQ(hc.ring.stats().control_msgs, 1u);
    EXPECT_EQ(hc.ring.stats().data_msgs, 0u);

    Harness hd(4, true);
    RingMsg m = hd.msg(0, 1);
    m.type = MsgType::kChainTransfer;
    hd.ring.send(m, hd.now);
    EXPECT_EQ(hd.ring.stats().data_msgs, 1u);
    EXPECT_EQ(hd.ring.stats().data_emc_msgs, 1u);
}

TEST(RingTest, EmcMessageClassification)
{
    EXPECT_TRUE(isDataMsg(MsgType::kChainTransfer));
    EXPECT_TRUE(isDataMsg(MsgType::kLiveOut));
    EXPECT_TRUE(isDataMsg(MsgType::kFillToCore));
    EXPECT_FALSE(isDataMsg(MsgType::kMemRead));
    EXPECT_FALSE(isDataMsg(MsgType::kLsqPopulate));
}

/** Property: every sent message is delivered exactly once. */
TEST(RingProperty, AllMessagesDeliveredOnce)
{
    Harness h(6);
    Rng rng(42);
    std::map<std::uint64_t, std::pair<unsigned, unsigned>> sent;
    std::uint64_t token = 1;
    for (Cycle c = 1; c < 2000; ++c) {
        if (rng.chance(0.3)) {
            const unsigned src = static_cast<unsigned>(rng.below(6));
            unsigned dst = static_cast<unsigned>(rng.below(6));
            if (dst == src)
                dst = (dst + 1) % 6;
            sent[token] = {src, dst};
            h.ring.send(h.msg(src, dst, token), c);
            ++token;
        }
        h.ring.tick(c);
        h.now = c + 1;
    }
    h.run(h.now + 200);
    ASSERT_EQ(h.delivered.size(), sent.size());
    std::map<std::uint64_t, int> seen;
    for (const auto &[m, cyc] : h.delivered) {
        ++seen[m.token];
        auto it = sent.find(m.token);
        ASSERT_NE(it, sent.end());
        EXPECT_EQ(m.src, it->second.first);
        EXPECT_EQ(m.dst, it->second.second);
    }
    for (const auto &[tok, count] : seen)
        EXPECT_EQ(count, 1) << "token " << tok;
}

/** Property: latency is at least the hop distance. */
TEST(RingProperty, LatencyLowerBound)
{
    Harness h(9);
    Rng rng(9);
    std::map<std::uint64_t, Cycle> inject_cycle;
    std::map<std::uint64_t, unsigned> dist;
    std::uint64_t token = 1;
    for (Cycle c = 1; c < 1500; ++c) {
        if (rng.chance(0.2)) {
            const unsigned src = static_cast<unsigned>(rng.below(9));
            unsigned dst = static_cast<unsigned>(rng.below(9));
            if (dst == src)
                dst = (dst + 1) % 9;
            inject_cycle[token] = c;
            dist[token] = h.ring.distance(src, dst);
            h.ring.send(h.msg(src, dst, token), c);
            ++token;
        }
        h.ring.tick(c);
        h.now = c + 1;
    }
    h.run(h.now + 200);
    for (const auto &[m, cyc] : h.delivered)
        EXPECT_GE(cyc - inject_cycle[m.token], dist[m.token]);
}

/**
 * Reference ring: rebuilds each direction's slot vector every advance,
 * as the straightforward implementation does, and serializes in
 * Ring::ser's layout. Idle slots come out empty except one that
 * delivered on the latest advance.
 */
class RefRing
{
  public:
    explicit RefRing(unsigned stops)
        : stops_(stops), cw_(stops), ccw_(stops), q_(stops)
    {}

    void
    send(const RingMsg &msg, Cycle now)
    {
        RingMsg m = msg;
        m.injected = now;
        q_[m.src].push_back(m);
        ++sent_;
        ++stats_.control_msgs;
    }

    void
    tick(Cycle now)
    {
        advance(cw_, 1, now);
        advance(ccw_, -1, now);
        for (unsigned stop = 0; stop < stops_; ++stop) {
            auto &q = q_[stop];
            while (!q.empty()) {
                const RingMsg &m = q.front();
                const unsigned fwd = (m.dst + stops_ - stop) % stops_;
                const unsigned bwd = (stop + stops_ - m.dst) % stops_;
                auto &primary = fwd <= bwd ? cw_ : ccw_;
                auto &secondary = fwd <= bwd ? ccw_ : cw_;
                Slot *slot = !primary[stop].busy ? &primary[stop]
                             : !secondary[stop].busy && fwd == bwd
                                 ? &secondary[stop]
                                 : nullptr;
                if (!slot) {
                    ++stats_.inject_stalls;
                    break;
                }
                slot->busy = true;
                slot->msg = m;
                q.pop_front();
            }
        }
    }

    std::vector<std::uint8_t>
    image()
    {
        ckpt::Ar ar = ckpt::Ar::saver();
        ar.io(cw_);
        ar.io(ccw_);
        ar.io(q_);
        ar.io(stats_);
        ar.io(sent_);
        ar.io(delivered_);
        return ar.takeBytes();
    }

  private:
    struct Slot
    {
        bool busy = false;
        RingMsg msg;

        template <class A>
        void
        ser(A &ar)
        {
            ar.io(busy);
            ar.io(msg);
        }
    };

    void
    advance(std::vector<Slot> &slots, int step, Cycle now)
    {
        std::vector<Slot> next(stops_);
        for (unsigned i = 0; i < stops_; ++i) {
            if (slots[i].busy)
                next[(i + stops_ + step) % stops_] = slots[i];
        }
        slots = std::move(next);
        for (unsigned i = 0; i < stops_; ++i) {
            if (slots[i].busy && slots[i].msg.dst == i) {
                stats_.total_latency +=
                    static_cast<double>(now - slots[i].msg.injected);
                ++stats_.delivered;
                ++delivered_;
                slots[i].busy = false;
            }
        }
    }

    unsigned stops_;
    std::vector<Slot> cw_;
    std::vector<Slot> ccw_;
    std::vector<std::deque<RingMsg>> q_;
    RingStats stats_;
    std::uint64_t sent_ = 0;
    std::uint64_t delivered_ = 0;
};

std::vector<std::uint8_t>
imageOf(Ring &ring)
{
    ckpt::Ar ar = ckpt::Ar::saver();
    ring.ser(ar);
    return ar.takeBytes();
}

/**
 * Property: across bursts and idle gaps the ring's image matches the
 * reference byte for byte after every tick (including the tick right
 * after a delivery, whose slot still holds the message), and pending()
 * matches a recount.
 */
TEST(RingProperty, ImageMatchesReferenceEveryTick)
{
    constexpr unsigned kStops = 7;
    Harness h(kStops);
    RefRing ref(kStops);
    Rng rng(23);
    std::uint64_t token = 1;
    std::uint64_t delivered_ticks = 0;
    for (Cycle c = 1; c < 4000; ++c) {
        const bool busy_phase = (c / 200) % 2 == 0;
        if (busy_phase && rng.chance(0.4)) {
            const unsigned src = static_cast<unsigned>(rng.below(kStops));
            const unsigned dst =
                (src + 1 + static_cast<unsigned>(rng.below(kStops - 1)))
                % kStops;
            const RingMsg m = h.msg(src, dst, token++);
            h.ring.send(m, c);
            ref.send(m, c);
        }
        const std::size_t before = h.delivered.size();
        h.now = c;
        h.ring.tick(c);
        ref.tick(c);
        delivered_ticks += h.delivered.size() != before;
        ASSERT_EQ(imageOf(h.ring), ref.image()) << "cycle " << c;
        ASSERT_EQ(h.ring.pending(), h.ring.recountPending());
        ASSERT_EQ(h.ring.pending(),
                  h.ring.sentTotal() - h.ring.deliveredTotal());
    }
    EXPECT_GT(delivered_ticks, 100u);
    EXPECT_EQ(h.ring.pending(), 0u);
}

/** A tick of an empty ring changes neither its image nor its stats. */
TEST(RingTest, IdleTickChangesNothing)
{
    Harness h(5);
    h.ring.send(h.msg(0, 2, 7), h.now);
    while (h.delivered.empty())
        h.ring.tick(h.now++);
    // The tick right after the delivery clears the delivered slot's
    // payload; every later idle tick is a no-op.
    h.ring.tick(h.now++);
    const std::vector<std::uint8_t> idle = imageOf(h.ring);
    for (int i = 0; i < 50; ++i)
        h.ring.tick(h.now++);
    EXPECT_EQ(imageOf(h.ring), idle);
    EXPECT_EQ(h.ring.pending(), 0u);
    EXPECT_EQ(h.ring.recountPending(), 0u);
    EXPECT_EQ(h.delivered.size(), 1u);
}

/**
 * Restoring an image taken right after a delivery recounts the
 * counters and still clears the stale payload on the next tick.
 */
TEST(RingTest, RestoreRightAfterDeliveryMatchesUninterrupted)
{
    Harness a(6);
    a.ring.send(a.msg(1, 4, 3), a.now);
    a.ring.send(a.msg(2, 0, 4), a.now);
    a.ring.send(a.msg(5, 3, 5), a.now);
    while (a.delivered.empty())
        a.ring.tick(a.now++);
    const std::size_t before = a.delivered.size();
    std::vector<std::uint8_t> bytes = imageOf(a.ring);
    Harness b(6);
    ckpt::Ar loader = ckpt::Ar::loader(bytes);
    b.ring.ser(loader);
    ASSERT_TRUE(loader.exhausted());
    EXPECT_EQ(b.ring.pending(), a.ring.pending());
    EXPECT_EQ(b.ring.pending(), b.ring.recountPending());
    b.now = a.now;
    for (int i = 0; i < 20; ++i) {
        a.ring.tick(a.now++);
        b.ring.tick(b.now++);
        ASSERT_EQ(imageOf(a.ring), imageOf(b.ring)) << "tick " << i;
    }
    EXPECT_EQ(b.ring.pending(), 0u);
    EXPECT_EQ(a.delivered.size(), 3u);
    EXPECT_EQ(b.delivered.size(), 3u - before);
}

} // namespace
} // namespace emc
