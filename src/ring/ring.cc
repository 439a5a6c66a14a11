#include "ring/ring.hh"

#include <algorithm>

namespace emc
{

Ring::Ring(unsigned stops, bool is_data)
    : stops_(stops), is_data_(is_data), inject_q_(stops)
{
    emc_assert(stops >= 2, "ring needs at least two stops");
    cw_.slots.resize(stops);
    cw_.step = 1;
    ccw_.slots.resize(stops);
    ccw_.step = -1;
}

void
Ring::send(const RingMsg &msg, Cycle now)
{
    emc_assert(msg.src < stops_ && msg.dst < stops_, "bad ring stop");
    emc_assert(msg.src != msg.dst,
               "same-stop messages bypass the ring (1-cycle local path)");
    RingMsg m = msg;
    m.injected = now;
    inject_q_[m.src].push_back(m);
    ++queued_;
    ++sent_total_;
    if (is_data_) {
        ++stats_.data_msgs;
        if (m.type == MsgType::kChainTransfer || m.type == MsgType::kLiveOut)
            ++stats_.data_emc_msgs;
    } else {
        ++stats_.control_msgs;
        if (m.type == MsgType::kLsqPopulate || m.type == MsgType::kEmcLlcQuery)
            ++stats_.control_emc_msgs;
    }
}

std::size_t
Ring::countBusy(const Direction &dir)
{
    return static_cast<std::size_t>(
        std::count_if(dir.slots.begin(), dir.slots.end(),
                      [](const Slot &s) { return s.busy; }));
}

std::size_t
Ring::recountPending() const
{
    std::size_t n = countBusy(cw_) + countBusy(ccw_);
    for (const auto &q : inject_q_)
        n += q.size();
    return n;
}

void
Ring::recount()
{
    cw_.busy = countBusy(cw_);
    ccw_.busy = countBusy(ccw_);
    queued_ = 0;
    for (const auto &q : inject_q_)
        queued_ += q.size();
}

void
Ring::advance(Direction &dir, Cycle now, bool clear_idle)
{
    if (dir.busy == 0) {
        if (clear_idle) {
            for (auto &s : dir.slots)
                s.msg = RingMsg{};
        }
        return;
    }
    // Rotate slot contents by one stop in place, then eject arrivals.
    // An idle slot carries an empty message, except one that delivered
    // on the previous advance; clear_idle resets those.
    if (dir.step > 0)
        std::rotate(dir.slots.begin(), dir.slots.end() - 1, dir.slots.end());
    else
        std::rotate(dir.slots.begin(), dir.slots.begin() + 1, dir.slots.end());
    for (unsigned i = 0; i < stops_; ++i) {
        Slot &s = dir.slots[i];
        if (!s.busy) {
            if (clear_idle)
                s.msg = RingMsg{};
            continue;
        }
        if (s.msg.dst != i)
            continue;
        stats_.total_latency += static_cast<double>(now - s.msg.injected);
        ++stats_.delivered;
        ++delivered_total_;
        switch (s.msg.type) {
          case MsgType::kChainTransfer:
          case MsgType::kLiveOut:
          case MsgType::kEmcFillReply:
          case MsgType::kLsqPopulate:
          case MsgType::kEmcLlcQuery:
            EMC_OBS_POINT(tracer_, obs::TracePoint::kRingMsg, now,
                          s.msg.token, obs::Track::ring(is_data_),
                          s.msg.token);
            break;
          default:
            break;
        }
        if (deliver_)
            deliver_(s.msg);
        s.busy = false;
        --dir.busy;
        stale_ = true;
    }
}

void
Ring::inject(Cycle now)
{
    if (queued_ == 0)
        return;
    for (unsigned stop = 0; stop < stops_; ++stop) {
        auto &q = inject_q_[stop];
        while (!q.empty()) {
            RingMsg &m = q.front();
            // Choose the shorter direction; tie goes clockwise.
            const unsigned fwd = (m.dst + stops_ - stop) % stops_;
            const unsigned bwd = (stop + stops_ - m.dst) % stops_;
            Direction &primary = fwd <= bwd ? cw_ : ccw_;
            Direction &secondary = fwd <= bwd ? ccw_ : cw_;
            Direction *dir = nullptr;
            if (!primary.slots[stop].busy)
                dir = &primary;
            else if (!secondary.slots[stop].busy && fwd == bwd)
                dir = &secondary;
            if (dir) {
                dir->slots[stop].busy = true;
                dir->slots[stop].msg = m;
                ++dir->busy;
                --queued_;
                q.pop_front();
            } else {
                ++stats_.inject_stalls;
                break;  // head-of-line blocks this stop this cycle
            }
        }
    }
}

void
Ring::tick(Cycle now)
{
    // An empty ring whose idle slots hold empty messages cannot change.
    if (!stale_ && pending() == 0)
        return;
    const bool clear_idle = stale_;
    stale_ = false;
    advance(cw_, now, clear_idle);
    advance(ccw_, now, clear_idle);
    inject(now);
}

} // namespace emc
