/**
 * @file
 * Calendar (timing-wheel) event queue for the System's cycle-driven
 * event loop. Replaces the former std::multimap<Cycle, Event>: events
 * within a fixed near-future horizon land in per-cycle buckets (O(1)
 * push/pop, no node allocation); events beyond the horizon fall back
 * to a binary heap and are drained as the wheel reaches them.
 *
 * Ordering contract (identical to the multimap): events pop in
 * ascending cycle order, FIFO among events scheduled for the same
 * cycle. FIFO across the bucket/heap split holds because an event for
 * cycle C can only be heap-resident if it was pushed before the wheel
 * window reached C — i.e. before every bucket-resident event for C —
 * and the heap breaks cycle ties by a global push sequence number.
 *
 * Pushing for a cycle at or before the current extraction cycle clamps
 * to the extraction cycle: the wheel never travels backwards. (The
 * System additionally clamps schedules to now+1; see
 * System::schedule.)
 */

#ifndef EMC_SIM_EVENT_QUEUE_HH
#define EMC_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace emc
{

template <typename T>
class CalendarQueue
{
  public:
    /** @param bucket_bits log2 of the wheel size (horizon in cycles) */
    explicit CalendarQueue(unsigned bucket_bits = 10)
        : mask_((std::size_t{1} << bucket_bits) - 1),
          buckets_(std::size_t{1} << bucket_bits)
    {}

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Schedule @p payload for cycle @p when (clamped to >= cursor). */
    void
    push(Cycle when, const T &payload)
    {
        if (when < cur_)
            when = cur_;
        ++size_;
        if (when - cur_ > mask_) {
            heap_.push_back({when, next_seq_++, payload});
            std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
            return;
        }
        Bucket &b = buckets_[when & mask_];
        if (b.cycle != when) {
            // Stale content from a prior lap was fully consumed when
            // the cursor passed it; reuse the storage.
            b.items.clear();
            b.pos = 0;
            b.cycle = when;
        }
        b.items.push_back(payload);
    }

    /**
     * Pop the oldest event with cycle <= @p now into @p out.
     * @retval false nothing is due at or before @p now
     */
    bool
    popUpTo(Cycle now, T &out)
    {
        while (cur_ <= now) {
            // Heap events for the current cycle predate every bucket
            // event for it (see header comment): drain them first.
            if (!heap_.empty() && heap_.front().cycle <= cur_) {
                std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
                out = std::move(heap_.back().payload);
                heap_.pop_back();
                --size_;
                return true;
            }
            Bucket &b = buckets_[cur_ & mask_];
            if (b.cycle == cur_ && b.pos < b.items.size()) {
                out = b.items[b.pos++];
                --size_;
                return true;
            }
            if (b.cycle == cur_) {
                b.items.clear();
                b.pos = 0;
                b.cycle = kNoCycle;
            }
            ++cur_;
        }
        return false;
    }

    /** Earliest scheduled cycle (kNoCycle when empty). */
    Cycle
    nextCycle() const
    {
        if (size_ == 0)
            return kNoCycle;
        Cycle best = heap_.empty() ? kNoCycle : heap_.front().cycle;
        // The wheel holds size_ - heap_.size() events somewhere in
        // [cur_, cur_ + mask_]; scan forward until one is found.
        if (size_ > heap_.size()) {
            for (Cycle c = cur_;; ++c) {
                const Bucket &b = buckets_[c & mask_];
                if (b.cycle == c && b.pos < b.items.size()) {
                    best = std::min(best, c);
                    break;
                }
            }
        }
        return best;
    }

    /** Current extraction cycle (tests). */
    Cycle cursor() const { return cur_; }

    /**
     * Checkpoint all pending events in pop order. @p fn is called as
     * fn(ar, cycle, event) and serializes the payload. Draining a copy
     * preserves the exact (cycle, FIFO) pop order, which ckptLoad then
     * reproduces by pushing in sequence.
     */
    template <class A, class Fn>
    void
    ckptSave(A &ar, Fn fn) const
    {
        CalendarQueue copy = *this;
        std::uint64_t n = size_;
        ar.io(n);
        std::uint64_t cur = cur_;
        ar.io(cur);
        while (!copy.empty()) {
            Cycle c = copy.nextCycle();
            T ev{};
            const bool ok = copy.popUpTo(c, ev);
            emc_assert(ok, "CalendarQueue ckptSave drain");
            ar.io(c);
            fn(ar, c, ev);
        }
    }

    /** Inverse of ckptSave: rebuilds the queue from scratch. */
    template <class A, class Fn>
    void
    ckptLoad(A &ar, Fn fn)
    {
        for (Bucket &b : buckets_) {
            b.cycle = kNoCycle;
            b.pos = 0;
            b.items.clear();
        }
        heap_.clear();
        size_ = 0;
        next_seq_ = 0;
        std::uint64_t n = 0;
        ar.io(n);
        std::uint64_t cur = 0;
        ar.io(cur);
        cur_ = cur;
        for (std::uint64_t i = 0; i < n; ++i) {
            Cycle c = kNoCycle;
            ar.io(c);
            T ev{};
            fn(ar, c, ev);
            push(c, ev);
        }
    }

  private:
    struct Bucket
    {
        Cycle cycle = kNoCycle;   ///< cycle the content belongs to
        std::size_t pos = 0;      ///< next unconsumed item
        std::vector<T> items;
    };

    struct HeapEntry
    {
        Cycle cycle;
        std::uint64_t seq;
        T payload;
    };

    /** Min-heap comparator: later (cycle, seq) sorts lower. */
    struct HeapLater
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.cycle != b.cycle)
                return a.cycle > b.cycle;
            return a.seq > b.seq;
        }
    };

    std::size_t mask_;
    std::vector<Bucket> buckets_;
    std::vector<HeapEntry> heap_;
    Cycle cur_ = 0;
    std::uint64_t next_seq_ = 0;
    std::size_t size_ = 0;
};

} // namespace emc

#endif // EMC_SIM_EVENT_QUEUE_HH
