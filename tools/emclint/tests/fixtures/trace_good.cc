// Fixture: trace-hook near misses: comparisons, const accessors and a
// string holding '=' in hook arguments, and a call that only starts
// with "record". Nothing here may be flagged.

namespace fx
{

struct QuietTracer
{
    void hooks(unsigned long addr)
    {
        EMC_OBS_POINT(tr_, mc_read, addr == seq_, seq_ <= addr,
                      q_.size(), lastRecorded(), "k=v");
        log_.recordLatency(addr);
    }

    unsigned long lastRecorded() const { return seq_; }

    Tracer *tr_ = nullptr;
    unsigned long seq_ = 0;
    Queue q_;
    Log log_;
};

} // namespace fx
