// Fixture: ckpt-coverage known-good — every exemption category from
// DESIGN.md §10 plus both placements of a justified ckpt-skip — and
// ckpt-field near misses (a value cast inside ser(), a host-address
// cast outside it). Nothing in this file may be flagged.

namespace fx
{

using Cb = std::function<void(int)>;

class Widget
{
public:
    template <class A> void ser(A &ar)
    {
        ar.io(pos_);
        ar.io(static_cast<std::uint64_t>(kWays));
        ar.io(dirty_);
    }

    // Host-address casts are fine outside serialization code.
    const char *bytes() const { return reinterpret_cast<const char *>(&pos_); }

private:
    static constexpr int kWays = 4;     // static: not per-instance state
    const int capacity_ = 16;           // const: immutable configuration
    Widget *parent_ = nullptr;          // pointer: reattached on load
    std::function<void()> hook_{};      // wiring, not state
    Cb alias_hook_{};                   // wiring through a type alias
    unsigned long pos_ = 0;
    bool dirty_ = false;
    // ckpt-skip: (derived from capacity_ when the widget is attached)
    unsigned long derived_ = 0;
    int scratch_ = 0;  // ckpt-skip: (fixture: trailing-comment placement)
};

} // namespace fx
