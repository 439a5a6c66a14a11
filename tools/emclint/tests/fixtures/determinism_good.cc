// Fixture: known-good determinism idioms — near misses for rng,
// process-spawn, raw-new, event-push and unordered-iter. None of these
// may be flagged. The regex ancestor tripped on several of them.

namespace fx
{

struct GoodCitizen
{
    // A *method* named like a libc spawn/rng call is not the libc
    // call: the receiver disambiguates.
    void delegate(Os &os)
    {
        os.system("fine");
        os.rand();
    }

    // Seeded repo Rng is the sanctioned randomness source.
    unsigned draw(Rng &rng)
    {
        return rng.range(0, 7);
    }

    // new of non-Transaction types is allowed (the pool only owns
    // transactions).
    Widget *make()
    {
        return new Widget();
    }

    // Only events_ must go through schedule(), and ordered containers
    // iterate deterministically.
    void enqueueAndWalk(int ev)
    {
        pending_.push(ev);
        for (auto &kv : ordered_)
            (void)kv;
    }

    Queue pending_;
    std::map<long, long> ordered_;
};

} // namespace fx
