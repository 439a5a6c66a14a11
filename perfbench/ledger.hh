/**
 * @file
 * Host-time ledger of the benchmark: a monotonic clock, an in-memory
 * span log the traced run fills around each call into a simulator
 * layer, and the key/value record a worker process hands back to the
 * benchmark's parent process.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on the monotonic clock. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One timed call into a layer. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
};

/**
 * Times calls and, when tracing, keeps a span per call in memory.
 * Untraced runs read the same clocks but record nothing.
 */
class Ledger
{
  public:
    explicit Ledger(bool trace) : trace_(trace) {}

    /** Run @p f, record a span named @p name if tracing. @return s. */
    template <class F>
    double
    timed(const char *name, F &&f)
    {
        const double t0 = nowS();
        f();
        const double t1 = nowS();
        if (trace_)
            spans_.push_back({name, t0, t1});
        return t1 - t0;
    }

    bool tracing() const { return trace_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool trace_;
    std::vector<Span> spans_;
};

/**
 * What one isolated worker reports: named numbers, named strings and
 * (traced runs) its spans. Serialized as text lines over a pipe.
 */
struct Record
{
    std::map<std::string, double> num;
    std::map<std::string, std::string> str;
    std::vector<Span> spans;

    std::string serialize() const;
    static Record parse(const std::string &text);
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
