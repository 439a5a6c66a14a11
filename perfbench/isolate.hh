/**
 * @file
 * Crash and hang isolation: each measured workload run executes in a
 * forked child with a wall-clock limit, so a crash, an exception or a
 * hang is counted as one failed run instead of taking the benchmark
 * down with it.
 */

#ifndef PERFBENCH_ISOLATE_HH
#define PERFBENCH_ISOLATE_HH

#include <functional>
#include <string>

#include "ledger.hh"

namespace perfbench
{

/** Outcome of one isolated run. */
struct Isolated
{
    bool ok = false;
    std::string error;      ///< why the run failed (empty when ok)
    Record record;          ///< what the child reported
    double peak_rss_mb = 0; ///< the child's peak resident set
};

/**
 * Run @p body in a forked child and wait at most @p timeout_s seconds
 * for it. An exception thrown by @p body, a signal, a non-zero exit or
 * the timeout (the child is then killed) makes the run fail. The
 * child is always reaped before this returns.
 */
Isolated runIsolated(const std::function<Record()> &body,
                     double timeout_s);

} // namespace perfbench

#endif // PERFBENCH_ISOLATE_HH
