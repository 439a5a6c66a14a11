/**
 * @file
 * Threaded job runner for sweeps of independent simulations
 * (DESIGN.md §9).
 *
 * run() executes fn(i) for every job index i in [0, n) on a fixed set
 * of worker threads, each pulling the next unclaimed index from one
 * shared atomic counter, so long jobs do not convoy short ones.
 * Results are stored by job index, which makes a sweep's output
 * byte-identical at any worker count: order of completion never leaks
 * into order of results. Every exception a job throws, std:: or not,
 * is caught and reported as a JobFailure; the other jobs still run.
 */

#ifndef EMC_SWEEP_SWEEP_HH
#define EMC_SWEEP_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace emc::sweep
{

/** One job that threw: its index and the exception's message. */
struct JobFailure
{
    std::size_t job;
    std::string what;
};

/** What run() did. */
struct Report
{
    std::vector<StatDump> results;    ///< indexed by job; empty if failed
    std::vector<JobFailure> failures; ///< sorted by job index
};

/** One job: simulate job @p job and return its final stats. */
using JobFn = std::function<StatDump(std::size_t job)>;

/**
 * Run jobs [0, @p n) on @p workers threads (clamped to [1, n]), the
 * calling thread being one of them. With one worker the jobs run
 * inline, in index order. @p fn must be safe to call concurrently for
 * distinct jobs.
 */
Report run(std::size_t n, unsigned workers, const JobFn &fn);

} // namespace emc::sweep

#endif // EMC_SWEEP_SWEEP_HH
