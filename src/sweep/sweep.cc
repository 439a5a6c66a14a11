#include "sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

namespace emc::sweep
{

Report
run(std::size_t n, unsigned workers, const JobFn &fn)
{
    Report rep;
    rep.results.resize(n);
    std::atomic<std::size_t> next{0};
    std::mutex failures_mu;  // guards rep.failures

    const auto work = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            std::string what;
            try {
                rep.results[i] = fn(i);
                continue;
            } catch (const std::exception &e) {
                what = e.what();
            } catch (...) {
                what = "unknown exception";
            }
            std::lock_guard<std::mutex> lock(failures_mu);
            rep.failures.push_back({i, std::move(what)});
        }
    };

    // The calling thread is one of the workers, so workers == 1 runs
    // every job inline, in index order.
    const std::size_t threads =
        std::clamp<std::size_t>(workers, 1, std::max<std::size_t>(n, 1));
    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    try {
        for (std::size_t t = 1; t < threads; ++t)
            helpers.emplace_back(work);
    } catch (const std::system_error &) {
        // Out of threads: the helpers already started and this thread
        // still drain every job, just with less overlap.
    }
    work();
    for (std::thread &t : helpers)
        t.join();

    std::sort(rep.failures.begin(), rep.failures.end(),
              [](const JobFailure &a, const JobFailure &b) {
                  return a.job < b.job;
              });
    return rep;
}

} // namespace emc::sweep
