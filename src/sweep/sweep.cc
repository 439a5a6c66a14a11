/**
 * @file
 * Coordinator/worker implementation for runSharded() (sweep.hh).
 *
 * This file is the one place in the tree allowed to spawn processes
 * (tools/emclint `process-spawn`): every fork is paired with a
 * waitpid and every pipe end has a single owner, so process plumbing
 * stays auditable in one translation unit.
 */

#include "sweep/sweep.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/stream.hh"

namespace emc::sweep
{

namespace
{

/** JSON-escape @p s onto @p out (quotes, backslashes, control). */
void
writeEscaped(std::FILE *out, const char *s)
{
    for (; *s; ++s) {
        const unsigned char c = static_cast<unsigned char>(*s);
        if (c == '"' || c == '\\')
            std::fprintf(out, "\\%c", c);
        else if (c == '\n')
            std::fputs("\\n", out);
        else if (c < 0x20)
            std::fprintf(out, "\\u%04x", c);
        else
            std::fputc(c, out);
    }
}

/** Write all of @p s to @p fd; EPIPE and friends are the caller's
 *  problem and surface later as EOF on the worker's message pipe. */
void
writeAll(int fd, const char *s, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, s, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        s += w;
        n -= static_cast<std::size_t>(w);
    }
}

/** Extract the u64 following `"key":` in @p line; false if absent. */
bool
findU64(const char *line, const char *key, std::uint64_t &out)
{
    const std::string pat = std::string("\"") + key + "\":";
    const char *p = std::strstr(line, pat.c_str());
    if (!p)
        return false;
    p += pat.size();
    char *end = nullptr;
    out = std::strtoull(p, &end, 10);
    return end != p;
}

/** Unescape the JSON string following `"what":"` in @p line. */
std::string
findWhat(const char *line)
{
    const char *p = std::strstr(line, "\"what\":\"");
    if (!p)
        return "(no failure message)";
    p += 8;
    std::string out;
    for (; *p && *p != '"'; ++p) {
        if (*p == '\\' && p[1] != '\0') {
            ++p;
            out.push_back(*p == 'n' ? '\n' : *p);
        } else {
            out.push_back(*p);
        }
    }
    return out;
}

/** One forked worker as the coordinator sees it. */
struct Worker
{
    pid_t pid = -1;
    int job_w = -1;  ///< coordinator writes job indices here
    int msg_r = -1;  ///< coordinator reads JSONL results here
    std::string buf; ///< partial-line accumulator
    long job = -1;   ///< outstanding job index, -1 when idle
};

void
closeParentEnds(const std::vector<Worker> &workers)
{
    for (const Worker &w : workers) {
        if (w.job_w >= 0)
            ::close(w.job_w);
        if (w.msg_r >= 0)
            ::close(w.msg_r);
    }
}

/** Fork one worker serving @p fn; registers it in @p workers. */
void
spawnWorker(std::vector<Worker> &workers, const JobFn &fn)
{
    int job_pipe[2];
    int msg_pipe[2];
    if (::pipe(job_pipe) != 0)
        throw Error("sweep: pipe() failed: "
                    + std::string(std::strerror(errno)));
    if (::pipe(msg_pipe) != 0) {
        ::close(job_pipe[0]);
        ::close(job_pipe[1]);
        throw Error("sweep: pipe() failed: "
                    + std::string(std::strerror(errno)));
    }

    // Anything buffered in this process would otherwise be flushed
    // once per child too.
    std::fflush(nullptr);

    const pid_t pid = ::fork(); // lint-ok: process-spawn (the sweep coordinator itself)
    if (pid < 0) {
        ::close(job_pipe[0]);
        ::close(job_pipe[1]);
        ::close(msg_pipe[0]);
        ::close(msg_pipe[1]);
        throw Error("sweep: fork() failed: "
                    + std::string(std::strerror(errno)));
    }

    if (pid == 0) {
        // Child: drop every coordinator-side fd — inherited write
        // ends of *other* workers' message pipes would otherwise keep
        // those pipes open past their workers' deaths and defeat EOF
        // detection.
        closeParentEnds(workers);
        ::close(job_pipe[1]);
        ::close(msg_pipe[0]);
        std::signal(SIGPIPE, SIG_IGN);
        runWorkerLoop(job_pipe[0], msg_pipe[1], fn);
        std::fflush(nullptr);
        ::_exit(0);
    }

    ::close(job_pipe[0]);
    ::close(msg_pipe[1]);
    Worker w;
    w.pid = pid;
    w.job_w = job_pipe[1];
    w.msg_r = msg_pipe[0];
    workers.push_back(std::move(w));
}

void
reapWorker(Worker &w)
{
    if (w.job_w >= 0)
        ::close(w.job_w);
    if (w.msg_r >= 0)
        ::close(w.msg_r);
    w.job_w = w.msg_r = -1;
    if (w.pid > 0) {
        int status = 0;
        while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
        }
        w.pid = -1;
    }
}

/** Abort path: terminate every live worker promptly and reap it. */
void
killAll(std::vector<Worker> &workers)
{
    for (Worker &w : workers) {
        if (w.pid > 0)
            ::kill(w.pid, SIGTERM);
    }
    for (Worker &w : workers)
        reapWorker(w);
}

/** RAII SIGPIPE suppression: a worker dying between our poll() and a
 *  job-dispatch write must not kill the coordinator process. */
class ScopedIgnoreSigpipe
{
  public:
    ScopedIgnoreSigpipe() { prev_ = std::signal(SIGPIPE, SIG_IGN); }
    ~ScopedIgnoreSigpipe() { std::signal(SIGPIPE, prev_); }

  private:
    void (*prev_)(int);
};

} // namespace

bool
parseStatsObject(const char *s, StatDump &out)
{
    while (*s && *s != '{')
        ++s;
    if (*s != '{')
        return false;
    ++s;
    if (*s == '}')
        return true;
    while (true) {
        if (*s != '"')
            return false;
        ++s;
        const char *e = std::strchr(s, '"');
        if (!e)
            return false;
        const std::string name(s, e);
        s = e + 1;
        if (*s != ':')
            return false;
        ++s;
        char *end = nullptr;
        const double v = std::strtod(s, &end);
        if (end == s)
            return false;
        out.put(name, v);
        s = end;
        if (*s == ',') {
            ++s;
            continue;
        }
        return *s == '}';
    }
}

std::size_t
runWorkerLoop(int job_fd, int msg_fd, const JobFn &fn)
{
    std::FILE *in = ::fdopen(job_fd, "r");
    std::FILE *msg = ::fdopen(msg_fd, "w");
    if (!in || !msg) {
        if (in)
            std::fclose(in);
        if (msg)
            std::fclose(msg);
        return 0;
    }

    std::size_t served = 0;
    char line[64];
    while (std::fgets(line, sizeof line, in)) {
        if (line[0] == 'q')
            break;
        char *end = nullptr;
        const unsigned long long j = std::strtoull(line, &end, 10);
        if (end == line)
            break;
        try {
            StatDump d = fn(static_cast<std::size_t>(j), msg);
            std::fprintf(msg, "{\"type\":\"done\",\"job\":%llu,"
                              "\"stats\":",
                         j);
            obs::writeStatsObject(msg, d, 17);
            std::fputs("}\n", msg);
        } catch (const std::exception &e) {
            std::fprintf(msg,
                         "{\"type\":\"fail\",\"job\":%llu,\"what\":\"",
                         j);
            writeEscaped(msg, e.what());
            std::fputs("\"}\n", msg);
        }
        std::fflush(msg);
        ++served;
    }
    std::fclose(in);
    std::fclose(msg);
    return served;
}

ShardReport
runShardedReport(std::size_t num_jobs, unsigned procs, const JobFn &fn,
                 const ShardOptions &opt)
{
    ShardReport rep;
    rep.results.resize(num_jobs);
    if (num_jobs == 0)
        return rep;

    const unsigned nproc = std::max<unsigned>(
        1, std::min<std::size_t>(procs == 0 ? 1 : procs, num_jobs));
    const unsigned max_attempts = std::max(1u, opt.max_attempts);

    ScopedIgnoreSigpipe no_sigpipe;

    std::deque<std::size_t> queue;
    for (std::size_t j = 0; j < num_jobs; ++j)
        queue.push_back(j);
    std::vector<unsigned> attempts(num_jobs, 0);
    std::vector<bool> done(num_jobs, false);
    std::size_t completed = 0;

    std::vector<Worker> workers;
    workers.reserve(nproc);

    const auto dispatch = [&](Worker &w) {
        if (queue.empty()) {
            writeAll(w.job_w, "q\n", 2);
            return;
        }
        const std::size_t j = queue.front();
        queue.pop_front();
        ++attempts[j];
        w.job = static_cast<long>(j);
        char buf[32];
        const int n =
            std::snprintf(buf, sizeof buf, "%zu\n", j);
        writeAll(w.job_w, buf, static_cast<std::size_t>(n));
    };

    try {
        for (unsigned i = 0; i < nproc; ++i) {
            spawnWorker(workers, fn);
            ++rep.workers_spawned;
            dispatch(workers.back());
        }

        const auto handleLine = [&](Worker &w, const char *line) {
            if (std::strstr(line, "\"type\":\"interval\"")) {
                ++rep.interval_lines;
                if (opt.forward_intervals) {
                    std::fputs(line, opt.forward_intervals);
                    std::fputc('\n', opt.forward_intervals);
                }
                return;
            }
            std::uint64_t j = 0;
            if (std::strstr(line, "\"type\":\"fail\"")) {
                findU64(line, "job", j);
                if (opt.abort_on_fail) {
                    throw Error("sweep job " + std::to_string(j)
                                + " failed: " + findWhat(line));
                }
                if (j < num_jobs && !done[j]) {
                    rep.failures.push_back({static_cast<std::size_t>(j),
                                            findWhat(line)});
                    done[j] = true;
                    ++completed;
                }
                w.job = -1;
                dispatch(w);
                return;
            }
            if (!std::strstr(line, "\"type\":\"done\""))
                throw Error(std::string("sweep: malformed worker "
                                        "message: ")
                            + line);
            if (!findU64(line, "job", j) || j >= num_jobs)
                throw Error("sweep: done message with bad job index");
            StatDump d;
            const char *stats = std::strstr(line, "\"stats\":");
            if (!stats || !parseStatsObject(stats + 8, d))
                throw Error("sweep: unparseable stats for job "
                            + std::to_string(j));
            if (!done[j]) {
                // A job can complete twice when its first worker died
                // after finishing the work but before the coordinator
                // read the result; runs are deterministic per index,
                // so first result wins and the duplicate is dropped.
                done[j] = true;
                rep.results[j] = std::move(d);
                ++completed;
            }
            w.job = -1;
            dispatch(w);
        };

        while (completed < num_jobs) {
            std::vector<struct pollfd> fds;
            std::vector<std::size_t> fd_worker;
            for (std::size_t i = 0; i < workers.size(); ++i) {
                if (workers[i].msg_r < 0)
                    continue;
                fds.push_back({workers[i].msg_r, POLLIN, 0});
                fd_worker.push_back(i);
            }
            if (fds.empty())
                throw Error("sweep: all workers exited with "
                            + std::to_string(num_jobs - completed)
                            + " jobs unfinished");

            int pr = ::poll(fds.data(),
                            static_cast<nfds_t>(fds.size()), -1);
            if (pr < 0) {
                if (errno == EINTR)
                    continue;
                throw Error("sweep: poll() failed: "
                            + std::string(std::strerror(errno)));
            }

            for (std::size_t k = 0; k < fds.size(); ++k) {
                if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                    continue;
                Worker &w = workers[fd_worker[k]];
                char chunk[4096];
                const ssize_t n =
                    ::read(w.msg_r, chunk, sizeof chunk);
                if (n > 0) {
                    w.buf.append(chunk,
                                 static_cast<std::size_t>(n));
                    std::size_t nl;
                    while ((nl = w.buf.find('\n'))
                           != std::string::npos) {
                        const std::string line =
                            w.buf.substr(0, nl);
                        w.buf.erase(0, nl + 1);
                        handleLine(w, line.c_str());
                    }
                    continue;
                }
                if (n < 0 && (errno == EINTR || errno == EAGAIN))
                    continue;

                // EOF (or read error): the worker is gone. A clean
                // quit leaves no outstanding job; a death mid-job
                // re-queues the job and replaces the worker.
                const long orphan = w.job;
                reapWorker(w);
                if (orphan < 0)
                    continue;
                ++rep.worker_deaths;
                const auto j = static_cast<std::size_t>(orphan);
                if (attempts[j] >= max_attempts) {
                    throw Error(
                        "sweep job " + std::to_string(j)
                        + " lost its worker "
                        + std::to_string(attempts[j])
                        + " times; giving up");
                }
                queue.push_front(j);
                ++rep.jobs_requeued;
                spawnWorker(workers, fn);
                ++rep.workers_spawned;
                dispatch(workers.back());
            }
        }

        for (Worker &w : workers) {
            if (w.job_w >= 0)
                writeAll(w.job_w, "q\n", 2);
        }
        for (Worker &w : workers)
            reapWorker(w);
        std::sort(rep.failures.begin(), rep.failures.end(),
                  [](const JobFailure &a, const JobFailure &b) {
                      return a.job < b.job;
                  });
    } catch (...) {
        killAll(workers);
        throw;
    }

    return rep;
}

std::vector<StatDump>
runSharded(std::size_t num_jobs, unsigned procs, const JobFn &fn,
           const ShardOptions &opt)
{
    return runShardedReport(num_jobs, procs, fn, opt).results;
}

} // namespace emc::sweep
