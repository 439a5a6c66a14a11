#include "isolate.hh"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>

namespace perfbench
{

std::string
Record::serialize() const
{
    std::ostringstream os;
    os.precision(17);
    for (const auto &[k, v] : num)
        os << "n " << k << ' ' << v << '\n';
    for (const auto &[k, v] : str)
        os << "s " << k << ' ' << v << '\n';
    for (const Span &sp : spans)
        os << "t " << sp.name << ' ' << sp.start << ' ' << sp.end << '\n';
    return os.str();
}

Record
Record::parse(const std::string &text)
{
    Record r;
    std::istringstream is(text);
    std::string tag;
    while (is >> tag) {
        std::string name;
        is >> name;
        if (tag == "n") {
            std::string v;
            is >> v;
            r.num[name] = std::strtod(v.c_str(), nullptr);
        } else if (tag == "s") {
            is >> std::ws;
            std::getline(is, r.str[name]);
        } else if (tag == "t") {
            Span sp;
            sp.name = name;
            is >> sp.start >> sp.end;
            r.spans.push_back(sp);
        }
    }
    return r;
}

namespace
{

void
writeAll(int fd, const std::string &s)
{
    std::size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

Isolated
runIsolated(const std::function<Record()> &body, double timeout_s)
{
    Isolated out;
    int fds[2];
    if (::pipe(fds) != 0) {
        out.error = "pipe failed";
        return out;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        out.error = "fork failed";
        return out;
    }
    if (pid == 0) {
        ::close(fds[0]);
        int code = 0;
        std::string payload;
        try {
            payload = "ok\n" + body().serialize();
        } catch (const std::exception &e) {
            payload = std::string("error ") + e.what() + "\n";
            code = 3;
        } catch (...) {
            payload = "error unknown exception\n";
            code = 3;
        }
        writeAll(fds[1], payload);
        ::close(fds[1]);
        std::fflush(stdout);
        std::fflush(stderr);
        ::_exit(code);
    }

    ::close(fds[1]);
    std::string text;
    const double deadline = nowS() + timeout_s;
    bool timed_out = false;
    char buf[65536];
    for (;;) {
        const double left = deadline - nowS();
        if (left <= 0) {
            timed_out = true;
            break;
        }
        pollfd p{fds[0], POLLIN, 0};
        const int ms = static_cast<int>(std::ceil(left * 1000));
        const int r = ::poll(&p, 1, ms);
        if (r < 0 && errno == EINTR)
            continue;
        if (r == 0)
            continue;  // re-check the deadline
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;  // EOF: the child closed its end
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    if (timed_out)
        ::kill(pid, SIGKILL);

    int status = 0;
    rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    if (timed_out) {
        out.error = "timeout after " + std::to_string(timeout_s) + " s";
    } else if (WIFSIGNALED(status)) {
        out.error = std::string("crashed: ") + ::strsignal(WTERMSIG(status));
    } else if (text.rfind("error ", 0) == 0) {
        out.error = "exception: " + text.substr(6, text.find('\n') - 6);
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        out.error = "exit code " + std::to_string(WEXITSTATUS(status));
    } else if (text.rfind("ok\n", 0) != 0) {
        out.error = "no result from worker";
    } else {
        out.ok = true;
        out.record = Record::parse(text.substr(3));
    }
    return out;
}

} // namespace perfbench
