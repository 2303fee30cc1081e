#include "isolate.hh"

#include <cerrno>
#include <cstdio>
#include <iostream>
#include <sstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/types.hh"

using namespace uqsim;

namespace hostbench {

namespace {

/** Child side: do the run and encode everything as text lines. */
std::string
childRun(const Workload &w, const Seeds &seeds, Variant variant,
         bool probed, bool with_spans)
{
    SpanLog spans(with_spans);
    std::ostringstream out;
    if (probed)
        variant.depthSampleEvery = kTicksPerMs;
    auto b = setUp(w, seeds, variant, &spans);
    out << "setup " << num(b->setup.parse) << " " << num(b->setup.build)
        << " " << num(b->setup.enable) << "\n";

    std::map<std::string, double> counts;
    if (probed)
        setAllocCounting(true);
    const RunResult r = runBuilt(*b, &spans, [&] {
        if (probed)
            counts = layerCounts(*b->world);
    });
    setAllocCounting(false);
    if (probed) {
        std::vector<double> depth;
        for (const auto &d : b->depth)
            depth.insert(depth.end(), d.begin(), d.end());
        counts["depth_p50"] = quantile(depth, 0.5);
        counts["depth_p99"] = quantile(depth, 0.99);
        counts["alloc_calls"] = static_cast<double>(r.allocs.calls);
        counts["alloc_bytes"] = static_cast<double>(r.allocs.bytes);
    }

    const SimStats &s = r.sim;
    out << "run " << num(r.wallS) << " " << num(r.cpuS) << " "
        << r.allocs.calls << " " << r.allocs.bytes << " "
        << r.inFlightAtStop << "\n"
        << "sim " << s.digest << " " << s.events << " " << s.injected << " "
        << s.completed << " " << s.failed << " " << s.dropped << " "
        << s.p50 << " " << s.p99 << "\n";
    for (const auto &[name, v] : counts)
        out << "count " << name << " " << num(v) << "\n";
    for (const auto &sp : spans.spans())
        out << "span " << num(sp.start) << " " << num(sp.end) << " "
            << sp.cat << " " << sp.name << "\n";
    if (!r.accountingError.empty())
        out << "accounting " << r.accountingError << "\n";
    return out.str();
}

/** Parent side: decode the child's lines into @p rep. */
bool
decode(const std::string &text, Report &rep, SpanLog *spans)
{
    std::istringstream in(text);
    bool have_run = false, have_sim = false;
    for (std::string line; std::getline(in, line);) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "setup") {
            SetupTimes &t = rep.setup;
            ls >> t.parse >> t.build >> t.enable;
        } else if (tag == "run") {
            RunResult &r = rep.run;
            have_run = static_cast<bool>(ls >> r.wallS >> r.cpuS >>
                                         r.allocs.calls >> r.allocs.bytes >>
                                         r.inFlightAtStop);
        } else if (tag == "sim") {
            SimStats &s = rep.run.sim;
            have_sim = static_cast<bool>(ls >> s.digest >> s.events >>
                                         s.injected >> s.completed >>
                                         s.failed >> s.dropped >> s.p50 >>
                                         s.p99);
        } else if (tag == "count") {
            std::string name;
            double v = 0.0;
            ls >> name >> v;
            rep.counts[name] = v;
        } else if (tag == "span") {
            double start = 0.0, end = 0.0;
            std::string cat, name;
            ls >> start >> end >> cat;
            std::getline(ls >> std::ws, name);
            if (spans != nullptr)
                spans->add(name, cat, start, end);
        } else if (tag == "accounting") {
            std::getline(ls >> std::ws, rep.run.accountingError);
        }
    }
    return have_run && have_sim;
}

} // namespace

Report
isolatedRun(const Workload &w, const Seeds &seeds, const Variant &variant,
            bool probed, SpanLog *spans)
{
    Report rep;
    int fds[2];
    if (pipe(fds) != 0) {
        rep.error = "pipe failed";
        return rep;
    }
    std::cout.flush();
    std::cerr.flush();
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        rep.error = "fork failed";
        return rep;
    }
    if (pid == 0) {
        close(fds[0]);
        const std::string text = childRun(w, seeds, variant, probed,
                                          spans != nullptr && spans->enabled());
        std::size_t off = 0;
        while (off < text.size()) {
            const ssize_t n = write(fds[1], text.data() + off,
                                    text.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                _exit(3);
            off += static_cast<std::size_t>(n);
        }
        close(fds[1]);
        _exit(0); // skip atexit handlers and stdio: the parent owns them
    }

    close(fds[1]);
    std::string text;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);

    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    rep.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (WIFSIGNALED(status))
        rep.error = "run killed by signal " + std::to_string(WTERMSIG(status));
    else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        rep.error = "run exited with status " +
                    std::to_string(WEXITSTATUS(status));
    else if (!decode(text, rep, spans))
        rep.error = "run reported no result";
    return rep;
}

} // namespace hostbench
