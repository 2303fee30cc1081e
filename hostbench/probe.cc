#include "probe.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#ifndef HOSTBENCH_COMPILER
#define HOSTBENCH_COMPILER "unknown"
#endif
#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Relaxed atomics: partitioned runs allocate from several engine
// threads, and the totals are read only after those threads joined.
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_calls.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(size, std::memory_order_relaxed);
    }
    return std::malloc(size == 0 ? 1 : size);
}

} // namespace

// The binary's counting allocator. The aligned forms are left to the
// library: they pair with their own deletes and the simulator does not
// use over-aligned types on the request path.
void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace hostbench {

void
setAllocCounting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts
allocCounts()
{
    return {g_calls.load(std::memory_order_relaxed),
            g_bytes.load(std::memory_order_relaxed)};
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

SpanLog::Scope::Scope(SpanLog *log, std::string name, std::string cat)
    : log_(log != nullptr && log->enabled() ? log : nullptr),
      name_(std::move(name)), cat_(std::move(cat))
{
    if (log_ != nullptr)
        start_ = wallSeconds();
}

SpanLog::Scope::~Scope()
{
    if (log_ != nullptr)
        log_->add(std::move(name_), std::move(cat_), start_, wallSeconds());
}

void
SpanLog::add(std::string name, std::string cat, double start, double end)
{
    if (enabled_)
        spans_.push_back({std::move(name), std::move(cat), start, end});
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span &s : spans_) {
        os << (first ? "\n" : ",\n") << "{\"name\":" << quoted(s.name)
           << ",\"cat\":" << quoted(s.cat)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << num((s.start - origin_) * 1e6)
           << ",\"dur\":" << num((s.end - s.start) * 1e6) << "}";
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

std::string
HostManifest::json() const
{
    std::ostringstream os;
    os << "{\"nproc\":" << nproc << ",\"cpu_model\":" << quoted(cpuModel)
       << ",\"compiler\":" << quoted(compiler)
       << ",\"build_type\":" << quoted(buildType)
       << ",\"git_sha\":" << quoted(gitSha)
       << ",\"source_hash\":" << quoted(sourceHash) << "}";
    return os.str();
}

HostManifest
hostManifest(const std::string &git_sha, const std::string &source_hash)
{
    HostManifest m;
    m.nproc = std::thread::hardware_concurrency();
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                m.cpuModel = line.substr(
                    line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    if (m.cpuModel.empty())
        m.cpuModel = "unknown";
    m.compiler = HOSTBENCH_COMPILER;
    m.buildType = HOSTBENCH_BUILD_TYPE;
    m.gitSha = git_sha.empty() ? "unknown" : git_sha;
    m.sourceHash = source_hash.empty() ? "unknown" : source_hash;
    return m;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t rank =
        std::clamp<std::size_t>(static_cast<std::size_t>(pos), 1, v.size());
    return v[rank - 1];
}

std::string
num(double x)
{
    if (!std::isfinite(x))
        x = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), x);
    return std::string(buf, res.ptr);
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace hostbench
