/**
 * @file
 * Host-side probes of the benchmark: heap-allocation counting, host
 * spans written as Chrome/Perfetto trace-event JSON, host clocks and
 * the host manifest every result is stamped with.
 *
 * Everything here observes the simulator from outside: nothing in
 * src/ knows about it, and every probe is off unless the traced run
 * turns it on.
 */

#ifndef UQSIM_HOSTBENCH_PROBE_HH
#define UQSIM_HOSTBENCH_PROBE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

// -- allocation counting --------------------------------------------

/** Heap allocations seen by the binary's counting operator new. */
struct AllocCounts
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

/** Turn counting on or off (off by default; all threads). */
void setAllocCounting(bool on);

/** Totals since the process started (counted while on only). */
AllocCounts allocCounts();

// -- clocks and process usage ----------------------------------------

/** Monotonic wall time in seconds. */
double wallSeconds();

/** CPU time of the whole process (all threads) in seconds. */
double processCpuSeconds();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

// -- host spans ------------------------------------------------------

/**
 * Host spans from the benchmark's own code around each call into a
 * layer, kept in memory and written once as trace-event JSON. A
 * disabled log records nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Times one span from construction to destruction. */
    class Scope
    {
      public:
        Scope(SpanLog *log, std::string name, std::string cat);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        std::string name_;
        std::string cat_;
        double start_ = 0.0;
    };

    /** Record one finished span (seconds on the wallSeconds clock). */
    void add(std::string name, std::string cat, double start, double end);

    /** Number of spans recorded. */
    std::size_t size() const { return spans_.size(); }

    /** Write {"traceEvents":[...]}; @return false on I/O failure. */
    bool write(const std::string &path) const;

    struct Span
    {
        std::string name;
        std::string cat;
        double start = 0.0;
        double end = 0.0;
    };

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    double origin_ = wallSeconds();
    std::vector<Span> spans_;
};

// -- host manifest ----------------------------------------------------

/** The host and build a result was measured on. */
struct HostManifest
{
    unsigned nproc = 0;
    std::string cpuModel;
    std::string compiler;
    std::string buildType;
    std::string gitSha;
    std::string sourceHash;

    /** One-line JSON object. */
    std::string json() const;
};

/** Describe this host and binary; sha/hash come from the caller. */
HostManifest hostManifest(const std::string &git_sha,
                          const std::string &source_hash);

// -- small statistics and formatting --------------------------------

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Quantile @p q in [0,1] of @p v by nearest rank (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Shortest round-trip text of @p x (JSON-safe; non-finite -> 0). */
std::string num(double x);

/** 64-bit value as 16 lowercase hex digits. */
std::string hex64(std::uint64_t v);

/** Quote @p s as a JSON string. */
std::string quoted(const std::string &s);

} // namespace hostbench

#endif // UQSIM_HOSTBENCH_PROBE_HH
