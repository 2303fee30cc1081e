#include "obs/export.hh"

#include <cstdio>
#include <sstream>

#include "core/types.hh"

namespace uqsim::obs {

namespace {

/** Compact, locale-independent float rendering. */
std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

void
emitSampleJson(std::ostream &os, const IntervalSample &s)
{
    os << "{\"start\":" << s.start << ",\"end\":" << s.end
       << ",\"count\":" << s.count << ",\"errors\":" << s.errors
       << ",\"admission_rejects\":" << s.admissionRejects
       << ",\"cache_lookups\":" << s.cacheLookups
       << ",\"stale_reads\":" << s.staleReads
       << ",\"quorum_lost\":" << s.quorumLost
       << ",\"txn_aborts\":" << s.txnAborts
       << ",\"rps\":" << fmt(s.rps)
       << ",\"error_rate\":" << fmt(s.errorRate)
       << ",\"queue_depth\":" << fmt(s.queueDepth)
       << ",\"in_flight\":" << fmt(s.inFlight)
       << ",\"occupancy\":" << fmt(s.occupancy)
       << ",\"utilization\":" << fmt(s.utilization)
       << ",\"hit_ratio\":" << fmt(s.hitRatio)
       << ",\"replica_lag_ns\":" << fmt(s.replicaLagNs)
       << ",\"mean_latency_ns\":" << fmt(s.meanLatencyNs)
       << ",\"p50\":" << s.p50 << ",\"p95\":" << s.p95
       << ",\"p99\":" << s.p99 << "}";
}

} // namespace

void
writeTimeSeriesJson(const TimeSeriesStore &store, std::ostream &os)
{
    os << "{\"interval_ns\":" << store.interval()
       << ",\"ring_capacity\":" << store.capacity()
       << ",\"intervals_sampled\":" << store.intervalsSampled()
       << ",\"series\":{";
    bool first_series = true;
    for (const std::string &name : store.names()) {
        const Series *s = store.find(name);
        if (!first_series)
            os << ",";
        first_series = false;
        os << "\n \"" << name << "\":{\"total\":" << s->total()
           << ",\"evicted\":" << s->evicted() << ",\"samples\":[";
        for (std::size_t i = 0; i < s->size(); ++i) {
            if (i)
                os << ",";
            os << "\n  ";
            emitSampleJson(os, s->at(i));
        }
        os << "]}";
    }
    os << "}}\n";
}

std::string
toTimeSeriesJson(const TimeSeriesStore &store)
{
    std::ostringstream oss;
    writeTimeSeriesJson(store, oss);
    return oss.str();
}

void
writeTimeSeriesCsv(const TimeSeriesStore &store, std::ostream &os)
{
    os << "series,start_ns,end_ns,count,errors,admission_rejects,"
          "cache_lookups,stale_reads,quorum_lost,txn_aborts,rps,"
          "error_rate,queue_depth,in_flight,occupancy,utilization,"
          "hit_ratio,replica_lag_ns,mean_latency_ns,p50_ns,p95_ns,"
          "p99_ns\n";
    for (const std::string &name : store.names()) {
        const Series *s = store.find(name);
        for (std::size_t i = 0; i < s->size(); ++i) {
            const IntervalSample &row = s->at(i);
            os << name << "," << row.start << "," << row.end << ","
               << row.count << "," << row.errors << ","
               << row.admissionRejects << "," << row.cacheLookups
               << "," << row.staleReads << "," << row.quorumLost
               << "," << row.txnAborts << "," << fmt(row.rps) << ","
               << fmt(row.errorRate) << "," << fmt(row.queueDepth)
               << "," << fmt(row.inFlight) << ","
               << fmt(row.occupancy) << "," << fmt(row.utilization)
               << "," << fmt(row.hitRatio) << ","
               << fmt(row.replicaLagNs) << ","
               << fmt(row.meanLatencyNs) << "," << row.p50 << ","
               << row.p95 << "," << row.p99 << "\n";
        }
    }
}

std::string
toTimeSeriesCsv(const TimeSeriesStore &store)
{
    std::ostringstream oss;
    writeTimeSeriesCsv(store, oss);
    return oss.str();
}

std::string
perfettoCounterEvents(const TimeSeriesStore &store)
{
    std::ostringstream os;
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n ";
        first = false;
    };
    // Counter tracks live on their own "process" so they group
    // together under one named row instead of scattering across the
    // per-trace processes the span events use.
    bool any = false;
    for (const std::string &name : store.names())
        if (store.find(name)->size() > 0)
            any = true;
    if (!any)
        return "";
    sep();
    os << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"observability\"}}";
    for (const std::string &name : store.names()) {
        const Series *s = store.find(name);
        for (std::size_t i = 0; i < s->size(); ++i) {
            const IntervalSample &row = s->at(i);
            const double ts = ticksToUs(row.end);
            sep();
            os << "{\"ph\":\"C\",\"pid\":0,\"name\":\"" << name
               << "/latency_ns\",\"ts\":" << fmt(ts)
               << ",\"args\":{\"p50\":" << row.p50
               << ",\"p95\":" << row.p95 << ",\"p99\":" << row.p99
               << "}}";
            sep();
            os << "{\"ph\":\"C\",\"pid\":0,\"name\":\"" << name
               << "/load\",\"ts\":" << fmt(ts)
               << ",\"args\":{\"queue_depth\":" << fmt(row.queueDepth)
               << ",\"in_flight\":" << fmt(row.inFlight)
               << ",\"occupancy\":" << fmt(row.occupancy) << "}}";
            sep();
            os << "{\"ph\":\"C\",\"pid\":0,\"name\":\"" << name
               << "/rate\",\"ts\":" << fmt(ts)
               << ",\"args\":{\"rps\":" << fmt(row.rps)
               << ",\"error_rate\":" << fmt(row.errorRate)
               << ",\"utilization\":" << fmt(row.utilization) << "}}";
        }
    }
    return os.str();
}

} // namespace uqsim::obs
