/**
 * @file
 * Exports of the time-series store.
 *
 * Three renderings:
 *  - JSON: one object per series, samples as arrays of rows, plus the
 *    store's interval/ring accounting — the `--timeseries-out x.json`
 *    format;
 *  - CSV: one flat table (series,start,end,signal columns), the
 *    `--timeseries-out x.csv` format, trivially plottable;
 *  - Perfetto counter events ("ph":"C"): a comma-separated fragment
 *    for trace::exportPerfettoJson's extra_events hook, so the
 *    existing --trace-out file gains per-tier counter tracks next to
 *    the span timeline.
 *
 * All output is byte-stable: series in sorted name order, samples in
 * time order, fixed decimal formatting.
 */

#ifndef UQSIM_OBS_EXPORT_HH
#define UQSIM_OBS_EXPORT_HH

#include <ostream>
#include <string>

#include "obs/slo.hh"
#include "obs/timeseries.hh"

namespace uqsim::obs {

/** Render @p store as a JSON document. */
void writeTimeSeriesJson(const TimeSeriesStore &store, std::ostream &os);

/** Convenience wrapper returning a string. */
std::string toTimeSeriesJson(const TimeSeriesStore &store);

/** Render @p store as one CSV table (header + one row per sample). */
void writeTimeSeriesCsv(const TimeSeriesStore &store, std::ostream &os);

/** Convenience wrapper returning a string. */
std::string toTimeSeriesCsv(const TimeSeriesStore &store);

/**
 * Render @p store as Chrome trace_event counter events: for every
 * series, per sample, one "latency_ns" event (p50/p95/p99), one
 * "load" event (queue depth / in-flight / occupancy) and one "rate" event
 * (rps / error rate / utilization), all on a dedicated pid-0
 * "observability" process. The result is a comma-separated fragment
 * of complete JSON objects (no leading/trailing comma) for
 * trace::exportPerfettoJson(..., extra_events). Empty when the store
 * holds no samples.
 */
std::string perfettoCounterEvents(const TimeSeriesStore &store);

} // namespace uqsim::obs

#endif // UQSIM_OBS_EXPORT_HH
