/**
 * @file
 * Micro-benchmarks: host nanoseconds per call of each request-path
 * layer's public functions, with operands shaped like the workload's.
 * Each times several batches and reports the median batch; each also
 * reports how many engine events one call costs, so the attribution
 * table can take those events out of the event-queue row.
 */

#ifndef UQSIM_HOSTBENCH_LAYERS_HH
#define UQSIM_HOSTBENCH_LAYERS_HH

#include <cstddef>

#include "workload.hh"

namespace hostbench {

/** Host cost of one call into a layer. */
struct CallCost
{
    double ns = 0.0;             ///< host ns per call (median batch)
    double eventsPerCall = 0.0;  ///< engine events one call executes
    double allocsPerCall = 0.0;  ///< heap allocations one call makes
};

/**
 * EventQueue schedule + popNext + dispatch of a trivial callback with
 * @p depth events pending and delays of mean @p mean_delay ticks.
 */
CallCost queueChurn(std::size_t depth, uqsim::Tick mean_delay);

/**
 * One timer scheduled @p timeout ahead and cancelled (the per-attempt
 * RPC timeout pattern), at @p depth: the cost beyond plain churn.
 */
CallCost queueCancel(std::size_t depth, uqsim::Tick mean_delay,
                     uqsim::Tick timeout);

/** Network::send of a @p bytes payload plus its delivery event. */
CallCost networkSend(double bytes);

/** ConnectionPool::acquire granted at once, then release(). */
CallCost poolAcquire();

/** Server::execute of one handler-sized task and its completion. */
CallCost serverExecute();

/** TraceStore::insert into a ring of @p capacity spans, half full. */
CallCost traceInsert(std::size_t capacity);

/** CacheModel::access: 8192-entry LRU over 200k Zipf(1.0) keys. */
CallCost cacheAccess();

/** One heap allocation and its free, request-path sizes. */
CallCost allocPair();

/**
 * App::inject + run of one request on an idle, one-shard copy of the
 * workload's world (features enabled, no telemetry).
 */
CallCost serviceRequest(const Workload &w, const Seeds &seeds);

} // namespace hostbench

#endif // UQSIM_HOSTBENCH_LAYERS_HH
