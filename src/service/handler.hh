/**
 * @file
 * Handler programs: what a microservice does per request.
 *
 * Each microservice's behaviour is a small stage program interpreted
 * by the App runtime: local compute, synchronous downstream calls
 * (sequential or parallel fan-out), and cache-with-database-fallback
 * accesses. This is the reconfigurability hook of the suite: swapping
 * a microservice for an alternate version means swapping its handler
 * and profile, nothing else.
 */

#ifndef UQSIM_SERVICE_HANDLER_HH
#define UQSIM_SERVICE_HANDLER_HH

#include <string>
#include <vector>

#include "core/distributions.hh"
#include "core/types.hh"

namespace uqsim::service {

class Microservice;

/**
 * One step of a handler program.
 */
struct Stage
{
    enum class Kind
    {
        Compute,  ///< burn CPU cycles (plus profile-driven I/O wait)
        Call,     ///< synchronous downstream RPC(s)
        Cache,    ///< cache RPC, database RPC on miss
        Delay,    ///< pure latency without CPU (external waits, dispatch)
    };

    Kind kind = Kind::Compute;

    // -- Compute --------------------------------------------------------
    /** Work in core cycles (sampled per request). */
    Dist computeCycles;

    // -- Delay ----------------------------------------------------------
    /** Wall-clock delay in nanoseconds (sampled per request). */
    Dist delayNs;

    /** Attribute the delay to network processing instead of compute. */
    bool delayIsNetwork = false;

    // -- Call / Cache ----------------------------------------------------
    /** Callee service name (the cache tier for Kind::Cache). */
    std::string target;

    /** Database tier called on a cache miss (Kind::Cache only). */
    std::string dbTarget;

    /** Cache hit probability (Kind::Cache only, legacy mode). */
    double hitRatio = 0.95;

    /**
     * Keyed mode (Kind::Cache only): sample a key from the app's
     * Keyspace and let hit/miss *emerge* from the target tier's
     * CacheModel state instead of the hitRatio coin flip. Flipped by
     * App::enableKeyedData(); while false (the default) the legacy
     * path runs bit-for-bit unchanged.
     */
    bool keyed = false;

    /** Number of calls issued by this stage (Kind::Call). */
    unsigned fanout = 1;

    /** Issue the fan-out concurrently instead of back-to-back. */
    bool parallel = false;

    /** Request/response payload bytes (0 = use callee defaults). */
    Bytes requestBytes = 0;
    Bytes responseBytes = 0;

    /**
     * Whether this call forwards the query's media payload
     * (QueryType::extraPayloadBytes). Media travels only on the path
     * that actually stores/serves it, not on every RPC of the fanout.
     */
    bool carriesMedia = false;

    /** Execute the stage only with this probability. */
    double probability = 1.0;

    /** If non-empty, run only for query types carrying this tag. */
    std::string onlyForTag;

    // -- Resolved by App::validate() --------------------------------------
    /** The target and dbTarget tiers (db null without a dbTarget). */
    Microservice *callee = nullptr;
    Microservice *db = nullptr;

    /** Their slots in the caller's callees() and instance edges. */
    unsigned calleeSlot = 0;
    unsigned dbSlot = 0;
};

/**
 * An ordered stage program with a fluent builder interface.
 */
struct HandlerSpec
{
    std::vector<Stage> stages;

    /** Append a compute stage. */
    HandlerSpec &compute(Dist cycles);

    /** Append a compute stage gated on a query tag. */
    HandlerSpec &computeTagged(const std::string &tag, Dist cycles);

    /** Append a sequential call stage. */
    HandlerSpec &call(const std::string &target, unsigned fanout = 1);

    /** Append a sequential call stage that forwards media payloads. */
    HandlerSpec &callWithMedia(const std::string &target);

    /** Append a tag-gated call stage that forwards media payloads. */
    HandlerSpec &callTaggedWithMedia(const std::string &tag,
                                     const std::string &target);

    /** Append a probabilistic sequential call stage. */
    HandlerSpec &callWithProbability(const std::string &target, double p);

    /** Append a call stage gated on a query tag. */
    HandlerSpec &callTagged(const std::string &tag,
                            const std::string &target,
                            unsigned fanout = 1);

    /** Append a parallel fan-out call stage. */
    HandlerSpec &parallelCall(const std::string &target, unsigned fanout);

    /** Append a cache-then-database access stage. */
    HandlerSpec &cache(const std::string &cache_tier,
                       const std::string &db_tier, double hit_ratio);

    /** Append a pure wall-clock delay (no CPU consumed). */
    HandlerSpec &delay(Dist delay_ns, bool is_network = false);

    /** Append a fully custom stage. */
    HandlerSpec &add(Stage stage);

    /** All downstream service names referenced by this handler. */
    std::vector<std::string> callTargets() const;
};

} // namespace uqsim::service

#endif // UQSIM_SERVICE_HANDLER_HH
