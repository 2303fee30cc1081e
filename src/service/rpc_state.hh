/**
 * @file
 * The per-RPC state of the App runtime: one call, its attempts, and
 * the handler context that serves an attempt at the callee.
 *
 * Attempts and handler contexts are pooled per App (core/pool.hh) and
 * reached through 8-byte handles, AttemptRef and HandlerRef. Every
 * request-path closure captures `this` plus one handle and finds the
 * rest of its state here, so each fits a Callback's inline buffer and
 * a hop allocates nothing. Handles are shard-local: the cross-shard
 * leg of a partitioned world carries the ids in RemoteCall instead.
 */

#ifndef UQSIM_SERVICE_RPC_STATE_HH
#define UQSIM_SERVICE_RPC_STATE_HH

#include <cstdint>

#include "core/callback.hh"
#include "core/event_queue.hh"
#include "core/pool.hh"
#include "core/types.hh"
#include "data/config.hh"
#include "rpc/connection_pool.hh"
#include "service/request.hh"
#include "trace/span.hh"

namespace uqsim::rpc {
class CircuitBreaker;
}

namespace uqsim::service {

class Instance;
class Microservice;
struct Edge;

/** Outcome of one RPC (alias of the span status vocabulary). */
using RpcStatus = trace::SpanStatus;

/** Completion callback of one RPC as seen by the caller. */
using RpcDone = Callback<void(RpcStatus status, Tick wall,
                              Tick caller_net)>;

/** Payload and on-the-wire sizes of one RPC's request and reply. */
struct RpcBytes
{
    Bytes reqPayload = 0;
    Bytes respPayload = 0;
    Bytes reqWire = 0;
    Bytes respWire = 0;
};

/**
 * One RPC as its caller issued it: who calls which tier for which
 * request, with what payloads. Every attempt of the call copies it.
 */
struct RpcCall
{
    unsigned callerServer = 0;
    /** Calling instance; null for the end-user client. */
    Instance *callerInst = nullptr;
    Microservice *target = nullptr;
    /** The caller's edge to the target (pool and breaker). */
    Edge *edge = nullptr;
    RequestPtr req;
    trace::SpanId parentSpan = 0;
    /** Payload overrides (0 = the target's defaults). */
    Bytes reqBytes = 0;
    Bytes respBytes = 0;
    bool carriesMedia = false;
    /** Keyed mode: address the key's shard, not userId/round robin. */
    data::RouteHint route;
};

struct AttemptState;
struct HandlerCtx;

/** Counted handle to a pooled attempt. */
using AttemptRef = PoolRef<AttemptState>;

/** Counted handle to a pooled handler context. */
using HandlerRef = PoolRef<HandlerCtx>;

/**
 * One attempt of an RPC. Settling (success, timeout, crash, refusal)
 * happens exactly once through App::settleAttempt; `settled` tells
 * zombie continuations — late replies, deliveries of abandoned
 * requests — that they lost the race and must quietly stop.
 */
struct AttemptState
{
    /** No cross-shard reply slot held. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    /** The call this attempts, and its sizes on the wire. */
    RpcCall call;
    RpcBytes bytes;
    unsigned attemptNo = 1;
    bool settled = false;
    /** The call runs the resilience loop (retry on failure). */
    bool resilient = false;
    /** The timeout is the request deadline, not the policy's. */
    bool deadlineBound = false;
    rpc::CircuitBreaker *breaker = nullptr;
    rpc::ConnectionPool *pool = nullptr;
    rpc::ConnectionPool::Ticket ticket =
        rpc::ConnectionPool::kGrantedImmediately;
    bool poolAcquired = false;
    bool poolReleased = false;
    EventHandle timeoutEv;
    EventHandle acquireEv;
    /** Serving instance once routed (local hops). */
    Instance *target = nullptr;
    /** On the target's crash registry. */
    bool registered = false;
    Tick tStart = 0;
    Tick callerNet = 0;
    /** What the reply carries back, kept for the receive leg. */
    RpcStatus replyStatus = RpcStatus::Ok;
    std::uint8_t remoteHit = 0;
    /** App::awaiting_ slot held while a cross-shard reply is due. */
    std::uint32_t awaitSlot = kNoSlot;
    RpcDone done;

    AttemptState() = default;
    AttemptState(const AttemptState &) = delete;
    AttemptState &operator=(const AttemptState &) = delete;

    /** The calling tier (null for the end-user client). */
    Microservice *callerSvc() const;

    /** Leave the target's crash registry (a no-op unless on it). */
    void unregister();

    // An attempt can die without settling (e.g. its message was
    // dropped by a partition and no timeout was set); keep the crash
    // registry free of dangling pointers regardless.
    ~AttemptState() { unregister(); }
};

/**
 * One hop at the callee: the request landed at an instance, waits in
 * its queue, runs the handler program and replies. Created when the
 * request lands; the handler span opens when a worker thread takes it.
 * Stage continuations share it, so per-stage state (the parallel
 * join, the cache outcome) lives here too.
 */
struct HandlerCtx
{
    Instance *inst = nullptr;
    RequestPtr req;
    /**
     * Local hop: the caller's attempt. Once it settled, the hop is
     * abandoned. Null on a cross-shard hop.
     */
    AttemptRef caller;
    trace::SpanId parentSpan = 0;
    unsigned attemptNo = 1;
    RpcBytes bytes;

    /** Cross-shard hop: where the reply delta goes (RemoteCall ids). */
    bool remote = false;
    unsigned replyShard = 0;
    std::uint32_t replySlot = 0;
    std::uint64_t replyTag = 0;
    /** The keyed store outcome the remote hop ships back. */
    std::uint8_t remoteHit = 0;

    /** Arrival: when it was queued and its receive-leg busy time. */
    Tick enqueued = 0;
    Tick preNetworkTime = 0;

    /** A worker took it: the span is open and closes on reply. */
    bool spanOpen = false;
    /** The instance's crash generation when the handler started. */
    std::uint64_t epoch = 0;
    trace::Span span;
    /** Status the reply carries back. */
    RpcStatus replyStatus = RpcStatus::Ok;

    /** Handler stage being interpreted. */
    std::size_t stage = 0;
    /** Parallel fanout: branches left, summed caller network, start. */
    unsigned joinRemaining = 0;
    Tick joinNet = 0;
    Tick joinStart = 0;
    /** Cache stage: the lookup outcome and the key route. */
    bool cacheHit = false;
    bool cacheRemote = false;
    Tick quorumDelay = 0;
    data::RouteHint route;

    /** The caller gave up on this hop. */
    bool abandoned() const { return caller && caller->settled; }
};

} // namespace uqsim::service

#endif // UQSIM_SERVICE_RPC_STATE_HH
