/**
 * @file
 * The end-to-end application runtime.
 *
 * An App owns a service graph (Microservice tiers), wires it to the
 * compute (cpu::Cluster) and network (net::Network) substrates, and
 * interprets handler programs per request: every RPC hop charges
 * serialization and kernel TCP cycles to the right server, traverses
 * the fabric, queues for worker threads, and records a tracing span.
 * End-to-end requests enter through inject() from a client server.
 *
 * This is the "core" of the reproduction: all end-to-end services in
 * src/apps are built as configurations of this runtime.
 */

#ifndef UQSIM_SERVICE_APP_HH
#define UQSIM_SERVICE_APP_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/callback.hh"
#include "core/histogram.hh"
#include "core/metrics.hh"
#include "core/pool.hh"
#include "core/rng.hh"
#include "core/sim_context.hh"
#include "core/types.hh"
#include "cpu/server.hh"
#include "data/config.hh"
#include "net/network.hh"
#include "replica/replication.hh"
#include "rpc/connection_pool.hh"
#include "rpc/protocol.hh"
#include "rpc/resilience.hh"
#include "service/microservice.hh"
#include "service/request.hh"
#include "service/rpc_state.hh"
#include "trace/analysis.hh"
#include "trace/collector.hh"

namespace uqsim::service {

/** Completion callback for end-to-end requests. */
using CompletionFn = Callback<void(const Request &)>;

/**
 * Interface the fault-injection engine implements to fail individual
 * request deliveries (transient per-request error rates). The hook is
 * consulted once per arrival at an instance; a true return converts
 * the delivery into an error response on the wire.
 */
class RequestFaultHook
{
  public:
    virtual ~RequestFaultHook() = default;

    /** @return true to fail this arrival at @p svc. */
    virtual bool shouldFailRequest(const Microservice &svc) = 0;
};

/**
 * Interface the observability layer (src/obs) implements to receive
 * per-request signals without the service layer depending on it.
 * Mirrors RequestFaultHook: while no tap is installed — the default —
 * the runtime never consults it, so the hot path carries exactly one
 * null check per site and the execution digest is untouched (the tap
 * itself must never schedule events or mutate model state).
 */
class ObsTap
{
  public:
    virtual ~ObsTap() = default;

    /** A request was served at @p svc in @p latency ns (server side). */
    virtual void onTierLatency(const Microservice &svc, Tick latency) = 0;

    /**
     * An end-to-end request finished after @p latency ns; @p ok is
     * false for failed or dropped requests.
     */
    virtual void onEndToEnd(Tick latency, bool ok) = 0;

    /** Admission control refused an arrival at @p svc (any verdict). */
    virtual void onAdmissionReject(const Microservice &svc) = 0;
};

/**
 * One RPC marshalled across shards of a partitioned world: a caller
 * shard invoking a tier homed elsewhere. Plain values only — the two
 * shards share no object graph, so the call carries the request's
 * identity, payload sizes and the key route, never pointers or
 * counted handles. Every shard builds the identical service graph, so
 * `tier` (the target's insertion-order index) resolves to the same
 * tier everywhere. The reply goes back to (`srcShard`, `replySlot`)
 * and is dropped there unless `replyTag` still names the slot's
 * attempt: a late reply to a settled attempt finds it gone.
 */
struct RemoteCall
{
    unsigned srcShard = 0;
    std::uint32_t replySlot = 0;
    std::uint64_t replyTag = 0;
    unsigned tier = 0;
    std::uint64_t requestId = 0;
    unsigned queryType = 0;
    std::uint64_t userId = 0;
    Tick deadline = 0;
    std::uint64_t dataKey = 0;
    trace::TraceId traceId = 0;
    trace::SpanId parentSpan = 0;
    unsigned attemptNo = 1;
    RpcBytes bytes;
    bool routeByKey = false;
    bool routeIsWrite = false;
    bool routeStoreAccess = false;
};

/**
 * What the home shard hands back for one RemoteCall: the request
 * accounting accumulated during remote handling (merged into the
 * caller's shared Request on arrival), the NIC queueing of the reply
 * leg, and the RPC outcome.
 */
struct RemoteDelta
{
    Tick networkTime = 0;
    Tick tcpProcTime = 0;
    Tick wireTime = 0;
    Tick appTime = 0;
    Tick queueTime = 0;
    Tick replyQueueing = 0;
    std::uint32_t retries = 0;
    std::uint8_t remoteHit = 0;
    bool dropped = false;
    RpcStatus status = RpcStatus::Ok;
};

/**
 * End-to-end application: graph + runtime.
 */
class App
{
  public:
    /** Runtime-wide configuration. */
    struct Config
    {
        /** Application name for reporting. */
        std::string name = "app";

        /** Kernel TCP processing cost model. */
        net::TcpCostModel tcp = net::TcpCostModel::native();

        /** FPGA RPC offload (Fig 16); off by default. */
        net::FpgaOffloadModel fpga = net::FpgaOffloadModel::off();

        /** End-to-end tail-latency QoS target. */
        Tick qosLatency = 100 * kTicksPerMs;

        /** Collect distributed traces. */
        bool tracing = true;

        /**
         * Trace sampling: keep one in n traces (1 = keep all). The
         * decision is trace-coherent — a kept trace keeps every span.
         */
        std::uint64_t traceSampleEvery = 1;

        /** Ring capacity of the span store (spans). */
        std::size_t traceCapacity = trace::TraceStore::kDefaultCapacity;

        /** Client-to-frontend payloads. */
        Bytes clientRequestBytes = 1024;
        Bytes clientResponseBytes = 4096;

        /**
         * End-to-end request deadline assigned at injection (0 = none).
         * Propagated down the call chain: attempts cap their timeout to
         * the remaining budget and tiers refuse arrivals past it.
         */
        Tick requestDeadline = 0;
    };

    App(SimContext ctx, cpu::Cluster &cluster, net::Network &network,
        Config config, std::uint64_t seed);

    /** Detaches attempts that outlive the app inside pending events. */
    ~App();

    App(const App &) = delete;
    App &operator=(const App &) = delete;

    // -- Graph construction ---------------------------------------------

    /** Add a tier; name must be unique. */
    Microservice &addService(ServiceDef def);

    /** @return true if a tier with this name exists. */
    bool hasService(const std::string &name) const;

    /** Tier by name (fatal if missing). */
    Microservice &service(const std::string &name);
    const Microservice &service(const std::string &name) const;

    /** Tiers in insertion order. */
    const std::vector<Microservice *> &services() const
    {
        return serviceOrder_;
    }

    /** Set the entry tier user requests hit first. */
    void setEntry(const std::string &name);

    /** Name of the entry tier (empty while unset). */
    const std::string &entry() const;

    /** Register a query type; returns its index. */
    unsigned addQueryType(QueryType qt);
    const std::vector<QueryType> &queryTypes() const { return queryTypes_; }

    /** The server end-user requests originate from. */
    void setClientServer(cpu::Server &server);

    /**
     * Check the graph (entry set, every call target exists, every
     * service has an instance, none calls itself; fatal otherwise),
     * resolve every stage's tiers and edge slots, and register the
     * default query type if none exists. Required before inject() and
     * after any later edit to the graph or a stage target; never while
     * requests are in flight, which hold stages and edges by address.
     */
    void validate();

    /** Graphviz DOT rendering of the dependency graph (Figs 4-8). */
    std::string exportDot() const;

    // -- Request injection ------------------------------------------------

    /**
     * Inject one end-to-end request of @p query_type for @p user_id.
     * @p done (optional) fires on completion with the full accounting.
     * Fatal unless the graph has been validated since it last changed.
     */
    void inject(unsigned query_type, std::uint64_t user_id,
                CompletionFn done = {});

    // -- Configuration knobs ----------------------------------------------

    const Config &config() const { return config_; }

    /** Toggle the FPGA offload for subsequent messages. */
    void setFpga(const net::FpgaOffloadModel &fpga) { config_.fpga = fpga; }

    /** Change the QoS target. */
    void setQosLatency(Tick qos) { config_.qosLatency = qos; }

    /** Set the end-to-end deadline for subsequently injected requests. */
    void setRequestDeadline(Tick d) { config_.requestDeadline = d; }

    // -- Keyed data tier --------------------------------------------------

    /**
     * Turn on the stateful data tier: install the key universe, give
     * every Cache-kind tier per-instance bounded stores, switch every
     * Cache stage to keyed mode, and shard Cache/Database tiers with
     * consistent hashing. Call once, after the graph is built and all
     * instances are placed. Strictly opt-in: without this call no
     * keyed state exists and execution is bit-identical to the legacy
     * fixed-hitProb runtime.
     */
    void enableKeyedData(const data::DataTierConfig &config);

    /** The key universe (null when keyed data is off). */
    const data::Keyspace *keyspace() const { return keyspace_.get(); }

    // -- Replicated keyed-data tier ----------------------------------------

    /**
     * Layer leader/follower replica groups over every keyed Cache
     * tier: quorum-acknowledged writes, read preferences with bounded
     * follower staleness, failover with log catch-up instead of a cold
     * restart, and (txnKeys >= 2) 2PC multi-partition transactions on
     * write-tagged keyed stages. Requires enableKeyedData first; call
     * once. Strictly opt-in: without this call no replica state exists
     * and execution is bit-identical to the unreplicated runtime.
     */
    void enableReplication(const replica::ReplicationConfig &config);

    /** @return true once enableReplication has been called. */
    bool replicationEnabled() const { return replicationEnabled_; }

    /** The replication configuration (valid once enabled). */
    const replica::ReplicationConfig &replicationConfig() const
    {
        return replicationConfig_;
    }

    // -- Partitioned deployment -------------------------------------------

    /**
     * Split this graph across the engine's shards: @p homes assigns
     * every tier its home shard (see data::assignPlacement) and
     * @p peers is the per-shard App vector — every shard's identical
     * replica of the graph, index == shard. Calls targeting a tier
     * whose home differs from this app's shard then travel through
     * `SimContext::postToShard` as marshalled RemoteCall/RemoteDelta
     * pairs instead of the local RPC path. Call once per shard, after
     * the graph is built; requires a sharded engine whose lookahead is
     * at most the network's wire latency. Strictly opt-in: without
     * this call execution is bit-identical to the colocated runtime.
     */
    void enablePartition(std::vector<App *> peers,
                         const std::map<std::string, unsigned> &homes);

    /** @return true once enablePartition has been called. */
    bool partitioned() const { return partitioned_; }

    /**
     * Serve one marshalled call on this (the target tier's home)
     * shard: rebuild a shard-local Request, perform the keyed store
     * access when the route asks for one, run the tier's handler, and
     * post the accounting delta back to the calling shard's app.
     */
    void serveRemote(const RemoteCall &call);

    // -- Admission control / QoS classes ----------------------------------

    /**
     * Turn on server-side admission control: assign every query type
     * its QoS class, install the admission policy on every tier and
     * give every instance a bounded multi-class queue. Call once,
     * after the graph is built, instances are placed and query types
     * are registered. Strictly opt-in: without this call no admission
     * state exists and execution is bit-identical to the legacy
     * single-FIFO runtime.
     */
    void enableQos(const QosConfig &config);

    /** @return true once enableQos has been called. */
    bool qosEnabled() const { return qosEnabled_; }

    /** QoS class serving a query type (UserFacing while QoS is off). */
    QosClass qosClassOf(unsigned query_type) const;

    // -- Observability taps -----------------------------------------------

    /**
     * Install (or clear, with nullptr) the observability tap. The tap
     * is not owned and must outlive every run of this app (or be
     * cleared first). While null — the default — no per-request signal
     * is ever computed for it.
     */
    void setObsTap(ObsTap *tap) { obsTap_ = tap; }

    /** The installed observability tap (null when none). */
    ObsTap *obsTap() const { return obsTap_; }

    // -- Fault injection --------------------------------------------------

    /**
     * Install (or clear, with nullptr) the per-request fault hook.
     * While null — the default — delivery never consults it, so the
     * execution digest is untouched.
     */
    void setFaultHook(RequestFaultHook *hook) { faultHook_ = hook; }

    /**
     * Track in-flight RPC attempts per target instance so a crash can
     * fail them. Off by default (zero bookkeeping on the common path);
     * the fault injector arms it when its schedule contains a crash.
     */
    void enableCrashTracking() { crashTracking_ = true; }

    /**
     * Crash instance @p idx of @p service_name: it stops accepting
     * work, its queue is drained, and every tracked in-flight attempt
     * against it fails with RpcStatus::Crashed.
     */
    void crashInstance(const std::string &service_name, unsigned idx);

    /** Restore a crashed instance with a fresh thread pool. */
    void restartInstance(const std::string &service_name, unsigned idx);

    // -- Results ----------------------------------------------------------

    /** End-to-end latency over completed (non-dropped) requests. */
    const Histogram &endToEndLatency() const { return e2eLatency_; }

    /** End-to-end latency for one query type. */
    const Histogram &endToEndLatencyFor(unsigned query_type) const;

    std::uint64_t injected() const { return injected_->value(); }
    std::uint64_t completed() const { return completed_->value(); }
    std::uint64_t completedWithinQos() const
    {
        return completedInQos_->value();
    }
    std::uint64_t droppedRequests() const
    {
        return droppedRequests_->value();
    }
    /** Requests whose entry RPC failed after resilience was exhausted. */
    std::uint64_t failedRequests() const
    {
        return requestsFailed_->value();
    }

    /** Aggregate network-processing work time per completed request. */
    double meanNetworkTimePerRequest() const;
    double meanAppTimePerRequest() const;

    trace::TraceStore &traceStore() { return traceStore_; }
    const trace::TraceStore &traceStore() const { return traceStore_; }
    trace::Collector &collector() { return collector_; }

    /** The app-wide metrics registry every subsystem reports through. */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /** The scheduling context (shard handle) this app runs in. */
    SimContext &ctx() { return ctx_; }
    const SimContext &ctx() const { return ctx_; }
    cpu::Cluster &cluster() { return cluster_; }
    net::Network &network() { return network_; }
    Rng &rng() { return rng_; }

    /**
     * Reset all measurement state (latency histograms, counters,
     * traces, per-server utilization) - call after warmup.
     */
    void statReset();

  private:
    /** Which way a kernel network leg moves a message. */
    enum class LegDir { Send, Receive };

    /** An attempt waiting for its cross-shard reply (remoteAttempt). */
    struct Awaiting
    {
        AttemptRef as;
        /** RemoteCall::replyTag of this wait. */
        std::uint64_t tag = 0;
    };

    /**
     * Issue one RPC, applying the target's resilience policy (deadline
     * check, breaker gate, retry loop around each attempt). With an
     * inactive policy this is a passthrough to a single attempt — the
     * legacy fire-and-wait path. @p done fires back on the caller with
     * the outcome and wall time.
     */
    void rpcCall(RpcCall call, RpcDone done);

    /** Issue @p stage's RPC to @p target over the caller's edge @p slot. */
    void stageCall(const HandlerRef &ctx, const Stage &stage,
                   Microservice &target, unsigned slot, RpcDone done,
                   data::RouteHint route = {});

    /**
     * Deadline and breaker gate in front of an attempt; counts a
     * refusal and returns its status, or Ok to go ahead.
     */
    RpcStatus gateAttempt(const Request &req, rpc::CircuitBreaker *br);

    /**
     * A fresh, unstarted attempt @p attempt_no of @p call. A
     * @p resilient attempt settles into retryOrFinish(), which may
     * start the next attempt.
     */
    AttemptRef newAttempt(RpcCall call, unsigned attempt_no,
                          rpc::CircuitBreaker *br, bool resilient,
                          RpcDone done);

    /**
     * Start @p as: size it, arm its timeout, take a pooled connection
     * and run the caller's send leg, then routeAttempt.
     */
    void startAttempt(const AttemptRef &as);

    /**
     * The resilience loop after a settled attempt: record it with the
     * breaker, then finish the call or back off and retry it.
     */
    void retryOrFinish(AttemptState &as, RpcStatus status, Tick wall);

    /**
     * A sent attempt: pick the serving instance and carry the request
     * there over the fabric, or hand it to remoteAttempt when the
     * target is homed on another shard.
     */
    void routeAttempt(const AttemptRef &as);

    /** A local attempt landed at its target: serve the hop there. */
    void serveLocal(const AttemptRef &as);

    /**
     * Cross-shard transport of a sent attempt: charge the forward NIC
     * and wire time, park the attempt in awaiting_, marshal the call,
     * and post it to the target tier's home shard; that shard's
     * serveRemote posts the delta back to onRemoteReply.
     */
    void remoteAttempt(const AttemptRef &as);

    /**
     * A cross-shard reply landed: unless its attempt settled meanwhile,
     * merge the delta into the request and run receiveReply.
     */
    void onRemoteReply(std::uint32_t slot, std::uint64_t tag,
                       const RemoteDelta &d);

    /**
     * The caller's reply-receive leg, then settle the attempt with
     * @p status (publishing a remote keyed-store outcome first).
     */
    void receiveReply(const AttemptRef &as, RpcStatus status,
                      std::uint8_t remote_hit);

    /**
     * The callee side of one hop, shared by local and cross-shard
     * calls: receive leg at the context's instance, then admission
     * and handling; respond() carries the reply back.
     */
    void serveHop(const HandlerRef &ctx);

    /**
     * The callee's reply leg with @p status, then the span close and
     * replyToCaller.
     */
    void respond(const HandlerRef &ctx, RpcStatus status);

    /**
     * Carry a served hop's reply to its caller: over the fabric to a
     * local attempt, or as a delta posted to the calling shard.
     */
    void replyToCaller(const HandlerRef &ctx);

    /**
     * One kernel network leg: (de)serialization plus kernel TCP (or
     * FPGA host) cycles on @p server, charged to @p svc's kernel
     * mode, with the busy time added to @p req's network and TCP
     * time. A caller-side leg passes its attempt @p as: the time then
     * also counts as caller network, and nothing happens once the
     * attempt has settled. @p done receives the busy time and must
     * hold a handle that keeps @p req and @p as alive.
     */
    template <typename Done>
    void netLeg(cpu::Server &server, Microservice *svc,
                const rpc::ProtocolModel &proto, LegDir dir, Bytes payload,
                Bytes wire, Request &req, AttemptState *as, Done done);

    /**
     * Carry a local attempt's message of @p wire bytes over the
     * fabric; on landing, unless the attempt settled meanwhile, count
     * the NIC queueing, FPGA pipeline and propagation time and run
     * @p done.
     */
    template <typename Done>
    void wireLeg(unsigned from, unsigned to, Bytes wire,
                 const AttemptRef &as, Done done);

    /** Settle one attempt exactly once and fire its completion. */
    void settleAttempt(AttemptState &as, RpcStatus status);

    /** Record a caller-side span for a failed attempt. */
    void recordErrorSpan(const RequestPtr &req, trace::SpanId parent_span,
                         const Microservice &target, Tick start,
                         unsigned attempt_no, RpcStatus status);

    /** Fail every tracked in-flight attempt (crash tracking only). */
    void failInFlight(Instance &inst);

    /**
     * Arrival at the context's instance after @p pre_network ticks of
     * receive processing: refuse it, or queue it for a worker.
     */
    void deliverToInstance(const HandlerRef &ctx, Tick pre_network);

    /**
     * Close a served span after its reply leg: stamp the end, record
     * the tier latency or failure, and collect it.
     */
    void closeSpan(HandlerCtx &ctx, RpcStatus status, Tick reply_busy);

    /** Start handling queued work if threads are available. */
    void maybeStartHandling(Instance &inst);

    /**
     * Interpret stage @p idx of the handler program; past the last
     * stage (or after a failure) finish the handler.
     */
    void runStage(const HandlerRef &ctx, std::size_t idx);

    /** Continue with the stage after the current one. */
    void nextStage(const HandlerRef &ctx) { runStage(ctx, ctx->stage + 1); }

    /** The handler program is done: free the thread and reply. */
    void finishHandler(const HandlerRef &ctx);

    /** A compute stage took @p t of app time. */
    void finishCompute(const HandlerRef &ctx, Tick t);

    /**
     * Call @p i of the current sequential fanout stage, then the next
     * one; the first failure skips the rest of the stage.
     */
    void callSequential(const HandlerRef &ctx, unsigned i);

    /**
     * The cache lookup of the current stage returned @p status:
     * count a remote outcome, then continue, or fall through to the
     * backing store on a miss or failure.
     */
    void afterCacheLookup(const HandlerRef &ctx, RpcStatus status);

    /**
     * Drive one 2PC multi-partition transaction from a write-tagged
     * keyed cache stage: prepare RPCs to every touched group's leader
     * under a coordinator abort timer, then commit (apply all writes,
     * wait out the slowest quorum ack) or mark the handler TxnAborted.
     */
    void runTxnStage(const HandlerRef &ctx, const Stage *stage,
                     std::vector<std::uint64_t> keys);

    /** Account a finished end-to-end request and its client span. */
    void finishRequest(Request &req, trace::SpanId client_span_id,
                       RpcStatus status, Tick caller_net);

    /** Charge a compute task's cycles to user/lib modes. */
    void chargeCompute(Microservice &svc, double cycles, double ipc);

    /** Charge a network task's cycles to kernel mode. */
    void chargeNetwork(Microservice *svc, double cycles, double ipc);

    SimContext ctx_;
    cpu::Cluster &cluster_;
    net::Network &network_;
    Config config_;
    Rng rng_;
    /**
     * Dedicated stream for resilience decisions (retry jitter).
     * Seeded by derivation, NOT forked from rng_: forking would jump
     * the main stream and change digests of runs that never retry.
     */
    Rng resilienceRng_;

    std::map<std::string, std::unique_ptr<Microservice>> services_;
    std::vector<Microservice *> serviceOrder_;
    Microservice *entry_ = nullptr;
    std::vector<QueryType> queryTypes_;
    cpu::Server *clientServer_ = nullptr;
    /** The end-user client's edge to the entry tier. */
    Edge clientEdge_;
    /** validate() has run since the graph last changed. */
    bool validated_ = false;

    /** Key universe of the stateful data tier (keyed mode only). */
    std::unique_ptr<data::Keyspace> keyspace_;
    data::DataTierConfig dataConfig_;

    RequestFaultHook *faultHook_ = nullptr;
    ObsTap *obsTap_ = nullptr;
    bool crashTracking_ = false;
    /** Partitioned deployment armed (enablePartition called). */
    bool partitioned_ = false;
    /** Per-shard peer apps of a partitioned world (index == shard). */
    std::vector<App *> peerApps_;
    /** Admission control armed (enableQos called). */
    bool qosEnabled_ = false;
    /** Replica groups armed (enableReplication called). */
    bool replicationEnabled_ = false;
    replica::ReplicationConfig replicationConfig_;

    /** Attempts and handler contexts of this shard (rpc_state.hh). */
    Pool<AttemptState> attempts_;
    Pool<HandlerCtx> handlers_;
    /** Attempts awaiting a cross-shard reply, by RemoteCall::replySlot. */
    SlotTable<Awaiting> awaiting_;
    /** Last RemoteCall::replyTag handed out. */
    std::uint64_t lastReplyTag_ = 0;

    MetricsRegistry metrics_;
    trace::TraceStore traceStore_;
    trace::Collector collector_;
    trace::IdAllocator ids_;
    trace::ServiceId clientServiceId_ = trace::kNoService;

    Histogram e2eLatency_;
    std::vector<std::unique_ptr<Histogram>> e2eByQuery_;
    std::uint64_t nextRequestId_ = 0;
    /** Request accounting, owned by the metrics registry. */
    Counter *injected_ = nullptr;
    Counter *completed_ = nullptr;
    Counter *completedInQos_ = nullptr;
    Counter *droppedRequests_ = nullptr;
    Counter *requestsFailed_ = nullptr;
    /** Aggregate blocked-acquire count across all connection pools. */
    Counter *poolBlocked_ = nullptr;
    /** RPC attempt outcomes and resilience actions. */
    Counter *rpcErrors_ = nullptr;
    Counter *rpcTimeouts_ = nullptr;
    Counter *rpcRetries_ = nullptr;
    Counter *rpcRetryBudgetExhausted_ = nullptr;
    Counter *rpcBreakerFastFails_ = nullptr;
    Counter *rpcDeadlineExceeded_ = nullptr;
    Counter *rpcShed_ = nullptr;
    Counter *rpcPoolTimeouts_ = nullptr;
    Counter *rpcCrashedInFlight_ = nullptr;
    Counter *rpcAbandonedArrivals_ = nullptr;
    /**
     * Replication accounting, created lazily by enableReplication so
     * unreplicated runs emit exactly the legacy metric set.
     */
    Counter *rpcQuorumLost_ = nullptr;
    Counter *rpcStaleRejects_ = nullptr;
    Counter *rpcTxnStarted_ = nullptr;
    Counter *rpcTxnCommits_ = nullptr;
    Counter *rpcTxnAborts_ = nullptr;
    /**
     * Admission accounting, created lazily by enableQos so disabled
     * runs emit exactly the legacy metric set. Indexed by QosClass.
     */
    std::array<Counter *, kQosClassCount> admAdmitted_{};
    std::array<Counter *, kQosClassCount> admServed_{};
    std::array<Counter *, kQosClassCount> admShed_{};
    std::array<Counter *, kQosClassCount> admThrottled_{};
    std::array<Counter *, kQosClassCount> admOverflow_{};
    double totalNetworkTime_ = 0.0;
    double totalAppTime_ = 0.0;
};

} // namespace uqsim::service

#endif // UQSIM_SERVICE_APP_HH
