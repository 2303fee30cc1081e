#include "service/app.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/logging.hh"

namespace uqsim::service {

/**
 * Per-RPC handler execution context: the request being served at one
 * instance, plus the span under construction. Shared between the stage
 * interpreter and the reply continuation.
 */
struct HandlerCtx
{
    Instance *inst = nullptr;
    RequestPtr req;
    trace::Span span;
    /** Reply continuation installed by rpcAttempt. */
    std::function<void(std::shared_ptr<HandlerCtx>, RpcStatus)> respond;
};

/**
 * Shared state of one RPC attempt. Settling (success, timeout, crash,
 * refusal) happens exactly once through App::settleAttempt; the
 * `settled` flag is shared with the server-side Arrival so zombie
 * continuations — late replies, deliveries of abandoned requests —
 * can detect they lost the race and quietly stop.
 */
struct AttemptState
{
    std::shared_ptr<bool> settled = std::make_shared<bool>(false);
    /** The call this attempts, and its sizes on the wire. */
    App::RpcCall call;
    RpcBytes bytes;
    unsigned attemptNo = 1;
    rpc::ConnectionPool *pool = nullptr;
    rpc::ConnectionPool::Ticket ticket =
        rpc::ConnectionPool::kGrantedImmediately;
    bool poolAcquired = false;
    bool poolReleased = false;
    EventHandle timeoutEv;
    EventHandle acquireEv;
    /** Target instance while registered for crash tracking. */
    Instance *target = nullptr;
    bool registered = false;
    Tick tStart = 0;
    Tick callerNet = 0;
    RpcDone done;

    /** The calling tier (null for the end-user client). */
    Microservice *
    callerSvc() const
    {
        return call.callerInst ? &call.callerInst->svc() : nullptr;
    }

    /** Leave the target's crash registry (a no-op unless on it). */
    void
    unregister()
    {
        if (!registered)
            return;
        registered = false;
        auto &v = target->inflight_;
        v.erase(std::remove(v.begin(), v.end(), this), v.end());
    }

    // An attempt can die without settling (e.g. its message was
    // dropped by a partition and no timeout was set); keep the crash
    // registry free of dangling pointers regardless.
    ~AttemptState() { unregister(); }
};

namespace {

/** First failure wins a span's status. */
void
failSpan(trace::Span &span, RpcStatus status)
{
    if (status != RpcStatus::Ok && span.status == 0)
        span.status = static_cast<std::uint8_t>(status);
}

/**
 * Join a finished child call into the calling handler's span: its
 * caller-side network time, the rest of its wall time as downstream
 * wait, and its failure.
 */
void
joinCall(trace::Span &span, RpcStatus status, Tick wall, Tick caller_net)
{
    span.networkTime += caller_net;
    span.downstreamWait += wall > caller_net ? wall - caller_net : 0;
    failSpan(span, status);
}

} // namespace

App::App(SimContext ctx, cpu::Cluster &cluster, net::Network &network,
         Config config, std::uint64_t seed)
    : ctx_(ctx), cluster_(cluster), network_(network),
      config_(std::move(config)), rng_(seed),
      resilienceRng_(seed ^ 0x524553494c49454eull),
      traceStore_(config_.traceCapacity), collector_(traceStore_)
{
    collector_.setEnabled(config_.tracing);
    collector_.setSampleEvery(config_.traceSampleEvery);
    collector_.bindMetrics(metrics_);
    clientServiceId_ = traceStore_.intern("client");

    injected_ = &metrics_.counter("app.requests_injected");
    completed_ = &metrics_.counter("app.requests_completed");
    completedInQos_ = &metrics_.counter("app.requests_completed_in_qos");
    droppedRequests_ = &metrics_.counter("app.requests_dropped");
    requestsFailed_ = &metrics_.counter("app.requests_failed");
    poolBlocked_ = &metrics_.counter("rpc.pool.blocked_acquires");
    rpcErrors_ = &metrics_.counter("rpc.errors");
    rpcTimeouts_ = &metrics_.counter("rpc.timeouts");
    rpcRetries_ = &metrics_.counter("rpc.retries");
    rpcRetryBudgetExhausted_ =
        &metrics_.counter("rpc.retry_budget_exhausted");
    rpcBreakerFastFails_ = &metrics_.counter("rpc.breaker_fast_fails");
    rpcDeadlineExceeded_ = &metrics_.counter("rpc.deadline_exceeded");
    rpcShed_ = &metrics_.counter("rpc.shed");
    rpcPoolTimeouts_ = &metrics_.counter("rpc.pool.acquire_timeouts");
    rpcCrashedInFlight_ = &metrics_.counter("rpc.crashed_in_flight");
    rpcAbandonedArrivals_ = &metrics_.counter("rpc.abandoned_arrivals");
}

App::~App()
{
    // Attempts still in flight at teardown die with the event queue,
    // after this app: keep their destructors off the registry.
    for (Microservice *svc : serviceOrder_)
        for (const auto &inst : svc->instances())
            for (AttemptState *as : inst->inflight_)
                as->registered = false;
}

Microservice &
App::addService(ServiceDef def)
{
    if (services_.count(def.name))
        fatal(strCat("duplicate service '", def.name, "'"));
    auto svc = std::make_unique<Microservice>(*this, std::move(def));
    Microservice &ref = *svc;
    ref.orderIndex_ = static_cast<unsigned>(serviceOrder_.size());
    serviceOrder_.push_back(&ref);
    validated_ = false;
    services_[ref.name()] = std::move(svc);
    return ref;
}

bool
App::hasService(const std::string &name) const
{
    return services_.count(name) > 0;
}

Microservice &
App::service(const std::string &name)
{
    auto it = services_.find(name);
    if (it == services_.end())
        fatal(strCat("unknown service '", name, "'"));
    return *it->second;
}

const Microservice &
App::service(const std::string &name) const
{
    auto it = services_.find(name);
    if (it == services_.end())
        fatal(strCat("unknown service '", name, "'"));
    return *it->second;
}

void
App::setEntry(const std::string &name)
{
    if (!hasService(name))
        fatal(strCat("entry service '", name, "' does not exist"));
    entry_ = &service(name);
}

const std::string &
App::entry() const
{
    static const std::string none;
    return entry_ ? entry_->name() : none;
}

unsigned
App::addQueryType(QueryType qt)
{
    queryTypes_.push_back(std::move(qt));
    e2eByQuery_.push_back(std::make_unique<Histogram>());
    return static_cast<unsigned>(queryTypes_.size() - 1);
}

void
App::setClientServer(cpu::Server &server)
{
    clientServer_ = &server;
}

void
App::validate()
{
    if (!entry_)
        fatal(strCat("app '", config_.name, "': no entry service set"));
    for (Microservice *svc : serviceOrder_) {
        // A callee keeps its slot across re-validation, so edges made
        // before a handler rewrite stay with the tier they lead to.
        auto resolve = [this, svc](const std::string &name,
                                   unsigned &slot) {
            if (!hasService(name))
                fatal(strCat("service '", svc->name(), "' calls unknown '",
                             name, "'"));
            Microservice *callee = &service(name);
            if (callee == svc)
                fatal(strCat("service '", svc->name(), "' calls itself"));
            std::vector<Microservice *> &callees = svc->callees_;
            const auto it = std::find(callees.begin(), callees.end(), callee);
            slot = static_cast<unsigned>(it - callees.begin());
            if (it == callees.end())
                callees.push_back(callee);
            return callee;
        };
        for (Stage &st : svc->mutableDef().handler.stages) {
            if (st.kind != Stage::Kind::Call && st.kind != Stage::Kind::Cache)
                continue;
            st.callee = resolve(st.target, st.calleeSlot);
            st.db = st.kind == Stage::Kind::Cache && !st.dbTarget.empty()
                        ? resolve(st.dbTarget, st.dbSlot)
                        : nullptr;
        }
        if (svc->instances().empty())
            fatal(strCat("service '", svc->name(), "' has no instances"));
        for (const auto &inst : svc->instances())
            inst->edges_.resize(svc->callees_.size());
    }
    if (!clientServer_)
        fatal(strCat("app '", config_.name, "': no client server set"));
    if (queryTypes_.empty())
        addQueryType(QueryType{});
    validated_ = true;
}

std::string
App::exportDot() const
{
    std::ostringstream os;
    os << "digraph \"" << config_.name << "\" {\n";
    os << "  rankdir=LR;\n";
    for (const Microservice *svc : serviceOrder_) {
        const char *shape = "box";
        switch (svc->def().kind) {
          case ServiceKind::Frontend:
            shape = "house";
            break;
          case ServiceKind::Cache:
            shape = "oval";
            break;
          case ServiceKind::Database:
            shape = "cylinder";
            break;
          default:
            break;
        }
        os << "  \"" << svc->name() << "\" [shape=" << shape << "];\n";
    }
    for (const Microservice *svc : serviceOrder_)
        for (const std::string &t : svc->def().handler.callTargets())
            os << "  \"" << svc->name() << "\" -> \"" << t << "\";\n";
    if (entry_) {
        os << "  \"client\" [shape=plaintext];\n";
        os << "  \"client\" -> \"" << entry_->name() << "\";\n";
    }
    os << "}\n";
    return os.str();
}

void
App::failInFlight(Instance &inst)
{
    // Settling unregisters, so detach the list first.
    std::vector<AttemptState *> victims = std::move(inst.inflight_);
    inst.inflight_.clear();
    for (AttemptState *as : victims) {
        if (*as->settled)
            continue;
        as->registered = false; // already detached from the registry
        rpcCrashedInFlight_->inc();
        settleAttempt(*as, RpcStatus::Crashed);
    }
}

void
App::crashInstance(const std::string &service_name, unsigned idx)
{
    Microservice &svc = service(service_name);
    if (idx >= svc.instances().size())
        fatal(strCat("crashInstance: service '", service_name,
                     "' has no instance ", idx));
    Instance &inst = *svc.instances()[idx];
    if (!inst.active_ && inst.freeThreads_ == 0)
        return; // already down
    inst.active_ = false;
    ++inst.crashEpoch_;
    // Fail the callers first (their settle flags silence the queued
    // closures), then drop the queue: the process and its state die.
    failInFlight(inst);
    inst.queue_.clear();
    if (inst.admission_)
        inst.admission_->clear();
    inst.freeThreads_ = 0;
    if (svc.replicated()) {
        // Replicated tier: the process dies but the group's logical
        // store lives on at the surviving members. Leadership moves by
        // election; a failover replays the log into the warm store
        // (trim of the un-applied tail) instead of clearing it. Only a
        // whole-group death loses the data — the replica layer flags
        // that and the next access clears the store.
        svc.replicaSet()->onInstanceDown(idx, ctx_.now());
    } else if (data::CacheModel *model = svc.cacheModel(idx)) {
        // Keyed state dies with the process: whatever replaces this
        // shard (a restart or a standby) starts with a cold store and
        // must re-learn the hot set — the Fig 20 recovery transient.
        model->clearCold();
    }
}

void
App::restartInstance(const std::string &service_name, unsigned idx)
{
    Microservice &svc = service(service_name);
    if (idx >= svc.instances().size())
        fatal(strCat("restartInstance: service '", service_name,
                     "' has no instance ", idx));
    Instance &inst = *svc.instances()[idx];
    if (inst.active_)
        return;
    inst.freeThreads_ = svc.def().threadsPerInstance;
    inst.queue_.clear();
    if (inst.admission_)
        inst.admission_->reset(ctx_.now());
    inst.active_ = true;
    if (svc.replicated())
        // The restarted member replays the replication log before it
        // may vote, serve, or ack again (the catch-up window).
        svc.replicaSet()->onInstanceUp(idx, ctx_.now());
}

void
App::enableKeyedData(const data::DataTierConfig &config)
{
    if (!config.enabled())
        fatal("enableKeyedData: keyspace.keys must be > 0");
    if (keyspace_)
        fatal("enableKeyedData called twice");
    dataConfig_ = config;
    keyspace_ = std::make_unique<data::Keyspace>(config.keyspace);
    for (Microservice *svc : serviceOrder_) {
        const ServiceKind kind = svc->def().kind;
        if (kind == ServiceKind::Cache || kind == ServiceKind::Database)
            svc->enableKeyedRouting(config.vnodes);
        if (kind == ServiceKind::Cache)
            svc->attachCacheModels(config.cache);
    }
    // Flip every cache stage whose target is a ring-managed cache
    // tier into keyed mode.
    for (Microservice *svc : serviceOrder_) {
        for (Stage &st : svc->mutableDef().handler.stages) {
            if (st.kind != Stage::Kind::Cache)
                continue;
            if (service(st.target).def().kind == ServiceKind::Cache)
                st.keyed = true;
        }
    }
}

void
App::enablePartition(std::vector<App *> peers,
                     const std::map<std::string, unsigned> &homes)
{
    if (partitioned_)
        fatal("enablePartition called twice");
    if (replicationEnabled_)
        fatal("enablePartition: replicated tiers cannot be partitioned");
    if (config_.fpga.enabled)
        fatal("enablePartition: FPGA offload is unsupported in "
              "partition mode");
    if (peers.size() != ctx_.shardCount())
        fatal(strCat("enablePartition: ", peers.size(), " peer apps for ",
                     ctx_.shardCount(), " shards"));
    // The engine only guarantees cross-shard causality for deliveries
    // at least one lookahead ahead; every cross-shard message here
    // travels >= one wire latency, so that is the ceiling.
    if (ctx_.shardCount() > 1 &&
        ctx_.lookahead() > network_.config().wireLatency)
        fatal("enablePartition: engine lookahead exceeds the "
              "inter-shard wire latency");
    for (Microservice *svc : serviceOrder_) {
        auto it = homes.find(svc->name());
        if (it == homes.end())
            fatal(strCat("enablePartition: no home shard for tier '",
                         svc->name(), "'"));
        if (it->second >= ctx_.shardCount())
            fatal(strCat("enablePartition: tier '", svc->name(),
                         "' pinned to shard ", it->second, " of ",
                         ctx_.shardCount()));
        svc->setHomeShard(it->second);
    }
    peerApps_ = std::move(peers);
    partitioned_ = true;
}

void
App::enableReplication(const replica::ReplicationConfig &config)
{
    if (!config.enabled())
        fatal("enableReplication: factor must be >= 2");
    if (replicationEnabled_)
        fatal("enableReplication called twice");
    if (!keyspace_)
        fatal("enableReplication requires enableKeyedData first");
    if (config.writeQuorum > config.factor)
        fatal("enableReplication: writeQuorum must be <= factor");
    if (config.txnKeys == 1)
        fatal("enableReplication: txnKeys must be 0 or >= 2");
    replicationConfig_ = config;

    bool any = false;
    for (Microservice *svc : serviceOrder_) {
        if (svc->def().kind == ServiceKind::Cache &&
            svc->keyedRouting() && svc->hasCacheModels()) {
            svc->enableReplication(config);
            any = true;
        }
    }
    if (!any)
        fatal("enableReplication: no keyed cache tier to replicate");

    // Counters are created here, not in the App constructor, so a run
    // without replication emits exactly the legacy metric set.
    rpcQuorumLost_ = &metrics_.counter("rpc.quorum_lost");
    rpcStaleRejects_ = &metrics_.counter("rpc.stale_rejects");
    if (config.txnEnabled()) {
        rpcTxnStarted_ = &metrics_.counter("rpc.txn_started");
        rpcTxnCommits_ = &metrics_.counter("rpc.txn_commits");
        rpcTxnAborts_ = &metrics_.counter("rpc.txn_aborts");
    }
    replicationEnabled_ = true;
}

void
App::enableQos(const QosConfig &config)
{
    if (!config.policy.enabled)
        fatal("enableQos: policy.enabled must be true");
    if (qosEnabled_)
        fatal("enableQos called twice");
    // A backlogged zero-weight class would never earn dequeue credit
    // (the WRR grant loop would starve it forever), so reject it here
    // as well as at the config surfaces.
    for (unsigned w : config.policy.weights)
        if (w == 0)
            fatal("enableQos: every class weight must be >= 1");
    for (double f : config.policy.shedAt)
        if (f <= 0.0 || f > 1.0)
            fatal("enableQos: shed thresholds must be in (0, 1]");
    if (config.policy.ratePerInstance < 0.0)
        fatal("enableQos: ratePerInstance must be >= 0");
    if (config.policy.burst <= 0.0)
        fatal("enableQos: burst must be > 0");

    auto classify = [this](const std::vector<std::string> &names,
                           QosClass cls) {
        for (const std::string &name : names) {
            bool found = false;
            for (QueryType &qt : queryTypes_) {
                if (qt.name == name) {
                    qt.qosClass = cls;
                    found = true;
                }
            }
            if (!found)
                fatal(strCat("enableQos: unknown query type '", name,
                             "'"));
        }
    };
    classify(config.batchQueries, QosClass::Batch);
    classify(config.bestEffortQueries, QosClass::BestEffort);

    // Counters are created here, not in the App constructor, so a run
    // without QoS emits exactly the legacy metric set.
    for (unsigned c = 0; c < kQosClassCount; ++c) {
        const char *cls = qosClassName(static_cast<QosClass>(c));
        admAdmitted_[c] =
            &metrics_.counter(strCat("admission.admitted.", cls));
        admServed_[c] =
            &metrics_.counter(strCat("admission.served.", cls));
        admShed_[c] = &metrics_.counter(strCat("admission.shed.", cls));
        admThrottled_[c] =
            &metrics_.counter(strCat("admission.throttled.", cls));
        admOverflow_[c] =
            &metrics_.counter(strCat("admission.overflow.", cls));
    }

    for (Microservice *svc : serviceOrder_) {
        svc->mutableDef().admission = config.policy;
        for (const auto &inst : svc->instances())
            inst->admission_ =
                std::make_unique<AdmissionQueue<Instance::Arrival>>(
                    config.policy, svc->def().queueCapacity,
                    ctx_.now());
    }
    qosEnabled_ = true;
}

QosClass
App::qosClassOf(unsigned query_type) const
{
    return query_type < queryTypes_.size()
               ? queryTypes_[query_type].qosClass
               : QosClass::UserFacing;
}

void
App::settleAttempt(AttemptState &as, RpcStatus status)
{
    if (*as.settled)
        return;
    *as.settled = true;
    as.timeoutEv.cancel();
    as.acquireEv.cancel();
    as.unregister();
    if (as.poolAcquired) {
        // Mirrors the legacy completion order: connection back first,
        // then the caller continues. A timed-out attempt models its
        // connection as closed-and-replaced, which also frees a slot.
        if (!as.poolReleased) {
            as.poolReleased = true;
            as.pool->release();
        }
    } else if (as.ticket != rpc::ConnectionPool::kGrantedImmediately) {
        as.pool->cancel(as.ticket);
    }
    auto done = std::move(as.done);
    done(status, ctx_.now() - as.tStart, as.callerNet);
}

void
App::recordErrorSpan(const RequestPtr &req, trace::SpanId parent_span,
                     const Microservice &target, Tick start,
                     unsigned attempt_no, RpcStatus status)
{
    if (!config_.tracing)
        return;
    trace::Span sp;
    sp.traceId = req->traceId;
    sp.spanId = ids_.nextSpan();
    sp.parentSpanId = parent_span;
    sp.service = target.traceServiceId();
    sp.instance = 0;
    sp.queryType = req->queryType;
    sp.start = start;
    sp.end = ctx_.now();
    sp.status = static_cast<std::uint8_t>(status);
    sp.attempt = static_cast<std::uint8_t>(std::min(attempt_no, 255u));
    if (qosEnabled_)
        sp.qosClass =
            static_cast<std::uint8_t>(qosClassOf(req->queryType));
    collector_.collect(sp);
}

void
App::chargeCompute(Microservice &svc, double cycles, double ipc)
{
    const auto &p = svc.def().profile;
    const double non_kernel = std::max(1e-9, 1.0 - p.kernelShare);
    const double lib_frac = std::clamp(p.libShare / non_kernel, 0.0, 1.0);
    const double instr = cycles * ipc;
    svc.chargeLib(cycles * lib_frac, instr * lib_frac);
    svc.chargeUser(cycles * (1.0 - lib_frac), instr * (1.0 - lib_frac));
}

void
App::chargeNetwork(Microservice *svc, double cycles, double ipc)
{
    if (svc)
        svc->chargeKernel(cycles, cycles * ipc);
}

void
App::rpcCall(RpcCall call, RpcDone done)
{
    const rpc::ResiliencePolicy &pol = call.target->def().resilience;
    if (!pol.active()) {
        // Legacy fire-and-wait path: no gates, no retries, no extra
        // events — byte-identical execution to the pre-resilience
        // runtime (the digest tests depend on this).
        rpcAttempt(call, 1, std::move(done));
        return;
    }
    rpc::CircuitBreaker *br =
        pol.breaker.enabled ? &call.edge->breakerTo(*call.target) : nullptr;
    const RpcStatus gate = gateAttempt(*call.req, br);
    if (gate != RpcStatus::Ok) {
        // Only a refused first attempt records a span of its own; a
        // refused retry is told by its failed predecessor's span.
        recordErrorSpan(call.req, call.parentSpan, *call.target,
                        ctx_.now(), 1, gate);
        done(gate, 0, 0);
        return;
    }
    // The budget earns on first attempts only, so retry traffic is
    // capped at budgetRatio of the offered load.
    if (pol.retry.enabled() && pol.retry.budgetRatio > 0.0)
        call.target->retryBudget().onAttempt();
    retryAttempt(std::move(call), br, 1, std::move(done));
}

void
App::stageCall(const std::shared_ptr<HandlerCtx> &ctx, const Stage &stage,
               Microservice &target, unsigned slot, RpcDone done,
               data::RouteHint route)
{
    rpcCall({.callerServer = ctx->inst->server().id(),
             .callerInst = ctx->inst,
             .target = &target,
             .edge = &ctx->inst->edges_[slot],
             .req = ctx->req,
             .parentSpan = ctx->span.spanId,
             .reqBytes = stage.requestBytes,
             .respBytes = stage.responseBytes,
             .carriesMedia = stage.carriesMedia,
             .route = route},
            std::move(done));
}

RpcStatus
App::gateAttempt(const Request &req, rpc::CircuitBreaker *br)
{
    const Tick now = ctx_.now();
    if (req.deadline && now >= req.deadline) {
        rpcDeadlineExceeded_->inc();
        rpcErrors_->inc();
        return RpcStatus::DeadlineExceeded;
    }
    if (br && !br->allow(now)) {
        rpcBreakerFastFails_->inc();
        rpcErrors_->inc();
        return RpcStatus::BreakerOpen;
    }
    return RpcStatus::Ok;
}

void
App::retryAttempt(RpcCall call, rpc::CircuitBreaker *br, unsigned attempt_no,
                  RpcDone done)
{
    const Tick attempt_start = ctx_.now();
    rpcAttempt(call, attempt_no,
               [this, call, br, attempt_no, attempt_start,
                done = std::move(done)](RpcStatus status, Tick wall,
                                        Tick caller_net) mutable {
        const Tick now = ctx_.now();
        if (br)
            br->record(now, status == RpcStatus::Ok);
        if (status == RpcStatus::Ok) {
            done(status, wall, caller_net);
            return;
        }
        rpcErrors_->inc();
        recordErrorSpan(call.req, call.parentSpan, *call.target,
                        attempt_start, attempt_no, status);

        const rpc::RetryPolicy &rp = call.target->def().resilience.retry;
        bool retry = rp.enabled() && attempt_no < rp.maxAttempts &&
                     status != RpcStatus::DeadlineExceeded;
        if (retry && call.req->deadline && now >= call.req->deadline)
            retry = false;
        if (retry && rp.budgetRatio > 0.0 &&
            !call.target->retryBudget().tryWithdraw()) {
            rpcRetryBudgetExhausted_->inc();
            retry = false;
        }
        if (!retry) {
            done(status, wall, caller_net);
            return;
        }
        rpcRetries_->inc();
        ++call.req->retries;

        // Exponential backoff, decorrelated by jitter drawn from the
        // dedicated resilience stream (never the model RNG).
        Tick backoff = rp.baseBackoff;
        for (unsigned i = 1; i < attempt_no && backoff < rp.maxBackoff; ++i)
            backoff *= 2;
        backoff = std::min(backoff, rp.maxBackoff);
        if (rp.jitter > 0.0 && backoff > 0) {
            const double lo = std::clamp(1.0 - rp.jitter, 0.0, 1.0);
            backoff = static_cast<Tick>(static_cast<double>(backoff) *
                                        resilienceRng_.uniform(lo, 1.0));
        }
        ctx_.schedule(backoff, [this, call = std::move(call), br, attempt_no,
                                done = std::move(done)]() mutable {
            const RpcStatus gate = gateAttempt(*call.req, br);
            if (gate != RpcStatus::Ok) {
                done(gate, 0, 0);
                return;
            }
            retryAttempt(std::move(call), br, attempt_no + 1,
                         std::move(done));
        });
    });
}

template <typename Done>
void
App::netLeg(cpu::Server &server, Microservice *svc,
            const rpc::ProtocolModel &proto, LegDir dir, Bytes payload,
            Bytes wire, RequestPtr req, std::shared_ptr<AttemptState> as,
            Done done)
{
    const net::FpgaOffloadModel &fpga = config_.fpga;
    const bool send = dir == LegDir::Send;
    const Cycles tcp =
        send ? (fpga.enabled ? fpga.hostSendCycles
                             : config_.tcp.sendCost(wire))
             : (fpga.enabled ? fpga.hostRecvCycles
                             : config_.tcp.recvCost(wire));
    const Cycles cycles = tcp + (send ? proto.serializeCost(payload)
                                      : proto.deserializeCost(payload));
    const double tcp_frac = static_cast<double>(tcp) /
                            static_cast<double>(std::max<Cycles>(1, cycles));
    const double ipc = server.kernelIpc();
    chargeNetwork(svc, static_cast<double>(cycles), ipc);
    server.execute(cycles, ipc,
                   [req = std::move(req), as = std::move(as), tcp_frac,
                    done = std::move(done)](Tick busy) mutable {
        if (as && *as->settled)
            return;
        req->networkTime += busy;
        req->tcpProcTime +=
            static_cast<Tick>(tcp_frac * static_cast<double>(busy));
        if (as)
            as->callerNet += busy;
        done(busy);
    });
}

template <typename Done>
void
App::wireLeg(unsigned from, unsigned to, Bytes wire,
             std::shared_ptr<AttemptState> as, Done done)
{
    // With the offload, the FPGA pipeline sits between wire and host.
    const Tick fpga_lat =
        config_.fpga.enabled ? config_.fpga.pipelineLatency : 0;
    network_.send(from, to, wire,
                  [this, as = std::move(as), fpga_lat,
                   done = std::move(done)](Tick queueing_tx,
                                           Tick prop) mutable {
        auto land = [as, queueing_tx, prop, fpga_lat,
                     done = std::move(done)]() mutable {
            if (*as->settled)
                return; // the caller moved on while this was in flight
            Request &req = *as->call.req;
            req.networkTime += queueing_tx + fpga_lat;
            req.tcpProcTime += fpga_lat;
            req.wireTime += prop;
            as->callerNet += queueing_tx + fpga_lat;
            done();
        };
        if (fpga_lat > 0)
            ctx_.schedule(fpga_lat, std::move(land));
        else
            land();
    });
}

void
App::rpcAttempt(const RpcCall &call, unsigned attempt_no, RpcDone done)
{
    const ServiceDef &def = call.target->def();
    const QueryType &qt = queryTypes_[call.req->queryType];

    auto as = std::make_shared<AttemptState>();
    as->call = call;
    as->attemptNo = attempt_no;
    as->bytes.reqPayload =
        (call.reqBytes ? call.reqBytes : def.defaultRequestBytes) +
        (call.carriesMedia ? qt.extraPayloadBytes : 0);
    as->bytes.respPayload =
        call.respBytes ? call.respBytes : def.defaultResponseBytes;
    as->bytes.reqWire = def.protocol.wireSize(as->bytes.reqPayload);
    as->bytes.respWire = def.protocol.wireSize(as->bytes.respPayload);
    as->pool = &call.edge->poolTo(*call.target, poolBlocked_);
    as->tStart = ctx_.now();
    as->done = std::move(done);

    // Per-attempt timeout, capped to the remaining deadline budget so
    // a deep call chain never waits past its caller's patience. When
    // the deadline is the binding constraint, expiry is reported as
    // DeadlineExceeded, not a generic timeout.
    const rpc::ResiliencePolicy &pol = def.resilience;
    Tick eff_timeout = pol.timeout;
    bool deadline_bound = false;
    if (call.req->deadline) {
        const Tick remaining = call.req->deadline > as->tStart
                                   ? call.req->deadline - as->tStart
                                   : 1;
        if (eff_timeout == 0 || remaining < eff_timeout) {
            eff_timeout = remaining;
            deadline_bound = true;
        }
    }
    if (eff_timeout > 0) {
        as->timeoutEv =
            ctx_.schedule(eff_timeout, [this, as, deadline_bound]() {
                if (*as->settled)
                    return;
                if (deadline_bound) {
                    rpcDeadlineExceeded_->inc();
                    settleAttempt(*as, RpcStatus::DeadlineExceeded);
                } else {
                    rpcTimeouts_->inc();
                    settleAttempt(*as, RpcStatus::Timeout);
                }
            });
    }

    as->ticket = as->pool->acquire([this, as]() {
        as->poolAcquired = true;
        as->acquireEv.cancel();
        const RpcCall &c = as->call;
        netLeg(cluster_.server(c.callerServer), as->callerSvc(),
               c.target->def().protocol, LegDir::Send, as->bytes.reqPayload,
               as->bytes.reqWire, c.req, as,
               [this, as](Tick) { routeAttempt(as); });
    });

    if (as->ticket != rpc::ConnectionPool::kGrantedImmediately &&
        pol.acquireTimeout > 0 && !*as->settled) {
        // Parked behind a saturated HTTP/1.1 pool: give up after the
        // configured wait instead of parking forever (Fig 17B's hang).
        as->acquireEv = ctx_.schedule(pol.acquireTimeout, [this, as]() {
            if (as->poolAcquired || *as->settled)
                return;
            rpcPoolTimeouts_->inc();
            settleAttempt(*as, RpcStatus::PoolTimeout);
        });
    }
}

void
App::routeAttempt(const std::shared_ptr<AttemptState> &as)
{
    Microservice &tgt = *as->call.target;
    // Partitioned deployment: a target homed on another shard is a
    // different machine reachable only through the engine mailbox.
    if (partitioned_ && tgt.homeShard() != ctx_.shard()) {
        remoteAttempt(as);
        return;
    }

    Instance *ti;
    if (as->call.route.byKey) {
        // Keyed mode: the call is addressed to the key's serving
        // instance — the ring owner, or with replication the group
        // leader / read-preference pick. Unservable keys fail fast
        // with a typed status (Unreachable, QuorumLost, StaleRead)
        // regardless of policy; the client retry loop treats all
        // three as retryable.
        RpcStatus key_status = RpcStatus::Ok;
        ti = tgt.resolveKeyInstance(as->call.route, ctx_.now(), key_status);
        if (!ti) {
            if (key_status == RpcStatus::QuorumLost && rpcQuorumLost_)
                rpcQuorumLost_->inc();
            else if (key_status == RpcStatus::StaleRead && rpcStaleRejects_)
                rpcStaleRejects_->inc();
            settleAttempt(*as, key_status);
            return;
        }
    } else if (tgt.def().resilience.active() || crashTracking_) {
        // Crash-aware selection: an outage (nothing active to route
        // to) fails fast on the caller instead of aborting the run.
        ti = tgt.trySelectInstance(*as->call.req);
        if (!ti) {
            settleAttempt(*as, RpcStatus::Unreachable);
            return;
        }
    } else {
        ti = &tgt.selectInstance(*as->call.req);
    }
    if (crashTracking_) {
        as->target = ti;
        as->registered = true;
        ti->inflight_.push_back(as.get());
    }

    wireLeg(as->call.callerServer, ti->server().id(), as->bytes.reqWire, as,
            [this, as, ti]() {
        serveHop(*ti, as->call.req, as->call.parentSpan, as->attemptNo,
                 as->bytes, as->settled, [this, as, ti](RpcStatus status) {
            // Error replies travel too: a refusal is a message.
            wireLeg(ti->server().id(), as->call.callerServer,
                    as->bytes.respWire, as,
                    [this, as, status]() { receiveReply(as, status, 0); });
        });
    });
}

void
App::remoteAttempt(const std::shared_ptr<AttemptState> &as)
{
    const RpcCall &c = as->call;
    Request &req = *c.req;
    const unsigned home = c.target->homeShard();

    // Forward leg: the caller's NIC pays serialization/queueing here;
    // the wire pays the inter-shard latency the engine lookahead is
    // derived from, so the delivery delay below is always >= lookahead.
    const std::pair<Tick, Tick> fwd =
        network_.crossShardDelay(c.callerServer, as->bytes.reqWire);
    req.networkTime += fwd.first;
    req.wireTime += fwd.second;
    as->callerNet += fwd.first;

    RemoteCall call;
    call.srcShard = ctx_.shard();
    call.tier = c.target->orderIndex();
    call.requestId = req.id;
    call.queryType = req.queryType;
    call.userId = req.userId;
    call.deadline = req.deadline;
    call.dataKey = c.route.key;
    call.traceId = req.traceId;
    call.parentSpan = c.parentSpan;
    call.attemptNo = as->attemptNo;
    call.bytes = as->bytes;
    call.routeByKey = c.route.byKey;
    call.routeIsWrite = c.route.write;
    call.routeStoreAccess = c.route.storeAccess;

    // Runs back on this shard when the home shard posts the delta.
    auto reply = [this, as](const RemoteDelta &d) {
        if (*as->settled)
            return; // late reply; the caller's timeout already won
        Request &r = *as->call.req;
        r.networkTime += d.networkTime + d.replyQueueing;
        r.tcpProcTime += d.tcpProcTime;
        r.wireTime += d.wireTime;
        r.appTime += d.appTime;
        r.queueTime += d.queueTime;
        r.retries += d.retries;
        if (d.dropped)
            r.dropped = true;
        as->callerNet += d.replyQueueing;
        receiveReply(as, d.status, d.remoteHit);
    };

    App *peer = peerApps_[home];
    ctx_.postToShard(home, fwd.first + fwd.second,
                     [peer, call, reply = std::move(reply)]() {
        peer->serveRemote(call, reply);
    });
}

void
App::receiveReply(const std::shared_ptr<AttemptState> &as, RpcStatus status,
                  std::uint8_t remote_hit)
{
    const RpcCall &c = as->call;
    netLeg(cluster_.server(c.callerServer), as->callerSvc(),
           c.target->def().protocol, LegDir::Receive, as->bytes.respPayload,
           as->bytes.respWire, c.req, as,
           [this, as, status, remote_hit](Tick) {
        // Published in the same event that settles the attempt:
        // settleAttempt unwinds synchronously into the issuing stage's
        // continuation, so a concurrent sibling's delta cannot
        // overwrite the outcome before it is read.
        if (remote_hit)
            as->call.req->remoteHit = remote_hit;
        settleAttempt(*as, status);
    });
}

void
App::serveRemote(const RemoteCall &call,
                 std::function<void(const RemoteDelta &)> done)
{
    if (call.tier >= serviceOrder_.size())
        fatal("serveRemote: tier index out of range");
    Microservice *tgt = serviceOrder_[call.tier];

    // Shard-local twin of the caller's request: identity copied,
    // accounting zeroed — this shard accumulates its own delta and the
    // caller merges it, so nothing is double counted.
    auto rreq = std::make_shared<Request>();
    rreq->id = call.requestId;
    rreq->queryType = call.queryType;
    rreq->userId = call.userId;
    rreq->deadline = call.deadline;
    rreq->dataKey = call.dataKey;
    rreq->traceId = call.traceId;

    data::RouteHint route;
    route.key = call.dataKey;
    route.byKey = call.routeByKey;
    route.write = call.routeIsWrite;

    // The keyed store access the issuing stage could not perform
    // locally: done here, on the shard that owns the store, with the
    // outcome shipped back in the delta.
    std::uint8_t remote_hit = 0;
    if (call.routeStoreAccess)
        remote_hit = tgt->keyedAccess(call.dataKey, ctx_.now(),
                                      call.routeIsWrite)
                         ? 2
                         : 1;

    Instance *ti = nullptr;
    RpcStatus key_status = RpcStatus::Ok;
    if (route.byKey)
        ti = tgt->resolveKeyInstance(route, ctx_.now(), key_status);
    else
        ti = &tgt->selectInstance(*rreq);
    if (!ti) {
        // Unservable key (downed ring owner). Partition mode rejects
        // fault schedules so this is defensive, but reply rather than
        // abort: the typed status travels back like any other outcome.
        RemoteDelta d;
        d.remoteHit = remote_hit;
        d.status = key_status;
        ctx_.postToShard(call.srcShard, network_.config().wireLatency,
                         [done = std::move(done), d]() { done(d); });
        return;
    }

    const unsigned callee_server = ti->server().id();
    serveHop(*ti, rreq, call.parentSpan, call.attemptNo, call.bytes, nullptr,
             [this, rreq, call, callee_server, remote_hit,
              done = std::move(done)](RpcStatus status) {
        // Reply leg: this shard's NIC pays the tx queueing, the wire
        // pays the inter-shard latency — so the post delay is always
        // >= the engine lookahead.
        const std::pair<Tick, Tick> rep =
            network_.crossShardDelay(callee_server, call.bytes.respWire);
        RemoteDelta d;
        d.networkTime = rreq->networkTime;
        d.tcpProcTime = rreq->tcpProcTime;
        d.wireTime = rreq->wireTime + rep.second;
        d.appTime = rreq->appTime;
        d.queueTime = rreq->queueTime;
        d.replyQueueing = rep.first;
        d.retries = rreq->retries;
        d.remoteHit = remote_hit;
        d.dropped = rreq->dropped;
        d.status = status;
        ctx_.postToShard(call.srcShard, rep.first + rep.second,
                         [done, d]() { done(d); });
    });
}

void
App::serveHop(Instance &inst, RequestPtr req, trace::SpanId parent_span,
              unsigned attempt_no, const RpcBytes &bytes,
              std::shared_ptr<bool> abandoned,
              std::function<void(RpcStatus)> reply)
{
    Instance *ti = &inst;
    netLeg(inst.server(), &inst.svc(), inst.svc().def().protocol,
           LegDir::Receive, bytes.reqPayload, bytes.reqWire, req, nullptr,
           [this, ti, req, parent_span, attempt_no, bytes,
            abandoned = std::move(abandoned),
            reply = std::move(reply)](Tick recv_busy) mutable {
        // Runs once the handler, or a refusal at arrival, is done.
        auto respond = [this, ti, req, bytes, reply = std::move(reply)](
                           std::shared_ptr<HandlerCtx> ctx,
                           RpcStatus status) mutable {
            netLeg(ti->server(), &ti->svc(), ti->svc().def().protocol,
                   LegDir::Send, bytes.respPayload, bytes.respWire, req,
                   nullptr,
                   [this, ctx = std::move(ctx), status,
                    reply = std::move(reply)](Tick reply_busy) {
                if (ctx)
                    closeSpan(*ctx, status, reply_busy);
                reply(status);
            });
        };
        deliverToInstance(*ti, req, parent_span, recv_busy, attempt_no,
                          std::move(abandoned), std::move(respond));
    });
}

void
App::closeSpan(HandlerCtx &ctx, RpcStatus status, Tick reply_busy)
{
    ctx.span.networkTime += reply_busy;
    ctx.span.end = ctx_.now();
    const Tick dur = ctx.span.duration();
    Microservice &svc = ctx.inst->svc();
    if (status == RpcStatus::Ok) {
        svc.mutableLatency().record(dur);
        ++ctx.inst->served_;
        if (obsTap_)
            obsTap_->onTierLatency(svc, dur);
    } else {
        ++ctx.inst->failed_;
    }
    if (config_.tracing)
        collector_.collect(ctx.span);
}

void
App::deliverToInstance(
    Instance &inst, RequestPtr req, trace::SpanId parent_span,
    Tick pre_network, unsigned attempt_no, std::shared_ptr<bool> abandoned,
    std::function<void(std::shared_ptr<HandlerCtx>, RpcStatus)> respond)
{
    if (abandoned && *abandoned)
        return; // caller settled while the request was on the wire

    // Injected transient errors fail the request at arrival: the
    // server spends reply-path cycles sending the error back, which is
    // what a process returning 5xx costs.
    if (faultHook_ && faultHook_->shouldFailRequest(inst.svc())) {
        ++inst.failed_;
        respond(nullptr, RpcStatus::Error);
        return;
    }

    // Deadline admission: never queue work whose caller chain has
    // already given up (deadline propagation).
    if (req->deadline && ctx_.now() >= req->deadline) {
        rpcDeadlineExceeded_->inc();
        ++inst.failed_;
        respond(nullptr, RpcStatus::DeadlineExceeded);
        return;
    }

    QosClass cls = QosClass::UserFacing;
    if (inst.admission_) {
        // Admission control (enableQos): the multi-class queue owns
        // all queue bounds, so the legacy shed/overflow checks never
        // run while it is installed. Every refusal is a typed
        // fast-reject on the reply wire — the caller's breaker and
        // retry budget see an immediate error, not a timeout.
        cls = qosClassOf(req->queryType);
        const auto ci = static_cast<std::size_t>(cls);
        switch (inst.admission_->offer(cls, ctx_.now())) {
        case AdmissionVerdict::Admit:
            break;
        case AdmissionVerdict::Throttled:
            admThrottled_[ci]->inc();
            ++inst.failed_;
            if (obsTap_)
                obsTap_->onAdmissionReject(inst.svc());
            respond(nullptr, RpcStatus::Throttled);
            return;
        case AdmissionVerdict::Shed:
            admShed_[ci]->inc();
            rpcShed_->inc();
            ++inst.failed_;
            if (obsTap_)
                obsTap_->onAdmissionReject(inst.svc());
            respond(nullptr, RpcStatus::Shed);
            return;
        case AdmissionVerdict::Overflow:
            admOverflow_[ci]->inc();
            ++inst.dropped_;
            if (obsTap_)
                obsTap_->onAdmissionReject(inst.svc());
            respond(nullptr, RpcStatus::Overflow);
            return;
        }
        admAdmitted_[ci]->inc();
    } else {
        const rpc::ResiliencePolicy &pol = inst.svc().def().resilience;
        if (pol.shedQueueLength > 0 &&
            inst.queue_.size() >= pol.shedQueueLength) {
            // Load shedding: refuse early with a cheap, retryable
            // error instead of letting the queue grow to the overflow
            // cliff.
            rpcShed_->inc();
            ++inst.failed_;
            respond(nullptr, RpcStatus::Shed);
            return;
        }
        if (inst.queue_.size() >= inst.svc().def().queueCapacity) {
            ++inst.dropped_;
            if (!pol.active()) {
                // Legacy queue overflow: mark the end-to-end request
                // dropped and unwind through the normal reply path.
                req->dropped = true;
                respond(nullptr, RpcStatus::Ok);
            } else {
                // Under a resilience policy, overflow is a retryable
                // per-attempt error rather than a silent request kill.
                respond(nullptr, RpcStatus::Overflow);
            }
            return;
        }
    }

    Instance::Arrival arrival;
    arrival.req = std::move(req);
    arrival.parentSpan = parent_span;
    arrival.enqueued = ctx_.now();
    arrival.preNetworkTime = pre_network;
    arrival.attempt = static_cast<std::uint8_t>(std::min(attempt_no, 255u));
    arrival.abandoned = std::move(abandoned);
    arrival.respondCtx = std::move(respond);
    if (inst.admission_)
        inst.admission_->push(cls, std::move(arrival));
    else
        inst.queue_.push_back(std::move(arrival));
    maybeStartHandling(inst);
}

void
App::maybeStartHandling(Instance &inst)
{
    while (inst.freeThreads_ > 0) {
        Instance::Arrival a;
        QosClass cls = QosClass::UserFacing;
        if (inst.admission_) {
            // Weighted round robin across the class queues.
            if (!inst.admission_->pop(cls, a))
                break;
        } else {
            if (inst.queue_.empty())
                break;
            a = std::move(inst.queue_.front());
            inst.queue_.pop_front();
        }
        if (a.abandoned && *a.abandoned) {
            // The caller timed out while this sat in the queue; skip
            // it without burning a worker thread on dead work.
            rpcAbandonedArrivals_->inc();
            continue;
        }
        if (inst.admission_)
            admServed_[static_cast<std::size_t>(cls)]->inc();
        --inst.freeThreads_;

        auto ctx = std::make_shared<HandlerCtx>();
        ctx->inst = &inst;
        ctx->req = a.req;
        ctx->respond = std::move(a.respondCtx);
        ctx->span.traceId = a.req->traceId;
        ctx->span.spanId = ids_.nextSpan();
        ctx->span.parentSpanId = a.parentSpan;
        ctx->span.service = inst.svc().traceServiceId();
        ctx->span.instance = inst.index();
        ctx->span.queryType = a.req->queryType;
        ctx->span.attempt = a.attempt;
        ctx->span.qosClass = static_cast<std::uint8_t>(cls);
        // Arrival is timestamped before kernel receive processing.
        ctx->span.start = a.enqueued >= a.preNetworkTime
                              ? a.enqueued - a.preNetworkTime
                              : 0;
        ctx->span.queueTime = ctx_.now() - a.enqueued;
        ctx->span.networkTime = a.preNetworkTime;
        ctx->req->queueTime += ctx->span.queueTime;

        const std::uint64_t epoch = inst.crashEpoch_;
        runStage(ctx, 0, [this, ctx, epoch]() {
            Instance &done_inst = *ctx->inst;
            if (done_inst.crashEpoch_ != epoch) {
                // The instance crashed mid-handler: the process is
                // gone, no reply is ever sent. The caller was settled
                // by the crash path.
                return;
            }
            ++done_inst.freeThreads_;
            // The reply path does not hold a worker thread; pull the
            // next queued request in before responding.
            maybeStartHandling(done_inst);
            ctx->respond(ctx, ctx->span.statusEnum());
        });
    }
}

void
App::runStage(std::shared_ptr<HandlerCtx> ctx, std::size_t idx,
              std::function<void()> done)
{
    Microservice &svc = ctx->inst->svc();
    const auto &stages = svc.def().handler.stages;
    // Once a downstream dependency failed for good, abort the handler:
    // the remaining stages would compute on behalf of a request that is
    // already doomed, and the error must surface to the caller now.
    if (ctx->span.status != 0 || idx >= stages.size()) {
        done();
        return;
    }
    const Stage &st = stages[idx];
    auto next = [this, ctx, idx, done = std::move(done)]() mutable {
        runStage(ctx, idx + 1, std::move(done));
    };

    const QueryType &qt = queryTypes_[ctx->req->queryType];
    if (!st.onlyForTag.empty() && !qt.hasTag(st.onlyForTag)) {
        next();
        return;
    }
    if (st.probability < 1.0 && !rng_.bernoulli(st.probability)) {
        next();
        return;
    }

    switch (st.kind) {
      case Stage::Kind::Compute: {
        const auto &prof = svc.def().profile;
        const double cycles =
            std::max(0.0, st.computeCycles.sample(rng_)) * qt.computeScale;
        const double cpu_cycles = cycles * (1.0 - prof.ioBoundFraction);
        const double io_cycles = cycles - cpu_cycles;
        cpu::Server &server = ctx->inst->server();
        const double ipc = ctx->inst->ipc();
        // I/O waits do not consume the core and do not stretch when
        // frequency drops: convert at the *nominal* frequency.
        const double nominal_ghz = server.model().nominalFreqMhz / 1000.0;
        const Tick io_ns = static_cast<Tick>(
            io_cycles / std::max(1e-9, ipc * nominal_ghz));
        chargeCompute(svc, cpu_cycles, ipc);
        server.execute(static_cast<Cycles>(cpu_cycles), ipc,
                       [this, ctx, io_ns,
                        next = std::move(next)](Tick busy) mutable {
            ctx->inst->cpuBusyTime_ += busy;
            auto fin = [ctx, busy, io_ns,
                        next = std::move(next)]() mutable {
                ctx->span.appTime += busy + io_ns;
                ctx->req->appTime += busy + io_ns;
                next();
            };
            if (io_ns > 0)
                ctx_.schedule(io_ns, std::move(fin));
            else
                fin();
        });
        return;
      }
      case Stage::Kind::Call: {
        if (st.fanout == 0) {
            next();
            return;
        }
        if (!st.parallel) {
            callSequential(ctx, st, 0, std::move(next));
            return;
        }
        // The branches join as one call: their caller-side network
        // time summed, the rest of the stage's wall time as wait.
        struct Join
        {
            unsigned remaining;
            Tick net;
            std::function<void()> next;
        };
        auto join =
            std::make_shared<Join>(Join{st.fanout, 0, std::move(next)});
        const Tick call_start = ctx_.now();
        for (unsigned i = 0; i < st.fanout; ++i) {
            stageCall(ctx, st, *st.callee, st.calleeSlot,
                      [this, ctx, join, call_start](RpcStatus status, Tick,
                                                    Tick caller_net) {
                // A parallel fanout fails if any branch fails.
                failSpan(ctx->span, status);
                join->net += caller_net;
                if (--join->remaining == 0) {
                    joinCall(ctx->span, RpcStatus::Ok,
                             ctx_.now() - call_start, join->net);
                    join->next();
                }
            });
        }
        return;
      }
      case Stage::Kind::Delay: {
        const Tick d = static_cast<Tick>(
            std::max(0.0, st.delayNs.sample(rng_)));
        const bool is_net = st.delayIsNetwork;
        ctx_.schedule(d, [ctx, d, is_net, next = std::move(next)]() mutable {
            if (is_net) {
                ctx->span.networkTime += d;
                ctx->req->networkTime += d;
            } else {
                ctx->span.appTime += d;
                ctx->req->appTime += d;
            }
            next();
        });
        return;
      }
      case Stage::Kind::Cache: {
        Microservice *cache_tier = st.callee;
        // Keyed mode: draw the accessed key and let hit/miss emerge
        // from the owning shard's bounded store. Legacy mode keeps
        // the fixed-probability coin flip — the same single RNG draw
        // at the same point in the event stream, so configurations
        // without a keyspace stay bit-identical.
        bool hit;
        Tick quorum_delay = 0;
        data::RouteHint route;
        // Partitioned worlds: a keyed store homed on another shard
        // cannot be touched from here — the access rides the RPC to
        // the home shard (route.storeAccess) and the outcome returns
        // in req->remoteHit, counted in the continuation below.
        bool remote_keyed = false;
        if (st.keyed && keyspace_) {
            const std::uint64_t key =
                keyspace_->sampleKey(rng_, ctx_.now());
            ctx->req->dataKey = key;
            const bool is_write = qt.hasTag(data::kWriteTag);
            route = {key, true, is_write};
            remote_keyed =
                partitioned_ && cache_tier->homeShard() != ctx_.shard();
            if (remote_keyed) {
                hit = false;
            } else if (cache_tier->replicated()) {
                if (is_write && replicationConfig_.txnEnabled()) {
                    // Multi-partition transaction: this write touches
                    // txnKeys keys; distinct groups go through 2PC.
                    // Extra key draws happen only on this opt-in path.
                    std::vector<std::uint64_t> keys{key};
                    for (unsigned k = 1; k < replicationConfig_.txnKeys;
                         ++k)
                        keys.push_back(
                            keyspace_->sampleKey(rng_, ctx_.now()));
                    if (ctx->span.dataMisses != 255)
                        ++ctx->span.dataMisses;
                    runTxnStage(ctx, &st, std::move(keys), std::move(next));
                    return;
                }
                const Microservice::ReplicatedAccess acc =
                    cache_tier->replicatedAccess(key, ctx_.now(),
                                                 is_write);
                // A typed reject leaves the store untouched; the RPC
                // below fails with the same status at attempt time and
                // degrades to a miss (db fallthrough keeps serving).
                hit = acc.hit;
                quorum_delay = acc.quorumDelay;
            } else {
                hit = cache_tier->keyedAccess(key, ctx_.now(), is_write);
            }
            if (!remote_keyed) {
                if (hit) {
                    if (ctx->span.dataHits != 255)
                        ++ctx->span.dataHits;
                } else if (ctx->span.dataMisses != 255) {
                    ++ctx->span.dataMisses;
                }
            }
        } else {
            hit = rng_.bernoulli(st.hitRatio);
        }
        // Only the cache-tier hop carries the store access; the db
        // fallthrough routes by the same key but touches no store.
        data::RouteHint cache_route = route;
        cache_route.storeAccess = remote_keyed;
        stageCall(ctx, st, *cache_tier, st.calleeSlot,
                  [this, ctx, stage = &st, hit, remote_keyed, quorum_delay,
                   route, next = std::move(next)](RpcStatus status, Tick wall,
                                                  Tick caller_net) mutable {
            // A failed lookup is a miss first; whether it also fails
            // the handler is decided below.
            joinCall(ctx->span, RpcStatus::Ok, wall, caller_net);
            auto cont = [this, ctx, stage, hit, remote_keyed, route, status,
                         next = std::move(next)]() mutable {
                bool h = hit;
                if (remote_keyed) {
                    // The home shard's outcome, published in the same
                    // event that settled the attempt. A failed RPC
                    // counts as a miss: the reply (and the outcome)
                    // never arrived.
                    h = status == RpcStatus::Ok &&
                        ctx->req->remoteHit == 2;
                    if (h) {
                        if (ctx->span.dataHits != 255)
                            ++ctx->span.dataHits;
                    } else if (ctx->span.dataMisses != 255) {
                        ++ctx->span.dataMisses;
                    }
                }
                // A failed cache lookup degrades to a miss: fall
                // through to the backing store when one exists
                // (cache-aside pattern); without one the failure
                // stands.
                if ((h && status == RpcStatus::Ok) || !stage->db) {
                    failSpan(ctx->span, status);
                    next();
                    return;
                }
                Microservice &db = *stage->db;
                // The backing store shards by the same key when it is
                // ring-managed, so hot keys hammer one DB shard too.
                stageCall(ctx, *stage, db, stage->dbSlot,
                          [ctx, next = std::move(next)](
                              RpcStatus status2, Tick wall2,
                              Tick caller_net2) mutable {
                    joinCall(ctx->span, status2, wall2, caller_net2);
                    next();
                },
                          db.keyedRouting() ? route : data::RouteHint{});
            };
            if (quorum_delay > 0 && status == RpcStatus::Ok) {
                // Quorum write: the handler blocks until the W-th ack
                // — the (W-1)-th fastest follower's apply lag.
                ctx->span.downstreamWait += quorum_delay;
                ctx_.schedule(quorum_delay, std::move(cont));
            } else {
                cont();
            }
        },
                  cache_route);
        return;
      }
    }
    panic("unhandled stage kind");
}

void
App::callSequential(std::shared_ptr<HandlerCtx> ctx, const Stage &stage,
                    unsigned i, std::function<void()> next)
{
    if (i >= stage.fanout) {
        next();
        return;
    }
    stageCall(ctx, stage, *stage.callee, stage.calleeSlot,
              [this, ctx, stage = &stage, i,
               next = std::move(next)](RpcStatus status, Tick wall,
                                       Tick caller_net) mutable {
        joinCall(ctx->span, status, wall, caller_net);
        if (status != RpcStatus::Ok)
            next(); // skip the remaining calls
        else
            callSequential(ctx, *stage, i + 1, std::move(next));
    });
}

void
App::runTxnStage(std::shared_ptr<HandlerCtx> ctx, const Stage *stage,
                 std::vector<std::uint64_t> keys, std::function<void()> next)
{
    Microservice *cache_tier = stage->callee;
    if (rpcTxnStarted_)
        rpcTxnStarted_->inc();

    // One prepare per distinct replica group, addressed by the first
    // key that mapped there. A transaction whose keys all hash to one
    // group degenerates to single-partition 2PC: one prepare, one
    // commit, no cross-group coordination cost.
    std::vector<std::uint64_t> group_keys;
    std::vector<unsigned> groups;
    for (std::uint64_t k : keys) {
        const unsigned g = cache_tier->shardIndexForKey(k);
        bool seen = false;
        for (unsigned have : groups)
            if (have == g) {
                seen = true;
                break;
            }
        if (!seen) {
            groups.push_back(g);
            group_keys.push_back(k);
        }
    }

    struct TxnState
    {
        unsigned remaining = 0;
        bool failed = false;
        bool settled = false;
    };
    auto st = std::make_shared<TxnState>();
    st->remaining = static_cast<unsigned>(group_keys.size());
    auto next_shared =
        std::make_shared<std::function<void()>>(std::move(next));

    App *app = this;
    Microservice *tier = cache_tier;
    const Stage *stg = stage;
    const std::uint64_t primary = keys.front();

    // The coordinator's decision point: fired once, by the last
    // prepare ack or by the abort timer — whichever comes first.
    auto settle = std::make_shared<std::function<void(bool)>>();
    *settle = [app, ctx, tier, stg, st, group_keys, primary,
               next_shared](bool ok) {
        if (st->settled)
            return;
        st->settled = true;
        auto abort_txn = [&]() {
            if (app->rpcTxnAborts_)
                app->rpcTxnAborts_->inc();
            tier->noteTxnAbort();
            failSpan(ctx->span, RpcStatus::TxnAborted);
            (*next_shared)();
        };
        if (!ok) {
            abort_txn();
            return;
        }
        // Commit phase: apply every group's write. Quorum membership
        // may have shifted since the prepares acked (a leader crash in
        // the window), in which case the transaction still aborts.
        Tick delay = 0;
        bool commit_ok = true;
        for (std::uint64_t k : group_keys) {
            const Microservice::ReplicatedAccess acc =
                tier->replicatedAccess(k, app->ctx_.now(), true);
            if (acc.status != trace::SpanStatus::Ok) {
                commit_ok = false;
                break;
            }
            delay = std::max(delay, acc.quorumDelay);
        }
        if (!commit_ok) {
            abort_txn();
            return;
        }
        if (app->rpcTxnCommits_)
            app->rpcTxnCommits_->inc();
        auto after = [app, ctx, stg, primary, next_shared]() {
            Microservice *db = stg->db;
            if (!db) {
                (*next_shared)();
                return;
            }
            // Write-through: the transaction's primary key carries the
            // backing-store update, same as the single-key miss path.
            const data::RouteHint db_route =
                db->keyedRouting()
                    ? data::RouteHint{primary, true, true}
                    : data::RouteHint{};
            app->stageCall(ctx, *stg, *db, stg->dbSlot,
                           [ctx, next_shared](RpcStatus status2, Tick wall2,
                                              Tick caller_net2) {
                joinCall(ctx->span, status2, wall2, caller_net2);
                (*next_shared)();
            },
                           db_route);
        };
        if (delay > 0) {
            // The coordinator blocks until the slowest group's W-th
            // ack has landed.
            ctx->span.downstreamWait += delay;
            app->ctx_.schedule(delay, std::move(after));
        } else {
            after();
        }
    };

    // Coordinator deadline on the prepare phase: a late ack finds the
    // transaction already settled (the guard makes the timer a no-op
    // once a decision is taken).
    ctx_.schedule(replicationConfig_.txnPrepareTimeout,
                  [settle]() { (*settle)(false); });

    for (std::size_t i = 0; i < group_keys.size(); ++i) {
        const data::RouteHint prep_route{group_keys[i], true, true};
        stageCall(ctx, *stg, *cache_tier, stg->calleeSlot,
                  [ctx, st, settle](RpcStatus status, Tick wall,
                                    Tick caller_net) {
            // A failed prepare aborts the transaction instead.
            joinCall(ctx->span, RpcStatus::Ok, wall, caller_net);
            if (status != RpcStatus::Ok)
                st->failed = true;
            if (--st->remaining == 0)
                (*settle)(!st->failed);
        },
                  prep_route);
    }
}

void
App::inject(unsigned query_type, std::uint64_t user_id, CompletionFn done)
{
    if (!validated_)
        fatal(strCat("app '", config_.name,
                     "': inject() before validate() resolved the graph"));
    if (query_type >= queryTypes_.size())
        fatal(strCat("unknown query type ", query_type));

    auto req = std::make_shared<Request>();
    req->id = nextRequestId_++;
    req->queryType = query_type;
    req->userId = user_id;
    req->injectTime = ctx_.now();
    if (config_.requestDeadline > 0)
        req->deadline = ctx_.now() + config_.requestDeadline;
    req->traceId = config_.tracing ? ids_.nextTrace() : 0;
    injected_->inc();

    const trace::SpanId client_span_id = ids_.nextSpan();

    rpcCall({.callerServer = clientServer_->id(),
             .callerInst = nullptr,
             .target = entry_,
             .edge = &clientEdge_,
             .req = req,
             .parentSpan = client_span_id,
             .reqBytes = config_.clientRequestBytes,
             .respBytes = config_.clientResponseBytes,
             .carriesMedia = true,
             .route = {}},
            [this, req, client_span_id,
             done = std::move(done)](RpcStatus status, Tick,
                                     Tick caller_net) {
        req->completeTime = ctx_.now();
        if (status != RpcStatus::Ok) {
            // The entry RPC failed after all client-side resilience was
            // exhausted: a user-visible error, distinct from a silent
            // legacy queue drop.
            req->failStatus = static_cast<std::uint8_t>(status);
            requestsFailed_->inc();
        } else if (req->dropped) {
            droppedRequests_->inc();
        } else {
            completed_->inc();
            const Tick lat = req->latency();
            e2eLatency_.record(lat);
            e2eByQuery_[req->queryType]->record(lat);
            if (lat <= config_.qosLatency)
                completedInQos_->inc();
            totalNetworkTime_ += static_cast<double>(req->networkTime);
            totalAppTime_ += static_cast<double>(req->appTime);
        }
        if (obsTap_)
            obsTap_->onEndToEnd(req->latency(),
                                status == RpcStatus::Ok && !req->dropped);
        if (config_.tracing) {
            trace::Span client_span;
            client_span.traceId = req->traceId;
            client_span.spanId = client_span_id;
            client_span.parentSpanId = trace::kNoParent;
            client_span.service = clientServiceId_;
            client_span.queryType = req->queryType;
            client_span.start = req->injectTime;
            client_span.end = req->completeTime;
            client_span.networkTime = caller_net;
            client_span.status = static_cast<std::uint8_t>(status);
            client_span.attempt = static_cast<std::uint8_t>(
                std::min<std::uint32_t>(req->retries + 1, 255));
            collector_.collect(client_span);
        }
        if (done)
            done(*req);
    });
}

const Histogram &
App::endToEndLatencyFor(unsigned query_type) const
{
    if (query_type >= e2eByQuery_.size())
        fatal(strCat("unknown query type ", query_type));
    return *e2eByQuery_[query_type];
}

double
App::meanNetworkTimePerRequest() const
{
    const std::uint64_t n = completed();
    return n ? totalNetworkTime_ / static_cast<double>(n) : 0.0;
}

double
App::meanAppTimePerRequest() const
{
    const std::uint64_t n = completed();
    return n ? totalAppTime_ / static_cast<double>(n) : 0.0;
}

void
App::statReset()
{
    e2eLatency_.reset();
    for (auto &h : e2eByQuery_)
        h->reset();
    metrics_.resetAll();
    totalNetworkTime_ = 0.0;
    totalAppTime_ = 0.0;
    traceStore_.clear();
    for (Microservice *svc : serviceOrder_) {
        svc->mutableLatency().reset();
        for (const auto &inst : svc->instances()) {
            inst->served_ = 0;
            inst->dropped_ = 0;
            inst->failed_ = 0;
            inst->cpuBusyTime_ = 0;
        }
    }
    cluster_.statResetAll();
}

} // namespace uqsim::service
