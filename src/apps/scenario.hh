/**
 * @file
 * Scenario configuration + sharded deployments.
 *
 * A Scenario is the complete declarative description of one uqsim_run
 * invocation: which app, how much hardware, the load window, the
 * client-side resilience policy, the fault schedule, the shard layout
 * and the placement. It round-trips through JSON (`--config` /
 * `--dump-config`), so a run is fully described by one file plus the
 * binary version.
 *
 * WorldHandle is the parallel deployment built from a Scenario — one
 * World per ParallelSimulator shard — in one of two modes:
 *
 * - Deployment::Replicate: N independent replica worlds with
 *   shard-derived seeds, each serving 1/N of the load. No cross-shard
 *   channels exist, so the engine runs with unbounded lookahead. This
 *   scales offered throughput, not one application.
 *
 * - Deployment::Partition: every shard builds the identical world
 *   from the *same* seed, each tier is pinned to one home shard by the
 *   placement layer (data/placement.hh), and calls to a tier homed
 *   elsewhere cross the engine mailbox. The conservative lookahead is
 *   the inter-shard wire latency — the minimum delay any cross-shard
 *   message experiences in the network model — which is what lets
 *   shards advance in parallel without ever reordering a delivery.
 *   This scales one application graph.
 *
 * In both modes a one-shard deployment is bit-identical to a
 * standalone World (same seed, same construction order), which is what
 * keeps `--shards 1` digests equal to the classic single-queue path.
 */

#ifndef UQSIM_APPS_SCENARIO_HH
#define UQSIM_APPS_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/builder.hh"
#include "core/parallel.hh"
#include "cpu/power.hh"
#include "data/config.hh"
#include "data/placement.hh"
#include "fault/fault.hh"
#include "fault/injector.hh"
#include "obs/pipeline.hh"
#include "replica/replication.hh"
#include "serverless/platform.hh"
#include "trace/collector.hh"
#include "workload/generators.hh"
#include "workload/load_sweep.hh"
#include "workload/user_population.hh"

namespace uqsim::apps {

/**
 * Everything that defines one run. Field-for-field the uqsim_run
 * option surface (see scenarioSchema() for the flag and JSON key of
 * each field, and tools/uqsim_run.cc --help for semantics).
 */
struct Scenario
{
    std::string app = "social-network";

    // -- load window ------------------------------------------------
    double qps = 300.0;
    double durationSec = 10.0;
    double warmupSec = 2.0;

    // -- platform ---------------------------------------------------
    unsigned servers = 5;
    unsigned drones = 24;
    std::string core = "xeon";
    double freqMhz = 0.0;
    bool fpga = false;
    std::string lambda; ///< "", "s3", "mem"
    unsigned slowServers = 0;
    double slowFactor = 40.0;

    // -- workload ---------------------------------------------------
    double skew = -1.0; ///< <0: uniform users
    std::uint64_t users = 1000;
    std::uint64_t seed = 42;

    // -- shard layout -----------------------------------------------
    unsigned shards = 1;
    unsigned threads = 1;

    // -- placement across shards ------------------------------------
    /**
     * Deployment mode: "none" — the legacy default, N replica worlds
     * exactly as before this surface existed — "replicate" (the same
     * thing, spelled explicitly), or "partition" (one world split
     * across shards, tiers pinned to home shards per `pins`).
     */
    std::string placement = "none";
    std::vector<data::PlacementPin> pins; ///< partition mode only

    // -- client-side resilience ------------------------------------
    Tick rpcTimeout = 0;
    Tick deadline = 0;
    unsigned retries = 0;
    double retryBudget = 0.0;
    bool breaker = false;
    unsigned shed = 0;

    // -- server-side admission control / QoS classes ----------------
    bool qosEnabled = false;
    unsigned qosWeightUser = 8;  ///< WRR credits, user-facing
    unsigned qosWeightBatch = 2; ///< WRR credits, batch
    unsigned qosWeightBest = 1;  ///< WRR credits, best-effort
    unsigned qosQueue = 0;    ///< per-class bound (0 = tier capacity)
    double qosRate = 0.0;     ///< admitted req/s per instance (0 = off)
    double qosBurst = 32.0;   ///< token-bucket burst
    double qosShedBatch = 0.5;  ///< batch shed threshold (fraction)
    double qosShedBest = 0.25;  ///< best-effort shed threshold
    std::string qosBatch;       ///< comma-separated query-type names
    std::string qosBestEffort;  ///< comma-separated query-type names

    // -- keyed data tier (0 keys = legacy fixed-hitProb caches) -----
    std::uint64_t dataKeys = 0;
    std::uint64_t dataCapacity = 4096; ///< entries per cache instance
    std::string dataPolicy = "lru";        ///< lru | lfu | slru
    std::string dataPopularity = "zipf";   ///< zipf | uniform | hotspot
    double dataZipfS = 1.0;
    double dataHotFraction = 0.1;
    double dataHotMass = 0.9;
    Tick dataTtl = 0;
    std::string dataWrite = "through";     ///< through | invalidate
    Tick dataShiftPeriod = 0;
    unsigned dataVnodes = 64;

    // -- replicated keyed-data tier (factor < 2 = unreplicated) -----
    unsigned replicaFactor = 0;    ///< replicas per group (>= 2 enables)
    unsigned replicaQuorum = 0;    ///< write quorum W (0 = majority)
    Tick replicaApplyLag = 1 * kTicksPerMs;    ///< lag per ring hop
    Tick replicaElectionTimeout = 50 * kTicksPerMs;
    Tick replicaCatchUp = 100 * kTicksPerMs;   ///< restart log replay
    std::string replicaRead = "leader"; ///< leader | nearest | ryw
    unsigned txnKeys = 0;          ///< >= 2: 2PC on write-tagged stages
    Tick txnPrepareTimeout = 10 * kTicksPerMs;

    // -- observability / SLO monitoring (opt-in) --------------------
    bool obsEnabled = false;
    Tick obsInterval = 100 * kTicksPerMs; ///< sampling boundary period
    std::uint64_t obsRing = 4096;         ///< ring bound per series
    Tick sloLatency = 0;       ///< latency bound at sloQuantile (0 = off)
    double sloQuantile = 0.99; ///< in (0, 1)
    unsigned sloWindow = 3;    ///< consecutive bad intervals to trip
    double sloErrorRate = 0.0; ///< error-rate bound (0 = off)
    std::string sloTier;       ///< series under the SLO ("" = e2e)

    // -- generated topology (opt-in; "" = the hand-written `app`) ---
    /**
     * Name of a gen::GenProfile. When non-empty, buildScenarioApp()
     * samples a topology from (profile, genSeed) instead of building
     * `app` — everything else (data/qos/slo/replication/placement)
     * layers on the generated world unchanged.
     */
    std::string genProfile;
    std::uint64_t genSeed = 1;
    unsigned genDepth = 0;  ///< pin logic levels (0 = profile draw)
    unsigned genWidth = 0;  ///< pin tiers per level (0 = profile draw)
    double genFanout = 0.0; ///< override mean fan-out (0 = profile)

    // -- arrival process (poisson = legacy byte-identical path) -----
    std::string arrival = "poisson"; ///< poisson|mmpp|diurnal|flash
    double arrivalBurst = 4.0;       ///< mmpp peak/base rate ratio
    double arrivalDuty = 0.1;        ///< mmpp peak-state time fraction
    Tick arrivalDwell = 200 * kTicksPerMs; ///< mmpp mean peak sojourn
    Tick arrivalPeriod = 10 * kTicksPerSec; ///< diurnal "day" length
    double arrivalLow = 0.2;         ///< diurnal night fraction
    Tick arrivalFlashAt = 2 * kTicksPerSec;
    Tick arrivalFlashRamp = 200 * kTicksPerMs;
    double arrivalFlashMult = 8.0;
    Tick arrivalFlashHold = 1 * kTicksPerSec;

    // -- faults & tracing -------------------------------------------
    std::vector<fault::FaultSpec> faults;
    std::uint64_t traceCapacity = trace::TraceStore::kDefaultCapacity;
};

/** How one scenario field's value is read and written. */
enum class FieldKind
{
    Number,   ///< double
    Unsigned, ///< unsigned; values above its maximum are rejected
    U64,      ///< std::uint64_t
    Duration, ///< Tick: "50ms"-style text, bare numbers are ms
    String,
    Bool,     ///< on the CLI a switch that takes no value
    // Hand-written special cases:
    QosWeights, ///< the "user,batch,best" triple
    Pin,        ///< placement.pin array; --pin TIER=SHARD appends one
    Faults,     ///< faults array; --fault SPEC appends one
};

/**
 * One row of the scenario schema: a field's uqsim_run flag, its dotted
 * JSON key and the Scenario member it writes. Exactly the member that
 * matches `kind` is set (Duration uses `u64`); the special kinds name
 * their members in code.
 */
struct ScenarioField
{
    const char *flag; ///< uqsim_run option, or nullptr (JSON only)
    const char *key;  ///< dotted JSON key, e.g. "data.capacity"
    FieldKind kind;
    double Scenario::*number = nullptr;
    unsigned Scenario::*uns = nullptr;
    std::uint64_t Scenario::*u64 = nullptr;
    std::string Scenario::*string = nullptr;
    bool Scenario::*boolean = nullptr;
};

/**
 * The scenario schema: one row per settable field. parseScenarioJson()
 * reads it, uqsim_run maps its flags through it, and scenarioToJson()
 * writes it in row order.
 */
const std::vector<ScenarioField> &scenarioSchema();

/** The schema row of uqsim_run option @p flag, or nullptr. */
const ScenarioField *scenarioFieldForFlag(const std::string &flag);

/**
 * Apply one uqsim_run option's @p text to @p s; @p f must have a flag.
 * Bool rows ignore @p text and set true; Pin and Faults rows append.
 * @return false and set @p error on malformed or out-of-range text.
 */
bool applyScenarioFlag(Scenario &s, const ScenarioField &f,
                       const std::string &text, std::string &error);

/**
 * Check every range and combination rule a runnable scenario obeys.
 * Messages name the JSON key of the broken rule.
 * @return false and set @p error on the first violation.
 */
bool validateScenario(const Scenario &s, std::string &error);

/** The DataTierConfig a scenario's data fields describe. */
data::DataTierConfig dataTierConfigFor(const Scenario &s);

/**
 * The ReplicationConfig a scenario's replica/txn fields describe.
 * Valid only when replicaFactor >= 2 (and replicaRead names a real
 * read preference — buildScenarioApp dies otherwise).
 */
replica::ReplicationConfig replicationConfigFor(const Scenario &s);

/** The QosConfig a scenario's qos fields describe. */
service::QosConfig qosConfigFor(const Scenario &s);

/**
 * The ArrivalConfig a scenario's arrival fields describe. Dies on an
 * unknown process name (parse/CLI validation rejects those earlier).
 */
workload::ArrivalConfig arrivalConfigFor(const Scenario &s);

/** The obs::PipelineConfig a scenario's obs/slo fields describe. */
obs::PipelineConfig obsConfigFor(const Scenario &s);

/**
 * Attach and start an observability pipeline over @p w's app when the
 * scenario enables one (obsEnabled, or any armed SLO objective).
 * @return the pipeline, or nullptr when observability is off. The
 * pipeline must outlive all driving of the world — declare it after
 * the World/WorldHandle so it is destroyed first.
 */
std::unique_ptr<obs::Pipeline> attachObservability(World &w,
                                                   const Scenario &s);

/**
 * Overlay a scenario JSON document onto @p out without validating the
 * result. Unknown keys are errors (typos must not silently change a
 * run). Durations accept "50ms"-style strings or bare numbers
 * (milliseconds); fields left out keep their values in @p out, so CLI
 * flags before --config act as defaults. @p out is unchanged on error.
 * @return false and set @p error on malformed input.
 */
bool mergeScenarioJson(const std::string &text, Scenario &out,
                       std::string &error);

/**
 * mergeScenarioJson() followed by validateScenario() on the result;
 * @p out is unchanged unless both succeed.
 */
bool parseScenarioJson(const std::string &text, Scenario &out,
                       std::string &error);

/**
 * Render @p s as a scenario JSON document (deterministic key order,
 * durations in "ns" units). parseScenarioJson(scenarioToJson(s))
 * reproduces @p s exactly.
 */
std::string scenarioToJson(const Scenario &s);

/** Resolve a --core name; @return false if unknown. */
bool coreModelByName(const std::string &name, cpu::CoreModel &out);

/** The WorldConfig a scenario's hardware fields describe. */
WorldConfig worldConfigFor(const Scenario &s);

/**
 * Build the scenario's app into @p w (any of the --app names:
 * end-to-end services, single-tier baselines, the monolith). Dies on
 * an unknown name.
 */
void buildScenarioApp(World &w, const Scenario &s);

/** How a WorldHandle spreads one Scenario over engine shards. */
enum class Deployment
{
    /**
     * N independent replica worlds with shard-derived seeds, each
     * serving 1/N of the load. No cross-shard channels, so the engine
     * runs with unbounded lookahead. Scales offered throughput.
     */
    Replicate,

    /**
     * One application graph split across shards: every shard builds
     * the identical world from the *same* seed and each tier runs
     * only on its home shard (App::enablePartition). Cross-shard RPCs
     * travel through SimContext::postToShard with conservative
     * lookahead = the inter-shard wire latency. Scales one app.
     */
    Partition,
};

/**
 * A sharded deployment: one World per shard of a ParallelSimulator,
 * in either Deployment mode. Replicate seeds shard i's World with
 * shardSeed(seed, i); Partition reuses the base seed on every shard —
 * the shards are one world, not N experiments — and bounds the engine
 * lookahead by the net model's wire latency (unbounded at one shard,
 * where no cross-shard message can exist). In both modes a one-shard
 * handle reproduces the standalone World bit-for-bit.
 */
class WorldHandle
{
  public:
    WorldHandle(const WorldConfig &base, unsigned shards,
                unsigned threads,
                Deployment deployment = Deployment::Replicate);

    WorldHandle(const WorldHandle &) = delete;
    WorldHandle &operator=(const WorldHandle &) = delete;

    ParallelSimulator &engine() { return engine_; }
    const ParallelSimulator &engine() const { return engine_; }

    unsigned shards() const { return engine_.shardCount(); }

    Deployment deployment() const { return deployment_; }

    World &shard(unsigned i) { return *worlds_[i]; }
    const World &shard(unsigned i) const { return *worlds_[i]; }

    /**
     * Partition-mode wiring, called once after every shard's app has
     * been built: compute the tier -> home-shard map from @p pins
     * (data::assignPlacement over shard 0's service order, strict
     * validation) and arm every shard's App with it plus the peer
     * vector. Fatal outside Partition mode, on invalid pins, or when
     * the shards' graphs disagree.
     */
    void enablePartition(const std::vector<data::PlacementPin> &pins);

    /** The deterministic per-shard seed derivation (i=0 -> seed). */
    static std::uint64_t shardSeed(std::uint64_t seed, unsigned shard);

  private:
    Deployment deployment_;
    ParallelSimulator engine_;
    std::vector<std::unique_ptr<World>> worlds_;
};

/** The load window runWorld() drives a WorldHandle through. */
struct LoadSpec
{
    double qps = 300.0;
    Tick warmup = 0;
    Tick measure = 0;
    workload::UserPopulation users = workload::UserPopulation::uniform(1000);
    std::uint64_t seed = 42;

    /**
     * Arrival process driving each generator. The Poisson default
     * attaches nothing and runs the legacy byte-identical sampler;
     * any other kind gets its own RNG stream (derived from `seed`,
     * disjoint from the query-mix/user draws), so switching processes
     * never perturbs anything but the arrival instants.
     */
    workload::ArrivalConfig arrival;
};

/**
 * The load driver for both deployment modes: workload::runLoadWindow(),
 * the body runLoad() also runs, over this world's shards.
 *
 * Replicate: every shard gets its own open-loop generator at
 * qps/shards (workload seed shardSeed(seed, i)); the measured window
 * is aggregated across shards (histograms merged, counts summed,
 * utilization averaged). With one shard this is runLoad() on shard 0's
 * app, so digests and printed numbers match it bit-for-bit.
 *
 * Partition: one generator drives shard 0's app — the world's single
 * entry point — at the full qps with the plain seed; handler work
 * lands on whichever shard each tier calls home. End-to-end results
 * come from shard 0's app (the only one injecting); utilization is
 * averaged across shards.
 */
workload::LoadResult runWorld(WorldHandle &w, const LoadSpec &spec);

/** What one whole-scenario run produced (the sweep-harness surface). */
struct ScenarioRunResult
{
    workload::LoadResult load;
    std::uint64_t digest = 0; ///< engine execution digest
    std::uint64_t events = 0; ///< events executed
    std::uint64_t failed = 0; ///< failed requests across shards
};

/**
 * One Scenario deployed and ready to drive. The constructor is the
 * single per-shard setup sequence: build the app, then lambda,
 * frequency cap, slow servers, client resilience, deadline, faults,
 * the energy meter (only when @p meterEnergy) and observability, in
 * that order on every shard, then partition wiring. uqsim_run and
 * runScenario() both deploy through it, so a headless sweep reproduces
 * the CLI's digest bit-for-bit. @p s must pass validateScenario().
 */
struct ScenarioWorld
{
    explicit ScenarioWorld(const Scenario &s, bool meterEnergy = false);

    ScenarioWorld(const ScenarioWorld &) = delete;
    ScenarioWorld &operator=(const ScenarioWorld &) = delete;

    WorldHandle world;
    serverless::LambdaConfig lambda; ///< applied when the scenario sets one
    LoadSpec load;                   ///< the window runWorld() drives

    // Per-shard attachments, empty when not asked for. Declared after
    // the WorldHandle so they die first, while the apps they tap live.
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    std::vector<std::unique_ptr<cpu::EnergyMeter>> meters;
    std::vector<std::unique_ptr<obs::Pipeline>> pipelines;
};

/**
 * Run @p s end to end exactly as uqsim_run does: validate it (fatal
 * naming the broken rule), deploy a ScenarioWorld, drive the load
 * window and return the aggregate result. This is the headless driver
 * uqsim_sweep maps over a corpus.
 */
ScenarioRunResult runScenario(const Scenario &s);

} // namespace uqsim::apps

#endif // UQSIM_APPS_SCENARIO_HH
