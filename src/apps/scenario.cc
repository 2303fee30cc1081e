#include "apps/scenario.hh"

#include <algorithm>
#include <limits>
#include <string_view>

#include "apps/catalog.hh"
#include "apps/single_tier.hh"
#include "apps/social_network.hh"
#include "apps/swarm.hh"
#include "core/json.hh"
#include "core/logging.hh"
#include "fault/injector.hh"
#include "gen/topology.hh"
#include "serverless/platform.hh"
#include "workload/generators.hh"

namespace uqsim::apps {

namespace {

/** Golden-ratio stride: distinct shard seeds from one root seed. */
constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ull;

std::string
ticksField(Tick t)
{
    return strCat(t, "ns");
}

bool
durationFromValue(const json::Value &v, Tick &out)
{
    std::string text;
    if (!json::scalarToString(v, text))
        return false;
    return fault::parseDuration(text, out);
}

/** Split a comma-separated name list, trimming blanks. */
std::vector<std::string>
splitNameList(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    auto flush = [&] {
        const auto b = cur.find_first_not_of(" \t");
        if (b == std::string::npos) {
            cur.clear();
            return;
        }
        const auto e = cur.find_last_not_of(" \t");
        out.push_back(cur.substr(b, e - b + 1));
        cur.clear();
    };
    for (char ch : text) {
        if (ch == ',')
            flush();
        else
            cur += ch;
    }
    flush();
    return out;
}

void
writeFault(json::Writer &w, const fault::FaultSpec &f)
{
    w.beginObject();
    w.field("kind", fault::faultKindName(f.kind));
    w.field("t", ticksField(f.start));
    w.field("dur", ticksField(f.duration));
    switch (f.kind) {
      case fault::FaultKind::Crash:
        w.field("service", f.service);
        if (f.role != fault::CrashRole::None) {
            w.field("group", f.instance);
            w.field("role", fault::crashRoleName(f.role));
        } else {
            w.field("instance", f.instance);
        }
        break;
      case fault::FaultKind::ErrorRate:
        w.field("service", f.service);
        w.field("rate", f.rate);
        break;
      case fault::FaultKind::Slowdown:
        w.field("server", f.server);
        w.field("factor", f.factor);
        break;
      case fault::FaultKind::Partition:
        w.field("a", strCat(f.groupA.first, "-", f.groupA.last));
        w.field("b", strCat(f.groupB.first, "-", f.groupB.last));
        w.field("loss", f.loss);
        break;
    }
    w.endObject();
}

/**
 * Parse a "user,batch,best" weight triple. @return false on malformed
 * input or a zero weight (a zero-weight class would starve under WRR).
 */
bool
parseQosWeights(const std::string &text, unsigned &user, unsigned &batch,
                unsigned &best)
{
    const std::vector<std::string> parts = splitNameList(text);
    if (parts.size() != 3)
        return false;
    unsigned vals[3];
    for (int i = 0; i < 3; ++i) {
        const std::string &p = parts[i];
        if (p.empty() ||
            p.find_first_not_of("0123456789") != std::string::npos)
            return false;
        const unsigned long v = std::stoul(p);
        if (v == 0 || v > 1000000)
            return false;
        vals[i] = static_cast<unsigned>(v);
    }
    user = vals[0];
    batch = vals[1];
    best = vals[2];
    return true;
}

ScenarioField
num(const char *flag, const char *key, double Scenario::*m)
{
    ScenarioField f{flag, key, FieldKind::Number};
    f.number = m;
    return f;
}

ScenarioField
uns(const char *flag, const char *key, unsigned Scenario::*m)
{
    ScenarioField f{flag, key, FieldKind::Unsigned};
    f.uns = m;
    return f;
}

ScenarioField
u64(const char *flag, const char *key, std::uint64_t Scenario::*m)
{
    ScenarioField f{flag, key, FieldKind::U64};
    f.u64 = m;
    return f;
}

ScenarioField
dur(const char *flag, const char *key, Tick Scenario::*m)
{
    ScenarioField f{flag, key, FieldKind::Duration};
    f.u64 = m;
    return f;
}

ScenarioField
str(const char *flag, const char *key, std::string Scenario::*m)
{
    ScenarioField f{flag, key, FieldKind::String};
    f.string = m;
    return f;
}

ScenarioField
boolean(const char *flag, const char *key, bool Scenario::*m)
{
    ScenarioField f{flag, key, FieldKind::Bool};
    f.boolean = m;
    return f;
}

constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();

/** The largest value an integer row's member holds. */
std::uint64_t
maxOf(FieldKind kind)
{
    return kind == FieldKind::Unsigned
               ? kMaxUnsigned
               : std::numeric_limits<std::uint64_t>::max();
}

void
storeInteger(Scenario &s, const ScenarioField &f, std::uint64_t v)
{
    if (f.kind == FieldKind::Unsigned)
        s.*f.uns = static_cast<unsigned>(v);
    else
        s.*f.u64 = v;
}

/**
 * Read JSON value @p v of @p key as an integer no larger than @p max.
 * The range check precedes the double-to-integer cast, which is
 * undefined at or above 2^64.
 */
bool
jsonInteger(const json::Value &v, const std::string &key,
            std::uint64_t max, std::uint64_t &out, std::string &error)
{
    constexpr double kTwoTo64 = 18446744073709551616.0;
    if (!v.isNumber() || !(v.number >= 0.0 && v.number < kTwoTo64) ||
        v.number != static_cast<double>(
                        static_cast<std::uint64_t>(v.number))) {
        error = strCat("scenario key '", key,
                       "' must be a non-negative integer");
        return false;
    }
    out = static_cast<std::uint64_t>(v.number);
    if (out > max) {
        error = strCat("scenario key '", key, "' must be <= ", max);
        return false;
    }
    return true;
}

bool
readJsonPins(Scenario &s, const json::Value &v, std::string &error)
{
    if (!v.isArray()) {
        error = "scenario key 'placement.pin' must be an array";
        return false;
    }
    s.pins.clear();
    for (const json::Value &entry : v.array) {
        if (!entry.isObject()) {
            error = "placement.pin entries must be objects";
            return false;
        }
        data::PlacementPin pin;
        bool have_tier = false;
        for (const auto &[name, ev] : entry.object) {
            if (name == "tier") {
                if (!ev.isString()) {
                    error = "scenario key 'placement.pin.tier' must be "
                            "a string";
                    return false;
                }
                pin.tier = ev.string;
                have_tier = true;
            } else if (name == "shard") {
                std::uint64_t u = 0;
                if (!jsonInteger(ev, "placement.pin.shard", kMaxUnsigned,
                                 u, error))
                    return false;
                pin.shard = static_cast<unsigned>(u);
            } else {
                error = strCat("unknown scenario key 'placement.pin.",
                               name, "'");
                return false;
            }
        }
        if (!have_tier) {
            error = "placement.pin entries need a 'tier' name";
            return false;
        }
        s.pins.push_back(std::move(pin));
    }
    return true;
}

/** Read one JSON value into @p f's member of @p s. */
bool
readJsonField(Scenario &s, const ScenarioField &f, const json::Value &v,
              std::string &error)
{
    auto wrongType = [&](const char *what) {
        error = strCat("scenario key '", f.key, "' must be ", what);
        return false;
    };
    switch (f.kind) {
      case FieldKind::Number:
        if (!v.isNumber())
            return wrongType("a number");
        s.*f.number = v.number;
        return true;
      case FieldKind::Unsigned:
      case FieldKind::U64: {
        std::uint64_t u = 0;
        if (!jsonInteger(v, f.key, maxOf(f.kind), u, error))
            return false;
        storeInteger(s, f, u);
        return true;
      }
      case FieldKind::Duration:
        if (!durationFromValue(v, s.*f.u64))
            return wrongType("a duration (e.g. \"50ms\")");
        return true;
      case FieldKind::String:
        if (!v.isString())
            return wrongType("a string");
        s.*f.string = v.string;
        return true;
      case FieldKind::Bool:
        if (!v.isBool())
            return wrongType("a boolean");
        s.*f.boolean = v.boolean;
        return true;
      case FieldKind::QosWeights:
        if (!v.isString())
            return wrongType("a string");
        if (!parseQosWeights(v.string, s.qosWeightUser, s.qosWeightBatch,
                             s.qosWeightBest)) {
            error = strCat("scenario key 'qos.weights' must be three "
                           "positive integers \"user,batch,best\", got '",
                           v.string, "'");
            return false;
        }
        return true;
      case FieldKind::Pin:
        return readJsonPins(s, v, error);
      case FieldKind::Faults:
        if (!v.isArray())
            return wrongType("an array");
        s.faults.clear();
        for (const json::Value &entry : v.array) {
            fault::FaultSpec spec;
            if (!fault::faultFromJson(entry, spec, error))
                return false;
            s.faults.push_back(std::move(spec));
        }
        return true;
    }
    return false;
}

/** Write @p f's member of @p s as member @p name of the open object. */
void
writeJsonField(json::Writer &w, const std::string &name,
               const ScenarioField &f, const Scenario &s)
{
    switch (f.kind) {
      case FieldKind::Number:
        w.field(name, s.*f.number);
        break;
      case FieldKind::Unsigned:
        w.field(name, s.*f.uns);
        break;
      case FieldKind::U64:
        w.field(name, s.*f.u64);
        break;
      case FieldKind::Duration:
        w.field(name, ticksField(s.*f.u64));
        break;
      case FieldKind::String:
        w.field(name, s.*f.string);
        break;
      case FieldKind::Bool:
        w.field(name, s.*f.boolean);
        break;
      case FieldKind::QosWeights:
        w.field(name, strCat(s.qosWeightUser, ",", s.qosWeightBatch, ",",
                             s.qosWeightBest));
        break;
      case FieldKind::Pin:
        w.beginArray(name);
        for (const data::PlacementPin &p : s.pins) {
            w.beginObject();
            w.field("tier", p.tier);
            w.field("shard", p.shard);
            w.endObject();
        }
        w.endArray();
        break;
      case FieldKind::Faults:
        w.beginArray(name);
        for (const fault::FaultSpec &spec : s.faults)
            writeFault(w, spec);
        w.endArray();
        break;
    }
}

/** The schema row with dotted JSON key @p key, or nullptr. */
const ScenarioField *
fieldForKey(const std::string &key)
{
    for (const ScenarioField &f : scenarioSchema())
        if (key == f.key)
            return &f;
    return nullptr;
}

} // namespace

const std::vector<ScenarioField> &
scenarioSchema()
{
    using S = Scenario;
    // Row order is the --dump-config key order; each nested block's
    // rows stay contiguous.
    static const std::vector<ScenarioField> kSchema = {
        str("--app", "app", &S::app),
        num("--qps", "qps", &S::qps),
        num("--duration", "duration_sec", &S::durationSec),
        num("--warmup", "warmup_sec", &S::warmupSec),
        uns("--servers", "servers", &S::servers),
        uns("--drones", "drones", &S::drones),
        str("--core", "core", &S::core),
        num("--freq", "freq_mhz", &S::freqMhz),
        boolean("--fpga", "fpga", &S::fpga),
        str("--lambda", "lambda", &S::lambda),
        uns("--slow-servers", "slow_servers", &S::slowServers),
        num("--slow-factor", "slow_factor", &S::slowFactor),
        num("--skew", "skew", &S::skew),
        u64("--users", "users", &S::users),
        u64("--seed", "seed", &S::seed),
        uns("--shards", "shards", &S::shards),
        uns("--threads", "threads", &S::threads),
        dur("--rpc-timeout", "rpc_timeout", &S::rpcTimeout),
        dur("--deadline", "deadline", &S::deadline),
        uns("--retries", "retries", &S::retries),
        num("--retry-budget", "retry_budget", &S::retryBudget),
        boolean("--breaker", "breaker", &S::breaker),
        uns("--shed", "shed", &S::shed),
        u64("--trace-capacity", "trace_capacity", &S::traceCapacity),

        u64("--cache-keys", "data.keys", &S::dataKeys),
        u64("--cache-capacity", "data.capacity", &S::dataCapacity),
        str("--cache-policy", "data.policy", &S::dataPolicy),
        str("--cache-popularity", "data.popularity", &S::dataPopularity),
        num("--cache-zipf", "data.zipf_s", &S::dataZipfS),
        num("--cache-hot-fraction", "data.hot_fraction",
            &S::dataHotFraction),
        num("--cache-hot-mass", "data.hot_mass", &S::dataHotMass),
        dur("--cache-ttl", "data.ttl", &S::dataTtl),
        str("--cache-write", "data.write", &S::dataWrite),
        dur("--cache-shift", "data.shift_period", &S::dataShiftPeriod),
        uns("--cache-vnodes", "data.vnodes", &S::dataVnodes),

        boolean("--qos", "qos.enabled", &S::qosEnabled),
        {"--qos-weights", "qos.weights", FieldKind::QosWeights},
        uns("--qos-queue", "qos.queue", &S::qosQueue),
        num("--qos-rate", "qos.rate", &S::qosRate),
        num("--qos-burst", "qos.burst", &S::qosBurst),
        num("--qos-shed-batch", "qos.shed_batch", &S::qosShedBatch),
        num("--qos-shed-best", "qos.shed_best", &S::qosShedBest),
        str("--qos-batch", "qos.batch", &S::qosBatch),
        str("--qos-best-effort", "qos.best_effort", &S::qosBestEffort),

        uns("--replica-factor", "replication.factor", &S::replicaFactor),
        uns("--replica-quorum", "replication.quorum", &S::replicaQuorum),
        dur("--replica-apply-lag", "replication.apply_lag",
            &S::replicaApplyLag),
        dur("--replica-election-timeout", "replication.election_timeout",
            &S::replicaElectionTimeout),
        dur("--replica-catch-up", "replication.catch_up",
            &S::replicaCatchUp),
        str("--replica-read", "replication.read", &S::replicaRead),
        uns("--txn-keys", "replication.txn_keys", &S::txnKeys),
        dur("--txn-prepare-timeout", "replication.txn_prepare_timeout",
            &S::txnPrepareTimeout),

        boolean(nullptr, "slo.enabled", &S::obsEnabled),
        dur("--timeseries-interval", "slo.interval", &S::obsInterval),
        u64("--timeseries-ring", "slo.ring", &S::obsRing),
        dur("--slo-latency", "slo.latency", &S::sloLatency),
        num("--slo-quantile", "slo.quantile", &S::sloQuantile),
        uns("--slo-window", "slo.window", &S::sloWindow),
        num("--slo-error-rate", "slo.error_rate", &S::sloErrorRate),
        str("--slo-tier", "slo.tier", &S::sloTier),

        str("--placement", "placement.mode", &S::placement),
        {"--pin", "placement.pin", FieldKind::Pin},

        str("--generate", "generate.profile", &S::genProfile),
        u64("--gen-seed", "generate.seed", &S::genSeed),
        uns("--gen-depth", "generate.depth", &S::genDepth),
        uns("--gen-width", "generate.width", &S::genWidth),
        num("--gen-fanout", "generate.fanout", &S::genFanout),

        str("--arrival", "arrival.kind", &S::arrival),
        num("--arrival-burst", "arrival.burst", &S::arrivalBurst),
        num("--arrival-duty", "arrival.duty", &S::arrivalDuty),
        dur("--arrival-dwell", "arrival.dwell", &S::arrivalDwell),
        dur("--arrival-period", "arrival.period", &S::arrivalPeriod),
        num("--arrival-low", "arrival.low", &S::arrivalLow),
        dur("--arrival-flash-at", "arrival.flash_at", &S::arrivalFlashAt),
        dur("--arrival-flash-ramp", "arrival.flash_ramp",
            &S::arrivalFlashRamp),
        num("--arrival-flash-mult", "arrival.flash_mult",
            &S::arrivalFlashMult),
        dur("--arrival-flash-hold", "arrival.flash_hold",
            &S::arrivalFlashHold),

        {"--fault", "faults", FieldKind::Faults},
    };
    return kSchema;
}

const ScenarioField *
scenarioFieldForFlag(const std::string &flag)
{
    for (const ScenarioField &f : scenarioSchema())
        if (f.flag != nullptr && flag == f.flag)
            return &f;
    return nullptr;
}

bool
applyScenarioFlag(Scenario &s, const ScenarioField &f,
                  const std::string &text, std::string &error)
{
    switch (f.kind) {
      case FieldKind::Number:
        if (!fault::parseFinite(text, s.*f.number)) {
            error = strCat("bad number '", text, "' for ", f.flag);
            return false;
        }
        return true;
      case FieldKind::Unsigned:
      case FieldKind::U64: {
        std::uint64_t v = 0;
        if (!fault::parseUnsigned(text, v)) {
            error = strCat("bad non-negative integer '", text, "' for ",
                           f.flag);
            return false;
        }
        if (v > maxOf(f.kind)) {
            error = strCat(f.flag, " must be <= ", maxOf(f.kind),
                           ", got ", text);
            return false;
        }
        storeInteger(s, f, v);
        return true;
      }
      case FieldKind::Duration:
        if (!fault::parseDuration(text, s.*f.u64)) {
            error = strCat("bad duration '", text, "' for ", f.flag,
                           " (want e.g. 50ms, 2s, 800us)");
            return false;
        }
        return true;
      case FieldKind::String:
        s.*f.string = text;
        return true;
      case FieldKind::Bool:
        s.*f.boolean = true;
        return true;
      case FieldKind::QosWeights:
        if (!parseQosWeights(text, s.qosWeightUser, s.qosWeightBatch,
                             s.qosWeightBest)) {
            error = strCat("bad weights '", text, "' for ", f.flag,
                           " (want three positive integers "
                           "\"user,batch,best\")");
            return false;
        }
        return true;
      case FieldKind::Pin: {
        const std::size_t eq = text.find('=');
        unsigned shard = 0;
        if (eq == std::string::npos || eq == 0 ||
            !fault::parseUnsigned(text.substr(eq + 1), shard)) {
            error = strCat("bad pin '", text, "' for ", f.flag,
                           " (want TIER=SHARD, e.g. user-db=1)");
            return false;
        }
        s.pins.push_back({text.substr(0, eq), shard});
        return true;
      }
      case FieldKind::Faults: {
        fault::FaultSpec spec;
        if (!fault::parseFaultFlag(text, spec, error)) {
            error = strCat("bad --fault '", text, "': ", error);
            return false;
        }
        s.faults.push_back(std::move(spec));
        return true;
      }
    }
    return false;
}

bool
mergeScenarioJson(const std::string &text, Scenario &out,
                  std::string &error)
{
    json::Value root;
    if (!json::parse(text, root, error))
        return false;
    if (!root.isObject()) {
        error = "scenario must be a JSON object";
        return false;
    }

    Scenario s = out; // absent keys keep the caller's values
    for (const auto &[key, v] : root.object) {
        const ScenarioField *f =
            key.find('.') == std::string::npos ? fieldForKey(key) : nullptr;
        if (f != nullptr) {
            if (!readJsonField(s, *f, v, error))
                return false;
            continue;
        }
        const std::string prefix = key + ".";
        bool is_block = false;
        for (const ScenarioField &g : scenarioSchema())
            is_block = is_block || std::string_view(g.key).starts_with(prefix);
        if (!is_block) {
            error = strCat("unknown scenario key '", key, "'");
            return false;
        }
        if (!v.isObject()) {
            error = strCat("scenario key '", key, "' must be an object");
            return false;
        }
        for (const auto &[name, member] : v.object) {
            const std::string dotted = strCat(key, ".", name);
            const ScenarioField *g = fieldForKey(dotted);
            if (g == nullptr) {
                error = strCat("unknown scenario key '", dotted, "'");
                return false;
            }
            if (!readJsonField(s, *g, member, error))
                return false;
        }
    }
    out = std::move(s);
    return true;
}

bool
parseScenarioJson(const std::string &text, Scenario &out,
                  std::string &error)
{
    Scenario s = out;
    if (!mergeScenarioJson(text, s, error) || !validateScenario(s, error))
        return false;
    out = std::move(s);
    return true;
}

bool
validateScenario(const Scenario &s, std::string &error)
{
    auto fail = [&](std::string message) {
        error = std::move(message);
        return false;
    };
    if (s.qps <= 0.0)
        return fail("qps must be positive");
    if (s.durationSec <= 0.0)
        return fail("duration_sec must be positive");
    if (s.warmupSec < 0.0)
        return fail("warmup_sec must be non-negative");
    if (s.servers == 0)
        return fail("servers must be positive");
    if (s.shards == 0 || s.threads == 0)
        return fail("shards and threads must be positive");
    if (s.skew >= 100.0)
        return fail("skew must be below 100");
    if (s.retryBudget < 0.0)
        return fail("retry_budget must be >= 0");
    if (!s.lambda.empty() && s.lambda != "s3" && s.lambda != "mem")
        return fail(strCat("unknown lambda kind '", s.lambda,
                           "' (want s3 or mem)"));
    cpu::CoreModel core;
    if (!coreModelByName(s.core, core))
        return fail(strCat("unknown core model '", s.core, "'"));

    data::CachePolicy pol;
    if (!data::cachePolicyByName(s.dataPolicy, pol))
        return fail(strCat("unknown data.policy '", s.dataPolicy,
                           "' (want lru, lfu or slru)"));
    data::Popularity pop;
    if (!data::popularityByName(s.dataPopularity, pop))
        return fail(strCat("unknown data.popularity '", s.dataPopularity,
                           "' (want zipf, uniform or hotspot)"));
    data::WritePolicy wp;
    if (!data::writePolicyByName(s.dataWrite, wp))
        return fail(strCat("unknown data.write '", s.dataWrite,
                           "' (want through or invalidate)"));
    if (s.dataKeys > 0 && s.dataCapacity == 0)
        return fail("data.capacity must be positive when data.keys is set");
    if (s.dataZipfS < 0.0)
        return fail("data.zipf_s must be >= 0");
    if (s.dataHotFraction <= 0.0 || s.dataHotFraction > 1.0)
        return fail("data.hot_fraction must be in (0, 1]");
    if (s.dataHotMass < 0.0 || s.dataHotMass > 1.0)
        return fail("data.hot_mass must be in [0, 1]");
    if (s.dataVnodes == 0)
        return fail("data.vnodes must be positive");

    if (s.qosWeightUser == 0 || s.qosWeightBatch == 0 ||
        s.qosWeightBest == 0)
        return fail("qos.weights must all be >= 1");
    if (s.qosRate < 0.0)
        return fail("qos.rate must be >= 0");
    if (s.qosBurst <= 0.0)
        return fail("qos.burst must be positive");
    if (s.qosShedBatch <= 0.0 || s.qosShedBatch > 1.0)
        return fail("qos.shed_batch must be in (0, 1]");
    if (s.qosShedBest <= 0.0 || s.qosShedBest > 1.0)
        return fail("qos.shed_best must be in (0, 1]");

    replica::ReadPreference rp;
    if (!replica::readPreferenceByName(s.replicaRead, rp))
        return fail(strCat("unknown replication.read '", s.replicaRead,
                           "' (want leader, nearest or ryw)"));
    if (s.replicaFactor >= 2 && s.dataKeys == 0)
        return fail("replication.factor needs data.keys > 0");
    if (s.replicaFactor == 1)
        return fail("replication.factor must be 0 (off) or >= 2");
    if (s.replicaQuorum > s.replicaFactor)
        return fail("replication.quorum must be <= replication.factor");
    if (s.txnKeys == 1)
        return fail("replication.txn_keys must be 0 (off) or >= 2");
    if (s.txnKeys >= 2 && s.replicaFactor < 2)
        return fail("replication.txn_keys needs replication.factor >= 2");
    if (s.replicaFactor >= 2 && s.replicaApplyLag == 0)
        return fail("replication.apply_lag must be positive");
    if (s.replicaFactor >= 2 && s.replicaElectionTimeout == 0)
        return fail("replication.election_timeout must be positive");
    if (s.txnKeys >= 2 && s.txnPrepareTimeout == 0)
        return fail("replication.txn_prepare_timeout must be positive");

    if (s.obsInterval == 0)
        return fail("slo.interval must be positive");
    if (s.obsRing == 0)
        return fail("slo.ring must be positive");
    if (s.sloQuantile <= 0.0 || s.sloQuantile >= 1.0)
        return fail("slo.quantile must be in (0, 1)");
    if (s.sloWindow == 0)
        return fail("slo.window must be positive");
    if (s.sloErrorRate < 0.0 || s.sloErrorRate > 1.0)
        return fail("slo.error_rate must be in [0, 1]");

    if (s.placement != "none" && s.placement != "replicate" &&
        s.placement != "partition")
        return fail(strCat("unknown placement.mode '", s.placement,
                           "' (want none, replicate or partition)"));
    if (!s.pins.empty() && s.placement != "partition")
        return fail("placement.pin needs placement.mode 'partition'");
    if (s.placement == "partition") {
        // Partitioning splits ONE world across shards; features that
        // assume either replica worlds or whole-world ownership of the
        // fault/offload machinery are rejected rather than silently
        // mis-modelled.
        if (!s.faults.empty())
            return fail("placement 'partition' does not support faults");
        if (s.replicaFactor >= 2)
            return fail(
                "placement 'partition' does not support replication");
        if (s.fpga)
            return fail("placement 'partition' does not support fpga");
        if (!s.lambda.empty())
            return fail(
                "placement 'partition' does not support lambda tiers");
        if (s.app.rfind("swarm-", 0) == 0)
            return fail(strCat("placement 'partition' does not support "
                               "app '",
                               s.app, "'"));
        for (const data::PlacementPin &pin : s.pins)
            if (pin.shard >= s.shards)
                return fail(strCat("placement pin '", pin.tier,
                                   "' targets shard ", pin.shard,
                                   " but only ", s.shards,
                                   " shards exist"));
        for (std::size_t i = 0; i < s.pins.size(); ++i)
            for (std::size_t j = 0; j < i; ++j)
                if (s.pins[i].tier == s.pins[j].tier)
                    return fail(strCat("duplicate placement pin for tier '",
                                       s.pins[i].tier, "'"));
    }

    if (!s.genProfile.empty() &&
        gen::genProfileByName(s.genProfile) == nullptr)
        return fail(strCat("unknown generate.profile '", s.genProfile,
                           "' (try --list-gen-profiles)"));
    if (s.genProfile.empty() &&
        (s.genDepth != 0 || s.genWidth != 0 || s.genFanout != 0.0))
        return fail("generate.depth/width/fanout need generate.profile");
    if (s.genDepth > 8)
        return fail("generate.depth must be <= 8");
    if (s.genWidth > 8)
        return fail("generate.width must be <= 8");
    if (s.genFanout < 0.0 || s.genFanout > 8.0)
        return fail("generate.fanout must be in [0, 8]");

    workload::ArrivalKind arrival_kind;
    if (!workload::arrivalKindByName(s.arrival, arrival_kind))
        return fail(strCat("unknown arrival.kind '", s.arrival,
                           "' (want poisson, mmpp, diurnal or flash)"));
    if (s.arrivalBurst < 1.0)
        return fail("arrival.burst must be >= 1");
    if (s.arrivalDuty <= 0.0 || s.arrivalDuty >= 1.0)
        return fail("arrival.duty must be in (0, 1)");
    if (s.arrivalDwell == 0)
        return fail("arrival.dwell must be positive");
    if (s.arrivalPeriod == 0)
        return fail("arrival.period must be positive");
    if (s.arrivalLow <= 0.0 || s.arrivalLow > 1.0)
        return fail("arrival.low must be in (0, 1]");
    if (s.arrivalFlashMult < 1.0)
        return fail("arrival.flash_mult must be >= 1");
    if (s.arrivalFlashRamp == 0)
        return fail("arrival.flash_ramp must be positive");
    return true;
}

std::string
scenarioToJson(const Scenario &s)
{
    json::Writer w;
    w.beginObject();
    std::string open; // the nested block being written, "" at top level
    for (const ScenarioField &f : scenarioSchema()) {
        const std::string key = f.key;
        const std::size_t dot = key.find('.');
        const std::string section =
            dot == std::string::npos ? std::string() : key.substr(0, dot);
        if (section != open) {
            if (!open.empty())
                w.endObject();
            if (!section.empty())
                w.beginObject(section);
            open = section;
        }
        writeJsonField(w, section.empty() ? key : key.substr(dot + 1), f,
                       s);
    }
    if (!open.empty())
        w.endObject();
    w.endObject();
    return w.str() + "\n";
}

bool
coreModelByName(const std::string &name, cpu::CoreModel &out)
{
    if (name == "xeon")
        out = cpu::CoreModel::xeon();
    else if (name == "xeon18")
        out = cpu::CoreModel::xeonAt1800();
    else if (name == "thunderx")
        out = cpu::CoreModel::thunderx();
    else
        return false;
    return true;
}

data::DataTierConfig
dataTierConfigFor(const Scenario &s)
{
    data::DataTierConfig c;
    c.keyspace.keys = s.dataKeys;
    if (!data::popularityByName(s.dataPopularity, c.keyspace.popularity))
        fatal(strCat("unknown data popularity '", s.dataPopularity, "'"));
    c.keyspace.zipfS = s.dataZipfS;
    c.keyspace.hotFraction = s.dataHotFraction;
    c.keyspace.hotMass = s.dataHotMass;
    c.keyspace.shiftPeriod = s.dataShiftPeriod;
    c.cache.capacity = s.dataCapacity;
    if (!data::cachePolicyByName(s.dataPolicy, c.cache.policy))
        fatal(strCat("unknown data policy '", s.dataPolicy, "'"));
    if (!data::writePolicyByName(s.dataWrite, c.cache.write))
        fatal(strCat("unknown data write policy '", s.dataWrite, "'"));
    c.cache.ttl = s.dataTtl;
    c.vnodes = s.dataVnodes;
    return c;
}

replica::ReplicationConfig
replicationConfigFor(const Scenario &s)
{
    replica::ReplicationConfig c;
    c.factor = s.replicaFactor;
    c.writeQuorum = s.replicaQuorum;
    c.applyLag = s.replicaApplyLag;
    c.electionTimeout = s.replicaElectionTimeout;
    c.catchUp = s.replicaCatchUp;
    if (!replica::readPreferenceByName(s.replicaRead, c.readPreference))
        fatal(strCat("unknown read preference '", s.replicaRead, "'"));
    c.txnKeys = s.txnKeys;
    c.txnPrepareTimeout = s.txnPrepareTimeout;
    return c;
}

service::QosConfig
qosConfigFor(const Scenario &s)
{
    service::QosConfig c;
    c.policy.enabled = true;
    c.policy.weights = {s.qosWeightUser, s.qosWeightBatch,
                        s.qosWeightBest};
    c.policy.classQueueCapacity = s.qosQueue;
    c.policy.ratePerInstance = s.qosRate;
    c.policy.burst = s.qosBurst;
    c.policy.shedAt = {1.0, s.qosShedBatch, s.qosShedBest};
    c.batchQueries = splitNameList(s.qosBatch);
    c.bestEffortQueries = splitNameList(s.qosBestEffort);
    return c;
}

workload::ArrivalConfig
arrivalConfigFor(const Scenario &s)
{
    workload::ArrivalConfig c;
    if (!workload::arrivalKindByName(s.arrival, c.kind))
        fatal(strCat("unknown arrival kind '", s.arrival, "'"));
    c.burst = s.arrivalBurst;
    c.duty = s.arrivalDuty;
    c.dwell = s.arrivalDwell;
    c.period = s.arrivalPeriod;
    c.low = s.arrivalLow;
    c.flashAt = s.arrivalFlashAt;
    c.flashRamp = s.arrivalFlashRamp;
    c.flashMult = s.arrivalFlashMult;
    c.flashHold = s.arrivalFlashHold;
    return c;
}

obs::PipelineConfig
obsConfigFor(const Scenario &s)
{
    obs::PipelineConfig c;
    c.interval = s.obsInterval;
    c.ring = static_cast<std::size_t>(s.obsRing);
    c.slo.tier = s.sloTier;
    c.slo.latency = s.sloLatency;
    c.slo.quantile = s.sloQuantile;
    c.slo.window = s.sloWindow;
    c.slo.errorRate = s.sloErrorRate;
    return c;
}

std::unique_ptr<obs::Pipeline>
attachObservability(World &w, const Scenario &s)
{
    // Arming an SLO objective implies telemetry: the monitor cannot
    // run without the sampler feeding it.
    const bool enabled =
        s.obsEnabled || s.sloLatency > 0 || s.sloErrorRate > 0.0;
    if (!enabled)
        return nullptr;
    auto p = std::make_unique<obs::Pipeline>(*w.app, obsConfigFor(s));
    p->start();
    return p;
}

WorldConfig
worldConfigFor(const Scenario &s)
{
    WorldConfig config;
    config.workerServers = s.servers;
    if (!coreModelByName(s.core, config.coreModel))
        fatal(strCat("unknown core model '", s.core, "'"));
    config.seed = s.seed;
    config.appConfig.traceCapacity = s.traceCapacity;
    if (s.fpga)
        config.appConfig.fpga = net::FpgaOffloadModel::on();
    return config;
}

void
buildScenarioApp(World &w, const Scenario &s)
{
    // A generate block replaces the hand-written app with a sampled
    // topology; every opt-in layer below composes with it unchanged.
    if (!s.genProfile.empty()) {
        const gen::GenProfile *p = gen::genProfileByName(s.genProfile);
        if (p == nullptr)
            fatal(strCat("unknown gen profile '", s.genProfile,
                         "' (try --list-gen-profiles)"));
        gen::GenOverrides ov;
        ov.depth = s.genDepth;
        ov.width = s.genWidth;
        ov.fanout = s.genFanout;
        gen::buildGeneratedApp(w,
                               gen::sampleTopology(*p, s.genSeed, ov));

        if (s.dataKeys > 0)
            w.app->enableKeyedData(dataTierConfigFor(s));
        if (s.replicaFactor >= 2)
            w.app->enableReplication(replicationConfigFor(s));
        if (s.qosEnabled)
            w.app->enableQos(qosConfigFor(s));
        return;
    }

    const std::string &n = s.app;
    SwarmOptions so;
    so.drones = s.drones;
    if (n == "social-network")
        buildSocialNetwork(w);
    else if (n == "social-monolith")
        buildSocialNetworkMonolith(w);
    else if (n == "media")
        buildApp(w, AppId::MediaService);
    else if (n == "ecommerce")
        buildApp(w, AppId::Ecommerce);
    else if (n == "banking")
        buildApp(w, AppId::Banking);
    else if (n == "swarm-cloud")
        buildSwarm(w, SwarmVariant::Cloud, so);
    else if (n == "swarm-edge")
        buildSwarm(w, SwarmVariant::Edge, so);
    else if (n == "nginx")
        buildSingleTier(w, SingleTierKind::Nginx);
    else if (n == "memcached")
        buildSingleTier(w, SingleTierKind::Memcached);
    else if (n == "mongodb")
        buildSingleTier(w, SingleTierKind::MongoDB);
    else if (n == "xapian")
        buildSingleTier(w, SingleTierKind::Xapian);
    else if (n == "recommender")
        buildSingleTier(w, SingleTierKind::Recommender);
    else
        fatal(strCat("unknown app '", n, "' (try --list)"));

    // The keyed data tier is strictly opt-in: without keys the build
    // above is byte-identical to every pre-data-tier scenario.
    if (s.dataKeys > 0)
        w.app->enableKeyedData(dataTierConfigFor(s));

    // Replica groups layer on top of the keyed tier — and are just as
    // strictly opt-in (factor < 2 leaves no replica state behind).
    if (s.replicaFactor >= 2)
        w.app->enableReplication(replicationConfigFor(s));

    // So is admission control: without a qos block no class queues
    // exist and execution matches the legacy single-FIFO digest.
    if (s.qosEnabled)
        w.app->enableQos(qosConfigFor(s));
}

WorldHandle::WorldHandle(const WorldConfig &base, unsigned shards,
                         unsigned threads, Deployment deployment)
    : deployment_(deployment),
      // Partitioned shards exchange messages whose minimum delay is
      // the wire latency, so that is the engine's conservative
      // lookahead. Replica worlds (and any one-shard deployment)
      // never talk across shards: unbounded.
      engine_({shards,
               deployment == Deployment::Partition && shards > 1
                   ? base.netConfig.wireLatency
                   : kMaxTick,
               threads})
{
    worlds_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i) {
        WorldConfig config = base;
        // Replicas are N distinct experiments (stride-derived seeds);
        // a partition is ONE world, so every shard must draw the
        // identical construction randomness.
        config.seed = deployment == Deployment::Partition
                          ? base.seed
                          : shardSeed(base.seed, i);
        worlds_.push_back(
            std::make_unique<World>(config, engine_.context(i)));
    }
}

void
WorldHandle::enablePartition(const std::vector<data::PlacementPin> &pins)
{
    if (deployment_ != Deployment::Partition)
        fatal("enablePartition on a non-partition deployment");

    const World &w0 = *worlds_[0];
    std::vector<std::string> tiers;
    tiers.reserve(w0.app->services().size());
    for (const service::Microservice *svc : w0.app->services())
        tiers.push_back(svc->name());

    // Cross-shard calls address tiers by service-order index, so every
    // shard must have built the identical graph.
    for (unsigned i = 1; i < shards(); ++i) {
        const auto &svcs = worlds_[i]->app->services();
        if (svcs.size() != tiers.size())
            fatal("partitioned shards built different graphs");
        for (std::size_t t = 0; t < tiers.size(); ++t)
            if (svcs[t]->name() != tiers[t])
                fatal("partitioned shards built different graphs");
    }

    std::map<std::string, unsigned> homes;
    std::string error;
    if (!data::assignPlacement(tiers, w0.app->entry(), shards(), pins,
                               homes, error))
        fatal(error);

    std::vector<service::App *> peers;
    peers.reserve(shards());
    for (unsigned i = 0; i < shards(); ++i)
        peers.push_back(worlds_[i]->app.get());
    for (unsigned i = 0; i < shards(); ++i)
        worlds_[i]->app->enablePartition(peers, homes);
}

std::uint64_t
WorldHandle::shardSeed(std::uint64_t seed, unsigned shard)
{
    return seed + shard * kSeedStride;
}

workload::LoadResult
runWorld(WorldHandle &w, const LoadSpec &spec)
{
    const unsigned shards = w.shards();
    const bool partitioned = w.deployment() == Deployment::Partition;

    // Replicate: one generator per shard, each shard an independent
    // replica fed its slice of the offered load with a shard-derived
    // workload seed (shardSeed(seed, 0) == seed, so one shard is
    // runLoad()'s own call).
    //
    // Partition: one generator on shard 0 — the world's single entry
    // point — at the full rate with the plain seed; handler work lands
    // on whichever shard each tier calls home, and every request
    // completes on shard 0, so only shard 0 carries end-to-end
    // numbers. Utilization spans every shard's servers in both modes.
    const unsigned injecting = partitioned ? 1u : shards;
    std::vector<workload::LoadSource> sources;
    std::vector<service::App *> apps;
    for (unsigned i = 0; i < shards; ++i) {
        service::App *app = w.shard(i).app.get();
        apps.push_back(app);
        if (i < injecting)
            sources.push_back({app, workload::QueryMix::fromApp(*app),
                               spec.qps / injecting,
                               WorldHandle::shardSeed(spec.seed, i)});
    }
    return workload::runLoadWindow(sources, apps, spec.qps, spec.warmup,
                                   spec.measure, spec.users, spec.arrival);
}

ScenarioWorld::ScenarioWorld(const Scenario &s, bool meterEnergy)
    : world(worldConfigFor(s), s.shards, s.threads,
            s.placement == "partition" ? Deployment::Partition
                                       : Deployment::Replicate)
{
    if (!s.lambda.empty())
        lambda.stateStore = s.lambda == "s3"
                                ? serverless::StateStoreKind::S3
                                : serverless::StateStoreKind::RemoteMemory;

    // Build and configure every shard identically (modulo its seed).
    // The step order is part of the digest: one shard reproduces the
    // classic single-world driver bit-for-bit.
    for (unsigned i = 0; i < world.shards(); ++i) {
        World &w = world.shard(i);
        buildScenarioApp(w, s);
        service::App &app = *w.app;

        if (!s.lambda.empty())
            serverless::LambdaPlatform::applyToApp(app, lambda, w.cluster);
        if (s.freqMhz > 0.0)
            w.cluster.setAllFrequenciesMhz(s.freqMhz);
        if (s.slowServers > 0)
            w.cluster.injectSlowServers(s.slowServers, s.slowFactor);

        // Client-side resilience: the same policy on the callers of
        // every tier. Left at defaults the RPC path is the legacy one
        // and digests match older builds bit-for-bit.
        if (s.rpcTimeout || s.retries || s.breaker || s.shed) {
            for (service::Microservice *svc : app.services()) {
                rpc::ResiliencePolicy &pol = svc->mutableDef().resilience;
                pol.timeout = s.rpcTimeout;
                if (s.retries) {
                    pol.retry.maxAttempts = s.retries + 1;
                    pol.retry.budgetRatio = s.retryBudget;
                }
                pol.breaker.enabled = s.breaker;
                pol.shedQueueLength = s.shed;
            }
        }
        if (s.deadline)
            app.setRequestDeadline(s.deadline);

        if (!s.faults.empty()) {
            auto injector = std::make_unique<fault::FaultInjector>(
                app, WorldHandle::shardSeed(s.seed, i));
            injector->addAll(s.faults);
            injector->arm();
            injectors.push_back(std::move(injector));
        }

        if (meterEnergy) {
            meters.push_back(std::make_unique<cpu::EnergyMeter>(
                w.ctx, w.cluster, cpu::PowerModel::xeon()));
            meters.back()->start();
        }

        if (auto pipe = attachObservability(w, s))
            pipelines.push_back(std::move(pipe));
    }
    // Pin every tier to its home shard now that each shard's identical
    // graph exists. Dies on a pin naming an unknown tier, the one
    // placement error validateScenario() cannot see.
    if (world.deployment() == Deployment::Partition)
        world.enablePartition(s.pins);

    load.qps = s.qps;
    load.warmup = secToTicks(s.warmupSec);
    load.measure = secToTicks(s.durationSec);
    load.users = s.skew >= 0.0
                     ? workload::UserPopulation::skewed(s.users, s.skew)
                     : workload::UserPopulation::uniform(s.users);
    load.seed = s.seed + 1;
    load.arrival = arrivalConfigFor(s);
}

ScenarioRunResult
runScenario(const Scenario &s)
{
    std::string error;
    if (!validateScenario(s, error))
        fatal(strCat("invalid scenario: ", error));
    ScenarioWorld run(s);
    ScenarioRunResult out;
    out.load = runWorld(run.world, run.load);
    out.digest = run.world.engine().executionDigest();
    out.events = run.world.engine().eventsExecuted();
    for (unsigned i = 0; i < run.world.shards(); ++i)
        out.failed += run.world.shard(i).app->failedRequests();
    return out;
}

} // namespace uqsim::apps
