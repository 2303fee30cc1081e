/**
 * @file
 * Scenario config round-trip and validation tests.
 *
 * A scenario JSON file plus the binary version fully describes a run,
 * so the surface must be lossless (dump -> parse -> dump is the
 * identity), strict (unknown keys and malformed values are errors, not
 * silently ignored), and layered (absent keys keep the caller's
 * defaults, which is what lets CLI flags before --config act as
 * defaults the file overrides).
 */

#include <gtest/gtest.h>

#include <string>

#include "apps/scenario.hh"

namespace uqsim {
namespace {

apps::Scenario
fullScenario()
{
    apps::Scenario s;
    s.app = "ecommerce";
    s.qps = 450.5;
    s.durationSec = 8.0;
    s.warmupSec = 1.5;
    s.servers = 7;
    s.drones = 16;
    s.core = "thunderx";
    s.freqMhz = 1800.0;
    s.fpga = true;
    s.lambda = "s3";
    s.slowServers = 2;
    s.slowFactor = 12.5;
    s.skew = 90.0;
    s.users = 5000;
    s.seed = 1234;
    s.shards = 4;
    s.threads = 2;
    s.rpcTimeout = 50 * kTicksPerMs;
    s.deadline = 200 * kTicksPerMs;
    s.retries = 3;
    s.retryBudget = 0.2;
    s.breaker = true;
    s.shed = 64;
    s.qosEnabled = true;
    s.qosWeightUser = 16;
    s.qosWeightBatch = 4;
    s.qosWeightBest = 2;
    s.qosQueue = 24;
    s.qosRate = 500.0;
    s.qosBurst = 12.0;
    s.qosShedBatch = 0.6;
    s.qosShedBest = 0.3;
    s.qosBatch = "addToCart,wishlist";
    s.qosBestEffort = "browseCatalogue";
    s.dataKeys = 100000;
    s.dataCapacity = 2048;
    s.dataPolicy = "slru";
    s.dataPopularity = "hotspot";
    s.dataZipfS = 1.2;
    s.dataHotFraction = 0.05;
    s.dataHotMass = 0.8;
    s.dataTtl = 500 * kTicksPerMs;
    s.dataWrite = "invalidate";
    s.dataShiftPeriod = 2 * kTicksPerSec;
    s.dataVnodes = 32;
    s.traceCapacity = 1 << 12;

    fault::FaultSpec crash;
    crash.kind = fault::FaultKind::Crash;
    crash.start = 2 * kTicksPerSec;
    crash.duration = kTicksPerSec;
    crash.service = "frontend";
    crash.instance = 1;
    s.faults.push_back(crash);

    fault::FaultSpec part;
    part.kind = fault::FaultKind::Partition;
    part.start = 3 * kTicksPerSec;
    part.duration = kTicksPerSec;
    part.groupA = {0, 1};
    part.groupB = {2, 4};
    part.loss = 0.5;
    s.faults.push_back(part);
    return s;
}

TEST(ScenarioTest, DumpParseDumpIsIdentity)
{
    const apps::Scenario original = fullScenario();
    const std::string doc = apps::scenarioToJson(original);

    apps::Scenario parsed; // defaults; every key in doc overrides
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson(doc, parsed, error)) << error;
    EXPECT_EQ(apps::scenarioToJson(parsed), doc);

    // Spot-check semantic equality, not just textual round-trip.
    EXPECT_EQ(parsed.app, "ecommerce");
    EXPECT_DOUBLE_EQ(parsed.qps, 450.5);
    EXPECT_EQ(parsed.rpcTimeout, 50 * kTicksPerMs);
    EXPECT_EQ(parsed.shards, 4u);
    EXPECT_EQ(parsed.threads, 2u);
    EXPECT_TRUE(parsed.fpga);
    ASSERT_EQ(parsed.faults.size(), 2u);
    EXPECT_EQ(parsed.faults[0].kind, fault::FaultKind::Crash);
    EXPECT_EQ(parsed.faults[0].service, "frontend");
    EXPECT_EQ(parsed.faults[1].kind, fault::FaultKind::Partition);
    EXPECT_EQ(parsed.faults[1].groupB.last, 4u);
    EXPECT_DOUBLE_EQ(parsed.faults[1].loss, 0.5);
    EXPECT_EQ(parsed.dataKeys, 100000u);
    EXPECT_EQ(parsed.dataCapacity, 2048u);
    EXPECT_EQ(parsed.dataPolicy, "slru");
    EXPECT_EQ(parsed.dataPopularity, "hotspot");
    EXPECT_DOUBLE_EQ(parsed.dataZipfS, 1.2);
    EXPECT_EQ(parsed.dataTtl, 500 * kTicksPerMs);
    EXPECT_EQ(parsed.dataWrite, "invalidate");
    EXPECT_EQ(parsed.dataShiftPeriod, 2 * kTicksPerSec);
    EXPECT_EQ(parsed.dataVnodes, 32u);
    EXPECT_TRUE(parsed.qosEnabled);
    EXPECT_EQ(parsed.qosWeightUser, 16u);
    EXPECT_EQ(parsed.qosWeightBatch, 4u);
    EXPECT_EQ(parsed.qosWeightBest, 2u);
    EXPECT_EQ(parsed.qosQueue, 24u);
    EXPECT_DOUBLE_EQ(parsed.qosRate, 500.0);
    EXPECT_DOUBLE_EQ(parsed.qosBurst, 12.0);
    EXPECT_DOUBLE_EQ(parsed.qosShedBatch, 0.6);
    EXPECT_DOUBLE_EQ(parsed.qosShedBest, 0.3);
    EXPECT_EQ(parsed.qosBatch, "addToCart,wishlist");
    EXPECT_EQ(parsed.qosBestEffort, "browseCatalogue");
}

TEST(ScenarioTest, RejectsBadQosValues)
{
    apps::Scenario s;
    std::string error;

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"wieghts\": \"8,2,1\"}}", s, error));
    EXPECT_NE(error.find("unknown scenario key 'qos.wieghts'"),
              std::string::npos);

    // Malformed weight triples: wrong arity, junk, and a zero weight
    // (a zero-weight class would starve under WRR).
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"weights\": \"8,2\"}}", s, error));
    EXPECT_NE(error.find("qos.weights"), std::string::npos);
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"weights\": \"8,two,1\"}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"weights\": \"8,0,1\"}}", s, error));

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"rate\": -1}}", s, error));
    EXPECT_NE(error.find("qos.rate"), std::string::npos);
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"burst\": 0}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"shed_batch\": 1.5}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"qos\": {\"shed_best\": 0}}", s, error));
}

TEST(ScenarioTest, AbsentQosKeysKeepCallerDefaults)
{
    apps::Scenario s;
    s.qosQueue = 48;
    s.qosBatch = "wishlist";
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson(
        "{\"qos\": {\"enabled\": true, \"rate\": 250}}", s, error))
        << error;
    EXPECT_TRUE(s.qosEnabled);
    EXPECT_DOUBLE_EQ(s.qosRate, 250.0);
    EXPECT_EQ(s.qosQueue, 48u);       // caller's default survives
    EXPECT_EQ(s.qosBatch, "wishlist");
    EXPECT_EQ(s.qosWeightUser, 8u);   // untouched struct default
}

TEST(ScenarioTest, RejectsBadDataTierValues)
{
    apps::Scenario s;
    std::string error;

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"keyz\": 10}}", s, error));
    EXPECT_NE(error.find("unknown scenario key 'data.keyz'"),
              std::string::npos);

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"policy\": \"mru\"}}", s, error));
    EXPECT_NE(error.find("data.policy"), std::string::npos);

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"popularity\": \"pareto\"}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"write\": \"back\"}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"keys\": 10, \"capacity\": 0}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"hot_fraction\": 1.5}}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"data\": {\"vnodes\": 0}}", s, error));
}

TEST(ScenarioTest, AbsentKeysKeepCallerDefaults)
{
    apps::Scenario s;
    s.qps = 777.0;
    s.shards = 3;
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson("{\"servers\": 9}", s, error))
        << error;
    EXPECT_EQ(s.servers, 9u);      // from the document
    EXPECT_DOUBLE_EQ(s.qps, 777.0); // caller's default survives
    EXPECT_EQ(s.shards, 3u);
}

TEST(ScenarioTest, DurationsAcceptStringsAndBareMilliseconds)
{
    apps::Scenario s;
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson(
        "{\"rpc_timeout\": \"2s\", \"deadline\": 150}", s, error))
        << error;
    EXPECT_EQ(s.rpcTimeout, 2 * kTicksPerSec);
    EXPECT_EQ(s.deadline, 150 * kTicksPerMs);
}

TEST(ScenarioTest, RejectsMalformedInput)
{
    apps::Scenario s;
    std::string error;

    EXPECT_FALSE(apps::parseScenarioJson("not json", s, error));

    EXPECT_FALSE(apps::parseScenarioJson("[1, 2]", s, error));
    EXPECT_NE(error.find("object"), std::string::npos);

    EXPECT_FALSE(apps::parseScenarioJson("{\"qqps\": 10}", s, error));
    EXPECT_NE(error.find("unknown scenario key"), std::string::npos);

    EXPECT_FALSE(apps::parseScenarioJson("{\"qps\": \"fast\"}", s,
                                         error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"servers\": 2.5}", s,
                                         error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"qps\": 0}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"shards\": 0}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"skew\": 100}", s, error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"core\": \"pentium\"}", s,
                                         error));
    EXPECT_FALSE(apps::parseScenarioJson("{\"lambda\": \"gcf\"}", s,
                                         error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"faults\": [{\"kind\": \"meteor\"}]}", s, error));
    EXPECT_NE(error.find("unknown fault kind"), std::string::npos);

    // Integers beyond the target member's range are rejected, never
    // wrapped (4294967297 would otherwise become 1 server).
    EXPECT_FALSE(apps::parseScenarioJson("{\"servers\": 4294967297}", s,
                                         error));
    EXPECT_NE(error.find("'servers' must be <= 4294967295"),
              std::string::npos)
        << error;
    EXPECT_FALSE(apps::parseScenarioJson("{\"seed\": 1e30}", s, error));
    EXPECT_NE(error.find("'seed' must be a non-negative integer"),
              std::string::npos)
        << error;
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"partition\", \"pin\": "
        "[{\"tier\": \"t\", \"shard\": 4294967297}]}, \"shards\": 2}",
        s, error));
    EXPECT_NE(error.find("placement.pin.shard"), std::string::npos)
        << error;
    EXPECT_EQ(s.servers, apps::Scenario().servers)
        << "a rejected document leaves the caller's scenario alone";
}

TEST(ScenarioTest, SchemaRowsAreUnique)
{
    const auto &schema = apps::scenarioSchema();
    for (std::size_t i = 0; i < schema.size(); ++i)
        for (std::size_t j = 0; j < i; ++j) {
            EXPECT_STRNE(schema[i].key, schema[j].key);
            if (schema[i].flag != nullptr && schema[j].flag != nullptr) {
                EXPECT_STRNE(schema[i].flag, schema[j].flag);
            }
        }
    const apps::ScenarioField *f = apps::scenarioFieldForFlag("--cache-ttl");
    ASSERT_NE(f, nullptr);
    EXPECT_STREQ(f->key, "data.ttl");
    EXPECT_EQ(apps::scenarioFieldForFlag("--report"), nullptr);
    EXPECT_EQ(apps::scenarioFieldForFlag(""), nullptr);
}

TEST(ScenarioTest, ApplyScenarioFlagChecksRange)
{
    apps::Scenario s;
    std::string error;
    const apps::ScenarioField &servers =
        *apps::scenarioFieldForFlag("--servers");
    EXPECT_FALSE(apps::applyScenarioFlag(s, servers, "4294967297", error));
    EXPECT_NE(error.find("--servers must be <= 4294967295"),
              std::string::npos)
        << error;
    EXPECT_FALSE(apps::applyScenarioFlag(s, servers, " -1", error));
    EXPECT_EQ(s.servers, 5u);
    EXPECT_TRUE(apps::applyScenarioFlag(s, servers, "4294967295", error));
    EXPECT_EQ(s.servers, 4294967295u);

    const apps::ScenarioField &pin = *apps::scenarioFieldForFlag("--pin");
    EXPECT_FALSE(apps::applyScenarioFlag(s, pin, "t=4294967297", error));
    EXPECT_TRUE(s.pins.empty());
    EXPECT_TRUE(apps::applyScenarioFlag(s, pin, "t=1", error));
    ASSERT_EQ(s.pins.size(), 1u);
    EXPECT_EQ(s.pins[0].shard, 1u);

    // A duration past 2^64 ticks is rejected, not wrapped to 0 (which
    // would turn the timeout off).
    const apps::ScenarioField &timeout =
        *apps::scenarioFieldForFlag("--rpc-timeout");
    const Tick timeoutBefore = s.rpcTimeout;
    EXPECT_FALSE(
        apps::applyScenarioFlag(s, timeout, "99999999999s", error));
    EXPECT_NE(error.find("bad duration"), std::string::npos) << error;
    EXPECT_EQ(s.rpcTimeout, timeoutBefore);

    // Non-finite numbers are rejected: nan would run zero requests and
    // inf would never finish. Neither scenario is run here.
    const apps::ScenarioField &qps = *apps::scenarioFieldForFlag("--qps");
    const double qpsBefore = s.qps;
    EXPECT_FALSE(apps::applyScenarioFlag(s, qps, "nan", error));
    EXPECT_NE(error.find("bad number 'nan' for --qps"), std::string::npos)
        << error;
    EXPECT_FALSE(apps::applyScenarioFlag(s, qps, "inf", error));
    EXPECT_EQ(s.qps, qpsBefore);
    const apps::ScenarioField &duration =
        *apps::scenarioFieldForFlag("--duration");
    EXPECT_FALSE(apps::applyScenarioFlag(s, duration, "inf", error));
}

TEST(ScenarioDeathTest, RunScenarioRejectsInvalidScenario)
{
    // Programmatic scenarios bypass the JSON and CLI parsers; the
    // headless driver still refuses to run one that breaks a rule.
    apps::Scenario s;
    s.placement = "partition";
    s.shards = 2;
    s.fpga = true;
    EXPECT_EXIT(apps::runScenario(s), ::testing::ExitedWithCode(1),
                "invalid scenario: placement 'partition' does not "
                "support fpga");
}

TEST(ScenarioTest, ShardSeedDerivation)
{
    // Shard 0 must reuse the root seed exactly: that is what makes a
    // one-shard WorldHandle bit-identical to a standalone World.
    EXPECT_EQ(apps::WorldHandle::shardSeed(42, 0), 42u);
    EXPECT_NE(apps::WorldHandle::shardSeed(42, 1), 42u);
    EXPECT_NE(apps::WorldHandle::shardSeed(42, 1),
              apps::WorldHandle::shardSeed(42, 2));
}

TEST(ScenarioTest, WorldHandleStructure)
{
    apps::Scenario scn;
    scn.servers = 3;
    apps::WorldHandle w(apps::worldConfigFor(scn), 3, 2);
    EXPECT_EQ(w.shards(), 3u);
    EXPECT_EQ(w.engine().shardCount(), 3u);
    EXPECT_EQ(w.engine().threads(), 2u);
    for (unsigned s = 0; s < 3; ++s) {
        EXPECT_EQ(w.shard(s).config().seed,
                  apps::WorldHandle::shardSeed(scn.seed, s));
        EXPECT_GT(w.shard(s).ctx.shardCount(), 1u);
        EXPECT_EQ(w.shard(s).ctx.shard(), s);
    }
}

TEST(ScenarioTest, PlacementRoundTrip)
{
    apps::Scenario s;
    s.placement = "partition";
    s.shards = 4;
    s.pins = {{"posts-db", 3}, {"nginx-lb", 0}};
    const std::string doc = apps::scenarioToJson(s);

    apps::Scenario parsed;
    std::string error;
    ASSERT_TRUE(apps::parseScenarioJson(doc, parsed, error)) << error;
    EXPECT_EQ(apps::scenarioToJson(parsed), doc);
    EXPECT_EQ(parsed.placement, "partition");
    ASSERT_EQ(parsed.pins.size(), 2u);
    EXPECT_EQ(parsed.pins[0].tier, "posts-db");
    EXPECT_EQ(parsed.pins[0].shard, 3u);
    EXPECT_EQ(parsed.pins[1].tier, "nginx-lb");
    EXPECT_EQ(parsed.pins[1].shard, 0u);
}

TEST(ScenarioTest, RejectsBadPlacement)
{
    apps::Scenario s;
    std::string error;

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"sharded\"}}", s, error));
    EXPECT_NE(error.find("unknown placement.mode"), std::string::npos);

    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mdoe\": \"partition\"}}", s, error));
    EXPECT_NE(error.find("unknown scenario key 'placement.mdoe'"),
              std::string::npos);

    // Pins without partition mode.
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"pin\": [{\"tier\": \"a\", \"shard\": 0}]}}",
        s, error));
    EXPECT_NE(error.find("placement.mode 'partition'"),
              std::string::npos);

    // Pin shard out of range for the shard count.
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"shards\": 2, \"placement\": {\"mode\": \"partition\", "
        "\"pin\": [{\"tier\": \"a\", \"shard\": 2}]}}",
        s, error));
    EXPECT_NE(error.find("only 2 shards exist"), std::string::npos);

    // Duplicate pin.
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"shards\": 2, \"placement\": {\"mode\": \"partition\", "
        "\"pin\": [{\"tier\": \"a\", \"shard\": 0}, "
        "{\"tier\": \"a\", \"shard\": 1}]}}",
        s, error));
    EXPECT_NE(error.find("duplicate placement pin"), std::string::npos);

    // Malformed pin entries.
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"shards\": 2, \"placement\": {\"mode\": \"partition\", "
        "\"pin\": [{\"shard\": 0}]}}",
        s, error));
    EXPECT_NE(error.find("'tier' name"), std::string::npos);
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"partition\", "
        "\"pin\": [{\"tier\": \"a\", \"shardd\": 0}]}}",
        s, error));
    EXPECT_NE(error.find("placement.pin.shardd"), std::string::npos);

    // Partition excludes replica-worlds-only features.
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"partition\"}, \"fpga\": true}", s,
        error));
    EXPECT_NE(error.find("does not support fpga"), std::string::npos);
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"partition\"}, "
        "\"app\": \"swarm-edge\"}",
        s, error));
    EXPECT_FALSE(apps::parseScenarioJson(
        "{\"placement\": {\"mode\": \"partition\"}, \"data\": "
        "{\"keys\": 100, \"capacity\": 64}, \"replication\": "
        "{\"factor\": 3}}",
        s, error));
    EXPECT_NE(error.find("does not support replication"),
              std::string::npos);
}

TEST(ScenarioTest, CoreModelNames)
{
    cpu::CoreModel m;
    EXPECT_TRUE(apps::coreModelByName("xeon", m));
    EXPECT_TRUE(apps::coreModelByName("xeon18", m));
    EXPECT_TRUE(apps::coreModelByName("thunderx", m));
    EXPECT_FALSE(apps::coreModelByName("m1", m));
}

} // namespace
} // namespace uqsim
