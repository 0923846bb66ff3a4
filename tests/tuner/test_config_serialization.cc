/**
 * Round-trip of the choice configuration file format (Figure 3):
 * toKv()/loadValues() must preserve selector cutoffs and tunable
 * values, clamp via the Tunable helper, and reject values that do not
 * fit the schema config.
 */
#include <gtest/gtest.h>

#include "support/error.h"
#include "tuner/config.h"

namespace petabricks {
namespace tuner {
namespace {

/** A schema with the shape the benchmarks use. */
ConfigSchema::Builder
benchmarkShape()
{
    ConfigSchema::Builder schema;
    schema.addSelector("Sort.algorithm", 7, 0);
    schema.addSelector("Conv.backend", 3, 0);
    schema.addTunable({"Sort.taskCutoff", 16, 1 << 22, 512, true});
    schema.addTunable({"Conv.lws", 1, 1024, 64, false});
    return schema;
}

Config
schemaConfig()
{
    return Config(benchmarkShape().build());
}

TEST(ConfigSerialization, RoundTripPreservesEverything)
{
    Config tuned = schemaConfig();
    SelectorRef s = tuned.selector("Sort.algorithm");
    s.insertLevel(341, 5);
    s.insertLevel(64294, 2);
    s.insertLevel(174762, 4);
    tuned.selector("Conv.backend").setAlgorithm(0, 2);
    tuned.setTunable("Sort.taskCutoff", 4096);
    tuned.setTunable("Conv.lws", 256);

    // A fresh structurally identical config provides the schema.
    Config loaded = schemaConfig();
    loaded.loadValues(tuned.toKv());
    EXPECT_EQ(loaded, tuned);

    // Selector semantics survive, not just the raw fields.
    EXPECT_EQ(loaded.selector("Sort.algorithm").select(200), 0);
    EXPECT_EQ(loaded.selector("Sort.algorithm").select(5000), 5);
    EXPECT_EQ(loaded.selector("Sort.algorithm").select(100000), 2);
    EXPECT_EQ(loaded.selector("Sort.algorithm").select(1 << 20), 4);
}

TEST(ConfigSerialization, RoundTripThroughTextFormat)
{
    Config tuned = schemaConfig();
    tuned.selector("Sort.algorithm").insertLevel(1000, 3);
    tuned.setTunable("Conv.lws", 128);

    std::string text = tuned.toKv().toString();
    Config loaded = schemaConfig();
    loaded.loadValues(KvFile::fromString(text));
    EXPECT_EQ(loaded, tuned);
}

TEST(ConfigSerialization, TunableClampRespectsBounds)
{
    TunableSpec t{"t", 16, 1024, 64, true};
    EXPECT_EQ(t.clamp(5), 16);
    EXPECT_EQ(t.clamp(16), 16);
    EXPECT_EQ(t.clamp(500), 500);
    EXPECT_EQ(t.clamp(1 << 20), 1024);
}

TEST(ConfigSerialization, MissingKeyIsASchemaError)
{
    Config tuned = schemaConfig();
    KvFile kv = tuned.toKv();

    ConfigSchema::Builder extraSchema = benchmarkShape();
    extraSchema.addTunable({"New.knob", 1, 8, 4, false});
    Config extra(extraSchema.build());
    EXPECT_THROW(extra.loadValues(kv), FatalError);
}

TEST(ConfigSerialization, OutOfRangeTunableValueIsRejected)
{
    KvFile kv = schemaConfig().toKv();
    kv.setInt("Conv.lws", 4096); // above the tunable's maxValue
    Config loaded = schemaConfig();
    EXPECT_THROW(loaded.loadValues(kv), FatalError);
}

TEST(ConfigSerialization, OutOfRangeSelectorAlgorithmIsRejected)
{
    Config tuned = schemaConfig();
    KvFile kv = tuned.toKv();
    kv.setIntList("Conv.backend.algorithms", {9}); // only 3 algorithms
    Config loaded = schemaConfig();
    EXPECT_THROW(loaded.loadValues(kv), FatalError);
}

TEST(ConfigSerialization, MalformedSelectorShapeIsRejected)
{
    Config tuned = schemaConfig();
    KvFile kv = tuned.toKv();
    // Two cutoffs require three algorithm levels.
    kv.setIntList("Sort.algorithm.cutoffs", {100, 1000});
    kv.setIntList("Sort.algorithm.algorithms", {0, 1});
    Config loaded = schemaConfig();
    EXPECT_THROW(loaded.loadValues(kv), FatalError);
}

} // namespace
} // namespace tuner
} // namespace petabricks
