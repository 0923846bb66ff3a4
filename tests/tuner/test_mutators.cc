#include <gtest/gtest.h>

#include <limits>

#include "tuner/mutators.h"

namespace petabricks {
namespace tuner {
namespace {

const ConfigSchemaPtr &
sampleSchema()
{
    static const ConfigSchemaPtr schema = [] {
        ConfigSchema::Builder builder;
        builder.addSelector("algo", 4, 0);
        builder.addTunable({"lws", 1, 1024, 64, false});
        builder.addTunable({"cutoff", 1, 1 << 20, 1024, true});
        return builder.build();
    }();
    return schema;
}

Config
sampleConfig()
{
    return Config(sampleSchema());
}

const ConfigSchema &
schema()
{
    return *sampleSchema();
}

using Kind = Mutator::Kind;

Mutator
mutator(Kind kind, const std::string &name)
{
    return Mutator(kind, schema(), name);
}

TEST(Mutators, GeneratedSetCoversStructure)
{
    auto mutators = generateMutators(schema());
    // 4 per selector + 1 per tunable.
    EXPECT_EQ(mutators.size(), 4u + 2u);
    // The schema holds the same set, built once at construction.
    ASSERT_EQ(schema().mutators().size(), mutators.size());
    for (size_t i = 0; i < mutators.size(); ++i)
        EXPECT_EQ(schema().mutators()[i].name(), mutators[i].name());
    EXPECT_EQ(mutators[0].name(), "add-level:algo");
    EXPECT_EQ(mutators[4].name(), "lognormal:cutoff");
    EXPECT_EQ(mutators[5].name(), "uniform:lws");
}

TEST(Mutators, AddLevelGrowsSelector)
{
    Config c = sampleConfig();
    Rng rng(3);
    Mutator m = mutator(Kind::SelectorAddLevel, "algo");
    EXPECT_TRUE(m.apply(c, rng, 4096));
    EXPECT_EQ(c.selector("algo").levels(), 2u);
}

TEST(Mutators, AddLevelSeedsCutoffNearCurrentSize)
{
    Config c = sampleConfig();
    Rng rng(3);
    mutator(Kind::SelectorAddLevel, "algo").apply(c, rng, 1 << 12);
    int64_t cutoff = c.selector("algo").cutoffs()[0];
    // Lognormal around the tested size: within a factor of 32.
    EXPECT_GT(cutoff, (1 << 12) / 32);
    EXPECT_LT(cutoff, (1 << 12) * 32);
}

TEST(Mutators, RemoveLevelNoopOnSingleLevel)
{
    Config c = sampleConfig();
    Rng rng(5);
    EXPECT_FALSE(
        mutator(Kind::SelectorRemoveLevel, "algo").apply(c, rng, 64));
    EXPECT_EQ(c.selector("algo").levels(), 1u);
}

TEST(Mutators, RemoveUndoesAdd)
{
    Config c = sampleConfig();
    Rng rng(7);
    mutator(Kind::SelectorAddLevel, "algo").apply(c, rng, 256);
    EXPECT_TRUE(
        mutator(Kind::SelectorRemoveLevel, "algo").apply(c, rng, 256));
    EXPECT_EQ(c.selector("algo").levels(), 1u);
}

TEST(Mutators, ChangeAlgorithmStaysInRange)
{
    Config c = sampleConfig();
    Rng rng(11);
    Mutator m = mutator(Kind::SelectorChangeAlgorithm, "algo");
    for (int i = 0; i < 50; ++i) {
        m.apply(c, rng, 64);
        int alg = c.selector("algo").algorithms()[0];
        EXPECT_GE(alg, 0);
        EXPECT_LT(alg, 4);
    }
}

TEST(Mutators, ScaleCutoffNoopWithoutCutoffs)
{
    Config c = sampleConfig();
    Rng rng(13);
    EXPECT_FALSE(
        mutator(Kind::SelectorScaleCutoff, "algo").apply(c, rng, 64));
}

TEST(Mutators, LognormalRespectsBounds)
{
    Config c = sampleConfig();
    Rng rng(17);
    Mutator m = mutator(Kind::TunableLognormal, "cutoff");
    for (int i = 0; i < 200; ++i) {
        m.apply(c, rng, 64);
        int64_t v = c.tunableValue("cutoff");
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 1 << 20);
    }
}

TEST(Mutators, LognormalHalvesAndDoubles)
{
    // Over many applications from a fixed start, both halving-or-more
    // and doubling-or-more must occur (Section 5.2's symmetry).
    Rng rng(19);
    Mutator m = mutator(Kind::TunableLognormal, "cutoff");
    int halved = 0, doubled = 0;
    for (int i = 0; i < 300; ++i) {
        Config c = sampleConfig(); // reset to 1024 each time
        m.apply(c, rng, 64);
        int64_t v = c.tunableValue("cutoff");
        if (v <= 512)
            ++halved;
        if (v >= 2048)
            ++doubled;
    }
    EXPECT_GT(halved, 30);
    EXPECT_GT(doubled, 30);
}

TEST(Mutators, UniformCoversRange)
{
    Config c = sampleConfig();
    Rng rng(23);
    Mutator m = mutator(Kind::TunableUniform, "lws");
    int64_t lo = 1 << 20, hi = 0;
    for (int i = 0; i < 300; ++i) {
        m.apply(c, rng, 64);
        lo = std::min(lo, c.tunableValue("lws"));
        hi = std::max(hi, c.tunableValue("lws"));
    }
    EXPECT_LT(lo, 64);
    EXPECT_GT(hi, 900);
}

TEST(Mutators, ScaleCutoffSaturatesNearInt64Max)
{
    // A loaded cutoff near INT64_MAX (a checkpoint or champion file may
    // hold one) must scale to at most INT64_MAX, never wrap negative.
    KvFile kv = sampleConfig().toKv();
    kv.setIntList("algo.cutoffs", {9000000000000000000});
    kv.setIntList("algo.algorithms", {0, 1});
    Config c = sampleConfig();
    c.loadValues(kv);
    Rng rng(7);
    Mutator m = mutator(Kind::SelectorScaleCutoff, "algo");
    bool saturated = false;
    for (int i = 0; i < 200; ++i) {
        ASSERT_NO_THROW(m.apply(c, rng, 64));
        int64_t cutoff = c.selector("algo").cutoffs()[0];
        ASSERT_GE(cutoff, 1);
        saturated |= cutoff == std::numeric_limits<int64_t>::max();
    }
    EXPECT_TRUE(saturated);
}

TEST(Mutators, NamesIdentifyTargets)
{
    EXPECT_NE(mutator(Kind::SelectorAddLevel, "algo").name().find("algo"),
              std::string::npos);
    EXPECT_NE(mutator(Kind::TunableUniform, "lws").name().find("lws"),
              std::string::npos);
}

} // namespace
} // namespace tuner
} // namespace petabricks
