#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/error.h"
#include "tuner/config.h"
#include "tuner/mutators.h"

namespace petabricks {
namespace tuner {
namespace {

/** A configuration with the one selector @p name. */
Config
selectorConfig(const std::string &name, int algorithmCount,
               int defaultAlgorithm = 0)
{
    ConfigSchema::Builder schema;
    schema.addSelector(name, algorithmCount, defaultAlgorithm);
    return Config(schema.build());
}

TEST(Selector, SingleLevelSelectsEverywhere)
{
    Config c = selectorConfig("sort", 7, 3);
    SelectorView s = c.selector("sort");
    EXPECT_EQ(s.select(1), 3);
    EXPECT_EQ(s.select(1 << 30), 3);
    EXPECT_EQ(s.levels(), 1u);
}

TEST(Selector, SelectSemanticsMatchPaperFormula)
{
    // SELECT = alpha_i s.t. c_i > size >= c_(i-1), c_0 = 0, c_m = inf.
    Config c = selectorConfig("s", 4, 0);
    SelectorRef s = c.selector("s");
    s.insertLevel(100, 1);
    s.insertLevel(1000, 2);
    EXPECT_EQ(s.select(0), 0);
    EXPECT_EQ(s.select(99), 0);
    EXPECT_EQ(s.select(100), 1); // size >= cutoff picks the next level
    EXPECT_EQ(s.select(999), 1);
    EXPECT_EQ(s.select(1000), 2);
    EXPECT_EQ(s.select(1 << 20), 2);
}

TEST(Selector, PolyAlgorithmLikeSortConfig)
{
    // The paper's Desktop Sort config: IS < 341 <= 4MS < 64294 <= QS
    // < 174762 <= 2MS.
    Config c = selectorConfig("sort", 7, 0);
    SelectorRef s = c.selector("sort");
    s.insertLevel(341, 1);
    s.insertLevel(64294, 2);
    s.insertLevel(174762, 3);
    EXPECT_EQ(s.select(200), 0);
    EXPECT_EQ(s.select(5000), 1);
    EXPECT_EQ(s.select(100000), 2);
    EXPECT_EQ(s.select(1 << 20), 3);
}

TEST(Selector, InsertKeepsCutoffsSorted)
{
    Config c = selectorConfig("s", 3, 0);
    SelectorRef s = c.selector("s");
    s.insertLevel(1000, 1);
    s.insertLevel(10, 2);
    ASSERT_EQ(s.cutoffs().size(), 2u);
    EXPECT_LT(s.cutoffs()[0], s.cutoffs()[1]);
    EXPECT_EQ(s.select(5), 0);
    EXPECT_EQ(s.select(500), 2);
    EXPECT_EQ(s.select(5000), 1);
}

TEST(Selector, InsertCapsAtTwelveLevels)
{
    Config c = selectorConfig("s", 2, 0);
    SelectorRef s = c.selector("s");
    for (int i = 0; i < 20; ++i)
        s.insertLevel(1 << (i + 1), i % 2);
    EXPECT_EQ(s.levels(), static_cast<size_t>(kSelectorLevels));
}

TEST(Selector, RemoveLevel)
{
    Config c = selectorConfig("s", 3, 0);
    SelectorRef s = c.selector("s");
    s.insertLevel(100, 1);
    s.insertLevel(1000, 2);
    s.removeLevel(1);
    EXPECT_EQ(s.levels(), 2u);
    // Removing the only level is a no-op.
    Config single = selectorConfig("t", 2, 1);
    single.selector("t").removeLevel(0);
    EXPECT_EQ(single.selector("t").levels(), 1u);
    EXPECT_EQ(single.selector("t").select(42), 1);
}

TEST(Selector, SetCutoffClampsToNeighbors)
{
    Config c = selectorConfig("s", 2, 0);
    SelectorRef s = c.selector("s");
    s.insertLevel(100, 1);
    s.insertLevel(1000, 0);
    s.setCutoff(0, 5000); // would pass its right neighbor: clamped
    EXPECT_LE(s.cutoffs()[0], s.cutoffs()[1]);
}

TEST(Selector, SaveLoadRoundTrip)
{
    Config c = selectorConfig("conv", 3, 1);
    c.selector("conv").insertLevel(256, 2);
    Config back = selectorConfig("conv", 3);
    back.loadValues(c.toKv());
    EXPECT_EQ(back, c);
    EXPECT_EQ(back.selector("conv").select(1000), 2);
}

TEST(Selector, LoadRejectsBadAlgorithms)
{
    KvFile kv;
    kv.setIntList("s.cutoffs", {});
    kv.setIntList("s.algorithms", {9});
    Config c = selectorConfig("s", 3);
    EXPECT_THROW(c.loadValues(kv), FatalError);
}

/** The FatalError message of loading @p cutoffs and @p algorithms into
 * a one-selector config, or "" if the load succeeds. */
std::string
loadError(const std::vector<int64_t> &cutoffs,
          const std::vector<int64_t> &algorithms)
{
    KvFile kv;
    kv.setIntList("pick.cutoffs", cutoffs);
    kv.setIntList("pick.algorithms", algorithms);
    Config c = selectorConfig("pick", 3);
    try {
        c.loadValues(kv);
    } catch (const FatalError &e) {
        EXPECT_EQ(c, selectorConfig("pick", 3)); // nothing half-loaded
        return e.what();
    }
    return "";
}

TEST(Selector, LoadRejectsSelectorsTheLayoutCannotHold)
{
    // Every selector has a fixed block of kSelectorLevels levels, so a
    // file (checkpoint, champion) with more is rejected, not truncated.
    std::vector<int64_t> cutoffs, algorithms{0};
    for (int i = 1; i < 14; ++i) {
        cutoffs.push_back(i * 10);
        algorithms.push_back(i % 3);
    }
    std::string tooMany = loadError(cutoffs, algorithms);
    EXPECT_NE(tooMany.find("'pick'"), std::string::npos) << tooMany;
    EXPECT_NE(tooMany.find("14 levels"), std::string::npos) << tooMany;

    std::string negative = loadError({-5}, {0, 1});
    EXPECT_NE(negative.find("'pick'"), std::string::npos) << negative;
    EXPECT_NE(negative.find("below 1"), std::string::npos) << negative;
    EXPECT_NE(loadError({0}, {0, 1}), "");

    // Descending cutoffs are bad input, not an internal error.
    std::string descending = loadError({500, 100}, {0, 1, 2});
    EXPECT_NE(descending.find("'pick'"), std::string::npos) << descending;
    EXPECT_NE(descending.find("descend"), std::string::npos) << descending;

    // The largest shapes the layout does hold still load.
    cutoffs.resize(kSelectorLevels - 1);
    algorithms.resize(kSelectorLevels);
    EXPECT_EQ(loadError(cutoffs, algorithms), "");
    EXPECT_EQ(loadError({1, 1, 9000000000000000000}, {0, 1, 2, 0}), "");
}

TEST(Config, TunableBounds)
{
    ConfigSchema::Builder schema;
    schema.addTunable({"lws", 1, 1024, 64, false});
    Config c(schema.build());
    EXPECT_EQ(c.tunableValue("lws"), 64);
    EXPECT_EQ(c.tunable("lws").clamp(5000), 1024);
    EXPECT_EQ(c.tunable("lws").clamp(0), 1);
    EXPECT_THROW(schema.addTunable({"bad", 10, 20, 5, false}), PanicError);
    EXPECT_THROW(c.setTunable("lws", 2048), PanicError);
}

TEST(Config, DuplicateNamesRejected)
{
    ConfigSchema::Builder schema;
    schema.addSelector("s", 2);
    EXPECT_THROW(schema.addSelector("s", 2), PanicError);
    schema.addTunable({"t", 1, 8, 4, false});
    EXPECT_THROW(schema.addTunable({"t", 1, 8, 4, false}), PanicError);
}

TEST(Config, KvRoundTrip)
{
    ConfigSchema::Builder schema;
    schema.addSelector("algo", 3, 0);
    schema.addTunable({"ratio", 0, 8, 6, false});
    schema.addTunable({"cutoff", 1, 1 << 20, 4096, true});
    Config c(schema.build());
    c.selector("algo").insertLevel(512, 2);

    // A second schema of the same structure with other seed values.
    ConfigSchema::Builder other;
    other.addSelector("algo", 3, 0);
    other.addTunable({"ratio", 0, 8, 0, false});
    other.addTunable({"cutoff", 1, 1 << 20, 1, true});
    Config loaded(other.build());
    loaded.loadValues(c.toKv());
    EXPECT_EQ(loaded, c);
    EXPECT_EQ(loaded.valueFingerprint(), c.valueFingerprint());
}

TEST(Config, LoadRejectsOutOfBoundsTunable)
{
    ConfigSchema::Builder schema;
    schema.addTunable({"ratio", 0, 8, 4, false});
    Config c(schema.build());
    KvFile kv;
    kv.setInt("ratio", 99);
    EXPECT_THROW(c.loadValues(kv), FatalError);
}

TEST(Config, SpaceSizeGrowsWithStructure)
{
    ConfigSchema::Builder smallSchema;
    smallSchema.addTunable({"t", 1, 8, 4, false});
    Config small(smallSchema.build());
    ConfigSchema::Builder largeSchema;
    largeSchema.addSelector("s1", 7);
    largeSchema.addSelector("s2", 3);
    largeSchema.addTunable({"t", 1, 1 << 20, 4, true});
    Config large(largeSchema.build());
    double logSmall = small.log10SpaceSize(1 << 20);
    double logLarge = large.log10SpaceSize(1 << 20);
    EXPECT_LT(logSmall, 2.0);
    EXPECT_GT(logLarge, 80.0); // selector spaces are astronomically big
}

TEST(Config, SpaceSizeOrderOfMagnitudeLikeFigure8)
{
    // A benchmark-sized space (several selectors + tunables) should
    // land in the 10^100+ range that Figure 8 reports.
    ConfigSchema::Builder schema;
    for (int i = 0; i < 3; ++i)
        schema.addSelector("sel" + std::to_string(i), 3);
    for (int i = 0; i < 6; ++i)
        schema.addTunable({"tun" + std::to_string(i), 1, 1024, 16, false});
    double log10 = Config(schema.build()).log10SpaceSize(1 << 22);
    EXPECT_GT(log10, 100.0);
    EXPECT_LT(log10, 1000.0);
}

// ---- The flat layout ----------------------------------------------------

TEST(ConfigLayout, EntriesSortByNameWithSelectorBlocksFirst)
{
    ConfigSchema::Builder builder;
    builder.addTunable({"b.tun", 1, 8, 2, false});
    builder.addSelector("z.sel", 2, 1);
    builder.addTunable({"a.tun", 1, 8, 3, false});
    builder.addSelector("m.sel", 4, 0);
    ConfigSchemaPtr schema = builder.build();
    ASSERT_EQ(schema->selectors().size(), 2u);
    EXPECT_EQ(schema->selectors()[0].name, "m.sel");
    EXPECT_EQ(schema->selectors()[0].offset, 0u);
    EXPECT_EQ(schema->selectors()[1].offset, kSelectorWords);
    EXPECT_EQ(schema->tunables()[0].name, "a.tun");
    EXPECT_EQ(schema->tunables()[0].offset, 2 * kSelectorWords);
    EXPECT_EQ(schema->tunables()[1].offset, 2 * kSelectorWords + 1);
    EXPECT_EQ(schema->defaults().size(), 2 * kSelectorWords + 2);
    EXPECT_THROW(schema->selectorIndex("a.tun"), PanicError);
    EXPECT_EQ(schema->tunableIndex("b.tun"), 1u);

    Config c(schema);
    EXPECT_EQ(c.selectorAt(1).select(7), 1);
    EXPECT_EQ(c.tunableValueAt(0), 3);
    // Four mutators per selector, one per tunable, built once.
    EXPECT_EQ(schema->mutators().size(), 4u * 2u + 2u);
}

TEST(ConfigLayout, InactiveSlotsStayZeroSoEqualityIsExact)
{
    Config grown = selectorConfig("s", 3, 0);
    grown.selector("s").insertLevel(100, 1);
    grown.selector("s").insertLevel(1000, 2);
    grown.selector("s").removeLevel(2);
    grown.selector("s").removeLevel(1);
    Config seed = selectorConfig("s", 3, 0);
    EXPECT_EQ(grown, seed);
    EXPECT_EQ(grown.valueFingerprint(), seed.valueFingerprint());
    EXPECT_EQ(grown.toKv().toString(), seed.toKv().toString());
}

TEST(ConfigLayout, CopiesShareTheSchemaAndOwnTheirValues)
{
    Config a = selectorConfig("s", 3, 0);
    Config b = a;
    EXPECT_EQ(&a.schema(), &b.schema());
    b.selector("s").setAlgorithm(0, 2);
    EXPECT_EQ(a.selector("s").select(1), 0);
    EXPECT_EQ(b.selector("s").select(1), 2);
    EXPECT_NE(a, b);

    // Another schema object with the same structure compares equal.
    EXPECT_EQ(a, selectorConfig("s", 3, 0));
    EXPECT_NE(a, selectorConfig("s", 4, 0)); // algorithm count differs
    EXPECT_NE(a, selectorConfig("r", 3, 0)); // name differs
}

TEST(ConfigLayout, FingerprintKeepsTheByteWiseFnvOverNamesAndValues)
{
    // The value persisted in segment records, checkpoints and champion
    // files: FNV-1a over each name's bytes, a separator word, the
    // cutoffs, another separator, the algorithms, then each tunable's
    // name and value (all words little-endian, byte by byte).
    ConfigSchema::Builder schema;
    schema.addSelector("s", 3, 0);
    schema.addTunable({"t", 1, 100, 7, false});
    Config c(schema.build());
    c.selector("s").insertLevel(40, 2);

    uint64_t hash = 1469598103934665603ull;
    auto mixByte = [&hash](unsigned char b) {
        hash ^= b;
        hash *= 1099511628211ull;
    };
    auto mixWord = [&](uint64_t w) {
        for (int i = 0; i < 8; ++i)
            mixByte(static_cast<unsigned char>(w >> (8 * i)));
    };
    mixByte('s');
    mixWord(0xc07f0ff5u);
    mixWord(40);
    mixWord(0xa19051u);
    mixWord(0);
    mixWord(2);
    mixByte('t');
    mixWord(7);
    EXPECT_EQ(c.valueFingerprint(), hash);
}

TEST(ConfigLayout, DefaultConfigIsEmpty)
{
    Config empty;
    EXPECT_TRUE(empty.schema().selectors().empty());
    EXPECT_TRUE(empty.schema().tunables().empty());
    EXPECT_EQ(empty.toKv().size(), 0u);
    EXPECT_EQ(empty, Config());
    EXPECT_THROW(empty.selector("s"), PanicError);
}

} // namespace
} // namespace tuner
} // namespace petabricks
