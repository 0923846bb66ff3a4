#include <gtest/gtest.h>

#include <cmath>

#include "tuner/evaluation_cache.h"

namespace petabricks {
namespace tuner {
namespace {

Config
makeConfig(int64_t lws, int algorithm = 0)
{
    Config config;
    config.addTunable({"lws", 1, 1024, lws, false});
    Selector selector("algo", 3, algorithm);
    config.addSelector(selector);
    return config;
}

TEST(EvaluationCache, FingerprintIsStableAndValueSensitive)
{
    Config a = makeConfig(128);
    Config aCopy = makeConfig(128);
    Config b = makeConfig(129);
    Config c = makeConfig(128, 1);
    EXPECT_EQ(a.valueFingerprint(), aCopy.valueFingerprint());
    EXPECT_NE(a.valueFingerprint(), b.valueFingerprint());
    EXPECT_NE(a.valueFingerprint(), c.valueFingerprint());
}

TEST(EvaluationCache, HitAndMissAccounting)
{
    EvaluationCache cache;
    Config config = makeConfig(64);

    EXPECT_FALSE(cache.lookup(config, 256).has_value());
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 0);

    cache.insert(config, 256, 1.5);
    EXPECT_EQ(cache.stats().insertions, 1);
    EXPECT_EQ(cache.size(), 1u);

    std::optional<double> cached = cache.lookup(config, 256);
    ASSERT_TRUE(cached.has_value());
    EXPECT_DOUBLE_EQ(*cached, 1.5);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().misses, 1);
}

TEST(EvaluationCache, InputSizeIsPartOfTheKey)
{
    EvaluationCache cache;
    Config config = makeConfig(64);
    cache.insert(config, 256, 1.0);
    cache.insert(config, 1024, 2.0);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_DOUBLE_EQ(*cache.lookup(config, 256), 1.0);
    EXPECT_DOUBLE_EQ(*cache.lookup(config, 1024), 2.0);
    EXPECT_FALSE(cache.lookup(config, 512).has_value());
}

TEST(EvaluationCache, InvalidateBelowDropsOnlySmallerSizes)
{
    EvaluationCache cache;
    Config a = makeConfig(64);
    Config b = makeConfig(128);
    cache.insert(a, 64, 1.0);
    cache.insert(b, 64, 2.0);
    cache.insert(a, 256, 3.0);
    cache.insert(a, 1024, 4.0);

    // The size grows to 256: entries at 64 can never be consulted
    // again; entries at >= 256 survive.
    cache.invalidateBelow(256);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().invalidated, 2);
    EXPECT_FALSE(cache.lookup(a, 64).has_value());
    EXPECT_FALSE(cache.lookup(b, 64).has_value());
    EXPECT_DOUBLE_EQ(*cache.lookup(a, 256), 3.0);
    EXPECT_DOUBLE_EQ(*cache.lookup(a, 1024), 4.0);
}

TEST(EvaluationCache, InfeasibleScoresAreCacheable)
{
    // A duplicate of a known-infeasible mutant must not re-run either.
    EvaluationCache cache;
    Config config = makeConfig(999);
    cache.insert(config, 64,
                 std::numeric_limits<double>::infinity());
    std::optional<double> cached = cache.lookup(config, 64);
    ASSERT_TRUE(cached.has_value());
    EXPECT_TRUE(std::isinf(*cached));
}

TEST(EvaluationCache, ClearDropsEntriesKeepsCumulativeStats)
{
    EvaluationCache cache;
    Config config = makeConfig(64);
    cache.insert(config, 64, 1.0);
    cache.lookup(config, 64);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup(config, 64).has_value());
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(cache.stats().insertions, 1);
}

TEST(EvaluationCache, OverwriteUpdatesValue)
{
    EvaluationCache cache;
    Config config = makeConfig(64);
    cache.insert(config, 64, 1.0);
    cache.insert(config, 64, 2.0);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_DOUBLE_EQ(*cache.lookup(config, 64), 2.0);
}

TEST(EvaluationCache, ByteAccountingTracksLiveEntries)
{
    EvaluationCache cache;
    EXPECT_EQ(cache.stats().bytes, 0u);
    cache.insert(makeConfig(1), 64, 1.0);
    cache.insert(makeConfig(2), 64, 2.0);
    EXPECT_EQ(cache.stats().bytes, 2 * EvaluationCache::kEntryBytes);
    // Overwrites reuse the entry: no growth.
    cache.insert(makeConfig(1), 64, 3.0);
    EXPECT_EQ(cache.stats().bytes, 2 * EvaluationCache::kEntryBytes);
    cache.invalidateBelow(128);
    EXPECT_EQ(cache.stats().bytes, 0u);
    cache.insert(makeConfig(1), 256, 1.0);
    cache.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(EvaluationCache, UnboundedByDefault)
{
    EvaluationCache cache;
    for (int i = 1; i <= 200; ++i)
        cache.insert(makeConfig(i), 64, 1.0);
    EXPECT_EQ(cache.size(), 200u);
}

} // namespace
} // namespace tuner
} // namespace petabricks
