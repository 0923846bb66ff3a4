/**
 * TuningSession: stepping, budgeted runs, batched evaluation
 * determinism (same seed => identical champion whether candidates are
 * evaluated one-at-a-time, as one batch, or through the cache), and
 * save()/load() checkpoint resume.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "cache/shared_cache.h"
#include "support/error.h"
#include "tuner/session.h"

#include "fresh_dir.h"

namespace petabricks {
namespace tuner {
namespace {

/** Convex bowl over one tunable: optimum at lws = 128. */
class BowlEvaluator : public Evaluator
{
  public:
    double
    evaluate(const Config &config, int64_t) override
    {
        ++calls;
        double lws = static_cast<double>(config.tunableValue("lws"));
        double err = std::log2(lws / 128.0);
        return 1.0 + err * err;
    }

    int64_t calls = 0;
};

/** Bowl evaluator whose batch hook evaluates in REVERSE order, to
 * prove batch results are index-aligned, not order-dependent. */
class ReverseBatchBowl : public BowlEvaluator
{
  public:
    std::vector<double>
    evaluateBatch(std::span<const Config> configs,
                  int64_t inputSize) override
    {
        ++batchCalls;
        std::vector<double> seconds(configs.size(), 0.0);
        for (size_t i = configs.size(); i-- > 0;)
            seconds[i] = evaluate(configs[i], inputSize);
        return seconds;
    }

    int64_t batchCalls = 0;
};

/** Selector crossover: algorithm 0 wins small, 1 wins large. */
class CrossoverEvaluator : public Evaluator
{
  public:
    double
    evaluate(const Config &config, int64_t size) override
    {
        return 1e-6 * cost(config, size);
    }

  private:
    double
    cost(const Config &config, int64_t size)
    {
        if (size <= 16)
            return 16.0;
        int alg = config.selector("algo").select(size);
        double n = static_cast<double>(size);
        double step = alg == 0 ? 2.0 * n : n + 8192.0;
        return step + cost(config, size / 2);
    }
};

TunerOptions
fastOptions(bool cached = true)
{
    TunerOptions opts;
    opts.populationSize = 6;
    opts.generationsPerSize = 6;
    opts.minInputSize = 64;
    opts.maxInputSize = 1 << 16;
    opts.sizeGrowthFactor = 4;
    opts.seed = 42;
    opts.cacheEvaluations = cached;
    return opts;
}

Config
bowlSeed()
{
    ConfigSchema::Builder schema;
    schema.addTunable({"lws", 1, 1024, 2, false});
    return Config(schema.build());
}

std::string
tempPath(const char *name)
{
    return freshPath(name);
}

TEST(TuningSession, StepAdvancesAndRunCompletes)
{
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    // 6 sizes in [64, 65536] with growth 4, 6 generations each.
    EXPECT_EQ(session.totalSteps(), 6 * 6);
    EXPECT_EQ(session.completedSteps(), 0);
    EXPECT_FALSE(session.done());
    EXPECT_EQ(session.currentInputSize(), 64);

    EXPECT_TRUE(session.step());
    EXPECT_EQ(session.completedSteps(), 1);

    TuningResult result = session.run();
    EXPECT_TRUE(session.done());
    EXPECT_EQ(session.completedSteps(), session.totalSteps());
    EXPECT_FALSE(session.step()); // no-op once done
    int64_t lws = result.best.tunableValue("lws");
    EXPECT_GE(lws, 64);
    EXPECT_LE(lws, 256);
}

TEST(TuningSession, BudgetedRunStopsAndContinues)
{
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    TuningResult partial = session.run(7);
    EXPECT_EQ(session.completedSteps(), 7);
    EXPECT_FALSE(session.done());
    EXPECT_TRUE(std::isfinite(partial.bestSeconds));

    // The remaining budget finishes the search.
    session.run(session.totalSteps());
    EXPECT_TRUE(session.done());
}

TEST(TuningSession, BudgetedRunEnforcesValidityOnCompletion)
{
    // A budget large enough to finish the search must apply the same
    // "no valid configuration found" guard as an unbounded run().
    class InfeasibleEvaluator : public Evaluator
    {
      public:
        double
        evaluate(const Config &, int64_t) override
        {
            return std::numeric_limits<double>::infinity();
        }
    };
    InfeasibleEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    EXPECT_THROW(session.run(session.totalSteps()), PanicError);
}

TEST(TuningSession, BatchSerialAndCachedPathsAgreeOnChampion)
{
    // Same seed, three evaluation paths: serial loop without cache,
    // serial loop with cache, and a reordered batch hook with cache.
    // The search trajectory is driven by the RNG alone, so all three
    // must crown the identical champion.
    BowlEvaluator serialEval;
    TuningResult serial =
        TuningSession(serialEval, bowlSeed(), fastOptions(false)).run();

    BowlEvaluator cachedEval;
    TuningResult cached =
        TuningSession(cachedEval, bowlSeed(), fastOptions(true)).run();

    ReverseBatchBowl batchEval;
    TuningResult batched =
        TuningSession(batchEval, bowlSeed(), fastOptions(true)).run();
    EXPECT_GT(batchEval.batchCalls, 0);

    EXPECT_EQ(serial.best, cached.best);
    EXPECT_EQ(serial.best, batched.best);
    EXPECT_DOUBLE_EQ(serial.bestSeconds, cached.bestSeconds);
    EXPECT_DOUBLE_EQ(serial.bestSeconds, batched.bestSeconds);
}

TEST(TuningSession, CacheSkipsDuplicateEvaluations)
{
    // A 2-algorithm selector search revisits configurations often.
    ConfigSchema::Builder schema;
    schema.addSelector("algo", 2, 0);
    Config seed(schema.build());

    CrossoverEvaluator uncachedEval;
    TuningSession uncached(uncachedEval, seed, fastOptions(false));
    TuningResult uncachedResult = uncached.run();
    EXPECT_EQ(uncachedResult.cacheHits, 0);

    CrossoverEvaluator cachedEval;
    TuningSession cachedSession(cachedEval, seed, fastOptions(true));
    TuningResult cachedResult = cachedSession.run();

    EXPECT_EQ(cachedResult.best, uncachedResult.best);
    EXPECT_GT(cachedResult.cacheHits, 0);
    EXPECT_LT(cachedResult.evaluations, uncachedResult.evaluations);
    EXPECT_EQ(cachedSession.cache().stats().hits +
                  cachedSession.cache().stats().misses,
              cachedResult.cacheHits + cachedResult.evaluations);
}

TEST(TuningSession, ProgressCallbackFiresEveryStep)
{
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    int fired = 0;
    int lastCompleted = 0;
    session.onProgress([&](const SessionProgress &progress) {
        ++fired;
        lastCompleted = progress.completedSteps;
        EXPECT_EQ(progress.totalSteps, session.totalSteps());
        EXPECT_GT(progress.inputSize, 0);
    });
    session.run();
    EXPECT_EQ(fired, session.totalSteps());
    EXPECT_EQ(lastCompleted, session.totalSteps());
}

TEST(TuningSession, SaveLoadRoundTripsMidSearchState)
{
    const std::string path = tempPath("session_roundtrip.ckpt");
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    session.run(9);
    session.save(path);

    BowlEvaluator freshEval;
    TuningSession restored(freshEval, bowlSeed(), fastOptions());
    restored.load(path);
    EXPECT_EQ(restored.completedSteps(), session.completedSteps());
    EXPECT_EQ(restored.currentInputSize(), session.currentInputSize());
    EXPECT_EQ(restored.result().best, session.result().best);
    EXPECT_DOUBLE_EQ(restored.result().bestSeconds,
                     session.result().bestSeconds);
    EXPECT_EQ(restored.result().mutationsAccepted,
              session.result().mutationsAccepted);
    std::remove(path.c_str());
}

TEST(TuningSession, ResumedSearchReachesTheUninterruptedChampion)
{
    for (int killAfter : {1, 9, 17}) {
        BowlEvaluator referenceEval;
        TuningResult reference =
            TuningSession(referenceEval, bowlSeed(), fastOptions())
                .run();

        const std::string path = tempPath("session_resume.ckpt");
        BowlEvaluator killedEval;
        TuningSession killed(killedEval, bowlSeed(), fastOptions());
        killed.run(killAfter);
        killed.save(path);

        BowlEvaluator resumedEval;
        TuningSession resumed(resumedEval, bowlSeed(), fastOptions());
        resumed.load(path);
        TuningResult result = resumed.run();
        std::remove(path.c_str());

        EXPECT_EQ(result.best, reference.best)
            << "killed after " << killAfter << " steps";
        EXPECT_DOUBLE_EQ(result.bestSeconds, reference.bestSeconds);
        EXPECT_EQ(result.mutationsAccepted, reference.mutationsAccepted);
        EXPECT_EQ(result.mutationsRejected, reference.mutationsRejected);
    }
}

TEST(TuningSession, LargePopulationCheckpointRoundTripsExactly)
{
    // A full 256-member population: load reads each member's keys as
    // one range of the file, and the reloaded session renders the same
    // checkpoint byte for byte.
    TunerOptions options = fastOptions();
    options.populationSize = 256;
    ConfigSchema::Builder schema;
    schema.addTunable({"lws", 1, 1024, 2, false});
    schema.addSelector("algo", 3);
    Config seed(schema.build());
    BowlEvaluator eval;
    TuningSession session(eval, seed, options);
    session.run(2);
    KvFile checkpoint = session.checkpointKv();

    checkpoint.setInt("session.population", 256);
    for (int i = 0; i < 256; ++i) {
        Config member = seed;
        member.setTunable("lws", 1 + (i * 37) % 1024);
        member.selector("algo").insertLevel(16 * (i + 1), i % 3);
        if (i % 5 == 0)
            member.selector("algo").insertLevel(8000 + i, (i + 1) % 3);
        const std::string prefix = "population." + std::to_string(i) + ".";
        const KvFile values = member.toKv();
        for (const std::string &key : values.keys())
            checkpoint.set(prefix + key, values.get(key));
        checkpoint.setDouble(prefix + "seconds", 1.0 + i / 7.0);
    }
    checkpoint.seal("session", 2); // sealed anew after the edits
    const std::string path = tempPath("session_large.ckpt");
    checkpoint.save(path);

    BowlEvaluator freshEval;
    TuningSession restored(freshEval, seed, options);
    restored.load(path);
    std::remove(path.c_str());
    EXPECT_EQ(restored.introspect().populationSize, 256u);
    EXPECT_EQ(restored.checkpointKv().toString(), checkpoint.toString());
}

TEST(TuningSession, LoadRejectsCheckpointForDifferentSeedConfig)
{
    const std::string path = tempPath("session_schema.ckpt");
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    session.run(2);
    session.save(path);

    ConfigSchema::Builder otherSchema;
    otherSchema.addTunable({"lws", 1, 1024, 4, false}); // different value
    Config otherSeed(otherSchema.build());
    BowlEvaluator otherEval;
    TuningSession other(otherEval, otherSeed, fastOptions());
    EXPECT_THROW(other.load(path), FatalError);
    std::remove(path.c_str());
}

TEST(TuningSession, LoadRejectsCheckpointUnderDifferentOptions)
{
    const std::string path = tempPath("session_options.ckpt");
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    session.run(9);
    session.save(path);

    // Same seed config, different search schedule: the cursor in the
    // checkpoint is meaningless here and must be rejected, not loaded.
    TunerOptions shorter = fastOptions();
    shorter.maxInputSize = 1 << 10;
    shorter.sizeGrowthFactor = 2;
    BowlEvaluator otherEval;
    TuningSession other(otherEval, bowlSeed(), shorter);
    EXPECT_THROW(other.load(path), FatalError);
    std::remove(path.c_str());
}

TEST(TuningSession, LoadRejectsNonCheckpointFiles)
{
    const std::string path = tempPath("session_garbage.ckpt");
    KvFile garbage;
    garbage.set("hello", "world");
    garbage.save(path);

    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    EXPECT_THROW(session.load(path), FatalError);
    std::remove(path.c_str());
}

TEST(TuningSession, SharedCacheChampionMatchesPrivateRun)
{
    // The L2 is a pure memo: attaching it (empty or warm) must change
    // accounting, never the champion. Three runs with the same seed —
    // private L1 only, first-through-the-shared-cache, and
    // second-through-the-shared-cache — must agree byte-for-byte.
    BowlEvaluator privateEval;
    TuningResult priv =
        TuningSession(privateEval, bowlSeed(), fastOptions()).run();

    cache::SharedCacheOptions cacheOptions;
    cacheOptions.maxBytes = 1 << 20;
    cache::SharedEvaluationCache shared(cacheOptions);
    constexpr uint64_t kScope = 7;

    BowlEvaluator firstEval;
    TuningSession first(firstEval, bowlSeed(), fastOptions());
    first.attachSharedCache(&shared, kScope);
    TuningResult cold = first.run();

    BowlEvaluator secondEval;
    TuningSession second(secondEval, bowlSeed(), fastOptions());
    second.attachSharedCache(&shared, kScope);
    TuningResult warm = second.run();

    EXPECT_EQ(priv.best, cold.best);
    EXPECT_EQ(priv.best, warm.best);
    EXPECT_DOUBLE_EQ(priv.bestSeconds, cold.bestSeconds);
    EXPECT_DOUBLE_EQ(priv.bestSeconds, warm.bestSeconds);

    // The second session rode the first one's evaluations.
    EXPECT_LT(secondEval.calls, firstEval.calls);
    EXPECT_GT(second.introspect().sharedHits, 0);
    EXPECT_GT(shared.stats().crossSessionHits, 0);
    EXPECT_GT(first.introspect().sharedPublishes, 0);
}

TEST(TuningSession, SharedCacheScopesDoNotBleed)
{
    // Different cacheScope (different engine/machine identity): a
    // fully warmed cache must answer nothing.
    cache::SharedCacheOptions cacheOptions;
    cacheOptions.maxBytes = 1 << 20;
    cache::SharedEvaluationCache shared(cacheOptions);

    BowlEvaluator firstEval;
    TuningSession first(firstEval, bowlSeed(), fastOptions());
    first.attachSharedCache(&shared, /*scope=*/1);
    first.run();

    BowlEvaluator secondEval;
    TuningSession second(secondEval, bowlSeed(), fastOptions());
    second.attachSharedCache(&shared, /*scope=*/2);
    second.run();

    EXPECT_EQ(second.introspect().sharedHits, 0);
    EXPECT_EQ(secondEval.calls, firstEval.calls);
}

TEST(TuningSession, SharedCacheNeverSeesFailures)
{
    // An evaluator with infeasible points: +inf stays in the private
    // L1; the shared tier receives only finite seconds, and the
    // session filters before publish (so not even the cache's own
    // non-finite rejection counter moves).
    class PartiallyInfeasibleBowl : public BowlEvaluator
    {
      public:
        double
        evaluate(const Config &config, int64_t size) override
        {
            if (config.tunableValue("lws") > 512)
                return std::numeric_limits<double>::infinity();
            return BowlEvaluator::evaluate(config, size);
        }
    };

    cache::SharedCacheOptions cacheOptions;
    cacheOptions.maxBytes = 1 << 20;
    cache::SharedEvaluationCache shared(cacheOptions);

    PartiallyInfeasibleBowl eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    session.attachSharedCache(&shared, /*scope=*/3);
    session.run();

    SessionIntrospection view = session.introspect();
    EXPECT_GT(view.sharedPublishes, 0);
    EXPECT_EQ(shared.stats().rejectedNonFinite, 0);
    // Each published key was unique (the L1 answers repeats), so
    // publishes and insertions line up exactly.
    EXPECT_EQ(shared.stats().insertions, view.sharedPublishes);
}

} // namespace
} // namespace tuner
} // namespace petabricks
