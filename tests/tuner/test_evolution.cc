#include <gtest/gtest.h>

#include <cmath>

#include "tuner/session.h"

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
        double lws = static_cast<double>(config.tunableValue("lws"));
        double err = std::log2(lws / 128.0);
        return 1.0 + err * err;
    }
};

/**
 * Recursive algorithm with a size-dependent best step: algorithm 0 wins
 * below ~8192, algorithm 1 above. Because the recursion re-consults the
 * selector at every level (like selectors at recursive call sites in
 * PetaBricks programs), a large-size test also exercises the small-size
 * levels, and the tuner must build a genuine poly-algorithm.
 */
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
        // alg 0: 2n per step (good small); alg 1: n + 8192 (good large).
        double step = alg == 0 ? 2.0 * n : n + 8192.0;
        return step + cost(config, size / 2);
    }
};

/** Tracks compile accounting via kernelSources. */
class KernelCountingEvaluator : public Evaluator
{
  public:
    double
    evaluate(const Config &config, int64_t) override
    {
        return 1e-3 * static_cast<double>(config.tunableValue("lws"));
    }

    std::vector<std::string>
    kernelSources(const Config &, int64_t) override
    {
        return {"k1", "k2"};
    }
};

TunerOptions
fastOptions()
{
    TunerOptions opts;
    opts.populationSize = 6;
    opts.generationsPerSize = 6;
    opts.minInputSize = 64;
    opts.maxInputSize = 1 << 16;
    opts.sizeGrowthFactor = 4;
    opts.seed = 42;
    return opts;
}

TEST(Evolution, FindsTunableOptimum)
{
    Config seed;
    seed.addTunable({"lws", 1, 1024, 2, false});
    BowlEvaluator eval;
    TuningResult result = TuningSession(eval, seed, fastOptions()).run();
    int64_t lws = result.best.tunableValue("lws");
    EXPECT_GE(lws, 64);
    EXPECT_LE(lws, 256);
    EXPECT_LT(result.bestSeconds, 1.3);
}

TEST(Evolution, BuildsPolyAlgorithmSelector)
{
    Config seed;
    seed.addSelector(Selector("algo", 2, 0));
    CrossoverEvaluator eval;
    TunerOptions opts = fastOptions();
    opts.generationsPerSize = 10;
    TuningResult result = TuningSession(eval, seed, opts).run();
    const Selector &s = result.best.selector("algo");
    // Small inputs use algorithm 0, large inputs algorithm 1.
    EXPECT_EQ(s.select(64), 0);
    EXPECT_EQ(s.select(1 << 16), 1);
}

TEST(Evolution, ChildrenOnlyAcceptedWhenBetter)
{
    Config seed;
    seed.addTunable({"lws", 1, 1024, 128, false});
    BowlEvaluator eval;
    TuningResult result = TuningSession(eval, seed, fastOptions()).run();
    // Seeded at the optimum: every mutation is a regression.
    EXPECT_EQ(result.mutationsAccepted, 0);
    EXPECT_GT(result.mutationsRejected, 0);
    EXPECT_EQ(result.best.tunableValue("lws"), 128);
}

TEST(Evolution, DeterministicForSameSeed)
{
    Config seed;
    seed.addTunable({"lws", 1, 1024, 2, false});
    BowlEvaluator e1, e2;
    TuningResult r1 = TuningSession(e1, seed, fastOptions()).run();
    TuningResult r2 = TuningSession(e2, seed, fastOptions()).run();
    EXPECT_EQ(r1.best.tunableValue("lws"), r2.best.tunableValue("lws"));
    EXPECT_DOUBLE_EQ(r1.tuningSeconds, r2.tuningSeconds);
}

TEST(Evolution, TuningTimeIncludesCompileModel)
{
    Config seed;
    seed.addTunable({"lws", 1, 1024, 2, false});
    KernelCountingEvaluator eval;
    TunerOptions opts = fastOptions();
    opts.kernelCompileSeconds = 2.0;
    opts.irCacheSavings = 0.5;
    TuningResult result = TuningSession(eval, seed, opts).run();
    EXPECT_GT(result.compileSeconds, 0.0);
    EXPECT_GE(result.tuningSeconds, result.compileSeconds);
    // Two kernels, first run full (2s each), every later test process
    // pays the IR-cache-hit cost (1s each): compile time dominates.
    double perEvalFloor = 2.0 * 2.0 * (1.0 - 0.5);
    EXPECT_GE(result.compileSeconds,
              static_cast<double>(result.evaluations - 1) * perEvalFloor);
}

TEST(Evolution, InvalidConfigsNeverWin)
{
    // Evaluator returns inf for lws > 256: tuner must settle below.
    class Gated : public Evaluator
    {
      public:
        double
        evaluate(const Config &config, int64_t) override
        {
            int64_t lws = config.tunableValue("lws");
            if (lws > 256)
                return std::numeric_limits<double>::infinity();
            return 1.0 / static_cast<double>(lws);
        }
    };
    Config seed;
    seed.addTunable({"lws", 1, 1024, 2, false});
    Gated eval;
    TuningResult result = TuningSession(eval, seed, fastOptions()).run();
    EXPECT_LE(result.best.tunableValue("lws"), 256);
    EXPECT_TRUE(std::isfinite(result.bestSeconds));
}

TEST(Evolution, ReportCountsEvaluations)
{
    Config seed;
    seed.addTunable({"lws", 1, 1024, 2, false});
    BowlEvaluator eval;
    TuningResult result = TuningSession(eval, seed, fastOptions()).run();
    EXPECT_GT(result.evaluations, 10);
    EXPECT_EQ(result.mutationsAccepted + result.mutationsRejected +
                  /* population re-measures */ 0,
              result.mutationsAccepted + result.mutationsRejected);
}

} // namespace
} // namespace tuner
} // namespace petabricks
