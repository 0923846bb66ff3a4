#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "support/rng.h"

namespace petabricks {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000000), b.uniformInt(0, 1000000));
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniformInt(0, 1000000) == b.uniformInt(0, 1000000))
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.uniformInt(-3, 12);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 12);
    }
}

TEST(Rng, UniformRealStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformReal(0.25, 0.75);
        EXPECT_GE(v, 0.25);
        EXPECT_LT(v, 0.75);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, LognormalScaleMedianNearOne)
{
    // Halving should be about as common as doubling (paper Section 5.2).
    Rng rng(42);
    const int64_t base = 1 << 20;
    int above = 0, total = 4000;
    for (int i = 0; i < total; ++i)
        if (rng.lognormalScale(base) > base)
            ++above;
    double frac = static_cast<double>(above) / total;
    EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(Rng, LognormalScaleNeverBelowOne)
{
    Rng rng(5);
    for (int i = 0; i < 200; ++i)
        EXPECT_GE(rng.lognormalScale(1), 1);
}

TEST(Rng, LognormalSpreadMatchesSigma)
{
    // With sigma = ln 2, ~68% of draws land within [base/2, base*2].
    Rng rng(9);
    const int64_t base = 1 << 16;
    int within = 0, total = 4000;
    for (int i = 0; i < total; ++i) {
        int64_t v = rng.lognormalScale(base);
        if (v >= base / 2 && v <= base * 2)
            ++within;
    }
    double frac = static_cast<double>(within) / total;
    EXPECT_NEAR(frac, 0.68, 0.06);
}

TEST(Rng, LognormalScaleSaturatesAtInt64Max)
{
    // A product of 2^63 or more has no int64 value: it saturates, and
    // every draw below 2^63 converts exactly as before.
    Rng rng(11);
    std::mt19937_64 engine(11);
    const int64_t base = 9000000000000000000;
    int saturated = 0;
    for (int i = 0; i < 400; ++i) {
        std::lognormal_distribution<double> scale(0.0, 0.6931471805599453);
        double product = static_cast<double>(base) * scale(engine);
        int64_t expect = product >= 0x1p63
                             ? std::numeric_limits<int64_t>::max()
                             : static_cast<int64_t>(product);
        saturated += product >= 0x1p63;
        EXPECT_EQ(rng.lognormalScale(base), expect);
    }
    EXPECT_GT(saturated, 100);
    EXPECT_GT(400 - saturated, 100);
    EXPECT_GE(rng.lognormalScale(std::numeric_limits<int64_t>::max()), 1);
}

/** One draw of each kind Rng offers, chosen by @p kind. */
double
drawOne(Rng &rng, int kind)
{
    switch (kind % 4) {
    case 0: return static_cast<double>(rng.uniformInt(-5, 1 << 20));
    case 1: return rng.uniformReal(0.5, 3.0);
    case 2: return rng.chance(0.35) ? 1.0 : 0.0;
    default: return static_cast<double>(rng.lognormalScale(4096));
    }
}

TEST(Rng, DistributionsMatchTheTwisterBitForBit)
{
    // Rng is the generator its distributions draw from; the values
    // must be exactly those drawn from std::mt19937_64 directly, or
    // every tuned champion would change.
    Rng rng(20130316);
    std::mt19937_64 engine(20130316);
    for (int i = 0; i < 2000; ++i) {
        std::uniform_int_distribution<int64_t> ints(-5, 1 << 20);
        EXPECT_EQ(rng.uniformInt(-5, 1 << 20), ints(engine));
        std::uniform_real_distribution<double> reals(0.5, 3.0);
        EXPECT_EQ(rng.uniformReal(0.5, 3.0), reals(engine));
        std::bernoulli_distribution coin(0.35);
        EXPECT_EQ(rng.chance(0.35), coin(engine));
        std::lognormal_distribution<double> scale(0.0, 0.6931471805599453);
        EXPECT_EQ(rng.lognormalScale(1 << 16),
                  std::max<int64_t>(1, static_cast<int64_t>(
                                           65536.0 * scale(engine))));
    }
}

TEST(Rng, CountsEveryEngineCall)
{
    Rng rng(3);
    EXPECT_EQ(rng.seed(), 3u);
    EXPECT_EQ(rng.draws(), 0u);
    std::mt19937_64 engine(3);
    for (int i = 0; i < 500; ++i)
        drawOne(rng, i);
    std::vector<int> shuffled(50);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    engine.discard(rng.draws());
    EXPECT_EQ(rng(), engine());
}

TEST(Rng, RestoreContinuesTheStream)
{
    for (int cut : {0, 1, 7, 311, 312, 313, 1500}) {
        Rng original(99);
        for (int i = 0; i < cut; ++i)
            drawOne(original, i * 7);
        Rng resumed(12345);
        resumed.uniformInt(0, 9); // state to be overwritten
        resumed.restore(original.seed(), original.draws());
        EXPECT_EQ(resumed.seed(), 99u);
        EXPECT_EQ(resumed.draws(), original.draws());
        for (int i = 0; i < 300; ++i)
            EXPECT_EQ(drawOne(resumed, i), drawOne(original, i))
                << "cut " << cut << " draw " << i;
    }
}

TEST(Rng, DrawsToReachFindsATwisterDump)
{
    for (unsigned long long draws : {0ull, 1ull, 311ull, 312ull, 5000ull}) {
        std::mt19937_64 engine(7);
        engine.discard(draws);
        std::ostringstream dump;
        dump << engine;
        EXPECT_EQ(Rng::drawsToReach(7, dump.str(), 5000), draws);
        // Past the bound, on another seed's stream, or garbage: none.
        if (draws > 0) {
            EXPECT_EQ(Rng::drawsToReach(7, dump.str(), draws - 1),
                      std::nullopt);
        }
        EXPECT_EQ(Rng::drawsToReach(8, dump.str(), 5000), std::nullopt);
    }
    // A state that agrees with the stream on its next output but not
    // elsewhere: after 5 draws the next output comes from word 5, and
    // the last of the 312 words is changed.
    std::mt19937_64 engine(7);
    engine.discard(5);
    std::ostringstream dump;
    dump << engine;
    std::istringstream words(dump.str());
    std::vector<unsigned long long> state(312);
    for (unsigned long long &word : state)
        words >> word;
    std::string tail;
    std::getline(words, tail);
    state.back() ^= 1;
    std::ostringstream forged;
    for (unsigned long long word : state)
        forged << word << ' ';
    forged << tail;
    EXPECT_EQ(Rng::drawsToReach(7, forged.str(), 5000), std::nullopt);

    EXPECT_EQ(Rng::drawsToReach(7, "not a twister", 100), std::nullopt);
    EXPECT_EQ(Rng::drawsToReach(7, "", 100), std::nullopt);
}

} // namespace
} // namespace petabricks
