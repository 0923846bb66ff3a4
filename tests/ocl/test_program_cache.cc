#include <gtest/gtest.h>

#include "ocl/program_cache.h"

namespace petabricks {
namespace ocl {
namespace {

// Interned kernel-source ids, as TuningSession assigns them.
constexpr ProgramId kA = 0;
constexpr ProgramId kB = 1;

TEST(ProgramCache, FirstCompileIsFullCost)
{
    ProgramCache cache(2.0, 0.5);
    EXPECT_DOUBLE_EQ(cache.compile(kA), 2.0);
    EXPECT_EQ(cache.stats().fullCompiles, 1);
}

TEST(ProgramCache, InProcessRecompileIsFree)
{
    ProgramCache cache(2.0, 0.5);
    cache.compile(kA);
    EXPECT_DOUBLE_EQ(cache.compile(kA), 0.0);
    EXPECT_EQ(cache.stats().inProcessHits, 1);
}

TEST(ProgramCache, IrCacheHitAcrossRuns)
{
    // Section 5.4: the stored IR skips parse/optimize but the
    // architecture-specific JIT still runs.
    ProgramCache cache(2.0, 0.5);
    cache.compile(kA);
    cache.endRun();
    EXPECT_DOUBLE_EQ(cache.compile(kA), 1.0);
    EXPECT_EQ(cache.stats().irCacheHits, 1);
}

TEST(ProgramCache, DistinctSourcesCompileSeparately)
{
    ProgramCache cache(1.0, 0.6);
    cache.compile(kA);
    EXPECT_DOUBLE_EQ(cache.compile(kB), 1.0);
    EXPECT_EQ(cache.stats().fullCompiles, 2);
}

TEST(ProgramCache, ClearForgetsIr)
{
    ProgramCache cache(1.0, 0.6);
    cache.compile(kA);
    cache.clear();
    EXPECT_DOUBLE_EQ(cache.compile(kA), 1.0);
    EXPECT_EQ(cache.stats().fullCompiles, 2);
}

TEST(ProgramCache, IdsNeedNotArriveInOrder)
{
    ProgramCache cache(1.0, 0.5);
    EXPECT_DOUBLE_EQ(cache.compile(7), 1.0);
    EXPECT_DOUBLE_EQ(cache.compile(kA), 1.0);
    EXPECT_DOUBLE_EQ(cache.compile(7), 0.0);
    EXPECT_EQ(cache.stats().fullCompiles, 2);
    EXPECT_EQ(cache.stats().inProcessHits, 1);
}

TEST(ProgramCache, TotalSecondsAccumulates)
{
    ProgramCache cache(2.0, 0.5);
    cache.compile(kA); // 2.0
    cache.endRun();
    cache.compile(kA); // 1.0
    cache.compile(kB); // 2.0
    EXPECT_DOUBLE_EQ(cache.stats().totalSeconds, 5.0);
}

} // namespace
} // namespace ocl
} // namespace petabricks
