/**
 * TuningSession::load() failure paths: a truncated or corrupt
 * checkpoint, a seed-fingerprint mismatch, or mismatched tuner options
 * must each raise a clean FatalError — never an internal-invariant
 * panic or undefined behavior. The service leans on this: its spool
 * directory contents survive daemon crashes and user meddling, and a
 * damaged checkpoint must fail one `resume`, not take out the daemon.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <random>
#include <sstream>
#include <string>

#include "support/error.h"
#include "support/kvfile.h"
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
    return std::string(::testing::TempDir()) + name;
}

/** @p kv without the keys in @p drop. */
KvFile
without(const KvFile &kv, std::initializer_list<const char *> drop)
{
    KvFile out;
    for (const std::string &key : kv.keys()) {
        bool dropped = false;
        for (const char *name : drop)
            dropped |= key == name;
        if (!dropped)
            out.set(key, kv.get(key));
    }
    return out;
}

/**
 * @p kv as the oldest version 1 checkpoints stored it: unsealed, and
 * the RNG as std::mt19937_64's operator<< dump instead of seed plus
 * draw count. The dump is of the twister seeded with @p seed after the
 * saved number of draws.
 */
KvFile
legacyForm(const KvFile &kv, uint64_t seed)
{
    std::mt19937_64 engine(seed);
    engine.discard(static_cast<unsigned long long>(
        kv.getInt("session.rngDraws")));
    std::ostringstream dump;
    dump << engine;
    KvFile legacy = without(
        kv, {"session.rngSeed", "session.rngDraws", "session.checksum"});
    legacy.set("session.rng", dump.str());
    legacy.setInt("session.version", 1);
    return legacy;
}

/** Fixture: a mid-search checkpoint plus a fresh session to load it
 * into, with helpers that re-save a damaged variant. */
class CheckpointErrors : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = tempPath("pb_ckpt_errors.kv");
        BowlEvaluator eval;
        TuningSession donor(eval, bowlSeed(), fastOptions());
        donor.run(3);
        donor.save(path_);
        checkpoint_ = KvFile::load(path_);
    }

    /** A pristine session the (possibly damaged) file is loaded into. */
    void
    expectLoadThrows()
    {
        BowlEvaluator eval;
        TuningSession session(eval, bowlSeed(), fastOptions());
        EXPECT_THROW(session.load(path_), FatalError);
    }

    /** Overwrite the checkpoint with @p kv, sealed anew: the seal would
     * reject any edit first, and the checks behind it are the ones
     * under test. */
    void
    rewrite(KvFile kv)
    {
        kv.seal("session", 2);
        kv.save(path_);
    }

    std::string path_;
    KvFile checkpoint_;
};

} // namespace

TEST_F(CheckpointErrors, IntactCheckpointLoadsCleanly)
{
    // Sanity: the fixture's checkpoint is valid before we damage it.
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    session.load(path_);
    EXPECT_EQ(session.completedSteps(), 3);
}

TEST_F(CheckpointErrors, MissingFileIsAFatalError)
{
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    EXPECT_THROW(session.load(tempPath("pb_ckpt_nonexistent.kv")),
                 FatalError);
}

TEST_F(CheckpointErrors, NonCheckpointKvFileIsRejected)
{
    KvFile other;
    other.set("benchmark", "Sort"); // valid kvfile, not a checkpoint
    rewrite(other);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, GarbageBytesAreRejected)
{
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << "\x7f\x45LF not a kvfile at all\nkey without value\n";
    out.close();
    expectLoadThrows();
}

TEST_F(CheckpointErrors, TruncatedFileIsRejected)
{
    // Chop the serialized text mid-way: the population entries the
    // header promises are gone.
    std::string text = checkpoint_.toString();
    std::ofstream out(path_, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
    out.close();
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    try {
        session.load(path_);
        FAIL() << "truncated checkpoint loaded without error";
    } catch (const FatalError &) {
        // Clean rejection path (which key is missed first depends on
        // sort order; any FatalError is correct).
    }
}

TEST_F(CheckpointErrors, MismatchedSeedFingerprintIsRejected)
{
    // Same file, but the loading session tunes a different config
    // schema — the seed fingerprint must catch it.
    ConfigSchema::Builder otherSchema;
    otherSchema.addTunable({"blockSize", 1, 64, 2, false});
    Config otherSeed(otherSchema.build());
    BowlEvaluator eval;
    TuningSession session(eval, otherSeed, fastOptions());
    EXPECT_THROW(session.load(path_), FatalError);
}

TEST_F(CheckpointErrors, MismatchedTunerOptionsAreRejected)
{
    // The checkpoint's cursor only makes sense under the schedule it
    // was saved with; every schedule-shaping option must match.
    BowlEvaluator eval;
    TunerOptions changed = fastOptions();
    changed.generationsPerSize = 9;
    TuningSession session(eval, bowlSeed(), changed);
    EXPECT_THROW(session.load(path_), FatalError);

    changed = fastOptions();
    changed.populationSize = 3;
    TuningSession mismatchedPop(eval, bowlSeed(), changed);
    EXPECT_THROW(mismatchedPop.load(path_), FatalError);

    changed = fastOptions();
    changed.maxInputSize = 1 << 18;
    TuningSession mismatchedMax(eval, bowlSeed(), changed);
    EXPECT_THROW(mismatchedMax.load(path_), FatalError);
}

TEST_F(CheckpointErrors, CorruptRngStateIsRejected)
{
    KvFile damaged = checkpoint_;
    damaged.set("session.rngDraws", "not a draw count");
    rewrite(damaged);
    expectLoadThrows();

    // The previous format's twister dump, damaged.
    damaged = without(checkpoint_, {"session.rngSeed", "session.rngDraws"});
    damaged.set("session.rng", "not a mersenne twister dump");
    rewrite(damaged);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, BadRngKeysAreRejected)
{
    rewrite(without(checkpoint_, {"session.rngDraws"}));
    expectLoadThrows();

    rewrite(without(checkpoint_, {"session.rngSeed"}));
    expectLoadThrows();

    KvFile damaged = checkpoint_;
    damaged.set("session.rngDraws", "12abc");
    rewrite(damaged);
    expectLoadThrows();

    damaged.setInt("session.rngDraws", -1);
    rewrite(damaged);
    expectLoadThrows();

    // The cap is 1024 draws per member per step: 1024 * 6 * (3 + 1).
    damaged.setInt("session.rngDraws", 1024 * 6 * 4 + 1);
    rewrite(damaged);
    expectLoadThrows();
    damaged.setInt("session.rngDraws", 1024 * 6 * 4);
    rewrite(damaged);
    BowlEvaluator eval;
    TuningSession atCap(eval, bowlSeed(), fastOptions());
    EXPECT_NO_THROW(atCap.load(path_));

    // The stream must start from the session's own seed (42).
    damaged = checkpoint_;
    damaged.set("session.rngSeed", "43");
    rewrite(damaged);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, EditedValueFailsTheSeal)
{
    // A member's score edited by hand: the file still parses, and only
    // the seal tells it from a real checkpoint.
    KvFile damaged = checkpoint_;
    damaged.set("population.0.seconds", "1e-12");
    damaged.save(path_);
    expectLoadThrows();

    // Without its checksum, a version 2 file is not a version 1 one.
    without(checkpoint_, {"session.checksum"}).save(path_);
    expectLoadThrows();

    damaged = checkpoint_;
    damaged.seal("session", 3);
    damaged.save(path_);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, LegacyRngDumpResumesToTheUninterruptedChampion)
{
    BowlEvaluator referenceEval;
    TuningResult reference =
        TuningSession(referenceEval, bowlSeed(), fastOptions()).run();

    legacyForm(checkpoint_, fastOptions().seed).save(path_);
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    session.load(path_);
    // Its next save is the current format, byte for byte.
    EXPECT_EQ(session.checkpointKv().toString(), checkpoint_.toString());

    TuningResult result = session.run();
    EXPECT_EQ(result.best.toKv(), reference.best.toKv());
    EXPECT_EQ(result.bestSeconds, reference.bestSeconds);
    EXPECT_EQ(result.mutationsAccepted, reference.mutationsAccepted);
    EXPECT_EQ(result.mutationsRejected, reference.mutationsRejected);
}

TEST_F(CheckpointErrors, LegacyRngDumpFromAnotherSeedIsRejected)
{
    legacyForm(checkpoint_, fastOptions().seed + 1).save(path_);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, PopulationAbovePopulationSizeIsRejected)
{
    // step() prunes to populationSize (6), so 7 members is damage.
    KvFile damaged = checkpoint_;
    damaged.setInt("session.population", 7);
    rewrite(damaged);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, OutOfRangeCursorIsRejected)
{
    KvFile damaged = checkpoint_;
    damaged.setInt("session.sizeIndex", 9999);
    rewrite(damaged);
    expectLoadThrows();

    damaged = checkpoint_;
    damaged.setInt("session.generation", -1);
    rewrite(damaged);
    expectLoadThrows();

    damaged = checkpoint_;
    damaged.setInt("session.generation", 6); // == generationsPerSize
    rewrite(damaged);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, EmptyPopulationIsRejected)
{
    KvFile damaged = checkpoint_;
    damaged.setInt("session.population", 0);
    rewrite(damaged);
    expectLoadThrows();
}

TEST_F(CheckpointErrors, FailedLoadLeavesSessionUsable)
{
    // A rejected checkpoint must not leave the session half-restored:
    // after the error it still steps and finishes like a fresh one.
    BowlEvaluator reference;
    TuningSession pristine(reference, bowlSeed(), fastOptions());
    TuningResult expected = pristine.run();

    KvFile damaged = checkpoint_;
    damaged.set("session.schema", "12345"); // wrong fingerprint
    rewrite(damaged);
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    EXPECT_THROW(session.load(path_), FatalError);
    TuningResult result = session.run();
    EXPECT_EQ(result.best.toKv(), expected.best.toKv());
    EXPECT_EQ(result.bestSeconds, expected.bestSeconds);
}

TEST_F(CheckpointErrors, LateRejectionLeavesSessionUntouched)
{
    // The draw count is read after the cursor and accounting, and the
    // population after it: a file rejected there must not have moved
    // the session's cursor either.
    BowlEvaluator reference;
    TuningSession pristine(reference, bowlSeed(), fastOptions());
    TuningResult expected = pristine.run();

    KvFile damaged = checkpoint_;
    damaged.setInt("session.rngDraws", -1);
    rewrite(damaged);
    BowlEvaluator eval;
    TuningSession session(eval, bowlSeed(), fastOptions());
    EXPECT_THROW(session.load(path_), FatalError);
    EXPECT_EQ(session.completedSteps(), 0);

    damaged = checkpoint_;
    damaged.set("population.0.lws", "4096"); // outside [1, 1024]
    rewrite(damaged);
    EXPECT_THROW(session.load(path_), FatalError);
    EXPECT_EQ(session.completedSteps(), 0);

    TuningResult result = session.run();
    EXPECT_EQ(result.best.toKv(), expected.best.toKv());
    EXPECT_EQ(result.bestSeconds, expected.bestSeconds);
    EXPECT_EQ(result.mutationsAccepted, expected.mutationsAccepted);
}

} // namespace tuner
} // namespace petabricks
