/**
 * @file
 * The seal every persisted record kind carries (KvFile::seal). A file
 * of each kind (cache segment, champion, spool spec, checkpoint) with
 * one value edited, and still parseable, is quarantined at boot and
 * counted in its store's `/stats` counter; a checkpoint with one of its
 * two slots edited resumes from the other. Files written before the
 * seal, kept below byte for byte, upgrade as documented: the champion
 * loads and re-saves to the same bytes, the version 1 segment is
 * quarantined and counted, and the version 1 checkpoint and unsealed
 * spec resume to the uninterrupted champion.
 */

#include <bit>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "benchmarks/registry.h"
#include "cache/segment_store.h"
#include "portfolio/portfolio.h"
#include "service/client.h"
#include "service/server.h"
#include "service/session_table.h"
#include "sim/machine.h"
#include "support/fsck.h"
#include "support/slot_file.h"

#include "fresh_dir.h"

using namespace petabricks;
using namespace petabricks::service;

namespace {

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    std::string path = freshPath("sealed_records_" + name);
    fs::create_directories(path);
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream(path) << text;
}

/** Set @p key in the kvfile at @p path to @p value, seal untouched. */
void
editValue(const std::string &path, const std::string &key,
          const std::string &value)
{
    KvFile kv = KvFile::load(path);
    ASSERT_TRUE(kv.has(key)) << path << " has no " << key;
    ASSERT_NE(kv.get(key), value);
    kv.set(key, value);
    kv.save(path);
}

SessionSpec
tinySpec(uint64_t seed)
{
    KvFile kv;
    kv.set("benchmark", "Sort");
    kv.setInt("seed", static_cast<int64_t>(seed));
    kv.setInt("populationSize", 4);
    kv.setInt("generationsPerSize", 3);
    kv.setInt("minInputSize", 64);
    kv.setInt("maxInputSize", 256);
    return SessionSpec::fromCreateRequest(kv);
}

// Four files as the release before the seal wrote them: a Sort search
// (seed 2, population 3, 2 generations per size, sizes 64 to 1024)
// spooled after 3 of its 6 steps, the champion that search ends with,
// and a two-record cache segment.

const char *const kChampion = R"(champion.benchmark = Sort
champion.configFingerprint = 435ba1795f644b21
champion.inputSize = 1024
champion.machine = Desktop
champion.machineFingerprint = 4ed3ce1de06ea639
champion.seconds = 3.8625599999999998e-06
champion.secondsBits = 3ed033646882c8e4
config.Sort.algorithm.algorithms = 0,2
config.Sort.algorithm.cutoffs = 119
config.Sort.pmCutoff = 65536
config.Sort.taskCutoff = 512
portfolio.checksum = 5d93fb12fa2dafd3
portfolio.version = 1
)";

const char *const kSegmentV1 =
    R"(entry.0 = 000000001234abcd 64 9e3779b97f4a7c15 3f547ae147ae147b
entry.1 = 000000001234abcd 128 0123456789abcdef 3f647ae147ae147b
segment.checksum = 2fddb94650df1d06
segment.count = 2
segment.version = 1
)";

const char *const kSpecUnsealed = R"(spec.benchmark = Sort
spec.cacheEvaluations = 1
spec.engineParallelism = 1
spec.faultRate = 0
spec.faultSeed = 20130316
spec.generationsPerSize = 2
spec.irCacheSavings = 0.55000000000000004
spec.kernelCompileSeconds = 1.6000000000000001
spec.machine = Desktop
spec.maxInputSize = 1024
spec.minInputSize = 64
spec.populationSize = 3
spec.seed = 2
spec.sizeGrowthFactor = 4
spec.trialsPerEvaluation = 2
)";

const char *const kCheckpointV1 =
    R"(population.0.Sort.algorithm.algorithms = 0,2
population.0.Sort.algorithm.cutoffs = 119
population.0.Sort.pmCutoff = 65536
population.0.Sort.taskCutoff = 512
population.0.seconds = 2.6609599999999998e-06
population.1.Sort.algorithm.algorithms = 0
population.1.Sort.algorithm.cutoffs = )"
    R"(
population.1.Sort.pmCutoff = 65536
population.1.Sort.taskCutoff = 512
population.1.seconds = 9.1750399999999988e-06
session.cacheHits = 0
session.compileSeconds = 0
session.evaluationFailures = 0
session.evaluations = 5
session.generation = 1
session.generationsPerSize = 2
session.maxInputSize = 1024
session.minInputSize = 64
session.mutationsAccepted = 1
session.mutationsRejected = 2
session.population = 2
session.populationSize = 3
session.rngDraws = 34
session.rngSeed = 2
session.schema = 3024000141119975764
session.sizeGrowthFactor = 4
session.sizeIndex = 1
session.tuningSeconds = 2.7112639999999995e-05
session.version = 1
)";

} // namespace

TEST(SealedRecords, EditedValueOfEveryKindIsQuarantinedAtBoot)
{
    const std::string spool = freshDir("edited_spool");
    const std::string cacheDir = freshDir("edited_cache");
    const std::string champDir = freshDir("edited_champ");

    // One healthy file of each kind, written by the stores themselves.
    std::string specEdited, checkpointEdited;
    {
        SessionTableOptions options;
        options.spoolDir = spool;
        SessionTable table(options);
        specEdited = table.create(tinySpec(7));
        table.step(specEdited, 2);
        checkpointEdited = table.create(tinySpec(8));
        table.step(checkpointEdited, 2);
    }
    cache::SegmentStore(cacheDir).append(
        {{0x5eedull, 64, 0x1234ull, 0.5}, {0x5eedull, 64, 0x5678ull, 0.25}});
    portfolio::ChampionRecord record;
    record.benchmark = "Sort";
    record.machineName = "Desktop";
    record.machineFingerprint = sim::MachineProfile::desktop().fingerprint();
    record.inputSize = 64;
    record.seconds = 0.25;
    record.config = apps::findBenchmark("Sort")->seedConfig();
    portfolio::ChampionPortfolio(champDir).put(record);

    // One value each, every file still a valid kvfile.
    const std::string segment =
        fsck::list(cacheDir, fsck::FileKind::CacheSegment).at(0);
    const std::string champion =
        fsck::list(champDir, fsck::FileKind::Champion).at(0);
    editValue(segment, "entry.1",
              "0000000000005eed 64 0000000000005678 3d719799812dea11");
    editValue(champion, "champion.secondsBits", "3d719799812dea11");
    editValue(spool + "/" + specEdited + ".meta", "spec.machine", "Laptop");
    // Both checkpoint slots: with one good slot the session resumes.
    for (int slot = 0; slot < 2; ++slot)
        editValue(SlotFile::slotPath(spool + "/" + checkpointEdited + ".ckpt",
                                     slot),
                  "population.0.seconds", "1e-12");

    ServerOptions options;
    options.port = 0;
    options.workers = 2;
    options.table.spoolDir = spool;
    options.cache.dir = cacheDir;
    options.portfolioDir = champDir;
    TuningServer server(options);
    server.start();
    Client client("127.0.0.1", server.port());
    KvFile stats = client.stats();
    EXPECT_EQ(stats.getInt("cache.segmentsQuarantined"), 1);
    EXPECT_EQ(stats.getInt("portfolio.quarantined"), 1);
    EXPECT_EQ(stats.getInt("table.spoolQuarantined"), 2);
    EXPECT_EQ(stats.getInt("cache.loadedEntries"), 0);
    EXPECT_EQ(stats.getInt("portfolio.loaded"), 0);
    EXPECT_TRUE(fs::exists(segment + ".quarantine"));
    EXPECT_TRUE(fs::exists(champion + ".quarantine"));
    EXPECT_EQ(stats.getInt("table.slotsQuarantined"), 0);
    for (const std::string &id : {specEdited, checkpointEdited}) {
        EXPECT_TRUE(fs::exists(spool + "/" + id + ".meta.quarantine")) << id;
        EXPECT_TRUE(fs::exists(spool + "/" + id + ".ckpt.quarantine")) << id;
        EXPECT_TRUE(fs::exists(spool + "/" + id + ".ckpt.1.quarantine"))
            << id;
        EXPECT_THROW(client.resume(id), FatalError) << id;
    }
    server.stop();
}

TEST(SealedRecords, EditedNewestSlotIsSetAsideAndTheOtherResumes)
{
    const std::string spool = freshDir("edited_slot");
    std::string id;
    {
        SessionTableOptions options;
        options.spoolDir = spool;
        SessionTable table(options);
        id = table.create(tinySpec(8));
        table.step(id, 2); // slot 0 holds step 1, slot 1 step 2
    }
    const std::string newest =
        SlotFile::slotPath(spool + "/" + id + ".ckpt", 1);
    ASSERT_EQ(KvFile::load(newest).getInt("session.generation"), 2);
    editValue(newest, "population.0.seconds", "1e-12");

    SessionTableOptions options;
    options.spoolDir = spool;
    SessionTable table(options);
    EXPECT_EQ(table.stats().spoolQuarantined, 0);
    EXPECT_EQ(table.stats().slotsQuarantined, 1);
    EXPECT_TRUE(fs::exists(newest + ".quarantine"));
    table.resume(id);
    EXPECT_EQ(table.status(id).completedSteps, 1);
    table.step(id, 1000);
    tuner::TuningResult reference = runSpecLocally(tinySpec(8));
    KvFile champion = table.champion(id);
    KvFile expected = reference.best.toKv();
    for (const std::string &key : expected.keys())
        EXPECT_EQ(champion.get(key), expected.get(key)) << key;
    EXPECT_EQ(champion.getDouble("champion.seconds"), reference.bestSeconds);
}

TEST(SealedRecords, ChampionFromBeforeTheSealResavesByteIdentical)
{
    const std::string dir = freshDir("legacy_champ");
    const std::string name = "/champ-sort-4ed3ce1de06ea639-1024.kv";
    writeFile(dir + name, kChampion);
    portfolio::ChampionPortfolio loaded(dir);
    EXPECT_EQ(loaded.stats().loaded, 1);
    EXPECT_EQ(loaded.stats().quarantined, 0);
    ASSERT_EQ(loaded.size(), 1u);

    const std::string resaved = freshDir("legacy_champ_resaved");
    portfolio::ChampionPortfolio(resaved).put(loaded.all().at(0));
    EXPECT_EQ(readFile(resaved + name), kChampion);
}

TEST(SealedRecords, VersionOneSegmentIsQuarantinedAndCounted)
{
    const std::string dir = freshDir("legacy_segment");
    writeFile(dir + "/seg-00000000.kv", kSegmentV1);
    cache::SegmentStore store(dir);
    EXPECT_TRUE(store.loadAll().empty());
    EXPECT_EQ(store.stats().segmentsQuarantined, 1);
    EXPECT_TRUE(fs::exists(dir + "/seg-00000000.kv.quarantine"));
}

TEST(SealedRecords, VersionOneCheckpointAndUnsealedSpecResume)
{
    const std::string spool = freshDir("legacy_spool");
    writeFile(spool + "/s1.meta", kSpecUnsealed);
    writeFile(spool + "/s1.ckpt", kCheckpointV1);

    SessionTableOptions options;
    options.spoolDir = spool;
    SessionTable table(options);
    EXPECT_EQ(table.stats().spoolQuarantined, 0);
    table.resume("s1");
    EXPECT_EQ(table.status("s1").completedSteps, 3);
    table.step("s1", 1000);
    EXPECT_TRUE(table.status("s1").done);

    // The champion of the same search run without a break, both as
    // this build computes it and as the pre-seal release stored it.
    tuner::TuningResult reference = runSpecLocally(table.spec("s1"));
    KvFile champion = table.champion("s1");
    KvFile expected = reference.best.toKv();
    for (const std::string &key : expected.keys())
        EXPECT_EQ(champion.get(key), expected.get(key)) << key;
    EXPECT_EQ(champion.getDouble("champion.seconds"), reference.bestSeconds);
    EXPECT_EQ(reference.best.valueFingerprint(), 0x435ba1795f644b21ull);
    EXPECT_EQ(std::bit_cast<uint64_t>(reference.bestSeconds),
              0x3ed033646882c8e4ull);

    // The resumed session checkpoints in the sealed format; the spec
    // stays as it was spooled.
    KvFile::load(spool + "/s1.ckpt").verifySeal("session", 2, "s1.ckpt");
    EXPECT_EQ(readFile(spool + "/s1.meta"), kSpecUnsealed);
}
