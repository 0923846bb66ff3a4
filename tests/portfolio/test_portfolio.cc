/**
 * @file
 * ChampionPortfolio persistence: bit-exact cost round-trips, replace
 * semantics, reload across instances, and the crash-safety contract —
 * torn or edited champion files are quarantined (or skipped) at load,
 * never fatal.
 */

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

#include "benchmarks/registry.h"
#include "portfolio/portfolio.h"
#include "sim/machine.h"

#include "fresh_dir.h"

using namespace petabricks;
using namespace petabricks::portfolio;

namespace {

namespace fs = std::filesystem;

std::string
freshDir(const char *name)
{
    return freshPath(std::string("portfolio_") + name);
}

ChampionRecord
makeRecord(int64_t n, double seconds, int64_t splitValue = 16)
{
    ChampionRecord record;
    record.benchmark = "Black-Scholes";
    record.machineName = "Desktop";
    record.machineFingerprint =
        sim::MachineProfile::desktop().fingerprint();
    record.inputSize = n;
    record.seconds = seconds;
    record.config =
        apps::findBenchmark("Black-Scholes")->seedConfig();
    record.config.setTunable("BlackScholes.split", splitValue);
    return record;
}

std::vector<std::string>
championFiles(const std::string &dir)
{
    std::vector<std::string> out;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".kv")
            out.push_back(entry.path().string());
    return out;
}

} // namespace

TEST(Portfolio, MemoryOnlyStoreAndLookup)
{
    ChampionPortfolio portfolio; // no directory
    portfolio.put(makeRecord(256, 0.5));
    portfolio.put(makeRecord(1024, 0.9));

    auto hit = portfolio.exact(
        "Black-Scholes", sim::MachineProfile::desktop().fingerprint(),
        256);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->seconds, 0.5);
    EXPECT_EQ(hit->configFingerprint, hit->config.valueFingerprint());
    EXPECT_FALSE(portfolio
                     .exact("Black-Scholes",
                            sim::MachineProfile::desktop().fingerprint(),
                            512)
                     .has_value());
    EXPECT_EQ(portfolio.size(), 2u);
    EXPECT_EQ(portfolio.stats().stored, 2);
    EXPECT_EQ(portfolio.stats().loaded, 0);
}

TEST(Portfolio, PutReplacesTheSameKey)
{
    ChampionPortfolio portfolio;
    portfolio.put(makeRecord(256, 0.5, 16));
    portfolio.put(makeRecord(256, 0.25, 64));
    EXPECT_EQ(portfolio.size(), 1u);
    auto hit = portfolio.exact(
        "Black-Scholes", sim::MachineProfile::desktop().fingerprint(),
        256);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->seconds, 0.25);
    EXPECT_EQ(hit->config.tunableValue("BlackScholes.split"), 64);
}

TEST(Portfolio, ChampionsForAscendingBySize)
{
    ChampionPortfolio portfolio;
    portfolio.put(makeRecord(4096, 1.5));
    portfolio.put(makeRecord(64, 0.1));
    portfolio.put(makeRecord(1024, 0.8));
    std::vector<ChampionRecord> champs = portfolio.championsFor(
        "Black-Scholes", sim::MachineProfile::desktop().fingerprint());
    ASSERT_EQ(champs.size(), 3u);
    EXPECT_EQ(champs[0].inputSize, 64);
    EXPECT_EQ(champs[1].inputSize, 1024);
    EXPECT_EQ(champs[2].inputSize, 4096);
}

TEST(Portfolio, SecondsRoundTripBitExactly)
{
    // Values a decimal round-trip would mangle: non-terminating
    // fractions, denormals, the largest finite double, and a value one
    // ulp away from a short decimal.
    const std::vector<double> awkward = {
        1.0 / 3.0,
        0.1,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::nextafter(2.5e-3, 3.0),
        6.283185307179586,
    };
    std::string dir = freshDir("bits");
    {
        ChampionPortfolio portfolio(dir);
        for (size_t i = 0; i < awkward.size(); ++i)
            portfolio.put(makeRecord(64 << i, awkward[i]));
    }
    ChampionPortfolio reloaded(dir);
    EXPECT_EQ(reloaded.stats().loaded,
              static_cast<int64_t>(awkward.size()));
    for (size_t i = 0; i < awkward.size(); ++i) {
        auto hit = reloaded.exact(
            "Black-Scholes",
            sim::MachineProfile::desktop().fingerprint(), 64 << i);
        ASSERT_TRUE(hit.has_value()) << "n=" << (64 << i);
        EXPECT_EQ(std::bit_cast<uint64_t>(hit->seconds),
                  std::bit_cast<uint64_t>(awkward[i]))
            << "seconds not bit-identical for n=" << (64 << i);
    }
}

TEST(Portfolio, PersistsFullRecordAcrossInstances)
{
    std::string dir = freshDir("reload");
    ChampionRecord original = makeRecord(512, 0.0625, 32);
    {
        ChampionPortfolio portfolio(dir);
        portfolio.put(original);
    }
    ChampionPortfolio reloaded(dir);
    auto hit = reloaded.exact(
        "Black-Scholes", sim::MachineProfile::desktop().fingerprint(),
        512);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->benchmark, original.benchmark);
    EXPECT_EQ(hit->machineName, original.machineName);
    EXPECT_EQ(hit->machineFingerprint, original.machineFingerprint);
    EXPECT_EQ(hit->inputSize, original.inputSize);
    EXPECT_EQ(hit->seconds, original.seconds);
    EXPECT_EQ(hit->config, original.config);
    EXPECT_EQ(hit->configFingerprint,
              original.config.valueFingerprint());
    // The serialized form is byte-stable: rewriting the same record
    // reproduces the identical file.
    std::vector<std::string> files = championFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    std::ifstream in(files[0]);
    std::string before((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    reloaded.put(original);
    std::ifstream in2(files[0]);
    std::string after((std::istreambuf_iterator<char>(in2)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(before, after);
}

TEST(Portfolio, TornFileIsQuarantinedNotFatal)
{
    std::string dir = freshDir("torn");
    {
        ChampionPortfolio portfolio(dir);
        portfolio.put(makeRecord(256, 0.5));
        portfolio.put(makeRecord(1024, 0.9));
    }
    // Tear one champion mid-file, as a crashed non-atomic writer would.
    std::vector<std::string> files = championFiles(dir);
    ASSERT_EQ(files.size(), 2u);
    fs::resize_file(files[0], fs::file_size(files[0]) / 2);

    ChampionPortfolio reloaded(dir); // must not throw
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(reloaded.stats().loaded, 1);
    EXPECT_EQ(reloaded.stats().quarantined, 1);
    EXPECT_FALSE(fs::exists(files[0]));
    EXPECT_TRUE(fs::exists(files[0] + ".quarantine"));
}

TEST(Portfolio, EditedValueFailsChecksumAndQuarantines)
{
    std::string dir = freshDir("edited");
    {
        ChampionPortfolio portfolio(dir);
        portfolio.put(makeRecord(256, 0.5));
    }
    std::vector<std::string> files = championFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    // Flip one byte of the stored input size; the content checksum
    // must catch it even though the file still parses as a KvFile.
    std::ifstream in(files[0]);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    size_t pos = text.find("256");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = '9';
    std::ofstream(files[0]) << text;

    ChampionPortfolio reloaded(dir);
    EXPECT_EQ(reloaded.size(), 0u);
    EXPECT_EQ(reloaded.stats().quarantined, 1);
    EXPECT_TRUE(fs::exists(files[0] + ".quarantine"));
}

TEST(Portfolio, GarbageFileIsQuarantined)
{
    std::string dir = freshDir("garbage");
    fs::create_directories(dir);
    std::ofstream(dir + "/champ-bogus-0000000000000000-1.kv")
        << "not a champion at all\n";
    ChampionPortfolio portfolio(dir); // must not throw
    EXPECT_EQ(portfolio.size(), 0u);
    EXPECT_EQ(portfolio.stats().quarantined, 1);
}

TEST(Portfolio, PutRecomputesStaleConfigFingerprint)
{
    ChampionPortfolio portfolio;
    ChampionRecord record = makeRecord(256, 0.5);
    record.configFingerprint = 0xdeadbeef; // deliberately wrong
    portfolio.put(record);
    auto hit = portfolio.exact(
        "Black-Scholes", sim::MachineProfile::desktop().fingerprint(),
        256);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->configFingerprint, hit->config.valueFingerprint());
}
