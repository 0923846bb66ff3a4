#include "portfolio/portfolio.h"

#include <bit>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "benchmarks/registry.h"
#include "support/crashpoint.h"
#include "support/error.h"
#include "support/fsck.h"
#include "support/kvfile.h"
#include "support/logging.h"

namespace petabricks {
namespace portfolio {

namespace fs = std::filesystem;

namespace {

/** Filesystem-safe benchmark slug ("Black-Scholes" -> "black-scholes"). */
std::string
slugify(const std::string &name)
{
    std::string slug;
    for (char c : name) {
        unsigned char u = static_cast<unsigned char>(c);
        slug += std::isalnum(u)
                    ? static_cast<char>(std::tolower(u))
                    : '-';
    }
    return slug;
}

/** The sealed champion file. */
std::string
recordText(const ChampionRecord &record)
{
    KvWriter kv;
    kv.set("champion.benchmark", record.benchmark);
    kv.set("champion.machine", record.machineName);
    kv.setHex("champion.machineFingerprint", record.machineFingerprint);
    kv.setInt("champion.inputSize", record.inputSize);
    // The decimal is advisory (humans diffing the file); the bit
    // pattern is the value that round-trips exactly.
    kv.setDouble("champion.seconds", record.seconds);
    kv.setHex("champion.secondsBits", std::bit_cast<uint64_t>(record.seconds));
    kv.setHex("champion.configFingerprint", record.configFingerprint);
    record.config.saveValues(kv, "config.");
    return kv.seal("portfolio", 1);
}

ChampionRecord
recordFromFile(const std::string &path)
{
    KvFile kv = KvFile::load(path);
    kv.verifySeal("portfolio", 1, path);

    ChampionRecord record;
    record.benchmark = kv.get("champion.benchmark");
    record.machineName = kv.get("champion.machine");
    record.machineFingerprint = kv.getHex("champion.machineFingerprint");
    record.inputSize = kv.getInt("champion.inputSize");
    record.seconds =
        std::bit_cast<double>(kv.getHex("champion.secondsBits"));
    record.configFingerprint = kv.getHex("champion.configFingerprint");

    // The benchmark's seed config is the deserialization schema, as
    // everywhere else (checkpoints, choice files). Unknown benchmark
    // names throw here and quarantine the file.
    record.config =
        apps::findBenchmark(record.benchmark)->seedConfig();
    record.config.loadValues(kv.section("config."));
    if (record.config.valueFingerprint() != record.configFingerprint)
        PB_FATAL("'" << path << "' config does not match its stored "
                     << "fingerprint");
    return record;
}

} // namespace

ChampionPortfolio::ChampionPortfolio(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        return; // memory-only
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        PB_FATAL("cannot create portfolio directory '"
                 << dir_ << "': " << ec.message());
    stats_.quarantined = fsck::loadEach(
        dir_, fsck::FileKind::Champion, [this](const std::string &path) {
            ChampionRecord record = recordFromFile(path);
            Key key{record.benchmark, record.machineFingerprint,
                    record.inputSize};
            records_[key] = std::move(record);
            ++stats_.loaded;
        });
}

void
ChampionPortfolio::put(ChampionRecord record)
{
    record.configFingerprint = record.config.valueFingerprint();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dir_.empty()) {
        char fingerprint[17];
        std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                      static_cast<unsigned long long>(
                          record.machineFingerprint));
        const std::string path =
            dir_ + "/champ-" + slugify(record.benchmark) + "-" +
            fingerprint + "-" + std::to_string(record.inputSize) + ".kv";
        try {
            KvFile::saveTextAtomic(path, recordText(record),
                                   "portfolio.champ");
        } catch (const IoError &e) {
            // Keep the in-memory champion serving dispatches; the
            // previous on-disk champion (if any) is still intact, so a
            // restart falls back to it — strictly older, never torn.
            ++stats_.writeFailures;
            PB_WARN("portfolio: champion write failed, keeping "
                    "in-memory record ("
                    << e.what() << ")");
        }
    }
    Key key{record.benchmark, record.machineFingerprint,
            record.inputSize};
    records_[key] = std::move(record);
    ++stats_.stored;
}

std::optional<ChampionRecord>
ChampionPortfolio::exact(const std::string &benchmark,
                         uint64_t machineFingerprint, int64_t n) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(Key{benchmark, machineFingerprint, n});
    if (it == records_.end())
        return std::nullopt;
    return it->second;
}

std::vector<ChampionRecord>
ChampionPortfolio::championsFor(const std::string &benchmark,
                                uint64_t machineFingerprint) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ChampionRecord> out;
    auto it = records_.lower_bound(
        Key{benchmark, machineFingerprint,
            std::numeric_limits<int64_t>::min()});
    for (; it != records_.end(); ++it) {
        const auto &[key, record] = *it;
        if (std::get<0>(key) != benchmark ||
            std::get<1>(key) != machineFingerprint)
            break;
        out.push_back(record);
    }
    return out;
}

std::vector<ChampionRecord>
ChampionPortfolio::allFor(const std::string &benchmark) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ChampionRecord> out;
    for (const auto &[key, record] : records_)
        if (std::get<0>(key) == benchmark)
            out.push_back(record);
    return out;
}

std::vector<ChampionRecord>
ChampionPortfolio::all() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ChampionRecord> out;
    out.reserve(records_.size());
    for (const auto &[key, record] : records_)
        out.push_back(record);
    return out;
}

size_t
ChampionPortfolio::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

PortfolioStats
ChampionPortfolio::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace portfolio
} // namespace petabricks
