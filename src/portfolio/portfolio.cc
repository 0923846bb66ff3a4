#include "portfolio/portfolio.h"

#include <bit>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "benchmarks/registry.h"
#include "support/crashpoint.h"
#include "support/error.h"
#include "support/fsck.h"
#include "support/hash.h"
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

std::string
hex16(uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

uint64_t
parseHex16(const std::string &text, const char *what)
{
    uint64_t value = 0;
    char trailing = 0;
    if (std::sscanf(text.c_str(), "%" SCNx64 " %c", &value, &trailing) != 1)
        PB_FATAL("malformed " << what << " '" << text << "'");
    return value;
}

/** Content checksum over every entry except the checksum itself, in
 * sorted key order — any torn or edited byte fails the load. */
uint64_t
contentChecksum(const KvFile &kv)
{
    Fnv1a hash;
    for (const std::string &key : kv.keys()) {
        if (key == "portfolio.checksum")
            continue;
        hash.mix(key);
        hash.mix(kv.get(key));
    }
    return hash.value();
}

KvFile
recordToKv(const ChampionRecord &record)
{
    KvFile kv;
    kv.setInt("portfolio.version", 1);
    kv.set("champion.benchmark", record.benchmark);
    kv.set("champion.machine", record.machineName);
    kv.set("champion.machineFingerprint",
           hex16(record.machineFingerprint));
    kv.setInt("champion.inputSize", record.inputSize);
    // The decimal is advisory (humans diffing the file); the bit
    // pattern is the value that round-trips exactly.
    kv.setDouble("champion.seconds", record.seconds);
    kv.set("champion.secondsBits",
           hex16(std::bit_cast<uint64_t>(record.seconds)));
    kv.set("champion.configFingerprint",
           hex16(record.configFingerprint));
    record.config.saveValues(kv, "config.");
    kv.set("portfolio.checksum", hex16(contentChecksum(kv)));
    return kv;
}

ChampionRecord
recordFromFile(const std::string &path)
{
    KvFile kv = KvFile::load(path);
    if (kv.getIntOr("portfolio.version", -1) != 1)
        PB_FATAL("'" << path << "' is not a portfolio champion file");
    if (parseHex16(kv.get("portfolio.checksum"), "portfolio checksum") !=
        contentChecksum(kv))
        PB_FATAL("'" << path << "' fails its checksum (torn write?)");

    ChampionRecord record;
    record.benchmark = kv.get("champion.benchmark");
    record.machineName = kv.get("champion.machine");
    record.machineFingerprint = parseHex16(
        kv.get("champion.machineFingerprint"), "machine fingerprint");
    record.inputSize = kv.getInt("champion.inputSize");
    record.seconds = std::bit_cast<double>(
        parseHex16(kv.get("champion.secondsBits"), "seconds bits"));
    record.configFingerprint = parseHex16(
        kv.get("champion.configFingerprint"), "config fingerprint");

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

std::string
ChampionPortfolio::championPath(const ChampionRecord &record) const
{
    return dir_ + "/champ-" + slugify(record.benchmark) + "-" +
           hex16(record.machineFingerprint) + "-" +
           std::to_string(record.inputSize) + ".kv";
}

void
ChampionPortfolio::put(ChampionRecord record)
{
    record.configFingerprint = record.config.valueFingerprint();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dir_.empty()) {
        const std::string path = championPath(record);
        try {
            recordToKv(record).saveAtomic(path, "portfolio.champ");
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
