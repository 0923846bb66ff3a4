#include "portfolio/portfolio.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <filesystem>

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

/** A record's place in its benchmark's index. */
std::pair<uint64_t, int64_t>
keyOf(const ChampionRecord &record)
{
    return {record.machineFingerprint, record.inputSize};
}

/** Put @p record in its key's place in @p index, replacing the
 * champion stored at that key. */
void
place(ChampionIndex &index, std::shared_ptr<const ChampionRecord> record)
{
    const std::pair<uint64_t, int64_t> key = keyOf(*record);
    auto it = std::partition_point(
        index.begin(), index.end(),
        [&key](const auto &entry) { return keyOf(*entry) < key; });
    if (it != index.end() && keyOf(**it) == key)
        *it = std::move(record);
    else
        index.insert(it, std::move(record));
}

} // namespace

ChampionRange
machineRange(const ChampionIndex &index, uint64_t machineFingerprint)
{
    auto first = std::partition_point(
        index.begin(), index.end(), [machineFingerprint](const auto &entry) {
            return entry->machineFingerprint < machineFingerprint;
        });
    auto last = std::partition_point(
        first, index.end(), [machineFingerprint](const auto &entry) {
            return entry->machineFingerprint == machineFingerprint;
        });
    return {first, last};
}

const ChampionRecord *
atSize(ChampionRange range, int64_t n)
{
    auto it = std::partition_point(
        range.begin(), range.end(),
        [n](const auto &entry) { return entry->inputSize < n; });
    return it != range.end() && (*it)->inputSize == n ? it->get() : nullptr;
}

ChampionPortfolio::ChampionPortfolio(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        return; // memory-only
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        PB_FATAL("cannot create portfolio directory '"
                 << dir_ << "': " << ec.message());
    std::map<std::string, ChampionIndex, std::less<>> loaded;
    stats_.quarantined = fsck::loadEach(
        dir_, fsck::FileKind::Champion, [&](const std::string &path) {
            auto record =
                std::make_shared<const ChampionRecord>(recordFromFile(path));
            ChampionIndex &index = loaded[record->benchmark];
            place(index, std::move(record));
            ++stats_.loaded;
        });
    for (auto &[benchmark, index] : loaded) {
        size_ += index.size();
        byBenchmark_.emplace(
            benchmark, std::make_shared<const ChampionIndex>(std::move(index)));
    }
}

void
ChampionPortfolio::put(ChampionRecord record)
{
    record.configFingerprint = record.config.valueFingerprint();
    auto shared = std::make_shared<const ChampionRecord>(std::move(record));
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dir_.empty()) {
        char fingerprint[17];
        std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                      static_cast<unsigned long long>(
                          shared->machineFingerprint));
        const std::string path =
            dir_ + "/champ-" + slugify(shared->benchmark) + "-" +
            fingerprint + "-" + std::to_string(shared->inputSize) + ".kv";
        try {
            KvFile::saveTextAtomic(path, recordText(*shared),
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
    // Readers may hold the current vector: build the next one beside it.
    std::shared_ptr<const ChampionIndex> &current =
        byBenchmark_[shared->benchmark];
    auto next = current ? std::make_shared<ChampionIndex>(*current)
                        : std::make_shared<ChampionIndex>();
    const size_t before = next->size();
    place(*next, std::move(shared));
    size_ += next->size() - before;
    current = std::move(next);
    ++stats_.stored;
}

std::shared_ptr<const ChampionIndex>
ChampionPortfolio::index(std::string_view benchmark) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = byBenchmark_.find(benchmark);
    return it == byBenchmark_.end() ? nullptr : it->second;
}

std::optional<ChampionRecord>
ChampionPortfolio::exact(const std::string &benchmark,
                         uint64_t machineFingerprint, int64_t n) const
{
    std::shared_ptr<const ChampionIndex> champions = index(benchmark);
    const ChampionRecord *hit =
        champions ? atSize(machineRange(*champions, machineFingerprint), n)
                  : nullptr;
    if (hit == nullptr)
        return std::nullopt;
    return *hit;
}

std::vector<ChampionRecord>
ChampionPortfolio::championsFor(const std::string &benchmark,
                                uint64_t machineFingerprint) const
{
    std::vector<ChampionRecord> out;
    std::shared_ptr<const ChampionIndex> champions = index(benchmark);
    if (champions == nullptr)
        return out;
    for (const auto &record : machineRange(*champions, machineFingerprint))
        out.push_back(*record);
    return out;
}

std::vector<ChampionRecord>
ChampionPortfolio::allFor(const std::string &benchmark) const
{
    std::vector<ChampionRecord> out;
    std::shared_ptr<const ChampionIndex> champions = index(benchmark);
    if (champions == nullptr)
        return out;
    out.reserve(champions->size());
    for (const auto &record : *champions)
        out.push_back(*record);
    return out;
}

std::vector<ChampionRecord>
ChampionPortfolio::all() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ChampionRecord> out;
    out.reserve(size_);
    for (const auto &[benchmark, champions] : byBenchmark_)
        for (const auto &record : *champions)
            out.push_back(*record);
    return out;
}

size_t
ChampionPortfolio::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
}

PortfolioStats
ChampionPortfolio::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace portfolio
} // namespace petabricks
