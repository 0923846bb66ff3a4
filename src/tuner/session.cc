#include "tuner/session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <unordered_map>

#include "cache/shared_cache.h"
#include "support/error.h"
#include "support/logging.h"
#include "tuner/portfolio_tuner.h"

namespace petabricks {
namespace tuner {

TuningSession::TuningSession(Evaluator &evaluator, Config seedConfig,
                             TunerOptions options)
    : evaluator_(evaluator), seed_(std::move(seedConfig)),
      options_(options), rng_(options.seed),
      compileModel_(options.kernelCompileSeconds, options.irCacheSavings)
{
    PB_ASSERT(options_.populationSize >= 1, "population must be >= 1");
    PB_ASSERT(options_.minInputSize >= 1 &&
                  options_.minInputSize <= options_.maxInputSize,
              "bad input size range");
    PB_ASSERT(options_.sizeGrowthFactor >= 2, "growth factor must be >= 2");
    PB_ASSERT(options_.generationsPerSize >= 1,
              "generations per size must be >= 1");

    PB_ASSERT(!seed_.schema().mutators().empty(),
              "config has nothing to tune");

    // Exponentially growing testing input sizes (Section 5.2).
    sizes_ = PortfolioTuner::sizeLadder(options_.minInputSize,
                                        options_.maxInputSize,
                                        options_.sizeGrowthFactor);

    population_.push_back({seed_, 0.0});
}

int
TuningSession::totalSteps() const
{
    return static_cast<int>(sizes_.size()) * options_.generationsPerSize;
}

int
TuningSession::completedSteps() const
{
    return static_cast<int>(sizeIndex_) * options_.generationsPerSize +
           generation_;
}

int64_t
TuningSession::currentInputSize() const
{
    return sizes_[std::min(sizeIndex_, sizes_.size() - 1)];
}

std::vector<double>
TuningSession::measureBatch(const std::vector<Config> &configs,
                            int64_t size)
{
    const size_t count = configs.size();
    std::vector<double> seconds(count, 0.0);
    std::vector<uint64_t> fingerprints(count, 0);
    std::vector<size_t> duplicateOf(count, SIZE_MAX);
    std::vector<size_t> evalIndex; // configs that really run
    std::unordered_map<uint64_t, size_t> firstInBatch;
    const bool useCache = options_.cacheEvaluations;

    for (size_t i = 0; i < count; ++i) {
        if (!useCache) {
            evalIndex.push_back(i);
            continue;
        }
        uint64_t fp = configs[i].valueFingerprint();
        fingerprints[i] = fp;
        if (std::optional<double> cached =
                cache_.lookupFingerprint(fp, size)) {
            seconds[i] = *cached;
            ++report_.cacheHits;
            continue;
        }
        // L1 miss: probe the process-wide L2 before paying for an
        // evaluation. A hit is bit-identical to what the evaluator
        // would return (deterministic per scope), so promoting it into
        // the L1 changes accounting, never the search.
        if (shared_ != nullptr) {
            if (std::optional<double> sharedValue =
                    shared_->lookup(sharedScope_, size, fp,
                                    sharedOwner_)) {
                cache_.insertFingerprint(fp, size, *sharedValue);
                seconds[i] = *sharedValue;
                ++report_.cacheHits;
                ++sharedHits_;
                continue;
            }
            ++sharedMisses_;
        }
        auto [it, inserted] = firstInBatch.emplace(fp, i);
        if (!inserted) {
            duplicateOf[i] = it->second;
            continue;
        }
        evalIndex.push_back(i);
    }

    if (!evalIndex.empty()) {
        // The generation-level batch: one evaluator call for every
        // config the cache could not answer. evalIndex ascends, so when
        // it has no gaps the misses are one run of @p configs and are
        // handed over as they are; otherwise they are gathered.
        std::span<const Config> batch(configs);
        std::vector<Config> pending;
        if (evalIndex.back() - evalIndex.front() + 1 == evalIndex.size()) {
            batch = batch.subspan(evalIndex.front(), evalIndex.size());
        } else {
            pending.reserve(evalIndex.size());
            for (size_t i : evalIndex)
                pending.push_back(configs[i]);
            batch = pending;
        }
        std::vector<double> measured =
            evaluator_.evaluateBatch(batch, size);
        PB_ASSERT(measured.size() == batch.size(),
                  "evaluator returned " << measured.size()
                                        << " results for a batch of "
                                        << batch.size());

        std::vector<ocl::ProgramId> programs;
        for (size_t k = 0; k < evalIndex.size(); ++k) {
            size_t i = evalIndex[k];
            // Section 5.4 accounting: each evaluation is a fresh
            // test-process run — live programs are gone, only the IR
            // cache survives. Identical kernel sources within one
            // configuration are compiled (and priced) once, in the
            // order the benchmark lists them.
            compileModel_.endRun();
            double compile = 0.0;
            programs.clear();
            for (const std::string &src :
                 evaluator_.kernelSources(configs[i], size)) {
                ocl::ProgramId id = programId(src);
                if (std::find(programs.begin(), programs.end(), id) ==
                    programs.end()) {
                    programs.push_back(id);
                    compile += compileModel_.compile(id);
                }
            }
            report_.compileSeconds += compile;

            double secs = measured[k];
            ++report_.evaluations;
            if (std::isnan(secs)) {
                // The engine gave up after its retry budget: an
                // environment fault, not a property of the config.
                // Price as worst cost for this generation only — a
                // NaN must never enter the cache as a real result.
                ++report_.evaluationFailures;
                report_.tuningSeconds += compile;
                seconds[i] = std::numeric_limits<double>::infinity();
                continue;
            }
            double testing = std::isfinite(secs)
                                 ? secs * options_.trialsPerEvaluation
                                 : 0.0;
            report_.tuningSeconds += compile + testing;
            if (useCache) {
                cache_.insertFingerprint(fingerprints[i], size, secs);
                // Publish finite results for other sessions; +inf
                // (infeasible) stays in the private L1 — recomputing
                // it elsewhere is cheap and deterministic, and the
                // shared tier never has to serialize non-finite
                // values. NaN never reaches this line (above).
                if (shared_ != nullptr && std::isfinite(secs)) {
                    shared_->publish(sharedScope_, size,
                                     fingerprints[i], secs,
                                     sharedOwner_);
                    ++sharedPublishes_;
                }
            }
            seconds[i] = secs;
        }
    }

    for (size_t i = 0; i < count; ++i)
        if (duplicateOf[i] != SIZE_MAX) {
            seconds[i] = seconds[duplicateOf[i]];
            ++report_.cacheHits; // in-batch duplicate: never re-run
        }
    return seconds;
}

ocl::ProgramId
TuningSession::programId(const std::string &source)
{
    return programIds_
        .try_emplace(source, static_cast<ocl::ProgramId>(programIds_.size()))
        .first->second;
}

bool
TuningSession::step()
{
    if (done())
        return false;
    const int64_t size = sizes_[sizeIndex_];

    if (generation_ == 0) {
        // Entering a new size: scores at smaller sizes are never
        // consulted again, and survivors must be re-measured here.
        cache_.invalidateBelow(size);
        std::vector<Config> survivors;
        survivors.reserve(population_.size());
        for (const Member &member : population_)
            survivors.push_back(member.config);
        std::vector<double> scores = measureBatch(survivors, size);
        for (size_t i = 0; i < population_.size(); ++i)
            population_[i].seconds = scores[i];
    }

    // Mutate first (the RNG draws are the search trajectory), then
    // evaluate every changed child as one batch, then select — the
    // same order of draws and comparisons as the serial loop.
    const size_t parents = population_.size();
    const std::vector<Mutator> &mutators = seed_.schema().mutators();
    std::vector<Config> children;
    std::vector<size_t> childParent;
    children.reserve(parents);
    childParent.reserve(parents);
    for (size_t p = 0; p < parents; ++p) {
        Config child = population_[p].config;
        // Mostly single mutations; occasionally chain several so
        // coupled choices (e.g. an algorithm switch that only pays off
        // together with a backend switch) can be crossed in one step.
        int chain = 1;
        while (chain < 4 && rng_.chance(0.35))
            ++chain;
        bool changed = false;
        for (int m = 0; m < chain; ++m) {
            const Mutator &mutator = mutators[static_cast<size_t>(
                rng_.uniformInt(0,
                                static_cast<int64_t>(mutators.size()) -
                                    1))];
            changed |= mutator.apply(child, rng_, size);
        }
        if (!changed)
            continue;
        children.push_back(std::move(child));
        childParent.push_back(p);
    }

    std::vector<double> childSeconds = measureBatch(children, size);

    for (size_t k = 0; k < children.size(); ++k) {
        size_t p = childParent[k];
        // Asexual selection: the child joins the population only if it
        // outperforms the parent it was created from.
        if (childSeconds[k] < population_[p].seconds) {
            ++report_.mutationsAccepted;
            population_.push_back(
                {std::move(children[k]), childSeconds[k]});
        } else {
            ++report_.mutationsRejected;
        }
    }

    // Prune by performance.
    std::stable_sort(population_.begin(), population_.end(),
                     [](const Member &a, const Member &b) {
                         return a.seconds < b.seconds;
                     });
    if (population_.size() > static_cast<size_t>(options_.populationSize))
        population_.resize(static_cast<size_t>(options_.populationSize));

    ++generation_;
    if (generation_ >= options_.generationsPerSize) {
        PB_DEBUG("tuner size " << size << ": best "
                               << population_.front().seconds << "s");
        generation_ = 0;
        ++sizeIndex_;
    }
    emitProgress();
    return !done();
}

void
TuningSession::emitProgress()
{
    if (!progress_)
        return;
    SessionProgress progress;
    progress.inputSize =
        sizes_[sizeIndex_ > 0 && generation_ == 0 ? sizeIndex_ - 1
                                                  : sizeIndex_];
    progress.generation =
        generation_ == 0 ? options_.generationsPerSize : generation_;
    progress.generationsPerSize = options_.generationsPerSize;
    progress.completedSteps = completedSteps();
    progress.totalSteps = totalSteps();
    progress.bestSeconds = population_.front().seconds;
    progress.evaluations = report_.evaluations;
    progress.cacheHits = report_.cacheHits;
    progress_(progress);
}

TuningResult
TuningSession::run()
{
    while (step()) {
    }
    PB_ASSERT(std::isfinite(population_.front().seconds),
              "no valid configuration found");
    report_.best = population_.front().config;
    report_.bestSeconds = population_.front().seconds;
    return report_;
}

TuningResult
TuningSession::run(int maxSteps)
{
    for (int i = 0; i < maxSteps && !done(); ++i)
        step();
    // A budget that completes the search must pass the same validity
    // guard as an unbounded run (run() on a done session only checks
    // and finalizes the report).
    if (done())
        return run();
    return result();
}

TuningResult
TuningSession::result() const
{
    TuningResult snapshot = report_;
    snapshot.best = population_.front().config;
    snapshot.bestSeconds = population_.front().seconds;
    return snapshot;
}

SessionIntrospection
TuningSession::introspect() const
{
    SessionIntrospection view;
    view.done = done();
    view.completedSteps = completedSteps();
    view.totalSteps = totalSteps();
    view.generation = generation_;
    view.generationsPerSize = options_.generationsPerSize;
    view.currentInputSize = currentInputSize();
    view.populationSize = population_.size();
    view.bestSeconds = population_.front().seconds;
    view.evaluations = report_.evaluations;
    view.mutationsAccepted = report_.mutationsAccepted;
    view.mutationsRejected = report_.mutationsRejected;
    view.cacheHits = report_.cacheHits;
    view.evaluationFailures = report_.evaluationFailures;
    view.tuningSeconds = report_.tuningSeconds;
    view.compileSeconds = report_.compileSeconds;
    view.cacheStats = cache_.stats();
    view.sharedHits = sharedHits_;
    view.sharedMisses = sharedMisses_;
    view.sharedPublishes = sharedPublishes_;
    return view;
}

void
TuningSession::attachSharedCache(cache::SharedEvaluationCache *cache,
                                 uint64_t scope)
{
    shared_ = cache;
    sharedScope_ = scope;
    sharedOwner_ = cache != nullptr ? cache->registerOwner() : 0;
}

void
TuningSession::onProgress(ProgressCallback callback)
{
    progress_ = std::move(callback);
}

// ---- Checkpointing -----------------------------------------------------

namespace {

const char *const kSchemaKey = "session.schema";

constexpr int64_t kCheckpointVersion = 2; ///< KvFile::seal; v1 had none

std::string
memberPrefix(size_t index)
{
    return "population." + std::to_string(index) + ".";
}

/**
 * The checkpoint's RNG position as a draw count from @p seed, the
 * session's seed. Checkpoints store it as `session.rngSeed` plus
 * `session.rngDraws`; older ones stored the twister's full state as
 * `session.rng`, which is converted by finding the count that reaches
 * it. Either way the count is capped at 1024 draws per population
 * member per step, far above what any step draws (about 20), so a
 * hostile file cannot make the restore spin.
 */
uint64_t
savedRngDraws(const KvFile &kv, const std::string &path, uint64_t seed,
              int populationSize, int completedSteps)
{
    const uint64_t maxDraws = 1024 * static_cast<uint64_t>(populationSize) *
                              (static_cast<uint64_t>(completedSteps) + 1);
    if (!kv.has("session.rngDraws") && kv.has("session.rng")) {
        std::optional<uint64_t> draws =
            Rng::drawsToReach(seed, kv.get("session.rng"), maxDraws);
        if (!draws)
            PB_FATAL("checkpoint '" << path
                                    << "' has a corrupt RNG state (not "
                                       "within "
                                    << maxDraws << " draws of seed "
                                    << seed << ")");
        return *draws;
    }
    const std::string &savedSeed = kv.get("session.rngSeed");
    if (savedSeed != std::to_string(seed))
        PB_FATAL("checkpoint '" << path << "' RNG seed " << savedSeed
                                << " is not the session's seed " << seed);
    int64_t draws = kv.getInt("session.rngDraws");
    if (draws < 0 || static_cast<uint64_t>(draws) > maxDraws)
        PB_FATAL("checkpoint '" << path << "' RNG draw count " << draws
                                << " outside [0, " << maxDraws << "]");
    return static_cast<uint64_t>(draws);
}

} // namespace

KvFile
TuningSession::checkpointKv() const
{
    KvFile kv;
    kv.set(kSchemaKey, std::to_string(seed_.valueFingerprint()));
    // The options that shape the search trajectory: load() rejects a
    // checkpoint whose schedule disagrees with the session's, since a
    // mismatched cursor would silently corrupt or truncate the search.
    kv.setInt("session.populationSize", options_.populationSize);
    kv.setInt("session.generationsPerSize", options_.generationsPerSize);
    kv.setInt("session.minInputSize", options_.minInputSize);
    kv.setInt("session.maxInputSize", options_.maxInputSize);
    kv.setInt("session.sizeGrowthFactor", options_.sizeGrowthFactor);
    kv.setInt("session.sizeIndex", static_cast<int64_t>(sizeIndex_));
    kv.setInt("session.generation", generation_);
    kv.setInt("session.evaluations", report_.evaluations);
    kv.setInt("session.mutationsAccepted", report_.mutationsAccepted);
    kv.setInt("session.mutationsRejected", report_.mutationsRejected);
    kv.setInt("session.cacheHits", report_.cacheHits);
    kv.setInt("session.evaluationFailures", report_.evaluationFailures);
    kv.setDouble("session.tuningSeconds", report_.tuningSeconds);
    kv.setDouble("session.compileSeconds", report_.compileSeconds);

    // Seed plus draw count is the RNG's whole state (see Rng), which
    // is what makes the resumed mutation sequence identical to the
    // uninterrupted one.
    kv.set("session.rngSeed", std::to_string(rng_.seed()));
    kv.setInt("session.rngDraws", static_cast<int64_t>(rng_.draws()));

    kv.setInt("session.population",
              static_cast<int64_t>(population_.size()));
    for (size_t i = 0; i < population_.size(); ++i) {
        const std::string prefix = memberPrefix(i);
        kv.setDouble(prefix + "seconds", population_[i].seconds);
        population_[i].config.saveValues(kv, prefix);
    }
    kv.seal("session", kCheckpointVersion);
    return kv;
}

void
TuningSession::save(const std::string &path) const
{
    checkpointKv().save(path);
}

void
TuningSession::load(const std::string &path)
{
    KvFile kv = KvFile::load(path);
    // A v1 checkpoint predates the seal; the content checks below remain.
    if (kv.has("session.checksum") || kv.getIntOr("session.version", 0) != 1)
        kv.verifySeal("session", kCheckpointVersion, path);
    if (kv.get(kSchemaKey) != std::to_string(seed_.valueFingerprint()))
        PB_FATAL("checkpoint '"
                 << path
                 << "' was saved for a different seed configuration");
    if (kv.getInt("session.populationSize") != options_.populationSize ||
        kv.getInt("session.generationsPerSize") !=
            options_.generationsPerSize ||
        kv.getInt("session.minInputSize") != options_.minInputSize ||
        kv.getInt("session.maxInputSize") != options_.maxInputSize ||
        kv.getInt("session.sizeGrowthFactor") != options_.sizeGrowthFactor)
        PB_FATAL("checkpoint '"
                 << path
                 << "' was saved under different tuner options (search "
                    "schedule mismatch)");

    // From here on the checkpoint's *content* is being trusted; a
    // truncated or hand-damaged file is a user-input problem, so every
    // violation raises a clean FatalError rather than tripping an
    // internal-invariant assert. Everything is read into locals first,
    // so a rejected file leaves the session as it was.
    int64_t sizeIndex = kv.getInt("session.sizeIndex");
    int64_t generation = kv.getInt("session.generation");
    if (sizeIndex < 0 || sizeIndex > static_cast<int64_t>(sizes_.size()))
        PB_FATAL("checkpoint '" << path << "' size index " << sizeIndex
                                << " out of range");
    if (generation < 0 || generation >= options_.generationsPerSize)
        PB_FATAL("checkpoint '" << path << "' generation " << generation
                                << " out of range");
    const int completed =
        static_cast<int>(sizeIndex) * options_.generationsPerSize +
        static_cast<int>(generation);

    TuningResult report;
    report.evaluations = kv.getInt("session.evaluations");
    report.mutationsAccepted = kv.getInt("session.mutationsAccepted");
    report.mutationsRejected = kv.getInt("session.mutationsRejected");
    report.cacheHits = kv.getInt("session.cacheHits");
    // Absent in pre-fault-tolerance checkpoints: default, don't fail.
    report.evaluationFailures = kv.getIntOr("session.evaluationFailures", 0);
    report.tuningSeconds = kv.getDouble("session.tuningSeconds");
    report.compileSeconds = kv.getDouble("session.compileSeconds");

    const uint64_t draws = savedRngDraws(kv, path, options_.seed,
                                         options_.populationSize, completed);

    // step() prunes to populationSize, so a larger count is damage.
    int64_t count = kv.getInt("session.population");
    if (count < 1)
        PB_FATAL("checkpoint '" << path << "' population is empty");
    if (count > options_.populationSize)
        PB_FATAL("checkpoint '" << path << "' population " << count
                                << " exceeds populationSize "
                                << options_.populationSize);
    std::vector<Member> population;
    population.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
        KvFile values = kv.section(memberPrefix(static_cast<size_t>(i)));
        Member member;
        member.config = seed_;
        member.config.loadValues(values);
        member.seconds = values.getDouble("seconds");
        population.push_back(std::move(member));
    }

    sizeIndex_ = static_cast<size_t>(sizeIndex);
    generation_ = static_cast<int>(generation);
    report_ = report;
    rng_.restore(options_.seed, draws);
    population_ = std::move(population);

    // A resumed search is a fresh process: memoized evaluations and
    // live JIT programs are gone. Re-deriving them costs only modeled
    // accounting time; the champion is unaffected.
    cache_.clear();
    compileModel_.endRun();
}

} // namespace tuner
} // namespace petabricks
