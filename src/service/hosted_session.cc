#include "service/hosted_session.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <utility>
#include <vector>

#include "engine/fault_injection.h"
#include "service/http.h"
#include "support/error.h"
#include "support/fsck.h"
#include "support/logging.h"
#include "tuner/portfolio_tuner.h"

namespace petabricks {
namespace service {

namespace {

/** The crash-point family of checkpoint writes (support/crashpoint.h). */
const char *const kCheckpointCrashPrefix = "spool.ckpt";

/** Engine for @p spec (the machine lookup validates the name). */
engine::ModelEngine
makeEngine(const SessionSpec &spec)
{
    return engine::ModelEngine(sim::MachineProfile::byName(spec.machine),
                               spec.engineParallelism);
}

/** The session's evaluation engine: the spec's ModelEngine, wrapped
 * in a deterministic fault injector when the spec asks for one. */
std::unique_ptr<engine::ExecutionEngine>
makeSessionEngine(const SessionSpec &spec)
{
    auto engine = std::make_unique<engine::ModelEngine>(makeEngine(spec));
    if (spec.faultRate <= 0.0)
        return engine;
    engine::FaultPlan plan;
    plan.seed = static_cast<uint64_t>(spec.faultSeed);
    plan.transientRate = spec.faultRate;
    // One failing attempt per faulting key keeps every injected fault
    // inside the default retry budget: the search must converge to the
    // clean champion.
    plan.faultsPerKey = 1;
    return std::make_unique<engine::FaultInjectingEngine>(
        std::move(engine), plan);
}

} // namespace

SessionSpec
SessionSpec::fromCreateRequest(const KvFile &kv)
{
    if (!kv.has("benchmark"))
        PB_FATAL("create request is missing the 'benchmark' key");

    auto intOption = [&](const char *key, int fallback) {
        return service::intOption(key, kv.getIntOr(key, fallback));
    };

    SessionSpec spec;
    // findBenchmark canonicalizes the name (and rejects unknown ones).
    apps::BenchmarkPtr benchmark = apps::findBenchmark(kv.get("benchmark"));
    spec.benchmark = benchmark->name();
    if (kv.has("machine"))
        spec.machine = kv.get("machine");
    spec.engineParallelism = intOption("engineParallelism", 1);
    if (spec.engineParallelism < 0)
        PB_FATAL("engineParallelism must be >= 0");
    if (kv.has("faultRate"))
        spec.faultRate = kv.getDouble("faultRate");
    spec.faultSeed = kv.getIntOr("faultSeed", spec.faultSeed);
    if (!(spec.faultRate >= 0.0 && spec.faultRate < 1.0)) // NaN too
        PB_FATAL("faultRate must be in [0, 1)");

    // Benchmark-derived defaults, then the machine's compile model,
    // then the request's explicit overrides — the same layering
    // tuneWithEngine() applies, so a default-created hosted session
    // runs the same search as the library path.
    tuner::TunerOptions &tuner = spec.tuner;
    tuner.minInputSize = benchmark->minTuningSize();
    tuner.maxInputSize = benchmark->testingInputSize();
    makeEngine(spec).configureTuner(tuner);

    tuner.populationSize = intOption("populationSize", tuner.populationSize);
    tuner.generationsPerSize =
        intOption("generationsPerSize", tuner.generationsPerSize);
    tuner.minInputSize = kv.getIntOr("minInputSize", tuner.minInputSize);
    tuner.maxInputSize = kv.getIntOr("maxInputSize", tuner.maxInputSize);
    tuner.sizeGrowthFactor =
        intOption("sizeGrowthFactor", tuner.sizeGrowthFactor);
    tuner.trialsPerEvaluation =
        intOption("trialsPerEvaluation", tuner.trialsPerEvaluation);
    tuner.seed = static_cast<uint64_t>(kv.getIntOr(
        "seed", static_cast<int64_t>(tuner.seed)));
    tuner.cacheEvaluations =
        kv.getIntOr("cacheEvaluations", tuner.cacheEvaluations ? 1 : 0) !=
        0;

    if (tuner.populationSize < 1 || tuner.generationsPerSize < 1 ||
        tuner.trialsPerEvaluation < 1)
        PB_FATAL("create request has out-of-range tuner options");
    // The session's size ladder, checked before anything is spooled.
    tuner::PortfolioTuner::sizeLadder(tuner.minInputSize,
                                      tuner.maxInputSize,
                                      tuner.sizeGrowthFactor);
    return spec;
}

KvFile
SessionSpec::toKv() const
{
    KvFile kv;
    kv.set("spec.benchmark", benchmark);
    kv.set("spec.machine", machine);
    kv.setInt("spec.engineParallelism", engineParallelism);
    kv.setInt("spec.populationSize", tuner.populationSize);
    kv.setInt("spec.generationsPerSize", tuner.generationsPerSize);
    kv.setInt("spec.minInputSize", tuner.minInputSize);
    kv.setInt("spec.maxInputSize", tuner.maxInputSize);
    kv.setInt("spec.sizeGrowthFactor", tuner.sizeGrowthFactor);
    kv.setInt("spec.trialsPerEvaluation", tuner.trialsPerEvaluation);
    kv.setInt("spec.seed", static_cast<int64_t>(tuner.seed));
    kv.setInt("spec.cacheEvaluations", tuner.cacheEvaluations ? 1 : 0);
    kv.setDouble("spec.kernelCompileSeconds",
                 tuner.kernelCompileSeconds);
    kv.setDouble("spec.irCacheSavings", tuner.irCacheSavings);
    kv.setDouble("spec.faultRate", faultRate);
    kv.setInt("spec.faultSeed", faultSeed);
    return kv;
}

SessionSpec
SessionSpec::fromKv(const KvFile &kv)
{
    SessionSpec spec;
    spec.benchmark = kv.get("spec.benchmark");
    spec.machine = kv.get("spec.machine");
    spec.engineParallelism =
        static_cast<int>(kv.getInt("spec.engineParallelism"));
    spec.tuner.populationSize =
        static_cast<int>(kv.getInt("spec.populationSize"));
    spec.tuner.generationsPerSize =
        static_cast<int>(kv.getInt("spec.generationsPerSize"));
    spec.tuner.minInputSize = kv.getInt("spec.minInputSize");
    spec.tuner.maxInputSize = kv.getInt("spec.maxInputSize");
    spec.tuner.sizeGrowthFactor =
        static_cast<int>(kv.getInt("spec.sizeGrowthFactor"));
    spec.tuner.trialsPerEvaluation =
        static_cast<int>(kv.getInt("spec.trialsPerEvaluation"));
    spec.tuner.seed = static_cast<uint64_t>(kv.getInt("spec.seed"));
    spec.tuner.cacheEvaluations = kv.getInt("spec.cacheEvaluations") != 0;
    spec.tuner.kernelCompileSeconds =
        kv.getDouble("spec.kernelCompileSeconds");
    spec.tuner.irCacheSavings = kv.getDouble("spec.irCacheSavings");
    // Absent in pre-fault-injection spool files: default to disabled.
    if (kv.has("spec.faultRate"))
        spec.faultRate = kv.getDouble("spec.faultRate");
    spec.faultSeed = kv.getIntOr("spec.faultSeed", spec.faultSeed);
    return spec;
}

HostedSession::HostedSession(SessionSpec spec,
                             cache::SharedEvaluationCache *sharedCache)
    : spec_(std::move(spec)), benchmark_(apps::findBenchmark(spec_.benchmark)),
      engine_(makeSessionEngine(spec_)), evaluator_(*benchmark_, *engine_),
      session_(evaluator_, benchmark_->seedConfig(), spec_.tuner)
{
    if (sharedCache != nullptr)
        session_.attachSharedCache(sharedCache,
                                   engine_->cacheScope(*benchmark_));
    refreshSnapshot();
}

int
HostedSession::stepMany(int steps, const std::function<void()> &afterStep)
{
    int advanced = 0;
    for (int i = 0; i < steps && !session_.done(); ++i) {
        session_.step();
        ++advanced;
        refreshSnapshot();
        if (afterStep)
            afterStep();
    }
    return advanced;
}

tuner::SessionIntrospection
HostedSession::introspect() const
{
    std::lock_guard<std::mutex> lock(snapshotMutex_);
    return snapshot_;
}

KvFile
HostedSession::championKv() const
{
    tuner::TuningResult result = session_.result();
    KvFile kv = result.best.toKv();
    kv.setDouble("champion.seconds", result.bestSeconds);
    kv.set("champion.description",
           benchmark_->describeConfig(result.best,
                                      session_.currentInputSize()));
    kv.setInt("champion.done", session_.done() ? 1 : 0);
    return kv;
}

void
HostedSession::save(const std::string &path)
{
    if (!checkpoint_ || checkpoint_->path() != path)
        checkpoint_.emplace(path, kCheckpointCrashPrefix);
    checkpoint_->write(session_.checkpointText());
}

int
HostedSession::load(const std::string &path)
{
    struct Slot
    {
        int index = 0;
        std::string path;
        KvFile kv;
        std::pair<int64_t, int64_t> cursor; ///< (sizeIndex, generation)
    };
    std::vector<Slot> sealed;
    std::vector<std::string> failed;
    std::string errors;
    auto fail = [&](const std::string &slot, const FatalError &e) {
        failed.push_back(slot);
        errors += (errors.empty() ? "" : "; ") + std::string(e.what());
    };
    for (int index = 0; index < 2; ++index) {
        const std::string slot = SlotFile::slotPath(path, index);
        std::error_code ec;
        if (!std::filesystem::exists(slot, ec))
            continue;
        try {
            KvFile kv = KvFile::load(slot);
            tuner::TuningSession::verifySeal(kv, slot);
            const std::pair cursor{kv.getInt("session.sizeIndex"),
                                   kv.getInt("session.generation")};
            sealed.push_back({index, slot, std::move(kv), cursor});
        } catch (const FatalError &e) {
            fail(slot, e);
        }
    }
    std::sort(sealed.begin(), sealed.end(),
              [](const Slot &a, const Slot &b) { return a.cursor > b.cursor; });

    int restored = -1;
    for (const Slot &slot : sealed) {
        try {
            session_.restore(slot.kv, slot.path);
            restored = slot.index;
            break;
        } catch (const FatalError &e) {
            fail(slot.path, e);
        }
    }
    if (restored < 0) {
        if (!failed.empty())
            PB_FATAL("no checkpoint slot of '" << path << "' verifies ("
                                               << errors << ")");
        return 0;
    }
    // The evidence stays: a failed slot is renamed aside, and the next
    // save rewrites that slot from scratch.
    for (const std::string &slot : failed) {
        fsck::quarantine(slot);
        PB_WARN("service: set aside checkpoint slot '"
                << slot << "' beside a good one (" << errors << ")");
    }
    checkpoint_.emplace(path, kCheckpointCrashPrefix);
    checkpoint_->setNewest(restored);
    refreshSnapshot();
    return static_cast<int>(failed.size());
}

void
HostedSession::refreshSnapshot()
{
    tuner::SessionIntrospection view = session_.introspect();
    std::lock_guard<std::mutex> lock(snapshotMutex_);
    snapshot_ = view;
}

tuner::TuningResult
runSpecLocally(const SessionSpec &spec)
{
    // The hosted construction path end-to-end, minus the transport —
    // so a champion comparison really isolates the service machinery.
    HostedSession session(spec);
    session.stepMany(std::numeric_limits<int>::max());
    return session.result();
}

} // namespace service
} // namespace petabricks
