/**
 * @file
 * The base of the function-style benchmarks (Sort, Strassen, SVD,
 * Tridiagonal): poly-algorithms whose recursive call sites consult the
 * selectors, wrapped in one region rule that real mode runs on the CPU.
 *
 * The base owns the choice file, the transform and the config schema,
 * and implements the real-mode plan once. A benchmark supplies its
 * analytic cost model, its kernel list and Figure 6 text, and the
 * function that builds its transform around the choice file.
 */

#ifndef PETABRICKS_BENCHMARKS_FUNCTION_STYLE_H
#define PETABRICKS_BENCHMARKS_FUNCTION_STYLE_H

#include <memory>

#include "benchmarks/benchmark.h"

namespace petabricks {
namespace apps {

/**
 * The paper's *choice configuration file* (Figure 3): the compiled
 * program reads the autotuner's selectors at startup and dispatches on
 * them while running. planFor() arms the file; the region rule reads
 * it at every recursive call site during execution.
 */
class ChoiceFile
{
  public:
    void
    arm(const tuner::Config &config)
    {
        config_ = std::make_shared<tuner::Config>(config);
    }

    const tuner::Config &
    get() const
    {
        PB_ASSERT(config_ != nullptr,
                  "choice file not armed: call planFor() before "
                  "executing the transform");
        return *config_;
    }

  private:
    std::shared_ptr<const tuner::Config> config_;
};

using ChoiceFilePtr = std::shared_ptr<ChoiceFile>;

/** See file comment. */
class FunctionStyleBenchmark : public Benchmark
{
  public:
    tuner::Config seedConfig() const final { return tuner::Config(schema_); }
    bool supportsRealMode() const final { return true; }
    const lang::Transform &transform() const final { return *transform_; }

    /** Arms the choice file with @p config; the region rule runs on
     * the CPU whatever the size. */
    compiler::TransformConfig planFor(const tuner::Config &config,
                                      int64_t n) const final;

    /** The region rule reads the one choice file planFor() arms, so a
     * concurrent plan would re-arm it mid-run: pooled batches degrade
     * to serial. */
    bool realModeConcurrencySafe() const final { return false; }

  protected:
    /** Builds the transform whose region rule reads @p choices. */
    using TransformBuilder =
        std::shared_ptr<lang::Transform> (*)(const ChoiceFilePtr &choices);

    FunctionStyleBenchmark(TransformBuilder makeTransform,
                           tuner::ConfigSchemaPtr schema);

    const tuner::ConfigSchema &schema() const { return *schema_; }

  private:
    ChoiceFilePtr choices_;
    std::shared_ptr<lang::Transform> transform_;
    tuner::ConfigSchemaPtr schema_;
};

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_FUNCTION_STYLE_H
