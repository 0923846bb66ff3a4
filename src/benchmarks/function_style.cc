#include "benchmarks/function_style.h"

namespace petabricks {
namespace apps {

FunctionStyleBenchmark::FunctionStyleBenchmark(TransformBuilder makeTransform,
                                               tuner::ConfigSchemaPtr schema)
    : choices_(std::make_shared<ChoiceFile>()),
      transform_(makeTransform(choices_)), schema_(std::move(schema))
{}

compiler::TransformConfig
FunctionStyleBenchmark::planFor(const tuner::Config &config, int64_t) const
{
    choices_->arm(config);
    compiler::TransformConfig plan;
    plan.stages = {compiler::StageConfig{}}; // region rule: CPU native
    return plan;
}

} // namespace apps
} // namespace petabricks
