/**
 * @file
 * The three perfledger workloads. Each returns its end-to-end metrics
 * (untraced run) or its per-layer metrics (traced run), plus the count
 * of operations attempted and failed, output checks included.
 */

#ifndef PERFLEDGER_WORKLOADS_H
#define PERFLEDGER_WORKLOADS_H

#include "common.h"

namespace perfledger {

/** The tuning service over loopback HTTP (TuningServer + Client). */
Outcome runServe(const Options &options);

/** Serial model-bound TuningSessions through EngineEvaluator. */
Outcome runSearch(const Options &options);

/** Dispatcher::dispatch over a PortfolioTuner-filled portfolio. */
Outcome runDispatch(const Options &options);

} // namespace perfledger

#endif // PERFLEDGER_WORKLOADS_H
