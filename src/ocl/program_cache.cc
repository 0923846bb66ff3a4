#include "ocl/program_cache.h"

namespace petabricks {
namespace ocl {

double
ProgramCache::compile(ProgramId program)
{
    if (program >= state_.size())
        state_.resize(program + 1, 0);
    uint8_t &state = state_[program];
    if (state & kLive) {
        ++stats_.inProcessHits;
        return 0.0;
    }
    double seconds;
    if (state & kInIrCache) {
        // Parse/optimize skipped; architecture-specific JIT remains.
        seconds = compileSeconds_ * (1.0 - irCacheSavings_);
        ++stats_.irCacheHits;
    } else {
        seconds = compileSeconds_;
        ++stats_.fullCompiles;
    }
    state = kLive | kInIrCache;
    stats_.totalSeconds += seconds;
    return seconds;
}

void
ProgramCache::endRun()
{
    for (uint8_t &state : state_)
        state &= static_cast<uint8_t>(~kLive);
}

void
ProgramCache::clear()
{
    state_.clear();
}

} // namespace ocl
} // namespace petabricks
