#include "support/rng.h"

#include <sstream>

namespace petabricks {

std::optional<uint64_t>
Rng::drawsToReach(uint64_t seed, const std::string &engineDump,
                  uint64_t maxDraws)
{
    std::mt19937_64 target;
    std::istringstream in(engineDump);
    in >> target;
    if (in.fail())
        return std::nullopt;

    // Walk the seed's stream comparing one output per draw count, and
    // compare whole states only where the next output matches — a
    // full-state comparison at every count would cost 312 words each.
    std::mt19937_64 lookahead = target;
    const result_type next = lookahead();
    std::mt19937_64 walk(seed);
    for (uint64_t draws = 0; draws <= maxDraws; ++draws) {
        if (walk() != next)
            continue;
        std::mt19937_64 candidate(seed);
        candidate.discard(draws);
        if (candidate == target)
            return draws;
    }
    return std::nullopt;
}

} // namespace petabricks
