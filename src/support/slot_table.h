/**
 * @file
 * Interned matrix-slot identifiers.
 *
 * The model-mode hot path used to key residency and readiness state by
 * slot *name* (std::map<std::string, ...>), paying a string compare per
 * lookup and a node allocation per insert — once per rule application
 * per evaluated configuration. A SlotTable interns every slot name of a
 * transform once (when its compiler::TransformAnalysis is built), after
 * which the per-config inner loop works entirely in small dense integer
 * ids.
 */

#ifndef PETABRICKS_SUPPORT_SLOT_TABLE_H
#define PETABRICKS_SUPPORT_SLOT_TABLE_H

#include <string>
#include <vector>

#include "support/error.h"

namespace petabricks {

/** Dense string-to-id interning table. Ids are 0..size()-1. */
class SlotTable
{
  public:
    /** Id of @p name, interning it on first sight. */
    int
    intern(const std::string &name)
    {
        for (size_t i = 0; i < names_.size(); ++i)
            if (names_[i] == name)
                return static_cast<int>(i);
        names_.push_back(name);
        return static_cast<int>(names_.size() - 1);
    }

    /** Id of an already-interned @p name; fatal if unknown. */
    int
    idOf(const std::string &name) const
    {
        for (size_t i = 0; i < names_.size(); ++i)
            if (names_[i] == name)
                return static_cast<int>(i);
        PB_PANIC("slot '" << name << "' not interned");
    }

    bool
    contains(const std::string &name) const
    {
        for (const std::string &n : names_)
            if (n == name)
                return true;
        return false;
    }

    /** Name of id @p id (round-trip of intern()). */
    const std::string &
    nameOf(int id) const
    {
        PB_ASSERT(id >= 0 && static_cast<size_t>(id) < names_.size(),
                  "slot id " << id << " out of range");
        return names_[static_cast<size_t>(id)];
    }

    size_t size() const { return names_.size(); }
    bool empty() const { return names_.empty(); }

  private:
    // Transforms have a handful of slots (the largest, Poisson's
    // unrolled SOR, has ~2*iterations+3); a linear scan at intern time
    // beats a hash map, and the hot loop never looks up by name at all.
    std::vector<std::string> names_;
};

} // namespace petabricks

#endif // PETABRICKS_SUPPORT_SLOT_TABLE_H
