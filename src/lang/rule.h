/**
 * @file
 * Rules: the building blocks of PetaBricks transforms (paper Section 2).
 *
 * A rule converts input slots to an output slot. Two kinds exist here:
 *
 *  - *Point rules* give a body computing one output cell from a
 *    rectangular window of each input (the `Out.cell(x,y) from(...)`
 *    form in Figure 1). Point rules carry machine-readable access
 *    patterns, which is what the compiler's analyses consume: dependency
 *    direction, OpenCL admissibility, bounding boxes for the
 *    local-memory variant, and per-launch traffic estimates.
 *
 *  - *Region rules* give an opaque native body computing a whole output
 *    region (external library calls, recursive decompositions, inline
 *    native code). These can never be mapped to OpenCL, exactly like
 *    PetaBricks rules containing unconvertible constructs.
 */

#ifndef PETABRICKS_LANG_RULE_H
#define PETABRICKS_LANG_RULE_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "support/matrix.h"

namespace petabricks {
namespace lang {

/** Transform parameters (e.g. KWIDTH), bound at instantiation. */
using ParamEnv = std::vector<int64_t>;

/**
 * Reader over a row-major cell grid with a coordinate origin, so the
 * same rule body can read from a host matrix (origin 0), a device
 * buffer holding the full matrix, or a local-memory tile (origin at the
 * tile's top-left corner).
 */
class CellReader
{
  public:
    CellReader(const double *base, int64_t strideElems, int64_t originX = 0,
               int64_t originY = 0)
        : base_(base), stride_(strideElems), originX_(originX),
          originY_(originY)
    {}

    /** Value at absolute matrix coordinates (x, y). */
    double
    at(int64_t x, int64_t y) const
    {
        return base_[(y - originY_) * stride_ + (x - originX_)];
    }

  private:
    const double *base_;
    int64_t stride_;
    int64_t originX_;
    int64_t originY_;
};

/**
 * Access of one input dimension as a function of the output coordinate:
 * either a window [stride*c + offset, stride*c + offset + extent)
 * following output coordinate c (stride > 1 expresses gather patterns
 * like red-black packing), or the full extent of the input (e.g. a
 * matmul row/column).
 */
struct DimAccess
{
    bool full = false;
    int64_t offset = 0;
    int64_t extent = 1;
    int64_t stride = 1;

    /** Window [c+offset, c+offset+extent) follows output coordinate c. */
    static DimAccess
    window(int64_t offset, int64_t extent)
    {
        return DimAccess{false, offset, extent, 1};
    }

    /** Strided window [s*c+offset, s*c+offset+extent). */
    static DimAccess
    strided(int64_t stride, int64_t offset, int64_t extent)
    {
        return DimAccess{false, offset, extent, stride};
    }

    /** The whole input extent, independent of the output coordinate. */
    static DimAccess
    all()
    {
        return DimAccess{true, 0, 0, 1};
    }

    bool operator==(const DimAccess &) const = default;
};

/** Which cells of one input a point rule reads per output cell. */
struct AccessPattern
{
    std::string inputSlot;
    DimAccess x;
    DimAccess y;

    /** Single-cell access at the output coordinate. */
    static AccessPattern
    point(std::string slot)
    {
        return {std::move(slot), DimAccess::window(0, 1),
                DimAccess::window(0, 1)};
    }

    /**
     * Bounding-box area per output point; 0 when not a compile-time
     * constant (some dimension spans the full input). This is the
     * quantity the paper's phase-3 analysis tests: a constant bounding
     * box greater than one enables the local-memory variant.
     */
    int64_t
    constantBoundingBoxArea() const
    {
        if (x.full || y.full)
            return 0;
        return x.extent * y.extent;
    }
};

/** Arguments to a point rule body: one output cell evaluation. */
struct PointArgs
{
    int64_t x = 0;
    int64_t y = 0;
    const std::vector<CellReader> *inputs = nullptr;
    const ParamEnv *params = nullptr;

    const CellReader &
    input(size_t i) const
    {
        PB_ASSERT(inputs && i < inputs->size(),
                  "point rule input " << i << " missing");
        return (*inputs)[i];
    }

    int64_t
    param(size_t i) const
    {
        PB_ASSERT(params && i < params->size(), "param " << i
                                                         << " missing");
        return (*params)[i];
    }
};

/** Dependency pattern of a rule, derived by the choice graph analysis. */
enum class DependencyPattern
{
    /** No self dependency: every output cell independent. */
    DataParallel,
    /** Reads earlier rows/cells of its own output: a 1-D scan. */
    Sequential,
    /** Diagonal self-dependencies; not mappable to OpenCL here. */
    Wavefront,
};

const char *dependencyPatternName(DependencyPattern pattern);

class RuleDef;
using RulePtr = std::shared_ptr<const RuleDef>;

/** See file comment. */
class RuleDef
{
  public:
    using PointBody = std::function<double(const PointArgs &)>;
    /** flops per output point, as a function of bound params. */
    using PointFlops = std::function<double(const ParamEnv &)>;

    /**
     * Fraction of redundant global loads the GPU's hardware caches
     * absorb for this rule's access pattern. Stencil windows default to
     * 0.6; rules with heavy blocked reuse (matmul rows/columns live in
     * registers and L1) should set this higher.
     */
    double gpuCacheHitRate() const { return gpuCacheHitRate_; }
    RuleDef &setGpuCacheHitRate(double rate);

    /** Native body: compute @p region of the output slot. */
    struct RegionRunArgs
    {
        Region region;
        MatrixD output;
        std::vector<MatrixD> inputs;
        const ParamEnv *params = nullptr;
        int threads = 1;
    };
    using RegionBody = std::function<void(RegionRunArgs &)>;
    using RegionCost =
        std::function<sim::CostReport(const Region &, const ParamEnv &)>;

    /** Construct a point rule. */
    static std::shared_ptr<RuleDef>
    makePoint(std::string name, std::string outputSlot,
              std::vector<AccessPattern> accesses, PointBody body,
              PointFlops flopsPerPoint);

    /** Construct a native region rule. */
    static std::shared_ptr<RuleDef>
    makeRegion(std::string name, std::string outputSlot,
               std::vector<std::string> inputSlots, RegionBody body,
               RegionCost cost);

    const std::string &name() const { return name_; }
    const std::string &outputSlot() const { return outputSlot_; }
    bool isPointRule() const { return pointBody_ != nullptr; }

    /** Input slot names, in body argument order. */
    const std::vector<std::string> &inputSlots() const
    {
        return inputSlots_;
    }

    /** Access patterns (point rules only; aligned with inputSlots()). */
    const std::vector<AccessPattern> &accesses() const
    {
        PB_ASSERT(isPointRule(), "region rules have no access patterns");
        return accesses_;
    }

    const PointBody &pointBody() const { return pointBody_; }
    const RegionBody &regionBody() const { return regionBody_; }

    /** flops one output point costs (point rules only). */
    double
    flopsPerPoint(const ParamEnv &params) const
    {
        PB_ASSERT(isPointRule() && pointFlops_, "no point cost");
        return pointFlops_(params);
    }

    /** Cost of computing @p region natively (region rules only). */
    sim::CostReport
    regionCost(const Region &region, const ParamEnv &params) const
    {
        PB_ASSERT(!isPointRule() && regionCost_, "no region cost");
        return regionCost_(region, params);
    }

    /** @{ Flags that disqualify OpenCL conversion (Section 3.1 phase 2). */
    bool callsExternalLibrary() const { return callsExternalLibrary_; }
    bool hasInlineNativeCode() const { return hasInlineNativeCode_; }
    /** Models OpenCL-implementation-specific compile failures that are
     * only detected by attempting compilation. */
    bool openclCompileFails() const { return openclCompileFails_; }
    /** @} */

    RuleDef &setCallsExternalLibrary(bool v);
    RuleDef &setHasInlineNativeCode(bool v);
    RuleDef &setOpenclCompileFails(bool v);

  private:
    RuleDef() = default;

    std::string name_;
    std::string outputSlot_;
    std::vector<std::string> inputSlots_;
    std::vector<AccessPattern> accesses_;
    PointBody pointBody_;
    PointFlops pointFlops_;
    RegionBody regionBody_;
    RegionCost regionCost_;
    bool callsExternalLibrary_ = false;
    bool hasInlineNativeCode_ = false;
    bool openclCompileFails_ = false;
    double gpuCacheHitRate_ = 0.6;
};

} // namespace lang
} // namespace petabricks

#endif // PETABRICKS_LANG_RULE_H
