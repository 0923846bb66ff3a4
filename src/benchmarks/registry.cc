#include "benchmarks/registry.h"

#include <cctype>

#include "benchmarks/blackscholes.h"
#include "benchmarks/convolution.h"
#include "benchmarks/mandelbrot.h"
#include "benchmarks/poisson.h"
#include "benchmarks/sort.h"
#include "benchmarks/strassen.h"
#include "benchmarks/svd.h"
#include "benchmarks/tridiagonal.h"

namespace petabricks {
namespace apps {

namespace {

template <typename T>
BenchmarkPtr
make()
{
    return std::make_shared<T>();
}

/** Display name -> factory, in the paper's table order, so a lookup
 * constructs (and builds the model analysis of) only the match. */
constexpr std::pair<const char *, BenchmarkPtr (*)()> kBenchmarks[] = {
    {"Black-Scholes", make<BlackScholesBenchmark>},
    {"Poisson2D SOR", make<PoissonBenchmark>},
    {"SeparableConv.", make<ConvolutionBenchmark>},
    {"Sort", make<SortBenchmark>},
    {"Strassen", make<StrassenBenchmark>},
    {"SVD", make<SvdBenchmark>},
    {"Tridiagonal Solver", make<TridiagBenchmark>},
    {"Mandelbrot", make<MandelbrotBenchmark>},
};

} // namespace

std::vector<BenchmarkPtr>
allBenchmarks()
{
    std::vector<BenchmarkPtr> benchmarks;
    for (const auto &entry : kBenchmarks)
        benchmarks.push_back(entry.second());
    return benchmarks;
}

BenchmarkPtr
findBenchmark(const std::string &name)
{
    auto lowered = [](const std::string &s) {
        std::string out = s;
        for (char &c : out)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        return out;
    };
    const std::string want = lowered(name);
    std::string known;
    for (const auto &[display, factory] : kBenchmarks) {
        if (lowered(display) == want)
            return factory();
        known += (known.empty() ? "" : ", ") + std::string(display);
    }
    PB_FATAL("unknown benchmark '" << name << "' (known: " << known
                                   << ")");
}

} // namespace apps
} // namespace petabricks
