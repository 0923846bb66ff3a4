// Golden cost digests: every benchmark's cost model, pinned bit for bit.
//
// One FNV-1a digest per (benchmark, input size, machine): the IEEE-754
// bits of 256 seeded mutated configurations priced through the
// production path (makeEvalContext, then evaluate with that context),
// +inf for infeasible ones. Sizes are minTuningSize() and
// testingInputSize(), machines all five profiles: 80 digests.
//
// The analytic benchmarks (Sort, Strassen, SVD, Tridiagonal) have one
// implementation of their model, so these digests are what pins it.
// The simulator-backed ones are also compared against the reference
// simulator in tests/compiler/test_eval_fastpath.cc.

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "sim/machine.h"
#include "support/hash.h"
#include "support/rng.h"
#include "tuner/mutators.h"

namespace petabricks {
namespace {

constexpr int kConfigs = 256;

struct Golden
{
    const char *benchmark;
    int64_t n;
    const char *machine;
    uint64_t digest;
};

// Recorded against the library in which every benchmark still had a
// by-name model beside its context model; both priced these bits.
const Golden kGolden[] = {
    {"Black-Scholes", 4096, "Desktop", 0x126e6544b386fe59},
    {"Black-Scholes", 4096, "Server", 0x63a467e95a76224d},
    {"Black-Scholes", 4096, "Laptop", 0x1d6e460111825c75},
    {"Black-Scholes", 4096, "Ultrabook", 0x01fb7d8677a3969c},
    {"Black-Scholes", 4096, "BigLittle", 0xe0d6c9d22b6dd386},
    {"Black-Scholes", 500000, "Desktop", 0x9ef5fd2784002ab6},
    {"Black-Scholes", 500000, "Server", 0xb022a9a33ce4fd10},
    {"Black-Scholes", 500000, "Laptop", 0xfbce14e52e09f3df},
    {"Black-Scholes", 500000, "Ultrabook", 0xef74fa6647077177},
    {"Black-Scholes", 500000, "BigLittle", 0xb2697ddc6082dcf4},
    {"Poisson2D SOR", 256, "Desktop", 0xb875b1c24a76d751},
    {"Poisson2D SOR", 256, "Server", 0xa0882e9cba579021},
    {"Poisson2D SOR", 256, "Laptop", 0x485eb60fd6fe8e47},
    {"Poisson2D SOR", 256, "Ultrabook", 0x292eab61fce41bc3},
    {"Poisson2D SOR", 256, "BigLittle", 0x175d04bd03d3c912},
    {"Poisson2D SOR", 2048, "Desktop", 0x47ef788c07c3a3dc},
    {"Poisson2D SOR", 2048, "Server", 0xd91f48dc3c926824},
    {"Poisson2D SOR", 2048, "Laptop", 0xff441b6878ef3a17},
    {"Poisson2D SOR", 2048, "Ultrabook", 0xa4837eb5042705d0},
    {"Poisson2D SOR", 2048, "BigLittle", 0x966df21f4f867ff1},
    {"SeparableConv.", 256, "Desktop", 0x17545792f4b515e5},
    {"SeparableConv.", 256, "Server", 0xfc7b0b5109ccb8a7},
    {"SeparableConv.", 256, "Laptop", 0xce0ed88a902739cc},
    {"SeparableConv.", 256, "Ultrabook", 0xbf869f1c55a2d482},
    {"SeparableConv.", 256, "BigLittle", 0x6746e33afb32eb1e},
    {"SeparableConv.", 3520, "Desktop", 0x0d5155d70617e1f8},
    {"SeparableConv.", 3520, "Server", 0x4e2896a78a1a56c5},
    {"SeparableConv.", 3520, "Laptop", 0xf7bf2caba6114c12},
    {"SeparableConv.", 3520, "Ultrabook", 0xa622887b444035ed},
    {"SeparableConv.", 3520, "BigLittle", 0x6884c56f574a175f},
    {"Sort", 256, "Desktop", 0xfa985930a0eeb9a5},
    {"Sort", 256, "Server", 0x0add3529214ae394},
    {"Sort", 256, "Laptop", 0xf172f85f7927abc1},
    {"Sort", 256, "Ultrabook", 0x440f0db3c797ee42},
    {"Sort", 256, "BigLittle", 0x24f87dae9a4c5e3d},
    {"Sort", 1048576, "Desktop", 0xb138d41b9031b0dc},
    {"Sort", 1048576, "Server", 0xa6a82218d14c5ac4},
    {"Sort", 1048576, "Laptop", 0x72f48fda285f384c},
    {"Sort", 1048576, "Ultrabook", 0x1843968b0e8ffdf0},
    {"Sort", 1048576, "BigLittle", 0xf2850f040efe4d61},
    {"Strassen", 64, "Desktop", 0xa0c562bcac703ad2},
    {"Strassen", 64, "Server", 0xa47e97e6b13de904},
    {"Strassen", 64, "Laptop", 0x0c4a10fb931f375f},
    {"Strassen", 64, "Ultrabook", 0x8efc9ac18d171c46},
    {"Strassen", 64, "BigLittle", 0x1cba74da4c5064aa},
    {"Strassen", 1024, "Desktop", 0x622b56722b98f990},
    {"Strassen", 1024, "Server", 0xf7eb27142b29cbee},
    {"Strassen", 1024, "Laptop", 0x8887349b554d442d},
    {"Strassen", 1024, "Ultrabook", 0xfabc0a6273022591},
    {"Strassen", 1024, "BigLittle", 0xdf38ac745b254eac},
    {"SVD", 32, "Desktop", 0x4c0e9f937d65c9af},
    {"SVD", 32, "Server", 0x254c0533a78cedd8},
    {"SVD", 32, "Laptop", 0xe8646439cb971af6},
    {"SVD", 32, "Ultrabook", 0x85d2d28dca4d60e5},
    {"SVD", 32, "BigLittle", 0xa783f808df77e1be},
    {"SVD", 256, "Desktop", 0x74614a907c0aca19},
    {"SVD", 256, "Server", 0x65056bb5a41b2040},
    {"SVD", 256, "Laptop", 0x3b0e2ee2e20b61cf},
    {"SVD", 256, "Ultrabook", 0x2312d184f77ca413},
    {"SVD", 256, "BigLittle", 0x51b10b032ad94b59},
    {"Tridiagonal Solver", 256, "Desktop", 0x7ce097ff0ca4c50f},
    {"Tridiagonal Solver", 256, "Server", 0xc5f3bd25e1ae1612},
    {"Tridiagonal Solver", 256, "Laptop", 0x7a59dc606458b73d},
    {"Tridiagonal Solver", 256, "Ultrabook", 0x8969408500c2bcdf},
    {"Tridiagonal Solver", 256, "BigLittle", 0x81c532dc89183c4b},
    {"Tridiagonal Solver", 1024, "Desktop", 0xd5b1192641ef5920},
    {"Tridiagonal Solver", 1024, "Server", 0xf8c97c6ab46b76b1},
    {"Tridiagonal Solver", 1024, "Laptop", 0x5904acf09c36e81a},
    {"Tridiagonal Solver", 1024, "Ultrabook", 0xa08b33134f4e6ab7},
    {"Tridiagonal Solver", 1024, "BigLittle", 0x73c7902210688fcb},
    {"Mandelbrot", 4096, "Desktop", 0xcaf18384ac431cd6},
    {"Mandelbrot", 4096, "Server", 0x90a106ae7808b6f3},
    {"Mandelbrot", 4096, "Laptop", 0x64cb25f77e5eced7},
    {"Mandelbrot", 4096, "Ultrabook", 0x567127eac5954ef9},
    {"Mandelbrot", 4096, "BigLittle", 0xbc2a7d5969184533},
    {"Mandelbrot", 250000, "Desktop", 0x7726dcc07bd11aee},
    {"Mandelbrot", 250000, "Server", 0xa63a3b4881c9565c},
    {"Mandelbrot", 250000, "Laptop", 0x99c829bce7a34dc8},
    {"Mandelbrot", 250000, "Ultrabook", 0xaf332540c096cf10},
    {"Mandelbrot", 250000, "BigLittle", 0x96471f874059846c},
};

/** Digest of @p benchmark's prices of kConfigs mutated configurations
 * at @p n on @p machine; the mutations are seeded by all three. */
uint64_t
costDigest(const apps::Benchmark &benchmark, int64_t n,
           const sim::MachineProfile &machine)
{
    const tuner::Config base = benchmark.seedConfig();
    const std::vector<tuner::Mutator> &mutators = base.schema().mutators();
    Rng rng(Fnv1a()
                .mix(benchmark.name())
                .mix(machine.name)
                .mix(static_cast<uint64_t>(n))
                .value());
    apps::EvalContextPtr ctx = benchmark.makeEvalContext(n, machine);
    Fnv1a digest;
    for (int i = 0; i < kConfigs; ++i) {
        tuner::Config config = base;
        int64_t edits = i == 0 ? 0 : rng.uniformInt(1, 12);
        for (int64_t e = 0; e < edits; ++e)
            mutators[static_cast<size_t>(rng.uniformInt(
                         0, static_cast<int64_t>(mutators.size()) - 1))]
                .apply(config, rng, n);
        double seconds;
        try {
            seconds = benchmark.evaluate(config, n, machine, ctx.get());
        } catch (const FatalError &) {
            seconds = std::numeric_limits<double>::infinity();
        }
        digest.mix(seconds);
    }
    return digest.value();
}

std::string
hex(uint64_t value)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

TEST(CostDigests, EveryBenchmarkSizeAndMachineMatchesItsGolden)
{
    std::string table;
    std::string mismatches;
    size_t checked = 0;
    for (const apps::BenchmarkPtr &benchmark : apps::allBenchmarks()) {
        for (int64_t n :
             {benchmark->minTuningSize(), benchmark->testingInputSize()}) {
            for (const sim::MachineProfile &machine :
                 sim::MachineProfile::all()) {
                const uint64_t got = costDigest(*benchmark, n, machine);
                const std::string row =
                    "    {\"" + benchmark->name() + "\", " +
                    std::to_string(n) + ", \"" + machine.name + "\", 0x" +
                    hex(got) + "},\n";
                table += row;
                const Golden *golden = nullptr;
                for (const Golden &g : kGolden)
                    if (benchmark->name() == g.benchmark && n == g.n &&
                        machine.name == g.machine)
                        golden = &g;
                ++checked;
                if (golden == nullptr || golden->digest != got)
                    mismatches += row;
            }
        }
    }
    EXPECT_EQ(checked, std::size(kGolden));
    EXPECT_EQ(mismatches, "") << "digests now read:\n" << mismatches
                              << "full table:\n" << table;
}

} // namespace
} // namespace petabricks
