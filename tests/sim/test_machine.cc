#include <bit>
#include <cstdint>
#include <functional>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "support/error.h"
#include "support/rng.h"

namespace petabricks {
namespace sim {
namespace {

TEST(Machine, FiveProfilesExist)
{
    auto machines = MachineProfile::all();
    ASSERT_EQ(machines.size(), 5u);
    EXPECT_EQ(machines[0].name, "Desktop");
    EXPECT_EQ(machines[1].name, "Server");
    EXPECT_EQ(machines[2].name, "Laptop");
    EXPECT_EQ(machines[3].name, "Ultrabook");
    EXPECT_EQ(machines[4].name, "BigLittle");
}

TEST(Machine, ByNameLookup)
{
    EXPECT_EQ(MachineProfile::byName("Server").cpu.cores, 32);
    EXPECT_EQ(MachineProfile::byName("Ultrabook").cpu.cores, 2);
    EXPECT_EQ(MachineProfile::byName("BigLittle").cpu.cores, 8);
    EXPECT_THROW(MachineProfile::byName("Phone"), FatalError);
}

TEST(Machine, ByNameUnknownListsKnownProfiles)
{
    try {
        MachineProfile::byName("Phone");
        FAIL() << "byName should have thrown";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("Phone"), std::string::npos) << what;
        for (const auto &m : MachineProfile::all())
            EXPECT_NE(what.find(m.name), std::string::npos) << what;
    }
}

TEST(Machine, UltrabookIsZeroCopyIntegratedGpu)
{
    auto m = MachineProfile::ultrabook();
    EXPECT_TRUE(m.hasOpenCL);
    EXPECT_EQ(m.ocl.type, DeviceType::Gpu);
    EXPECT_FALSE(m.oclSharesCpu);
    EXPECT_TRUE(m.transfer.isFree()); // shared memory: zero-copy
}

TEST(Machine, BigLittleHasNoOpenCL)
{
    auto m = MachineProfile::bigLittle();
    EXPECT_FALSE(m.hasOpenCL);
    EXPECT_EQ(m.cpu.cores, 8);
    EXPECT_EQ(m.workerThreads, 8);
}

TEST(Machine, CoreCountsMatchPaperFigure9)
{
    EXPECT_EQ(MachineProfile::desktop().cpu.cores, 4);
    EXPECT_EQ(MachineProfile::server().cpu.cores, 32);
    EXPECT_EQ(MachineProfile::laptop().cpu.cores, 2);
}

TEST(Machine, ServerUsesSixteenWorkers)
{
    // Section 6.1: "On Server, the number of threads is set to 16".
    EXPECT_EQ(MachineProfile::server().workerThreads, 16);
    EXPECT_EQ(MachineProfile::desktop().workerThreads, 4);
    EXPECT_EQ(MachineProfile::laptop().workerThreads, 2);
}

TEST(Machine, ServerOpenCLSharesCpuAndHasFreeTransfer)
{
    auto server = MachineProfile::server();
    EXPECT_TRUE(server.hasOpenCL);
    EXPECT_TRUE(server.oclSharesCpu);
    EXPECT_EQ(server.ocl.type, DeviceType::CpuOpenCL);
    EXPECT_TRUE(server.transfer.isFree());
    EXPECT_DOUBLE_EQ(server.transfer.seconds(1e9), 0.0);
}

TEST(Machine, DiscreteGpusPayForTransfers)
{
    for (const auto &m :
         {MachineProfile::desktop(), MachineProfile::laptop()}) {
        EXPECT_FALSE(m.oclSharesCpu) << m.name;
        EXPECT_FALSE(m.transfer.isFree()) << m.name;
        EXPECT_GT(m.transfer.seconds(1 << 20), 0.0) << m.name;
        EXPECT_TRUE(m.ocl.dedicatedLocalMem) << m.name;
    }
}

TEST(Machine, CpuOpenCLHasNoDedicatedLocalMem)
{
    // Section 2.2: on CPU OpenCL targets the shared memory maps onto the
    // same caches/buses, so prefetching is wasted work.
    EXPECT_FALSE(MachineProfile::server().ocl.dedicatedLocalMem);
}

TEST(Machine, DesktopGpuDwarfsItsCpu)
{
    auto desktop = MachineProfile::desktop();
    EXPECT_GT(desktop.ocl.peakGflops(), 10 * desktop.cpu.peakGflops());
}

TEST(Machine, LaptopGpuIsCloserToItsCpu)
{
    // Mobile GPUs have weak double-precision throughput: the Laptop's
    // GPU peak is only ~2x its CPU, versus ~25x on Desktop — which is
    // exactly why the Laptop benefits from CPU/GPU work splits.
    auto laptop = MachineProfile::laptop();
    double ratio = laptop.ocl.peakGflops() / laptop.cpu.peakGflops();
    EXPECT_GT(ratio, 1.2);
    EXPECT_LT(ratio, 10.0);
}

TEST(Machine, TransferSecondsScalesWithBytes)
{
    auto t = MachineProfile::desktop().transfer;
    double small = t.seconds(1 << 10);
    double large = t.seconds(1 << 26);
    EXPECT_GT(large, small);
    EXPECT_GT(small, 0.0); // latency floor
}

TEST(Machine, DeviceTypeNames)
{
    EXPECT_STREQ(deviceTypeName(DeviceType::Cpu), "CPU");
    EXPECT_STREQ(deviceTypeName(DeviceType::Gpu), "GPU");
    EXPECT_STREQ(deviceTypeName(DeviceType::CpuOpenCL), "CPU-OpenCL");
}

TEST(MachineFingerprint, StableForEqualContent)
{
    // Two independently built copies of the same profile must agree —
    // the fingerprint keys on-disk cache segments, so it has to be a
    // pure function of the parameters.
    EXPECT_EQ(MachineProfile::desktop().fingerprint(),
              MachineProfile::desktop().fingerprint());
    MachineProfile copy = MachineProfile::server();
    EXPECT_EQ(copy.fingerprint(), MachineProfile::server().fingerprint());
}

TEST(MachineFingerprint, DistinguishesEveryRegisteredProfile)
{
    auto machines = MachineProfile::all();
    for (size_t i = 0; i < machines.size(); ++i)
        for (size_t j = i + 1; j < machines.size(); ++j)
            EXPECT_NE(machines[i].fingerprint(),
                      machines[j].fingerprint())
                << machines[i].name << " vs " << machines[j].name;
}

TEST(MachineFingerprint, SensitiveToEveryParameterKind)
{
    const MachineProfile base = MachineProfile::desktop();

    MachineProfile m = base; // int field
    m.workerThreads = base.workerThreads + 1;
    EXPECT_NE(m.fingerprint(), base.fingerprint());

    m = base; // double field
    m.kernelCompileSeconds = base.kernelCompileSeconds * 2;
    EXPECT_NE(m.fingerprint(), base.fingerprint());

    m = base; // string field
    m.os = "TempleOS";
    EXPECT_NE(m.fingerprint(), base.fingerprint());

    m = base; // nested device field
    m.cpu.cores = base.cpu.cores + 1;
    EXPECT_NE(m.fingerprint(), base.fingerprint());

    m = base; // display name alone is content too
    m.name = "Desktop2";
    EXPECT_NE(m.fingerprint(), base.fingerprint());
}

TEST(MachineFingerprint, SwappedEqualValuesDoNotAlias)
{
    // Each field is hashed tagged with its name before the commutative
    // combine, so moving a value between two fields must change the
    // fingerprint — equal values in different slots are different
    // machines.
    MachineProfile a = MachineProfile::desktop();
    a.workerThreads = 2;
    a.blasThreads = 8;
    MachineProfile b = MachineProfile::desktop();
    b.workerThreads = 8;
    b.blasThreads = 2;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(MachineFingerprint, IgnoresOpenCLParametersWhenDisabled)
{
    // A CPU-only machine is the same machine whatever garbage its
    // unused OpenCL fields hold.
    MachineProfile a = MachineProfile::server();
    a.hasOpenCL = false;
    MachineProfile b = a;
    b.ocl.cores = 9999;
    b.transfer.latencyUs = 123.0;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

/** FNV-1a taken one byte at a time, as the fingerprint was first
 * written: strings end in a 0xff byte, words go least significant
 * byte first. */
struct ByteWiseFnv
{
    uint64_t hash = 1469598103934665603ull;

    void
    byte(uint8_t value)
    {
        hash ^= value;
        hash *= 1099511628211ull;
    }

    void
    text(const std::string &value)
    {
        for (unsigned char c : value)
            byte(c);
        byte(0xff);
    }

    void
    word(uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(value >> (8 * i)));
    }
};

uint64_t
field(const std::string &tag, const std::string &value)
{
    ByteWiseFnv fnv;
    fnv.text(tag);
    fnv.text(value);
    return fnv.hash;
}

uint64_t
field(const std::string &tag, uint64_t value)
{
    ByteWiseFnv fnv;
    fnv.text(tag);
    fnv.word(value);
    return fnv.hash;
}

uint64_t
field(const std::string &tag, double value)
{
    return field(tag, std::bit_cast<uint64_t>(value));
}

uint64_t
field(const std::string &tag, bool value)
{
    return field(tag, uint64_t{value ? 1u : 0u});
}

uint64_t
byteWiseDevice(const std::string &tag, const DeviceSpec &device)
{
    uint64_t hash = 0;
    hash ^= field("name", device.name);
    hash ^= field("type", static_cast<uint64_t>(device.type));
    hash ^= field("cores", static_cast<uint64_t>(device.cores));
    hash ^= field("gflopsPerCore", device.gflopsPerCore);
    hash ^= field("memBandwidthGBs", device.memBandwidthGBs);
    hash ^= field("localMemBandwidthGBs", device.localMemBandwidthGBs);
    hash ^= field("dedicatedLocalMem", device.dedicatedLocalMem);
    hash ^= field("launchLatencyUs", device.launchLatencyUs);
    hash ^= field("simdWidth", static_cast<uint64_t>(device.simdWidth));
    return field(tag, hash);
}

/** The fingerprint as it was computed before its tags were folded at
 * compile time: every tag hashed from a string at every call. */
uint64_t
byteWiseFingerprint(const MachineProfile &m)
{
    uint64_t hash = 0;
    hash ^= field("name", m.name);
    hash ^= field("os", m.os);
    hash ^= field("openclRuntime", m.openclRuntime);
    hash ^= byteWiseDevice("cpu", m.cpu);
    hash ^= field("hasOpenCL", m.hasOpenCL);
    if (m.hasOpenCL) {
        hash ^= byteWiseDevice("ocl", m.ocl);
        hash ^= field("transfer.latencyUs", m.transfer.latencyUs);
        hash ^= field("transfer.bandwidthGBs", m.transfer.bandwidthGBs);
        hash ^= field("oclSharesCpu", m.oclSharesCpu);
    }
    hash ^= field("workerThreads", static_cast<uint64_t>(m.workerThreads));
    hash ^= field("blasSpeedup", m.blasSpeedup);
    hash ^= field("blasThreads", static_cast<uint64_t>(m.blasThreads));
    hash ^= field("kernelCompileSeconds", m.kernelCompileSeconds);
    hash ^= field("irCacheSavings", m.irCacheSavings);
    ByteWiseFnv reseed;
    reseed.word(hash);
    return reseed.hash;
}

/** Every field of a profile, each as an edit that sets it from @p rng
 * (strings of any bytes, ints, enums, bools and raw double bits). */
std::vector<std::function<void(MachineProfile &, Rng &)>>
fieldEdits()
{
    auto text = [](Rng &rng) {
        std::string value(static_cast<size_t>(rng.uniformInt(0, 24)), ' ');
        for (char &c : value)
            c = static_cast<char>(rng.uniformInt(0, 255));
        return value;
    };
    auto real = [](Rng &rng) {
        return rng.chance(0.5) ? rng.uniformReal(0.0, 1000.0)
                               : std::bit_cast<double>(rng());
    };
    auto integer = [](Rng &rng) {
        return static_cast<int>(rng.uniformInt(-4, 4096));
    };
    auto flag = [](Rng &rng) { return rng.chance(0.5); };
    std::vector<std::function<void(MachineProfile &, Rng &)>> edits = {
        [=](MachineProfile &m, Rng &r) { m.name = text(r); },
        [=](MachineProfile &m, Rng &r) { m.os = text(r); },
        [=](MachineProfile &m, Rng &r) { m.openclRuntime = text(r); },
        [=](MachineProfile &m, Rng &r) { m.hasOpenCL = flag(r); },
        [=](MachineProfile &m, Rng &r) { m.transfer.latencyUs = real(r); },
        [=](MachineProfile &m, Rng &r) { m.transfer.bandwidthGBs = real(r); },
        [=](MachineProfile &m, Rng &r) { m.oclSharesCpu = flag(r); },
        [=](MachineProfile &m, Rng &r) { m.workerThreads = integer(r); },
        [=](MachineProfile &m, Rng &r) { m.blasSpeedup = real(r); },
        [=](MachineProfile &m, Rng &r) { m.blasThreads = integer(r); },
        [=](MachineProfile &m, Rng &r) { m.kernelCompileSeconds = real(r); },
        [=](MachineProfile &m, Rng &r) { m.irCacheSavings = real(r); },
    };
    for (DeviceSpec MachineProfile::*device :
         {&MachineProfile::cpu, &MachineProfile::ocl}) {
        edits.push_back([=](MachineProfile &m, Rng &r) {
            (m.*device).name = text(r);
        });
        edits.push_back([=](MachineProfile &m, Rng &r) {
            (m.*device).type = static_cast<DeviceType>(r.uniformInt(0, 2));
        });
        edits.push_back([=](MachineProfile &m, Rng &r) {
            (m.*device).cores = integer(r);
        });
        edits.push_back([=](MachineProfile &m, Rng &r) {
            (m.*device).gflopsPerCore = real(r);
        });
        edits.push_back([=](MachineProfile &m, Rng &r) {
            (m.*device).memBandwidthGBs = real(r);
        });
        edits.push_back([=](MachineProfile &m, Rng &r) {
            (m.*device).localMemBandwidthGBs = real(r);
        });
        edits.push_back([=](MachineProfile &m, Rng &r) {
            (m.*device).dedicatedLocalMem = flag(r);
        });
        edits.push_back([=](MachineProfile &m, Rng &r) {
            (m.*device).launchLatencyUs = real(r);
        });
        edits.push_back([=](MachineProfile &m, Rng &r) {
            (m.*device).simdWidth = integer(r);
        });
    }
    return edits;
}

TEST(MachineFingerprint, MatchesTheByteWiseHash)
{
    // The fingerprint names champion files and keys L2 scopes and cache
    // segments, so folding its tags must not move it by a bit. These
    // are the built-in profiles' values as first recorded.
    EXPECT_EQ(MachineProfile::desktop().fingerprint(), 0x4ed3ce1de06ea639ull);
    EXPECT_EQ(MachineProfile::server().fingerprint(), 0x8463028cec177a67ull);
    EXPECT_EQ(MachineProfile::laptop().fingerprint(), 0xc3390ffa450eda14ull);
    EXPECT_EQ(MachineProfile::ultrabook().fingerprint(),
              0xbd1a69b67287a3d1ull);
    EXPECT_EQ(MachineProfile::bigLittle().fingerprint(),
              0x3bbfa96991c68c96ull);
    for (const MachineProfile &m : MachineProfile::all())
        EXPECT_EQ(m.fingerprint(), byteWiseFingerprint(m)) << m.name;

    // A random walk of single-field edits from every profile; each
    // field is edited in turn, so all of them (and hasOpenCL both
    // ways) are covered many times.
    const auto edits = fieldEdits();
    Rng rng(2013);
    int openclOn = 0, openclOff = 0;
    for (const MachineProfile &start : MachineProfile::all()) {
        MachineProfile m = start;
        for (size_t step = 0; step < 2400; ++step) {
            edits[step % edits.size()](m, rng);
            ASSERT_EQ(m.fingerprint(), byteWiseFingerprint(m))
                << "after " << step + 1 << " edits from " << start.name;
            ++(m.hasOpenCL ? openclOn : openclOff);
        }
    }
    EXPECT_GT(openclOn, 1000);
    EXPECT_GT(openclOff, 1000);
}

} // namespace
} // namespace sim
} // namespace petabricks
