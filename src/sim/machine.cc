#include "sim/machine.h"

#include <string_view>

#include "support/error.h"
#include "support/hash.h"

namespace petabricks {
namespace sim {

namespace {

/** FNV-1a state after a field's name tag. consteval, so every tag is
 * folded at compile time and a fingerprint hashes only value bytes. */
consteval uint64_t
tag(std::string_view name)
{
    return Fnv1a().mix(name).value();
}

/** Hash one field from its folded name tag; the tag keeps equal values
 * in different fields from canceling when the tagged hashes are
 * XOR-combined. */
template <typename T>
uint64_t
taggedField(uint64_t tagState, const T &value)
{
    return Fnv1a(tagState).mix(value).value();
}

uint64_t
deviceFingerprint(uint64_t tagState, const DeviceSpec &device)
{
    uint64_t hash = 0;
    hash ^= taggedField(tag("name"), device.name);
    hash ^= taggedField(tag("type"), static_cast<uint64_t>(device.type));
    hash ^= taggedField(tag("cores"), static_cast<uint64_t>(device.cores));
    hash ^= taggedField(tag("gflopsPerCore"), device.gflopsPerCore);
    hash ^= taggedField(tag("memBandwidthGBs"), device.memBandwidthGBs);
    hash ^= taggedField(tag("localMemBandwidthGBs"),
                        device.localMemBandwidthGBs);
    hash ^= taggedField(tag("dedicatedLocalMem"), device.dedicatedLocalMem);
    hash ^= taggedField(tag("launchLatencyUs"), device.launchLatencyUs);
    hash ^= taggedField(tag("simdWidth"),
                        static_cast<uint64_t>(device.simdWidth));
    return taggedField(tagState, hash);
}

} // namespace

uint64_t
MachineProfile::fingerprint() const
{
    uint64_t hash = 0;
    hash ^= taggedField(tag("name"), name);
    hash ^= taggedField(tag("os"), os);
    hash ^= taggedField(tag("openclRuntime"), openclRuntime);
    hash ^= deviceFingerprint(tag("cpu"), cpu);
    hash ^= taggedField(tag("hasOpenCL"), hasOpenCL);
    if (hasOpenCL) {
        hash ^= deviceFingerprint(tag("ocl"), ocl);
        hash ^= taggedField(tag("transfer.latencyUs"), transfer.latencyUs);
        hash ^= taggedField(tag("transfer.bandwidthGBs"),
                            transfer.bandwidthGBs);
        hash ^= taggedField(tag("oclSharesCpu"), oclSharesCpu);
    }
    hash ^= taggedField(tag("workerThreads"),
                        static_cast<uint64_t>(workerThreads));
    hash ^= taggedField(tag("blasSpeedup"), blasSpeedup);
    hash ^= taggedField(tag("blasThreads"),
                        static_cast<uint64_t>(blasThreads));
    hash ^= taggedField(tag("kernelCompileSeconds"), kernelCompileSeconds);
    hash ^= taggedField(tag("irCacheSavings"), irCacheSavings);
    // Re-seed through FNV so the combined value is well-mixed even
    // though the combination above is a plain XOR.
    return Fnv1a().mix(hash).value();
}

const char *
deviceTypeName(DeviceType type)
{
    switch (type) {
      case DeviceType::Cpu: return "CPU";
      case DeviceType::Gpu: return "GPU";
      case DeviceType::CpuOpenCL: return "CPU-OpenCL";
    }
    return "?";
}

MachineProfile
MachineProfile::desktop()
{
    MachineProfile m;
    m.name = "Desktop";
    m.os = "Debian 5.0 GNU/Linux";
    m.openclRuntime = "CUDA Toolkit 4.2 (GPU)";

    m.cpu.name = "Core i7 920 @2.67GHz";
    m.cpu.type = DeviceType::Cpu;
    m.cpu.cores = 4;
    m.cpu.gflopsPerCore = 5.0;
    m.cpu.memBandwidthGBs = 25.0;
    m.cpu.dedicatedLocalMem = false;
    m.cpu.launchLatencyUs = 2.0;
    m.cpu.simdWidth = 1;

    m.hasOpenCL = true;
    m.ocl.name = "NVIDIA Tesla C2070";
    m.ocl.type = DeviceType::Gpu;
    m.ocl.cores = 448;
    m.ocl.gflopsPerCore = 1.15; // double precision: ~515 GFLOP/s
    m.ocl.memBandwidthGBs = 144.0;
    m.ocl.localMemBandwidthGBs = 1300.0;
    m.ocl.dedicatedLocalMem = true;
    m.ocl.launchLatencyUs = 12.0;
    m.ocl.simdWidth = 32;

    m.transfer.latencyUs = 18.0;
    m.transfer.bandwidthGBs = 6.0;
    m.oclSharesCpu = false;
    m.workerThreads = 4;
    m.blasSpeedup = 3.0; // Debian reference netlib: single-threaded
    m.blasThreads = 1;
    m.kernelCompileSeconds = 1.6;
    m.irCacheSavings = 0.55;
    return m;
}

MachineProfile
MachineProfile::server()
{
    MachineProfile m;
    m.name = "Server";
    m.os = "Debian 5.0 GNU/Linux";
    m.openclRuntime = "AMD APP SDK 2.5 (CPU/SSE)";

    m.cpu.name = "4x Xeon X7550 @2GHz";
    m.cpu.type = DeviceType::Cpu;
    m.cpu.cores = 32;
    m.cpu.gflopsPerCore = 3.6;
    m.cpu.memBandwidthGBs = 70.0;
    m.cpu.dedicatedLocalMem = false;
    m.cpu.launchLatencyUs = 3.0;
    m.cpu.simdWidth = 1;

    // The AMD APP runtime vectorizes kernels onto the same 32 cores:
    // higher per-core throughput than scalar native code, no transfer
    // cost, but "local memory" is just main memory (prefetch is wasted
    // work) and kernel scheduling overhead is comparatively high.
    m.hasOpenCL = true;
    m.ocl.name = "AMD APP on 4x Xeon X7550";
    m.ocl.type = DeviceType::CpuOpenCL;
    m.ocl.cores = 32;
    m.ocl.gflopsPerCore = 9.5;
    m.ocl.memBandwidthGBs = 70.0;
    m.ocl.localMemBandwidthGBs = 70.0;
    m.ocl.dedicatedLocalMem = false;
    m.ocl.launchLatencyUs = 150.0; // CPU runtime dispatch is heavyweight
    m.ocl.simdWidth = 4;

    m.transfer.latencyUs = 0.0;
    m.transfer.bandwidthGBs = 0.0; // shared memory: copies are free
    m.oclSharesCpu = true;
    m.workerThreads = 16;
    m.blasSpeedup = 3.0; // Debian reference netlib: single-threaded
    m.blasThreads = 1;
    m.kernelCompileSeconds = 2.4;
    m.irCacheSavings = 0.6;
    return m;
}

MachineProfile
MachineProfile::laptop()
{
    MachineProfile m;
    m.name = "Laptop";
    m.os = "Mac OS X Lion (10.7.2)";
    m.openclRuntime = "Xcode 4.2 (GPU)";

    m.cpu.name = "Core i5 2520M @2.5GHz";
    m.cpu.type = DeviceType::Cpu;
    m.cpu.cores = 2;
    m.cpu.gflopsPerCore = 6.0;
    m.cpu.memBandwidthGBs = 17.0;
    m.cpu.dedicatedLocalMem = false;
    m.cpu.launchLatencyUs = 2.0;
    m.cpu.simdWidth = 1;

    m.hasOpenCL = true;
    m.ocl.name = "AMD Radeon HD 6630M";
    m.ocl.type = DeviceType::Gpu;
    m.ocl.cores = 96;
    m.ocl.gflopsPerCore = 0.25; // mobile GPU double precision is weak
    m.ocl.memBandwidthGBs = 25.6;
    m.ocl.localMemBandwidthGBs = 220.0;
    m.ocl.dedicatedLocalMem = true;
    m.ocl.launchLatencyUs = 30.0;
    m.ocl.simdWidth = 32;

    m.transfer.latencyUs = 25.0;
    m.transfer.bandwidthGBs = 2.5;
    m.oclSharesCpu = false;
    m.workerThreads = 2;
    m.blasSpeedup = 8.0; // Accelerate framework: vectorized...
    m.blasThreads = 2;   // ...and multithreaded
    m.kernelCompileSeconds = 1.2;
    m.irCacheSavings = 0.5;
    return m;
}

MachineProfile
MachineProfile::ultrabook()
{
    MachineProfile m;
    m.name = "Ultrabook";
    m.os = "Windows 8";
    m.openclRuntime = "Intel OpenCL SDK 2013 (iGPU)";

    m.cpu.name = "Core i5 3317U @1.7GHz";
    m.cpu.type = DeviceType::Cpu;
    m.cpu.cores = 2;
    m.cpu.gflopsPerCore = 3.5;
    m.cpu.memBandwidthGBs = 12.8;
    m.cpu.dedicatedLocalMem = false;
    m.cpu.launchLatencyUs = 2.0;
    m.cpu.simdWidth = 1;

    // Integrated GPU on the same die: shares the memory controller,
    // so buffer "transfers" are zero-copy remaps — free like Server's
    // CPU runtime — but unlike Server the device has its own EUs and
    // does not contend with the native worker threads.
    m.hasOpenCL = true;
    m.ocl.name = "Intel HD Graphics 4000";
    m.ocl.type = DeviceType::Gpu;
    m.ocl.cores = 16;
    m.ocl.gflopsPerCore = 1.0; // double precision: ~16 GFLOP/s
    m.ocl.memBandwidthGBs = 12.8; // same DDR3 as the host
    m.ocl.localMemBandwidthGBs = 64.0;
    m.ocl.dedicatedLocalMem = true;
    m.ocl.launchLatencyUs = 20.0;
    m.ocl.simdWidth = 8;

    m.transfer.latencyUs = 0.0;
    m.transfer.bandwidthGBs = 0.0; // shared memory: zero-copy
    m.oclSharesCpu = false;
    m.workerThreads = 2;
    m.blasSpeedup = 3.0;
    m.blasThreads = 1;
    m.kernelCompileSeconds = 1.4;
    m.irCacheSavings = 0.5;
    return m;
}

MachineProfile
MachineProfile::bigLittle()
{
    MachineProfile m;
    m.name = "BigLittle";
    m.os = "Android 4.2 GNU/Linux";
    m.openclRuntime = "none";

    // 4 big + 4 little cores. The scheduler model is homogeneous, so
    // the per-core throughput is the blended average of the two
    // clusters; what matters for portability is that this machine has
    // many weak cores and no OpenCL device at all.
    m.cpu.name = "Exynos 5410 4xA15+4xA7 @1.6GHz";
    m.cpu.type = DeviceType::Cpu;
    m.cpu.cores = 8;
    m.cpu.gflopsPerCore = 1.8;
    m.cpu.memBandwidthGBs = 12.8;
    m.cpu.dedicatedLocalMem = false;
    m.cpu.launchLatencyUs = 4.0;
    m.cpu.simdWidth = 1;

    m.hasOpenCL = false;

    m.workerThreads = 8;
    m.blasSpeedup = 2.0; // netlib cross-compiled for ARM: scalar
    m.blasThreads = 1;
    m.kernelCompileSeconds = 1.0;
    m.irCacheSavings = 0.6;
    return m;
}

std::vector<MachineProfile>
MachineProfile::all()
{
    return {desktop(), server(), laptop(), ultrabook(), bigLittle()};
}

MachineProfile
MachineProfile::byName(const std::string &name)
{
    std::string known;
    for (auto &m : all()) {
        if (m.name == name)
            return m;
        known += known.empty() ? "" : ", ";
        known += m.name;
    }
    PB_FATAL("unknown machine profile '" << name << "' (known profiles: "
                                         << known << ")");
}

} // namespace sim
} // namespace petabricks
