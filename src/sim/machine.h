/**
 * @file
 * The representative test systems (Figure 9, plus portability extras).
 *
 * The paper's three:
 *
 * Desktop: Core i7 920 (4 cores) + NVIDIA Tesla C2070, CUDA OpenCL.
 * Server:  4x Xeon X7550 (32 cores), no GPU; AMD APP CPU OpenCL runtime
 *          that generates optimized SSE code.
 * Laptop:  Core i5 2520M (2 cores) + AMD Radeon HD 6630M.
 *
 * Two more exercise the portability claim from a different direction
 * (the champion-portfolio matrix in bench/fig9_portability):
 *
 * Ultrabook: weak dual-core CPU + integrated GPU on shared memory —
 *            transfers are free but the GPU is modest, so the best
 *            placement flips per benchmark and per size.
 * BigLittle: asymmetric 8-core mobile CPU with no OpenCL runtime at
 *            all — every GPU-placed choice is infeasible, the extreme
 *            end of the portability spectrum.
 */

#ifndef PETABRICKS_SIM_MACHINE_H
#define PETABRICKS_SIM_MACHINE_H

#include <string>
#include <vector>

#include "sim/device_spec.h"

namespace petabricks {
namespace sim {

/**
 * A heterogeneous machine: host CPU plus (optionally) an OpenCL device,
 * with the interconnect between them.
 */
struct MachineProfile
{
    std::string name;
    std::string os;
    std::string openclRuntime;

    /** Host processor running native PetaBricks code. */
    DeviceSpec cpu;

    /** True if an OpenCL backend exists on this machine. */
    bool hasOpenCL = false;

    /** The OpenCL device (GPU, or vectorizing CPU runtime). */
    DeviceSpec ocl;

    /** Host <-> OpenCL-device interconnect. */
    TransferModel transfer;

    /**
     * True when the OpenCL device is the host CPU itself (Server): OpenCL
     * kernels then contend with native worker threads for the same cores.
     */
    bool oclSharesCpu = false;

    /**
     * Worker thread count used in the experiments. The paper pins threads
     * to core count, except Server where 16 performs best (Section 6.1).
     */
    int workerThreads = 1;

    /**
     * The machine's BLAS-style external library ("LAPACK" in the
     * paper): effective flop-throughput multiple over scalar native
     * code, and how many threads the library itself uses. Debian's
     * reference netlib build is single-threaded and barely vectorized;
     * Mac OS X's Accelerate framework is vectorized and multithreaded —
     * which is exactly why the paper's Laptop prefers a direct library
     * call while the Server decomposes first.
     */
    double blasSpeedup = 3.0;
    int blasThreads = 1;

    /** Mean seconds to JIT one OpenCL kernel (drives Figure 8 times). */
    double kernelCompileSeconds = 1.0;

    /** Fraction of kernel compile time skipped on an IR-cache hit. */
    double irCacheSavings = 0.6;

    /**
     * Stable content hash of every parameter above. Two profiles
     * fingerprint equal exactly when they describe the same machine,
     * whatever order their fields were assigned in (each field is
     * hashed tagged with its name and the tagged hashes are combined
     * commutatively). This is the machine component of the shared
     * evaluation cache's scope key, so it must be stable across
     * processes and platforms.
     *
     * Each name tag's hash state is folded at compile time, so a call
     * hashes only the values' bytes. It is computed per call, not
     * stored: the fields are public and callers price edited copies,
     * and a stored value could go stale and key another machine's
     * costs.
     */
    uint64_t fingerprint() const;

    /** The paper's Desktop system. */
    static MachineProfile desktop();
    /** The paper's Server system. */
    static MachineProfile server();
    /** The paper's Laptop system (a Mac Mini). */
    static MachineProfile laptop();
    /** iGPU-only ultrabook: weak CPU + integrated GPU, zero-copy. */
    static MachineProfile ultrabook();
    /** Asymmetric big/little mobile CPU, no OpenCL runtime. */
    static MachineProfile bigLittle();

    /** All registered test systems in presentation order. */
    static std::vector<MachineProfile> all();

    /**
     * Lookup by code name ("Desktop", "Server", ...). Unknown names
     * raise a FatalError listing every registered profile name.
     */
    static MachineProfile byName(const std::string &name);
};

} // namespace sim
} // namespace petabricks

#endif // PETABRICKS_SIM_MACHINE_H
