/**
 * @file
 * A Spark98-style SMVP kernel suite (paper postscript, ref [14]): the
 * same stiffness matrix in several storage formats with a measurement
 * harness for the sustained per-flop time T_f.  The paper's §3.1 point
 * is that T_f is a *measured*, application-specific property (30 ns on
 * the T3D, 14 ns on the T3E — ~12% of peak); this suite is how such
 * numbers are obtained on any host.  An autotuner measures every
 * variant on the actual assembled matrix and reports the fastest, so
 * the §4 requirement projections can be driven by the tuned kernel
 * rather than a scalar baseline.
 *
 * Every kernel runs on one thread: the paper's T_f is the rate of one
 * PE running its local SMVP.  Shared-memory parallelism is the
 * one-PE-per-subdomain split of parallel::ParallelSmvp.
 */

#ifndef QUAKE98_SPARK_KERNELS_H_
#define QUAKE98_SPARK_KERNELS_H_

#include <functional>
#include <string>
#include <vector>

#include "mesh/soil_model.h"
#include "mesh/tet_mesh.h"
#include "sparse/bcsr3_sym.h"
#include "sparse/sliced_ell3.h"
#include "sparse/smvp.h"

namespace quake::spark
{

/** The kernel variants in the suite. */
enum class Kernel
{
    kCsr,       ///< scalar CSR ("smv")
    kBcsr3,     ///< 3x3 block CSR ("smvb") — the natural Quake layout
    kSym,       ///< scalar symmetric half storage ("smvs")
    kSymBcsr3,  ///< register-blocked symmetric 3x3 BCSR
    kSlicedEll3,   ///< sliced-ELLPACK 3x3, SIMD-dispatched (DESIGN §12)
    kSymBcsr3Simd, ///< symmetric BCSR3 with the vectorized scatter
};

/** Short name of a kernel. */
std::string kernelName(Kernel kernel);

/** All kernels, for iteration in tests and benches. */
inline constexpr Kernel kAllKernels[] = {
    Kernel::kCsr,      Kernel::kBcsr3,      Kernel::kSym,
    Kernel::kSymBcsr3, Kernel::kSlicedEll3, Kernel::kSymBcsr3Simd};

/** Measured sustained performance of one kernel. */
struct KernelTiming
{
    double secondsPerSmvp = 0.0;
    std::int64_t flops = 0;   ///< 2 per logical nonzero (paper's F)
    double tf = 0.0;          ///< seconds per flop
    double mflops = 0.0;      ///< sustained rate
};

/** One autotuner measurement. */
struct AutotuneEntry
{
    Kernel kernel = Kernel::kCsr;
    KernelTiming timing;
};

/** Autotuner verdict: the fastest kernel on this matrix, this host. */
struct AutotuneResult
{
    Kernel best = Kernel::kCsr;
    KernelTiming bestTiming;              ///< measured T_f of the winner
    std::vector<AutotuneEntry> entries;   ///< every variant, in suite order
};

/** The suite: one matrix, all formats, plus a timing harness. */
class KernelSuite
{
  public:
    /** Assemble the stiffness of (mesh, model) in every format. */
    KernelSuite(const mesh::TetMesh &mesh, const mesh::SoilModel &model,
                double poisson = 0.25);

    /** Scalar DOF count (3 per node). */
    std::int64_t dof() const { return bcsr_.numRows(); }

    /** Logical nonzeros (scalar entries of the full matrix). */
    std::int64_t nnz() const { return bcsr_.nnz(); }

    /**
     * y = K x with the chosen kernel, on the calling thread.  x and y
     * hold dof() entries each; y is overwritten.  This is the suite's
     * one kernel dispatch: run(), measure() and the T_f benches all
     * go through it.
     */
    void multiply(Kernel kernel, const double *x, double *y) const;

    /** y = K x with the chosen kernel. */
    std::vector<double> run(Kernel kernel,
                            const std::vector<double> &x) const;

    /**
     * Measure T_f for a kernel: `repetitions` back-to-back SMVPs over a
     * deterministic random vector, timed with the steady clock.  The
     * flop count is the paper's F = 2m regardless of format, so formats
     * with less memory traffic show a smaller T_f for identical
     * arithmetic.
     */
    KernelTiming measure(Kernel kernel, int repetitions) const;

    /**
     * Measure every kernel variant on the assembled matrix and return
     * the fastest.  Before any timed measurement, every kernel gets one
     * discarded warm-up run, so the first-measured kernel does not pay
     * the cold-cache cost the later ones skip.  Ties break by enum
     * order, never by measurement order, so the verdict is independent
     * of the order kernels are measured in.  This is how a host's
     * honest T_f is obtained for the §4 requirement sweeps.
     */
    AutotuneResult autotune(int repetitions = 3) const;

    /** Autotune an explicit subset/order of kernels (same warm-up). */
    AutotuneResult autotune(const std::vector<Kernel> &kernels,
                            int repetitions) const;

    /** Injectable measurement, for testing the selection logic. */
    using MeasureFn = std::function<KernelTiming(Kernel, int)>;

    /**
     * The autotuner's selection logic, measurement injected: measure
     * each kernel of `kernels` in order with `measure`, pick the
     * smallest secondsPerSmvp, break exact ties by enum order.  With a
     * deterministic `measure`, the verdict is a pure function of the
     * kernel SET — permuting `kernels` cannot change it (regression
     * test for the cold-start ordering bug; entries stay in call order).
     */
    static AutotuneResult selectBest(const std::vector<Kernel> &kernels,
                                     int repetitions,
                                     const MeasureFn &measure);

    const sparse::Bcsr3Matrix &bcsr() const { return bcsr_; }
    const sparse::CsrMatrix &csr() const { return csr_; }
    const sparse::SymCsrMatrix &sym() const { return sym_; }
    const sparse::SymBcsr3Matrix &symBcsr() const { return sym_bcsr_; }
    const sparse::SlicedEll3Matrix &slicedEll() const { return ell_; }

  private:
    sparse::Bcsr3Matrix bcsr_;
    sparse::CsrMatrix csr_;
    sparse::SymCsrMatrix sym_;
    sparse::SymBcsr3Matrix sym_bcsr_;
    sparse::SlicedEll3Matrix ell_;
};

} // namespace quake::spark

#endif // QUAKE98_SPARK_KERNELS_H_
