#include "spark/kernels.h"

#include <chrono>
#include <iterator>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "sparse/assembly.h"

namespace quake::spark
{

std::string
kernelName(Kernel kernel)
{
    switch (kernel) {
      case Kernel::kCsr: return "smv-csr";
      case Kernel::kBcsr3: return "smv-bcsr3";
      case Kernel::kSym: return "smv-sym";
      case Kernel::kSymBcsr3: return "smv-bcsr3sym";
      case Kernel::kSlicedEll3: return "smv-ell3";
      case Kernel::kSymBcsr3Simd: return "smv-bcsr3sym-simd";
    }
    QUAKE_PANIC("unknown kernel");
}

KernelSuite::KernelSuite(const mesh::TetMesh &mesh,
                         const mesh::SoilModel &model, double poisson)
    : bcsr_(sparse::assembleStiffness(mesh, model, poisson)),
      csr_(bcsr_.toCsr()),
      sym_(sparse::SymCsrMatrix::fromCsr(csr_, 1e-9)),
      sym_bcsr_(sparse::SymBcsr3Matrix::fromBcsr3(bcsr_, 1e-9)),
      ell_(sparse::SlicedEll3Matrix::fromBcsr3(bcsr_))
{
}

void
KernelSuite::multiply(Kernel kernel, const double *x, double *y) const
{
    switch (kernel) {
      case Kernel::kCsr:
        sparse::smvpCsr(csr_, x, y);
        return;
      case Kernel::kBcsr3:
        sparse::smvpBcsr3(bcsr_, x, y);
        return;
      case Kernel::kSym:
        sparse::smvpSym(sym_, x, y);
        return;
      case Kernel::kSymBcsr3:
        sym_bcsr_.multiply(x, y);
        return;
      case Kernel::kSlicedEll3:
        ell_.multiply(x, y);
        return;
      case Kernel::kSymBcsr3Simd:
        sym_bcsr_.multiplySimd(x, y);
        return;
    }
    QUAKE_PANIC("unknown kernel");
}

std::vector<double>
KernelSuite::run(Kernel kernel, const std::vector<double> &x) const
{
    QUAKE_EXPECT(static_cast<std::int64_t>(x.size()) == dof(),
                 "x has " << x.size() << " entries, expected " << dof());
    std::vector<double> y(x.size());
    multiply(kernel, x.data(), y.data());
    return y;
}

KernelTiming
KernelSuite::measure(Kernel kernel, int repetitions) const
{
    QUAKE_EXPECT(repetitions >= 1, "need at least one repetition");

    std::vector<double> x(static_cast<std::size_t>(dof()));
    quake::common::SplitMix64 rng(0x5fa9c98ULL);
    for (double &v : x)
        v = rng.uniform(-1.0, 1.0);
    std::vector<double> y(x.size());

    auto run_once = [&] { multiply(kernel, x.data(), y.data()); };

    run_once(); // warm the caches once, as a measurement would

    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repetitions; ++r)
        run_once();
    const auto t1 = std::chrono::steady_clock::now();

    KernelTiming timing;
    timing.secondsPerSmvp =
        std::chrono::duration<double>(t1 - t0).count() / repetitions;
    // The paper counts F = 2m for every format: the arithmetic is
    // identical; only the memory traffic differs.
    timing.flops = 2 * nnz();
    timing.tf = timing.secondsPerSmvp / static_cast<double>(timing.flops);
    timing.mflops = 1.0 / (timing.tf * 1e6);
    return timing;
}

AutotuneResult
KernelSuite::selectBest(const std::vector<Kernel> &kernels,
                        int repetitions, const MeasureFn &measure)
{
    QUAKE_EXPECT(!kernels.empty(), "no kernels to autotune");
    AutotuneResult result;
    bool first = true;
    for (Kernel kernel : kernels) {
        AutotuneEntry entry;
        entry.kernel = kernel;
        entry.timing = measure(kernel, repetitions);
        // Strictly faster wins; exact ties break by enum order — never
        // by measurement order, so permuting `kernels` cannot change
        // the verdict (given a deterministic measure).
        const bool better =
            first ||
            entry.timing.secondsPerSmvp <
                result.bestTiming.secondsPerSmvp ||
            (entry.timing.secondsPerSmvp ==
                 result.bestTiming.secondsPerSmvp &&
             static_cast<int>(kernel) < static_cast<int>(result.best));
        if (better) {
            result.best = kernel;
            result.bestTiming = entry.timing;
            first = false;
        }
        result.entries.push_back(std::move(entry));
    }
    return result;
}

AutotuneResult
KernelSuite::autotune(const std::vector<Kernel> &kernels,
                      int repetitions) const
{
    // Discarded warm-up pass over every contender BEFORE any timed
    // measurement: without it, the first-measured kernel paid the
    // cold-cache cost alone and could lose unfairly.
    for (Kernel kernel : kernels)
        (void)measure(kernel, 1);
    return selectBest(kernels, repetitions,
                      [this](Kernel kernel, int reps) {
                          return measure(kernel, reps);
                      });
}

AutotuneResult
KernelSuite::autotune(int repetitions) const
{
    return autotune(std::vector<Kernel>(std::begin(kAllKernels),
                                        std::end(kAllKernels)),
                    repetitions);
}

} // namespace quake::spark
