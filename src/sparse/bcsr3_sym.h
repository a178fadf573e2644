/**
 * @file
 * Symmetric 3x3-block CSR storage — the register-blocked analogue of
 * SymCsrMatrix.  The stiffness matrix K is symmetric (paper §2.2), so
 * only the upper block triangle (diagonal blocks included) is stored;
 * the SMVP visits each stored off-diagonal block once and applies both
 * the block (to y[row]) and its transpose (to y[col]).  Relative to
 * scalar symmetric CSR this replaces nine column indices with one and
 * turns the inner loop into unrolled 3x3 dense arithmetic — the layout
 * the paper's T_f measurements reward.
 */

#ifndef QUAKE98_SPARSE_BCSR3_SYM_H_
#define QUAKE98_SPARSE_BCSR3_SYM_H_

#include <cstdint>
#include <vector>

#include "sparse/bcsr3.h"

namespace quake::sparse
{

/** Symmetric sparse matrix of 3x3 blocks, upper block triangle stored. */
class SymBcsr3Matrix
{
  public:
    SymBcsr3Matrix() = default;

    /**
     * Build from a full BCSR3 matrix; block symmetry (block(j,i) ==
     * block(i,j)^T entrywise within `tolerance`) is checked.
     */
    static SymBcsr3Matrix fromBcsr3(const Bcsr3Matrix &full,
                                    double tolerance = 0.0);

    std::int64_t numBlockRows() const { return block_rows_; }

    /** Scalar dimension (3 per block row). */
    std::int64_t numRows() const { return 3 * block_rows_; }

    /** Stored 3x3 blocks (upper triangle including the diagonal). */
    std::int64_t
    storedBlocks() const
    {
        return static_cast<std::int64_t>(block_cols_.size());
    }

    /** Scalar entries of the stored half: 9 per block. */
    std::int64_t storedEntries() const { return 9 * storedBlocks(); }

    const std::vector<std::int64_t> &xadj() const { return xadj_; }
    const std::vector<std::int32_t> &blockCols() const { return block_cols_; }

    /** The 3x3 block at storage slot k (row-major 9 doubles). */
    const double *blockAt(std::int64_t k) const { return &values_[9 * k]; }

    /** y = A x on scalar vectors of length numRows(); y is overwritten. */
    void multiply(const double *x, double *y) const;

    /**
     * y = A x through the explicitly vectorized scatter kernel (AVX2
     * FMAs for the transposed y[col] updates, vector row accumulators
     * folded by a horizontal sum) when the build and host support it;
     * falls back to the portable scalar scatter otherwise — so this is
     * always safe to call.  The vector path reorders the summation, so
     * its result matches multiply() within ULP tolerance, not bitwise;
     * against itself it is deterministic (the dispatch is fixed per
     * process).  Registered as spark::Kernel::kSymBcsr3Simd.
     */
    void multiplySimd(const double *x, double *y) const;

    /** Convenience overload on vectors; sizes are checked. */
    std::vector<double> multiply(const std::vector<double> &x) const;

    /**
     * Scatter the contributions of block rows [row_begin, row_end) into
     * y WITHOUT zeroing it first: y[row] accumulates the row sweep and
     * y[col] the transposed scatter.  multiply() runs it over every
     * block row after zeroing y.
     */
    void multiplyRowsScatter(const double *x, double *y,
                             std::int64_t row_begin,
                             std::int64_t row_end) const;

    /**
     * Fused time step: one ascending sweep over all block rows that
     * computes y = A x (bitwise identical to multiply()) and applies
     * `su` to each block row's DOFs the moment the row is final.  With
     * upper-triangle storage a row's y value is complete right after
     * its own sweep — every transposed scatter into y[r] comes from a
     * row < r — so the update runs while the row is still in cache.
     * `y` is the caller's ku scratch (length numRows()); the scatter
     * needs it, but no second O(n) update pass ever reads it back.
     */
    StepPartials multiplyFusedStep(const StepUpdate &su, double *y) const;

  private:
    std::int64_t block_rows_ = 0;
    std::vector<std::int64_t> xadj_;
    std::vector<std::int32_t> block_cols_;
    std::vector<double> values_; ///< 9 doubles per block, row-major
};

} // namespace quake::sparse

#endif // QUAKE98_SPARSE_BCSR3_SYM_H_
