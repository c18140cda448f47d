#pragma once
// Blocked double-precision general matrix multiply (row-major).
//
// xfci implements its own DGEMM so that (a) the library is self-contained
// (no vendor BLAS available on the target host), and (b) the Cray-X1 cost
// model can charge the exact (m, n, k) shapes the FCI sigma routines
// produce.  The implementation is a classic three-level blocked GEMM with
// A/B panel packing driving a runtime-dispatched register-tiled
// micro-kernel (portable scalar / AVX2 / AVX-512 -- see
// linalg/gemm_kernels.hpp for dispatch rules, pinning and the per-ISA
// determinism contract).
//
// gemm() runs serially on the calling thread.  Parallelism lives one level
// up, as in the paper (§3): the sigma phases split their work items over
// ranks and threads, and each item's DGEMM runs on one worker.
//
// All matrices are row-major.  `ld*` are leading dimensions (row strides).

#include <cstddef>

namespace xfci::linalg {

/// C = alpha * op(A) * op(B) + beta * C, row-major.
///
/// op(A) is m x k, op(B) is k x n, C is m x n.  `transa`/`transb` select
/// op(X) = X or X^T; the leading dimension always refers to the stored
/// (untransposed) matrix.
void gemm(bool transa, bool transb, std::size_t m, std::size_t n,
          std::size_t k, double alpha, const double* a, std::size_t lda,
          const double* b, std::size_t ldb, double beta, double* c,
          std::size_t ldc);

/// Blocking parameters of the current configuration: cache blocks (mc, kc,
/// nc) and the dispatched kernel's register tile (mr, nr).  Tests use these
/// to build shape sweeps that straddle every block boundary.
struct GemmBlocking {
  std::size_t mc, kc, nc;  ///< L2 / panel / L3 cache blocks
  std::size_t mr, nr;      ///< register tile of the active micro-kernel
};
GemmBlocking gemm_blocking();

/// Reference triple-loop GEMM used to validate the blocked kernel in tests.
/// Shares gemm()'s degenerate-shape contract: ldc is only validated when
/// m > 0, and lda/ldb only when the product term actually reads A and B
/// (m, n, k all nonzero and alpha != 0).
void gemm_reference(bool transa, bool transb, std::size_t m, std::size_t n,
                    std::size_t k, double alpha, const double* a,
                    std::size_t lda, const double* b, std::size_t ldb,
                    double beta, double* c, std::size_t ldc);

/// Flop count of a gemm call (2*m*n*k), used by the X1 cost model.
inline double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace xfci::linalg
