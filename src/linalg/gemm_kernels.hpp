#pragma once
// Register-blocked GEMM micro-kernels with runtime ISA dispatch.
//
// The blocked gemm() (gemm.cpp) drives one of several MR x NR micro-kernel
// variants over packed operand panels: a portable scalar tile that the
// compiler auto-vectorizes, a hand-written AVX2 4x8 FMA tile, and a
// hand-written AVX-512 8x16 tile.  The variant is selected once at runtime
// from cpuid (best available wins) and can be pinned for reproducibility:
//
//   * env var  XFCI_GEMM_KERNEL=portable|avx2|avx512   (read at first use)
//   * flag     --gemm-kernel NAME                      (shared DriverCli)
//   * code     linalg::set_gemm_kernel("portable")
//
// Determinism contract (DESIGN.md "The GEMM layer"): within one dispatched
// kernel, results are bitwise reproducible -- gemm() is one serial loop
// nest, so every C element accumulates its k-panels in one fixed order.
// Across kernels the summation *order* is identical but FMA contraction
// and register-tile width differ, so results agree only to rounding; pin
// the portable kernel when bitwise cross-machine reproducibility matters.
//
// SIMD intrinsics are fenced inside the gemm_kernels_*.cpp translation
// units (lint rule `simd`); the rest of the tree sees only this header.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace xfci::linalg {

/// One micro-kernel variant.  `run` computes the full MR x NR register tile
///   acc[i][j] = sum_p pa[p*mr + i] * pb[p*nr + j]      (p = 0..kc)
/// over zero-padded packed panels, then commits the `mr_eff` x `nr_eff`
/// valid corner: c[i*ldc + j] += alpha * acc[i][j].  Panels are packed
/// strip-major (pack_a/pack_b in gemm.cpp) with exactly this mr/nr.
struct GemmMicroKernel {
  const char* name;  ///< "portable", "avx2", "avx512"
  std::size_t mr;    ///< register-tile rows; A panels padded to this
  std::size_t nr;    ///< register-tile columns; B panels padded to this
  void (*run)(std::size_t kc, const double* pa, const double* pb,
              double alpha, double* c, std::size_t ldc, std::size_t mr_eff,
              std::size_t nr_eff);
};

/// The scalar fallback tile (always available; bitwise-identical to the
/// pre-dispatch micro-kernel this library shipped with).
const GemmMicroKernel* gemm_kernel_portable();

/// SIMD variants: nullptr when compiled out (XFCI_SIMD=OFF or a non-x86
/// target).  Whether the *CPU* supports them is the dispatcher's job; call
/// gemm_kernel_names() for the usable set.
const GemmMicroKernel* gemm_kernel_avx2();
const GemmMicroKernel* gemm_kernel_avx512();

/// Names of every kernel that is both compiled in and supported by this
/// CPU, portable first.  Each is a valid set_gemm_kernel() argument.
std::vector<std::string> gemm_kernel_names();

/// The kernel gemm() currently dispatches to.  First use resolves the
/// XFCI_GEMM_KERNEL environment override (unavailable names fall back to
/// portable with a warning on stderr), then picks the best supported
/// variant (avx512 > avx2 > portable).
const GemmMicroKernel& active_gemm_kernel();
const char* gemm_kernel_name();

/// Pins the dispatched kernel ("" re-runs the default selection).  Returns
/// false -- leaving the selection unchanged -- if `name` is unknown, not
/// compiled in, or unsupported by this CPU.  Not safe against concurrent
/// gemm() calls; select before going parallel.
bool set_gemm_kernel(std::string_view name);

}  // namespace xfci::linalg
