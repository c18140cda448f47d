#include "linalg/gemm.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/metric_names.hpp"
#include "common/telemetry.hpp"
#include "linalg/gemm_kernels.hpp"

namespace xfci::linalg {
namespace {

// Cache-blocking parameters.  MC x KC panel of A lives in L2; KC x NC panel
// of B in L3; the micro-kernel updates an MR x NR register tile (MR/NR come
// from the dispatched kernel; MC is a multiple of every kernel's MR and NC
// of every NR, so panel strides stay uniform).
constexpr std::size_t kMc = 128;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 2048;

std::size_t round_up(std::size_t x, std::size_t q) {
  return (x + q - 1) / q * q;
}

// Telemetry for the hot entry point.  Only reached when the registry is
// enabled, so the static/thread_local registrations never run (and a
// disabled run stays bitwise identical to an uninstrumented build).
// The dispatch counter is cached per (thread, kernel): set_gemm_kernel()
// can repoint the dispatcher mid-process, so the label is dynamic, but
// re-registration only happens on an actual switch.
void note_gemm_call(std::size_t m, std::size_t n, std::size_t k,
                    const char* kernel) {
  namespace metric = obs::metric;
  obs::Registry& reg = obs::telemetry();
  static obs::Counter calls = reg.counter(metric::kGemmCalls);
  static obs::Counter flops = reg.counter(metric::kGemmFlops);
  calls.inc();
  flops.inc(static_cast<std::uint64_t>(gemm_flops(m, n, k)));
  thread_local const char* cached_kernel = nullptr;
  thread_local obs::Counter dispatch;
  if (cached_kernel != kernel) {
    dispatch = reg.counter(metric::kGemmKernelDispatch,
                           {{metric::kLabelKernel, kernel}});
    cached_kernel = kernel;
  }
  dispatch.inc();
}

// Packs an mc x kc block of op(A) into column-panel-major order:
// consecutive MR-row strips, each strip stored kc-major so the micro-kernel
// streams it linearly.  Short strips are zero-padded to the kernel's MR.
void pack_a(bool trans, const double* a, std::size_t lda, std::size_t row0,
            std::size_t col0, std::size_t mc, std::size_t kc,
            std::size_t mr_blk, double* pa) {
  for (std::size_t i0 = 0; i0 < mc; i0 += mr_blk) {
    const std::size_t mr = std::min(mr_blk, mc - i0);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < mr; ++i) {
        const std::size_t r = row0 + i0 + i;
        const std::size_t c = col0 + p;
        *pa++ = trans ? a[c * lda + r] : a[r * lda + c];
      }
      for (std::size_t i = mr; i < mr_blk; ++i) *pa++ = 0.0;
    }
  }
}

// Packs a kc x nc block of op(B) into row-panel-major order: consecutive
// NR-column strips, each strip stored kc-major and zero-padded to NR.
void pack_b(bool trans, const double* b, std::size_t ldb, std::size_t row0,
            std::size_t col0, std::size_t kc, std::size_t nc,
            std::size_t nr_blk, double* pb) {
  for (std::size_t j0 = 0; j0 < nc; j0 += nr_blk) {
    const std::size_t nr = std::min(nr_blk, nc - j0);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < nr; ++j) {
        const std::size_t r = row0 + p;
        const std::size_t c = col0 + j0 + j;
        *pb++ = trans ? b[c * ldb + r] : b[r * ldb + c];
      }
      for (std::size_t j = nr; j < nr_blk; ++j) *pb++ = 0.0;
    }
  }
}

// Macro-kernel: C[0..mc, 0..nc] += alpha * packed_A * packed_B, driving
// the dispatched micro-kernel over the register-tile grid.  `c` is already
// offset to the block origin.
void macro_kernel(const GemmMicroKernel& kern, std::size_t mc, std::size_t nc,
                  std::size_t kc, double alpha, const double* pa_panel,
                  const double* pb_panel, double* c, std::size_t ldc) {
  for (std::size_t j0 = 0; j0 < nc; j0 += kern.nr) {
    const std::size_t nr = std::min(kern.nr, nc - j0);
    const double* pb = pb_panel + (j0 / kern.nr) * (kc * kern.nr);
    for (std::size_t i0 = 0; i0 < mc; i0 += kern.mr) {
      const std::size_t mr = std::min(kern.mr, mc - i0);
      const double* pa = pa_panel + (i0 / kern.mr) * (kc * kern.mr);
      kern.run(kc, pa, pb, alpha, c + i0 * ldc + j0, ldc, mr, nr);
    }
  }
}

// Pack buffers are per thread: the threaded sigma phases call gemm() from
// every worker at once, each on its own tasks.
thread_local std::vector<double> tl_pa_buf;
thread_local std::vector<double> tl_pb_buf;

void ensure_pack_buffers(const GemmMicroKernel& kern) {
  const std::size_t pa_need = round_up(kMc, kern.mr) * kKc + kern.mr * kKc;
  const std::size_t pb_need = round_up(kNc, kern.nr) * kKc + kern.nr * kKc;
  if (tl_pa_buf.size() < pa_need) tl_pa_buf.resize(pa_need);
  if (tl_pb_buf.size() < pb_need) tl_pb_buf.resize(pb_need);
}

// Debug-tier tile-bounds check for the macro-kernel loop: a tile that
// exceeds the operand shapes or a pack buffer smaller than the rounded-up
// panel would corrupt memory silently.
void dcheck_tile(const GemmMicroKernel& kern, std::size_t ic, std::size_t jc,
                 std::size_t pc, std::size_t mc, std::size_t nc,
                 std::size_t kc, std::size_t m, std::size_t n,
                 std::size_t k) {
  XFCI_DCHECK(ic + mc <= m && jc + nc <= n && pc + kc <= k,
              "gemm tile exceeds matrix bounds");
  XFCI_DCHECK(tl_pa_buf.size() >= round_up(mc, kern.mr) * kc &&
                  tl_pb_buf.size() >= round_up(nc, kern.nr) * kc,
              "gemm pack buffers too small for tile");
}

}  // namespace

GemmBlocking gemm_blocking() {
  const GemmMicroKernel& kern = active_gemm_kernel();
  return GemmBlocking{kMc, kKc, kNc, kern.mr, kern.nr};
}

void gemm(bool transa, bool transb, std::size_t m, std::size_t n,
          std::size_t k, double alpha, const double* a, std::size_t lda,
          const double* b, std::size_t ldb, double beta, double* c,
          std::size_t ldc) {
  // Contract (shared with gemm_reference): leading dimensions are only
  // required for operands that are actually touched.  C is touched whenever
  // m > 0 (beta scaling); A and B only when the product term contributes.
  const bool reads_ab = m != 0 && n != 0 && k != 0 && alpha != 0.0;
  XFCI_REQUIRE(ldc >= n || m == 0, "gemm: ldc too small");
  XFCI_REQUIRE(!reads_ab || lda >= (transa ? m : k),
               "gemm: lda too small for op(A)");
  XFCI_REQUIRE(!reads_ab || ldb >= (transb ? k : n),
               "gemm: ldb too small for op(B)");
  if (obs::telemetry().enabled()) {
    note_gemm_call(m, n, k, active_gemm_kernel().name);
  }
  // Scale C by beta first (handles alpha == 0 / k == 0 uniformly).
  if (beta == 0.0) {
    for (std::size_t i = 0; i < m; ++i)
      std::fill(c + i * ldc, c + i * ldc + n, 0.0);
  } else if (beta != 1.0) {
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) c[i * ldc + j] *= beta;
  }
  if (!reads_ab) return;

  const GemmMicroKernel& kern = active_gemm_kernel();
  ensure_pack_buffers(kern);
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      pack_b(transb, b, ldb, pc, jc, kc, nc, kern.nr, tl_pb_buf.data());
      for (std::size_t ic = 0; ic < m; ic += kMc) {
        const std::size_t mc = std::min(kMc, m - ic);
        dcheck_tile(kern, ic, jc, pc, mc, nc, kc, m, n, k);
        pack_a(transa, a, lda, ic, pc, mc, kc, kern.mr, tl_pa_buf.data());
        macro_kernel(kern, mc, nc, kc, alpha, tl_pa_buf.data(),
                     tl_pb_buf.data(), c + ic * ldc + jc, ldc);
      }
    }
  }
}

void gemm_reference(bool transa, bool transb, std::size_t m, std::size_t n,
                    std::size_t k, double alpha, const double* a,
                    std::size_t lda, const double* b, std::size_t ldb,
                    double beta, double* c, std::size_t ldc) {
  // Same degenerate-shape contract as gemm(): see the REQUIREs there.
  const bool reads_ab = m != 0 && n != 0 && k != 0 && alpha != 0.0;
  XFCI_REQUIRE(ldc >= n || m == 0, "gemm_reference: ldc too small");
  XFCI_REQUIRE(!reads_ab || lda >= (transa ? m : k),
               "gemm_reference: lda too small for op(A)");
  XFCI_REQUIRE(!reads_ab || ldb >= (transb ? k : n),
               "gemm_reference: ldb too small for op(B)");
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      if (reads_ab) {
        for (std::size_t p = 0; p < k; ++p) {
          const double av = transa ? a[p * lda + i] : a[i * lda + p];
          const double bv = transb ? b[j * ldb + p] : b[p * ldb + j];
          s += av * bv;
        }
      }
      c[i * ldc + j] = alpha * s + (beta == 0.0 ? 0.0 : beta * c[i * ldc + j]);
    }
  }
}

}  // namespace xfci::linalg
