// Native kernel microbenchmarks: the DGEMM vs DAXPY vs indexed
// gather/scatter rates that motivate the paper's algorithm (section 2.1),
// plus the sigma building blocks.  These are real wall-clock measurements
// on this host, not simulated X1 numbers.
//
// The GEMM section sweeps every compiled-and-supported micro-kernel
// (portable / avx2 / avx512, see linalg/gemm_kernels.hpp) over sigma-build
// class shapes and reports a roofline-style table: GFLOP/s next to the
// arithmetic intensity of each shape and the streaming-bandwidth ceiling
// measured by the daxpy section.  Rows mirror into BENCH_kernels.json
// (schema xfci-bench-v1, validated by tools/check_trace.py --bench).
//
// Flags:
//   --smoke        tiny shapes / single rep, for CI smoke runs
//   --json PATH    report path (default BENCH_kernels.json)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fci/fci.hpp"
#include "integrals/boys.hpp"
#include "linalg/gemm.hpp"
#include "linalg/gemm_kernels.hpp"
#include "linalg/kernels.hpp"
#include "systems/standard_systems.hpp"

namespace xl = xfci::linalg;
namespace xf = xfci::fci;
namespace xs = xfci::systems;
namespace xb = xfci::bench;

namespace {

struct Shape {
  std::size_t m, n, k;
};

/// Times fn in batches and returns the best seconds-per-call over them.
/// A batch is calibrated to ~min_seconds / 20 of wall clock (at least one
/// call); then batches run until both kMinBatches have run and
/// 3 * min_seconds of measurement have passed, ~60 batches when a call is
/// short.  Best-of rather than mean: on a shared host the interesting
/// number is the machine's rate, not the scheduler's, and the minimum over
/// many short batches is the lowest-noise estimator of it.
constexpr int kMinBatches = 15;

template <typename Fn>
double time_per_call(Fn&& fn, double min_seconds) {
  fn();  // warm up: page in buffers, settle the dispatch
  const double batch_seconds = min_seconds / 20.0;
  int iters = 1;
  double best = 0.0;
  for (;;) {
    xfci::Timer t;
    for (int i = 0; i < iters; ++i) fn();
    const double s = t.seconds();
    if (s >= batch_seconds || iters >= (1 << 20)) {
      best = s / iters;
      break;
    }
    iters = (s <= 0.0) ? iters * 8 : iters * 2;
  }
  xfci::Timer measured;
  for (int batch = 0;
       batch < kMinBatches || measured.seconds() < 3.0 * min_seconds;
       ++batch) {
    xfci::Timer t;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, t.seconds() / iters);
  }
  return best;
}

/// Flops per byte of compulsory traffic (read A and B, write C once).
double arithmetic_intensity(const Shape& s) {
  const double bytes =
      8.0 * (static_cast<double>(s.m) * static_cast<double>(s.k) +
             static_cast<double>(s.k) * static_cast<double>(s.n) +
             static_cast<double>(s.m) * static_cast<double>(s.n));
  return xl::gemm_flops(s.m, s.n, s.k) / bytes;
}

double bench_gemm_shape(const Shape& s, double min_seconds) {
  std::vector<double> a(s.m * s.k, 1.01), b(s.k * s.n, 0.99),
      c(s.m * s.n, 0.0);
  return time_per_call(
      [&] {
        xl::gemm(false, false, s.m, s.n, s.k, 1.0, a.data(), s.k, b.data(),
                 s.n, 1.0, c.data(), s.n);
      },
      min_seconds);
}

const xs::PreparedSystem& bench_system() {
  static const xs::PreparedSystem sys = [] {
    xs::SpaceOptions o;
    o.basis = "x-dz";
    o.freeze_core = 1;
    o.max_orbitals = 12;
    return xs::oxygen_atom(o);
  }();
  return sys;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  const double min_s = smoke ? 0.01 : 0.25;
  xfci::Timer total;
  xb::BenchReport report("kernels");
  report.config_str("mode", smoke ? "smoke" : "full");

  // --- Streaming and scatter rates: the memory-side roofline context. ---
  std::printf("== streaming kernels ==\n");
  {
    const std::size_t n = smoke ? (1u << 16) : (1u << 22);
    std::vector<double> x(n, 1.1), y(n, 0.2);
    const double s = time_per_call(
        [&] { xl::daxpy_n(n, 1.000001, x.data(), y.data()); }, min_s);
    // daxpy moves 3 doubles per element: load x, load y, store y.
    const double gbs = 24.0 * static_cast<double>(n) / s / 1e9;
    const double gfs = 2.0 * static_cast<double>(n) / s / 1e9;
    std::printf("daxpy      n=%-9zu %8.2f GB/s  %6.2f GF/s\n", n, gbs, gfs);
    report.config_num("daxpy_gbs", gbs);
    report.config_num("daxpy_gflops", gfs);
  }
  {
    const std::size_t n = smoke ? (1u << 14) : (1u << 20);
    xfci::Rng rng(3);
    std::vector<double> in(n), alpha(n), out(2 * n, 0.0);
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = rng.uniform(-1, 1);
      alpha[i] = rng.uniform(-1, 1);
      idx[i] = static_cast<std::uint32_t>(rng.index(2 * n));
    }
    const double s =
        time_per_call([&] { xl::scatter_axpy(in, idx, alpha, out); }, min_s);
    const double mops = static_cast<double>(n) / s / 1e6;
    std::printf("scatter    n=%-9zu %8.1f Mops/s\n", n, mops);
    report.config_num("scatter_mops", mops);
  }
  {
    std::vector<double> f(12);
    double x = 0.0;
    const double s = time_per_call(
        [&] {
          xfci::integrals::boys(x, f);
          x += 0.1;
          if (x > 60.0) x = 0.0;
        },
        min_s);
    std::printf("boys       per call    %8.1f ns\n", s * 1e9);
    report.config_num("boys_ns", s * 1e9);
  }

  // --- GEMM micro-kernel sweep: every dispatched kernel, roofline rows. ---
  const std::vector<Shape> shapes =
      smoke ? std::vector<Shape>{{64, 64, 64}, {96, 80, 72}}
            : std::vector<Shape>{{128, 128, 128},
                                 {256, 256, 256},
                                 {512, 512, 512},
                                 {512, 512, 64},
                                 {384, 2048, 256}};
  const auto kernels = xl::gemm_kernel_names();
  report.config_str("default_kernel", xl::gemm_kernel_name());

  std::printf("\n== gemm micro-kernels (roofline: daxpy bw is the memory"
              " ceiling) ==\n");
  std::printf("%-10s %6s %6s %6s %10s %9s %10s\n", "kernel", "m", "n", "k",
              "GF/s", "AI(f/B)", "vs-port");
  // kernel-major order keeps each kernel's frequency/dispatch state warm
  // across its shapes; portable runs first so the speedup column has its
  // baseline.
  std::vector<double> portable_gflops(shapes.size(), 0.0);
  for (const auto& name : kernels) {
    xl::set_gemm_kernel(name);
    for (std::size_t si = 0; si < shapes.size(); ++si) {
      const Shape& s = shapes[si];
      const double sec = bench_gemm_shape(s, min_s);
      const double gf = xl::gemm_flops(s.m, s.n, s.k) / sec / 1e9;
      if (name == "portable") portable_gflops[si] = gf;
      const double speedup =
          portable_gflops[si] > 0.0 ? gf / portable_gflops[si] : 1.0;
      std::printf("%-10s %6zu %6zu %6zu %10.2f %9.2f %9.2fx\n",
                  name.c_str(), s.m, s.n, s.k, gf, arithmetic_intensity(s),
                  speedup);
      report.begin_row();
      report.col_str("kernel", name);
      report.col("m", static_cast<double>(s.m));
      report.col("n", static_cast<double>(s.n));
      report.col("k", static_cast<double>(s.k));
      report.col("seconds", sec);
      report.col("gflops", gf);
      report.col("ai_flops_per_byte", arithmetic_intensity(s));
      report.col("speedup_vs_portable", speedup);
    }
  }
  xl::set_gemm_kernel("");  // restore the cpuid-dispatched default

  // --- Sigma building blocks on the oxygen-atom bench system. ---
  std::printf("\n== sigma building blocks (oxygen atom, x-dz) ==\n");
  {
    const auto& sys = bench_system();
    const xf::CiSpace space(sys.tables.norb, sys.nalpha, sys.nbeta,
                            sys.tables.group, sys.tables.orbital_irreps, 0);
    const xf::SigmaContext ctx(space, sys.tables);
    xfci::Rng rng(5);
    const auto c = rng.signed_vector(space.dimension());
    std::vector<double> sv(c.size());
    const auto dg = xf::make_sigma(xf::Algorithm::kDgemm, ctx);
    const double s_dg =
        time_per_call([&] { dg->apply(c, sv); }, min_s);
    const auto moc = xf::make_sigma(xf::Algorithm::kMoc, ctx);
    const double s_moc =
        time_per_call([&] { moc->apply(c, sv); }, min_s);
    // A SigmaContext builds both of its orientations, so this times both.
    const double s_ctx = time_per_call(
        [&] { xf::SigmaContext rebuilt(space, sys.tables); }, min_s);
    std::printf("sigma_dgemm   %12s   (%zu dets)\n",
                xb::fmt_seconds(s_dg).c_str(), space.dimension());
    std::printf("sigma_moc     %12s\n", xb::fmt_seconds(s_moc).c_str());
    std::printf("context build %12s\n", xb::fmt_seconds(s_ctx).c_str());
    report.config_num("sigma_dgemm_seconds", s_dg);
    report.config_num("sigma_moc_seconds", s_moc);
    report.config_num("sigma_dets", static_cast<double>(space.dimension()));
  }

  report.write(json_path, total.seconds());
  return 0;
}
