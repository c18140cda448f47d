// xfci_bench: one workload of the xfci benchmark per invocation.
//
//   xfci_bench --workload NAME --seed N --seconds S --trace 0|1
//              --work-dir DIR --out FILE
//
// Prints the host fingerprint and a metric table, then, as the last line,
// {"correct", "attempted", "failed", "metrics"}.  FILE receives the same
// result plus the fingerprint, the deterministic counter ledger and (traced
// runs) every span.  Exit status: 0 when every output check passed, 1 on a
// wrong result, 2 on a usage or runtime error.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/metrics.hpp"
#include "ledger.hpp"
#include "linalg/gemm_kernels.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;
using perfbench::RunOptions;
using perfbench::SpanLog;

struct Host {
  std::string cpu;
  std::size_t nproc = 1;
  std::string compiler = XFCI_BENCH_COMPILER;
  std::string flags = XFCI_BENCH_FLAGS;
  std::string build_type = XFCI_BENCH_BUILD_TYPE;
  std::string gemm_kernel;
};

Host fingerprint() {
  Host h;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    h.cpu = line.substr(line.find(':') + 2);
    break;
  }
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    h.nproc = static_cast<std::size_t>(CPU_COUNT(&set));
  else
    h.nproc = std::max(1u, std::thread::hardware_concurrency());
  h.gemm_kernel = xfci::linalg::gemm_kernel_name();
  return h;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "xfci_bench: %s\nusage: xfci_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --out FILE\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0')
    usage(flag + " needs a non-negative integer");
  return n;
}

void write_metrics(xfci::obs::JsonWriter& w, const Report& r) {
  w.key("metrics").begin_object();
  for (const auto& [name, vu] : r.metrics()) {
    w.key(name).begin_object();
    w.key("value").num(vu.first);
    w.key("unit").str(vu.second);
    w.end_object();
  }
  w.end_object();
}

void write_summary(xfci::obs::JsonWriter& w, const Report& r) {
  w.key("correct").boolean(r.correct());
  w.key("attempted").uint(r.attempted());
  w.key("failed").uint(r.failed());
  write_metrics(w, r);
}

void write_ledger(const std::string& path, const RunOptions& o,
                  const Host& h, const Report& r, const SpanLog& log) {
  xfci::obs::JsonWriter w;
  w.begin_object();
  w.key("schema").str("xfci-perfbench-v1");
  w.key("workload").str(o.workload);
  w.key("seed").uint(o.seed);
  w.key("seconds").num(o.seconds);
  w.key("trace").boolean(o.trace);
  w.key("host").begin_object();
  w.key("cpu").str(h.cpu);
  w.key("nproc").uint(h.nproc);
  w.key("threads").uint(o.threads);
  w.key("compiler").str(h.compiler);
  w.key("flags").str(h.flags);
  w.key("build_type").str(h.build_type);
  w.key("gemm_kernel").str(h.gemm_kernel);
  w.end_object();
  write_summary(w, r);
  w.key("failures").begin_array();
  for (const auto& f : r.failures()) w.str(f);
  w.end_array();
  w.key("counters").begin_object();
  for (const auto& [k, v] : r.counters()) w.key(k).num(v);
  w.end_object();
  w.key("observations").begin_object();
  for (const auto& [k, v] : r.observations()) w.key(k).num(v);
  w.end_object();
  w.key("samples").begin_object();
  for (const auto& [k, v] : r.samples()) {
    w.key(k).begin_array();
    for (const double x : v) w.num(x);
    w.end_array();
  }
  w.end_object();
  const auto self = log.self_times();
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const auto& s = log.spans()[i];
    w.begin_object();
    w.key("name").str(s.name);
    w.key("scope").str(s.scope.empty() ? o.workload : s.scope);
    w.key("start").num(s.start);
    w.key("end").num(s.end);
    w.key("parent").num(s.parent);
    w.key("track").num(s.track);
    w.key("self").num(self[i]);
    w.end_object();
  }
  w.end_array();
  w.key("span_error").str(log.span_error());
  w.end_object();
  std::ofstream os(path);
  os << w.str_ref() << "\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_count(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_count(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = v;
    } else if (flag == "--out") {
      out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || o.work_dir.empty() || out.empty())
    usage("--workload, --work-dir and --out are required");
  bool known = false;
  for (const auto& n : perfbench::workload_names()) known |= n == o.workload;
  if (!known) usage("unknown workload " + o.workload);

  const Host host = fingerprint();
  o.threads = std::min<std::size_t>(4, host.nproc);
  std::printf("host: %s | nproc %zu | %s | %s | %s | gemm kernel %s\n",
              host.cpu.c_str(), host.nproc, host.compiler.c_str(),
              host.build_type.c_str(), host.flags.c_str(),
              host.gemm_kernel.c_str());
  std::printf("workload %s, seed %llu, %g s, trace %d, %zu threads\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.threads);
  std::fflush(stdout);

  Report report;
  SpanLog log;
  try {
    perfbench::run_workload(o, report, log);
    const std::string spans = log.span_error();
    report.check(spans.empty(), "span check: " + spans);
    write_ledger(out, o, host, report, log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xfci_bench: %s\n", e.what());
    return 2;
  }

  for (const auto& [name, vu] : report.metrics())
    std::printf("  %-36s %14.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  std::printf("  %-36s %14.6g ratio (%zu of %zu)\n", "failed_share",
              static_cast<double>(report.failed()) /
                  static_cast<double>(report.attempted()),
              report.failed(), report.attempted());
  for (const auto& f : report.failures())
    std::printf("  FAILED: %s\n", f.c_str());

  xfci::obs::JsonWriter w;
  w.begin_object();
  write_summary(w, report);
  w.end_object();
  std::printf("%s\n", w.str_ref().c_str());
  return report.correct() ? 0 : 1;
}
