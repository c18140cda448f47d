#pragma once
// The benchmark's workloads.  Each runs through the public entry points
// (scf::prepare_mo_system, fci::SolveSetup + SolveSession, serve::Engine,
// and fcp::run_parallel_fci in the traced probes), checks every energy,
// and reports the end-to-end metrics (untraced) or the per-layer metrics
// (traced).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measured loop length
  bool trace = false;
  std::size_t threads = 1;  ///< min(4, nproc)
  std::string work_dir;     ///< generated FCIDUMP inputs
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Runs `opt.workload`.  Metrics, counters and checks go to `report`;
/// traced runs also record their spans in `log`.
void run_workload(const RunOptions& opt, Report& report, SpanLog& log);

}  // namespace perfbench
