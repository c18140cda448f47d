#pragma once
// Telemetry handles shared by the Ddi backends (DESIGN.md §16).
//
// Each backend instance owns one of these, created at construction with
// its `backend` label ("sim" / "threads" / "process"), and ticks it next
// to the accounting it already does: op/word counters in get/acc,
// task reassignment in run_pool recovery.  Failure-domain counters that
// are backend-agnostic (retransmits, ranks lost) are incremented by the
// phase engines instead, which see every backend through the same
// recovery path — so no series is double-counted.
//
// Writes drop behind one predicted branch while telemetry is disabled;
// none of this charges simulated time, so sim-backend trajectories are
// bitwise identical with or without it.

#include <cstdint>

#include "common/metric_names.hpp"
#include "common/telemetry.hpp"

namespace xfci::pv {

struct DdiTelemetry {
  enum Op { kGet = 0, kAcc = 1 };

  obs::Counter ops[2];
  obs::Counter words[2];
  obs::Counter tasks_reassigned;

  static DdiTelemetry make(const char* backend) {
    namespace m = obs::metric;
    obs::Registry& reg = obs::telemetry();
    DdiTelemetry t;
    const char* kOpNames[2] = {"get", "acc"};
    for (int i = 0; i < 2; ++i) {
      t.ops[i] = reg.counter(m::kDdiOps, {{m::kLabelOp, kOpNames[i]},
                                          {m::kLabelBackend, backend}});
      t.words[i] = reg.counter(m::kDdiWords, {{m::kLabelOp, kOpNames[i]},
                                              {m::kLabelBackend, backend}});
    }
    t.tasks_reassigned =
        reg.counter(m::kDdiTasksReassigned, {{m::kLabelBackend, backend}});
    return t;
  }

  void note_op(Op op, double words_moved) {
    ops[op].inc();
    words[op].inc(static_cast<std::uint64_t>(words_moved));
  }
};

}  // namespace xfci::pv
