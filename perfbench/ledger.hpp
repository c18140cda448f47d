#pragma once
// The benchmark's own measurement ledger: in-memory spans recorded around
// calls into the xfci layers, sample statistics, and the per-run report
// (metrics, deterministic counters, correctness checks).
//
// Spans live on tracks.  Track 0 is the benchmark's own thread; serve
// workers get tracks 1..W, reconstructed from the engine's per-job
// timings.  A span's self time is its duration minus the union of its
// same-track children, so on every track the self times of one root's
// spans sum to at most the root's wall time.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  std::string name;
  std::string scope;  ///< job the span belongs to; empty: the workload
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the parent span, -1 for a root
  int track = 0;
  double seconds() const { return end - start; }
};

class SpanLog {
 public:
  /// Opens a span on track 0 now; its parent is the innermost open span.
  int open(std::string name, std::string scope);
  void close(int id);
  /// Records a finished span (serve jobs, timed by the engine).
  int add(Span span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the union of same-track children, per span.
  std::vector<double> self_times() const;
  /// Empty when every child lies inside its parent, same-track siblings
  /// do not overlap, and per root and track the self times sum to at most
  /// the root's wall time; otherwise the first violation.
  std::string span_error() const;
  /// Indices of the spans named `name` whose root is `root`.
  std::vector<int> find(const std::string& name, int root) const;
  int root_of(int id) const;
  /// Share of root `root`'s wall time not covered by the self time of
  /// its track-0 descendants (the benchmark's own code between calls).
  double unaccounted_share(int root) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that is a no-op timer when `log` is null (untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::string scope = {});
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }
  /// Closes the span (once) and returns its duration in seconds.
  double stop();

 private:
  SpanLog* log_;
  int id_ = -1;
  double start_;
  double seconds_ = -1.0;
};

double median(std::vector<double> v);
/// Linear-interpolation quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// What one invocation reports: metrics by name, the deterministic work
/// counters, and every correctness check made.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A work count the code defines as repeating exactly for a given
  /// workload and seed (the benchmark's test compares two runs).
  void counter(const std::string& name, double value);
  /// A value recorded for the ledger that is not required to repeat.
  void observation(const std::string& name, double value);
  /// The per-unit-of-work values a metric was reduced from.
  void samples(const std::string& name, std::vector<double> values);
  /// One attempted operation or output check.  `wrong_output` marks a
  /// failure that means a wrong result rather than a refused or
  /// unconverged one; it makes the run incorrect.
  void check(bool ok, const std::string& what, bool wrong_output = true);

  bool correct() const { return correct_; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }
  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, double>& observations() const {
    return observations_;
  }
  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> observations_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  bool correct_ = true;
};

/// Process high-water resident set in MB.
double peak_rss_mb();

}  // namespace perfbench
