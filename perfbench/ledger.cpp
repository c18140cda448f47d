#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

// Children on another track (serve jobs inside a drain) are timed by the
// engine's clock, so they may straddle their parent by a few microseconds.
constexpr double kSameTrackSlack = 1e-9;
constexpr double kCrossTrackSlack = 1e-3;

}  // namespace

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

int SpanLog::open(std::string name, std::string scope) {
  Span s;
  s.name = std::move(name);
  s.scope = std::move(scope);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now_s();
  s.end = s.start;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end = now_s();
  open_.pop_back();
}

int SpanLog::add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanLog::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> covered(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (p.track != s.track) continue;
    covered[static_cast<std::size_t>(s.parent)].emplace_back(
        std::max(s.start, p.start), std::min(s.end, p.end));
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    double busy = 0.0, reach = -1e300;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      if (b > from) busy += b - from;
      reach = std::max(reach, b);
    }
    self[i] = spans_[i].seconds() - busy;
  }
  return self;
}

std::string SpanLog::span_error() const {
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>>
      siblings;  // (parent, track) -> child intervals
  for (const Span& s : spans_) {
    if (s.end < s.start) return s.name + " ends before it starts";
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const double slack =
        p.track == s.track ? kSameTrackSlack : kCrossTrackSlack;
    if (s.start < p.start - slack || s.end > p.end + slack)
      return s.name + " is not inside its parent " + p.name;
    siblings[{s.parent, s.track}].emplace_back(s.start, s.end);
  }
  for (auto& [key, iv] : siblings) {
    std::sort(iv.begin(), iv.end());
    for (std::size_t i = 1; i < iv.size(); ++i)
      if (iv[i].first < iv[i - 1].second - kSameTrackSlack)
        return "overlapping siblings under " +
               spans_[static_cast<std::size_t>(key.first)].name;
  }
  const auto self = self_times();
  std::map<std::pair<int, int>, double> busy;  // (root, track) -> self time
  for (std::size_t i = 0; i < spans_.size(); ++i)
    busy[{root_of(static_cast<int>(i)), spans_[i].track}] += self[i];
  for (const auto& [key, seconds] : busy) {
    const Span& root = spans_[static_cast<std::size_t>(key.first)];
    const double slack =
        key.second == root.track ? kSameTrackSlack : kCrossTrackSlack;
    if (seconds > root.seconds() + slack)
      return "self times on track " + std::to_string(key.second) +
             " exceed the wall time of " + root.name;
  }
  return {};
}

int SpanLog::root_of(int id) const {
  while (spans_[static_cast<std::size_t>(id)].parent >= 0)
    id = spans_[static_cast<std::size_t>(id)].parent;
  return id;
}

std::vector<int> SpanLog::find(const std::string& name, int root) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name && root_of(static_cast<int>(i)) == root)
      out.push_back(static_cast<int>(i));
  return out;
}

double SpanLog::unaccounted_share(int root) const {
  const Span& r = spans_[static_cast<std::size_t>(root)];
  return self_times()[static_cast<std::size_t>(root)] /
         std::max(r.seconds(), 1e-12);
}

Scope::Scope(SpanLog* log, const char* name, std::string scope)
    : log_(log), start_(now_s()) {
  if (log_ != nullptr) id_ = log_->open(name, std::move(scope));
}

double Scope::stop() {
  if (seconds_ < 0.0) {
    if (log_ != nullptr) {
      log_->close(id_);
      const Span& s = log_->spans()[static_cast<std::size_t>(id_)];
      seconds_ = s.seconds();
    } else {
      seconds_ = now_s() - start_;
    }
  }
  return seconds_;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::counter(const std::string& name, double value) {
  counters_[name] = value;
}

void Report::observation(const std::string& name, double value) {
  observations_[name] = value;
}

void Report::samples(const std::string& name, std::vector<double> values) {
  samples_[name] = std::move(values);
}

void Report::check(bool ok, const std::string& what, bool wrong_output) {
  ++attempted_;
  if (ok) return;
  failures_.push_back(what);
  if (wrong_output) correct_ = false;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
