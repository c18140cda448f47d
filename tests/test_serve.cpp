// Tests for the serve layer (DESIGN.md §15): the shared SolveSetup /
// SolveSession split must be bitwise-equivalent to one-shot run_fci calls
// — including under concurrency — and the Engine's cache, priority
// scheduling, admission control and cancellation must behave as
// documented.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "fci/solve_session.hpp"
#include "fci_parallel/parallel_fci.hpp"
#include "integrals/fcidump.hpp"
#include "serve/engine.hpp"
#include "serve/setup_cache.hpp"

namespace xf = xfci::fci;
namespace xi = xfci::integrals;
namespace xp = xfci::fcp;
namespace xv = xfci::serve;

namespace {

// Same diagonally-dominant model Hamiltonian shape the solver tests use.
xi::IntegralTables model_tables(std::size_t norb, std::uint64_t seed) {
  xfci::Rng rng(seed);
  xi::IntegralTables t = xi::IntegralTables::empty(norb);
  for (std::size_t p = 0; p < norb; ++p) {
    t.h(p, p) = -2.0 + 0.7 * static_cast<double>(p);
    for (std::size_t q = 0; q < p; ++q) {
      const double v = 0.05 * rng.uniform(-1, 1);
      t.h(p, q) = v;
      t.h(q, p) = v;
    }
  }
  for (std::size_t p = 0; p < norb; ++p)
    for (std::size_t q = 0; q <= p; ++q)
      for (std::size_t r = 0; r <= p; ++r)
        for (std::size_t s = 0; s <= r; ++s) {
          const std::size_t pq = p * (p + 1) / 2 + q;
          const std::size_t rs = r * (r + 1) / 2 + s;
          if (rs > pq) continue;
          const double scale = (p == q && r == s) ? 0.3 : 0.05;
          t.eri.set(p, q, r, s, scale * rng.uniform(0, 1));
        }
  t.core_energy = 1.25;
  return t;
}

std::string write_dump(const std::string& name, std::uint64_t seed,
                       std::size_t norb = 5) {
  const std::string path = "/tmp/xfci_test_serve_" + name + ".fcidump";
  xi::write_fcidump(path, model_tables(norb, seed), 2, 2);
  return path;
}

}  // namespace

// --------------------------------------------------------------- cache --

TEST(SetupCache, HitsMissesAndSharing) {
  const auto tables = model_tables(6, 1);
  xv::SetupCache cache(4);
  xv::SetupKey key;
  key.source_hash = 7;
  key.nalpha = key.nbeta = 2;
  key.irrep = 0;
  const auto build = [&] {
    return xf::SolveSetup::create(tables, 2, 2, 0);
  };
  bool hit = true;
  const auto a = cache.get_or_build(key, build, &hit);
  EXPECT_FALSE(hit);
  const auto b = cache.get_or_build(key, build, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());  // the same shared setup, not a copy

  xv::SetupKey other = key;
  other.algorithm = xf::Algorithm::kMoc;
  cache.get_or_build(other, build, &hit);
  EXPECT_FALSE(hit);  // algorithm is part of the identity

  const xv::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.resident_entries, 2u);
  EXPECT_GT(s.resident_bytes, 0u);
}

TEST(SetupCache, ByteBudgetEvictsLru) {
  const auto tables = model_tables(6, 1);
  const auto build = [&] {
    return xf::SolveSetup::create(tables, 2, 2, 0);
  };
  // One shard, a budget far below one setup: each insert evicts the
  // previous entry but always keeps the newest.
  xv::SetupCache cache(1, 1);
  for (std::uint64_t i = 0; i < 3; ++i) {
    xv::SetupKey key;
    key.source_hash = i;
    cache.get_or_build(key, build);
  }
  const xv::CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.resident_entries, 1u);
}

TEST(SetupCache, HashBytesIsStable) {
  EXPECT_EQ(xv::hash_bytes("abc"), xv::hash_bytes("abc"));
  EXPECT_NE(xv::hash_bytes("abc"), xv::hash_bytes("abd"));
  EXPECT_NE(xv::hash_bytes("abc"), xv::hash_bytes("abc", 123));
}

// ----------------------------------------------- setup/session identity --

TEST(SolveSession, MatchesRunFciBitwise) {
  const auto tables = model_tables(6, 42);
  for (const auto algorithm :
       {xf::Algorithm::kDgemm, xf::Algorithm::kMoc, xf::Algorithm::kDense}) {
    xf::FciOptions opt;
    opt.algorithm = algorithm;
    const auto ref = xf::run_fci(tables, 2, 2, 0, opt);

    const auto setup = xf::SolveSetup::create(
        tables, 2, 2, 0, xf::SetupOptions{algorithm, false});
    xf::SolveSession session(setup);
    const auto res = session.solve();
    EXPECT_EQ(res.solve.energy, ref.solve.energy);
    EXPECT_EQ(res.solve.vector, ref.solve.vector);
    EXPECT_EQ(res.solve.iterations, ref.solve.iterations);
    EXPECT_EQ(res.s_squared, ref.s_squared);
  }
}

TEST(SolveSession, Ms0TransposeMatchesRunFciBitwise) {
  const auto tables = model_tables(6, 7);
  xf::FciOptions opt;
  opt.ms0_transpose = true;
  const auto ref = xf::run_fci(tables, 2, 2, 0, opt);

  const auto setup = xf::SolveSetup::create(
      tables, 2, 2, 0, xf::SetupOptions{xf::Algorithm::kDgemm, true});
  xf::SolveSession session(setup);
  const auto res = session.solve();
  EXPECT_EQ(res.solve.energy, ref.solve.energy);
  EXPECT_EQ(res.solve.vector, ref.solve.vector);
}

TEST(SolveSession, ConcurrentSessionsOnOneSetupAreBitwiseIdentical) {
  const auto tables = model_tables(6, 42);
  const auto ref1 = xf::run_fci(tables, 2, 2, 0);
  const auto ref2 = xf::run_fci(tables, 2, 2, 0);
  ASSERT_EQ(ref1.solve.energy, ref2.solve.energy);  // baseline determinism

  const auto setup = xf::SolveSetup::create(tables, 2, 2, 0);
  xf::FciResult a, b;
  std::thread ta([&] {
    xf::SolveSession s(setup);
    a = s.solve();
  });
  std::thread tb([&] {
    xf::SolveSession s(setup);
    b = s.solve();
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.solve.energy, ref1.solve.energy);
  EXPECT_EQ(b.solve.energy, ref1.solve.energy);
  EXPECT_EQ(a.solve.vector, ref1.solve.vector);
  EXPECT_EQ(b.solve.vector, ref1.solve.vector);
}

// Stress shape for ThreadSanitizer runs: many sessions hammer one shared
// setup (and its memoized preconditioner) at once.
TEST(SolveSession, ManyConcurrentSessionsStress) {
  const auto tables = model_tables(6, 9);
  const auto ref = xf::run_fci(tables, 2, 2, 0);
  const auto setup = xf::SolveSetup::create(tables, 2, 2, 0);
  constexpr std::size_t kThreads = 8;
  std::vector<xf::FciResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      xf::SolveSession s(setup);
      results[i] = s.solve();
    });
  for (auto& t : threads) t.join();
  for (const auto& r : results) {
    EXPECT_EQ(r.solve.energy, ref.solve.energy);
    EXPECT_EQ(r.solve.vector, ref.solve.vector);
  }
}

TEST(SolveSession, CancelStopsTheSolve) {
  const auto tables = model_tables(6, 3);
  const auto setup = xf::SolveSetup::create(tables, 2, 2, 0);
  xf::SolveSession session(setup);
  session.request_cancel();
  const auto res = session.solve();
  EXPECT_TRUE(res.solve.cancelled);
  EXPECT_FALSE(res.solve.converged);
  session.reset_cancel();
  const auto full = session.solve();
  EXPECT_FALSE(full.solve.cancelled);
  EXPECT_TRUE(full.solve.converged);
}

TEST(SolveSession, CallerShouldStopHookIsMerged) {
  const auto tables = model_tables(6, 3);
  const auto setup = xf::SolveSetup::create(tables, 2, 2, 0);
  xf::SolveSession session(setup);
  xf::SolverOptions opt;
  opt.should_stop = [] { return true; };
  const auto res = session.solve(opt);
  EXPECT_TRUE(res.solve.cancelled);
}

// ------------------------------------------- parallel setup-based entry --

TEST(ParallelFci, SetupOverloadIsBitwiseIdentical) {
  const auto tables = model_tables(6, 42);
  xp::ParallelOptions popt;
  popt.num_ranks = 4;
  const auto ref = xp::run_parallel_fci(tables, 2, 2, 0, popt);

  const auto setup = xf::SolveSetup::create(tables, 2, 2, 0);
  const auto res = xp::run_parallel_fci(setup, popt);
  EXPECT_EQ(res.solve.energy, ref.solve.energy);
  EXPECT_EQ(res.solve.vector, ref.solve.vector);
}

TEST(ParallelFci, SetupOverloadThreadsBackendBitwiseIdentical) {
  const auto tables = model_tables(6, 42);
  xp::ParallelOptions popt;
  popt.num_ranks = 2;
  popt.execution = xp::ExecutionMode::kThreads;
  popt.num_threads = 2;
  const auto ref = xp::run_parallel_fci(tables, 2, 2, 0, popt);

  const auto setup = xf::SolveSetup::create(tables, 2, 2, 0);
  const auto res = xp::run_parallel_fci(setup, popt);
  EXPECT_EQ(res.solve.energy, ref.solve.energy);
  EXPECT_EQ(res.solve.vector, ref.solve.vector);
}

TEST(ParallelFci, SetupOverloadRejectsMismatchedOptions) {
  const auto tables = model_tables(6, 1);
  const auto setup = xf::SolveSetup::create(
      tables, 2, 2, 0, xf::SetupOptions{xf::Algorithm::kMoc, false});
  xp::ParallelOptions popt;
  popt.num_ranks = 2;  // defaults to dgemm: mismatch
  EXPECT_THROW(xp::run_parallel_fci(setup, popt), xfci::Error);
}

// -------------------------------------------------------------- engine --

TEST(Engine, FileJobsMatchRunFciAndShareSetups) {
  const std::string path_a = write_dump("engine_a", 11);
  const std::string path_b = write_dump("engine_b", 12);

  xv::EngineOptions eopt;
  eopt.num_workers = 2;
  xv::Engine engine(eopt);
  for (const auto& path : {path_a, path_b, path_a, path_b}) {
    xv::JobSpec spec;
    spec.fcidump_path = path;
    engine.submit(std::move(spec));
  }
  engine.drain();

  const auto data_a = xi::read_fcidump(path_a);
  const auto ref_a =
      xf::run_fci(data_a.tables, data_a.nalpha, data_a.nbeta, data_a.isym);
  const auto results = engine.results();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.state, xv::JobState::kDone) << r.error;
    EXPECT_TRUE(r.converged);
  }
  // Jobs 0 and 2 solved path_a: both bitwise-equal to the one-shot path.
  EXPECT_EQ(results[0].energy, ref_a.solve.energy);
  EXPECT_EQ(results[2].energy, ref_a.solve.energy);
  // Duplicate submissions hit the cache (2 distinct systems, 4 jobs).
  EXPECT_EQ(engine.cache_stats().misses, 2u);
  EXPECT_EQ(engine.cache_stats().hits, 2u);
}

TEST(Engine, CacheStatsAndBitwiseEnergies) {
  const std::string path = write_dump("engine_c", 21);
  const auto data = xi::read_fcidump(path);
  const auto ref =
      xf::run_fci(data.tables, data.nalpha, data.nbeta, data.isym);

  xv::EngineOptions eopt;
  eopt.num_workers = 2;
  xv::Engine engine(eopt);
  for (int i = 0; i < 3; ++i) {
    xv::JobSpec spec;
    spec.fcidump_path = path;
    engine.submit(std::move(spec));
  }
  engine.drain();

  const xv::CacheStats cs = engine.cache_stats();
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.hits, 2u);
  std::size_t hits = 0;
  for (const auto& r : engine.results()) {
    ASSERT_EQ(r.state, xv::JobState::kDone) << r.error;
    EXPECT_EQ(r.energy, ref.solve.energy);  // bitwise, any scheduling
    EXPECT_EQ(r.dimension, ref.dimension);
    if (r.cache_hit) ++hits;
  }
  EXPECT_EQ(hits, 2u);
}

TEST(Engine, InMemoryTablesJobsShareSetups) {
  const auto tables =
      std::make_shared<const xi::IntegralTables>(model_tables(6, 31));
  const auto ref = xf::run_fci(*tables, 2, 2, 0);

  xv::Engine engine;
  for (int i = 0; i < 2; ++i) {
    xv::JobSpec spec;
    spec.name = "mem" + std::to_string(i);
    spec.tables = tables;
    spec.nalpha = spec.nbeta = 2;
    engine.submit(std::move(spec));
  }
  engine.drain();
  const auto results = engine.results();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    ASSERT_EQ(r.state, xv::JobState::kDone) << r.error;
    EXPECT_EQ(r.energy, ref.solve.energy);
  }
  EXPECT_EQ(engine.cache_stats().hits, 1u);
}

TEST(Engine, InteractiveJobsRunBeforeBatch) {
  const std::string path = write_dump("engine_p", 41);
  xv::EngineOptions eopt;
  eopt.num_workers = 1;  // serial pops make the order observable
  xv::Engine engine(eopt);

  xv::JobSpec batch;
  batch.name = "batch";
  batch.fcidump_path = path;
  batch.priority = xv::Priority::kBatch;
  const std::size_t batch_id = engine.submit(std::move(batch));

  xv::JobSpec inter;
  inter.name = "interactive";
  inter.fcidump_path = path;
  inter.priority = xv::Priority::kInteractive;
  const std::size_t inter_id = engine.submit(std::move(inter));

  engine.drain();
  const auto ri = engine.result(inter_id);
  const auto rb = engine.result(batch_id);
  ASSERT_EQ(ri.state, xv::JobState::kDone) << ri.error;
  ASSERT_EQ(rb.state, xv::JobState::kDone) << rb.error;
  EXPECT_LT(ri.sequence, rb.sequence);  // submitted later, started first
}

TEST(Engine, AdmissionControlRejectsBeyondCap) {
  const std::string path = write_dump("engine_r", 51);
  xv::EngineOptions eopt;
  eopt.max_pending = 1;
  xv::Engine engine(eopt);

  xv::JobSpec a;
  a.fcidump_path = path;
  const std::size_t id_a = engine.submit(std::move(a));
  xv::JobSpec b;
  b.fcidump_path = path;
  const std::size_t id_b = engine.submit(std::move(b));

  EXPECT_EQ(engine.result(id_b).state, xv::JobState::kRejected);
  engine.drain();
  EXPECT_EQ(engine.result(id_a).state, xv::JobState::kDone);
  EXPECT_EQ(engine.result(id_b).state, xv::JobState::kRejected);

  // The cap frees as jobs drain: a post-drain submit is admitted.
  xv::JobSpec c;
  c.fcidump_path = path;
  const std::size_t id_c = engine.submit(std::move(c));
  engine.drain();
  EXPECT_EQ(engine.result(id_c).state, xv::JobState::kDone);
}

TEST(Engine, FailedJobIsReportedNotFatal) {
  const std::string good = write_dump("engine_f", 61);
  xv::Engine engine;
  xv::JobSpec bad;
  bad.name = "missing";
  bad.fcidump_path = "/tmp/xfci_test_serve_does_not_exist.fcidump";
  const std::size_t bad_id = engine.submit(std::move(bad));
  xv::JobSpec ok;
  ok.fcidump_path = good;
  const std::size_t ok_id = engine.submit(std::move(ok));
  engine.drain();

  const auto rb = engine.result(bad_id);
  EXPECT_EQ(rb.state, xv::JobState::kFailed);
  EXPECT_FALSE(rb.error.empty());
  EXPECT_EQ(engine.result(ok_id).state, xv::JobState::kDone);
}

TEST(Engine, ReportIsValidMetricsDocument) {
  const std::string path = write_dump("engine_m", 71);
  xv::Engine engine;
  xv::JobSpec spec;
  spec.fcidump_path = path;
  engine.submit(std::move(spec));
  engine.drain();

  const std::string json = engine.report_json();
  const auto doc = xfci::obs::json::Value::parse(json);
  EXPECT_EQ(doc.req("schema").as_string(), "xfci-metrics-v1");
  EXPECT_EQ(doc.req("backend").as_string(), "serve");
  const auto& cache = doc.req("cache");
  EXPECT_EQ(cache.req("misses").as_double(), 1.0);
  EXPECT_EQ(cache.req("hits").as_double(), 0.0);
  const auto& jobs = doc.req("jobs");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs.at(0).req("state").as_string(), "done");
  EXPECT_EQ(doc.req("ranks").size(), 1u);
  EXPECT_EQ(doc.req("num_ranks").as_double(), 1.0);
  // The full phase breakdown, as the run-report writer emits it.
  for (const char* section : {"phases", "totals"}) {
    const auto& block = doc.req(section);
    for (const char* key :
         {"beta_side", "alpha_side", "mixed", "transpose", "vector_ops",
          "load_imbalance", "recovery", "total", "comm_words",
          "mixed_comm_words", "flops", "count"})
      EXPECT_NE(block.get(key), nullptr) << section << "." << key;
  }
  EXPECT_EQ(doc.req("totals").req("count").as_double(), 1.0);
}

TEST(Engine, PriorityParsing) {
  EXPECT_EQ(xv::parse_priority("interactive"), xv::Priority::kInteractive);
  EXPECT_EQ(xv::parse_priority("batch"), xv::Priority::kBatch);
  EXPECT_THROW(xv::parse_priority("urgent"), xfci::Error);
}
