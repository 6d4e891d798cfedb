// Workload `real_serve`: live serving through ServingDaemon over RealEngine
// (real worker threads, real kernels), guarded greedy LSched with fixed
// weights. Phase 1 is an open loop (Poisson arrivals at a fixed rate, each
// query timed from its due time); phase 2 submits bursts and times them
// until drained. Every DONE query's sink is checked against the oracle.
// Runnable by name but not in BENCHMARK.json: its wall-clock figures move
// with the shared host's phases by more than a bound may allow (README).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common.h"
#include "core/agent.h"
#include "sched/guarded_policy.h"
#include "serve/serving_daemon.h"
#include "testing/fuzzer.h"
#include "testing/oracle.h"
#include "util/rng.h"

namespace lsbench {
namespace {

using namespace lsched;

// --- workload constants (README "real_serve") ----------------------------
/// The plan library and its catalog are fixed (this seed); --seed draws the
/// arrival times and the order of the queries.
constexpr uint64_t kLibrarySeed = 2022;
constexpr int kLibraryPlans = 32;
constexpr int64_t kMinRows = 10000;
constexpr int64_t kMaxRows = 20000;
/// Open-loop arrival rate: about a third of the burst throughput on the
/// reference host (README).
constexpr double kArrivalRate = 40.0;
/// Each round is an open-loop segment of this many decks followed by one
/// burst of two decks; rounds spread both measurements over the whole run.
constexpr int kDecksPerSegment = 4;
constexpr int kBurstQueries = 2 * kLibraryPlans;
/// Share of --seconds spent in open-loop segments; fixes the number of
/// rounds, so every run of a given length does the same work.
constexpr double kOpenLoopShare = 0.82;
/// Longest wait for a session's queries to complete (they drain within a
/// second on the reference host); a query still missing then fails its
/// check, and a broken run still ends well within the driver's limit.
constexpr double kDrainTimeoutSeconds = 5.0;

int NumWorkers() {
  // The driver thread and the coordinator take two of the host's cores.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores - 2, 1, 2);
}

struct Library {
  std::unique_ptr<Catalog> catalog;
  std::vector<QueryPlan> plans;
  std::vector<OracleQueryResult> expected;
};

bool HasBlockNestedLoopJoin(const QueryPlan& plan) {
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    if (plan.node(static_cast<int>(i)).type ==
        OperatorType::kNestedLoopJoin) {
      return true;
    }
  }
  return false;
}

Library BuildLibrary(Report* report) {
  FuzzerOptions opts;
  opts.min_tables = 3;
  opts.max_tables = 4;
  opts.min_rows = kMinRows;
  opts.max_rows = kMaxRows;
  WorkloadFuzzer fuzzer(kLibrarySeed, opts);
  Library lib;
  lib.catalog = fuzzer.FuzzCatalog();
  // Block nested-loop joins are quadratic in the real kernels too: one
  // such plan costs as much as twenty-five others, so the open loop's tail
  // would be set by how often a seed draws it (README).
  while (static_cast<int>(lib.plans.size()) < kLibraryPlans) {
    QueryPlan plan = fuzzer.FuzzPlan(*lib.catalog);
    if (!HasBlockNestedLoopJoin(plan)) lib.plans.push_back(std::move(plan));
  }
  // The oracle's joins scan their build side per probe row; spread the
  // library over the host's cores (at most 4 threads, this one included).
  std::vector<Result<OracleQueryResult>> results(
      lib.plans.size(), Status::Internal("not run"));
  const OracleExecutor oracle(lib.catalog.get());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < lib.plans.size(); i = next++) {
      results[i] = oracle.Execute(lib.plans[i]);
    }
  };
  std::vector<std::thread> pool;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 1; t < std::min(cores, 4u); ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  for (size_t i = 0; i < results.size(); ++i) {
    report->Check(results[i].ok(),
                  "oracle executes library plan " + std::to_string(i));
    lib.expected.push_back(results[i].ok() ? std::move(results[i]).value()
                                           : OracleQueryResult{});
  }
  return lib;
}

bool ChecksumsMatch(double oracle, double engine) {
  return std::abs(oracle - engine) <= std::max(1e-6, 1e-9 * std::abs(oracle));
}

/// One daemon session's submissions: plan index and (open loop) due time,
/// in seconds from the session's start, per QueryId.
struct Session {
  std::vector<int> plan_of;
  std::vector<double> due;
};

/// Waits until `timed` saw `n` completions (DONE queries) or the timeout.
void WaitCompleted(const TimedScheduler& timed, int n) {
  const double deadline = Now() + kDrainTimeoutSeconds;
  while (timed.completed() < n && Now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Checks every query of a stopped session against the oracle.
void CheckSession(const RealRunResult& r, const Session& s,
                  const Library& lib, const char* where, Report* report) {
  for (size_t q = 0; q < s.plan_of.size(); ++q) {
    const OracleQueryResult& want =
        lib.expected[static_cast<size_t>(s.plan_of[q])];
    const bool done = q < r.episode.final_statuses.size() &&
                      r.episode.final_statuses[q] == QueryStatus::kDone;
    const bool rows = q < r.sink_row_counts.size() &&
                      r.sink_row_counts[q] == want.sink_rows;
    const bool sum = q < r.sink_checksums.size() &&
                     ChecksumsMatch(want.sink_checksum, r.sink_checksums[q]);
    report->Check(done && rows && sum,
                  std::string(where) + " query " + std::to_string(q) +
                      (done ? "" : " not DONE") +
                      (rows ? "" : " sink rows != oracle") +
                      (sum ? "" : " checksum != oracle"));
  }
}

}  // namespace

void RunRealServe(const Args& args, Report* report, Trace* trace) {
  SpanLog* spans = trace != nullptr ? &trace->driver : nullptr;
  // ---------------------------------------------------------------- set-up
  const Library lib = BuildLibrary(report);
  LSchedModel model(ModelConfig());
  // Traced runs decide through the layer-timed copy of the agent's
  // decision (checked bit for bit against the agent by sim_serve_job).
  LSchedAgent agent(&model);
  LayerTimedLSched layered(&model, trace != nullptr ? &trace->engine : nullptr);
  GuardedPolicy guarded(trace != nullptr ? static_cast<Scheduler*>(&layered)
                                         : &agent);

  // Plans are dealt from shuffled decks of the whole library, so every run
  // of a given length runs the same multiset of queries; --seed sets their
  // order and the arrival times.
  Rng rng(args.seed);
  auto deal = [&](int decks, Session* out) {
    std::vector<int> deck(kLibraryPlans);
    for (int d = 0; d < decks; ++d) {
      for (int p = 0; p < kLibraryPlans; ++p) deck[static_cast<size_t>(p)] = p;
      rng.Shuffle(&deck);
      out->plan_of.insert(out->plan_of.end(), deck.begin(), deck.end());
    }
  };
  const int rounds = std::max(
      1, static_cast<int>(std::lround(kOpenLoopShare * args.seconds *
                                      kArrivalRate /
                                      (kDecksPerSegment * kLibraryPlans))));
  // Open-loop segments: deck k of a segment arrives in the window
  // [k, k + 1) * kLibraryPlans / kArrivalRate at uniform times, i.e. a
  // Poisson process at kArrivalRate conditioned on one deck per window.
  // Every window carries the same work, so the latency measures the serving
  // path rather than how many heavy plans a seed happened to cluster.
  const double window = kLibraryPlans / kArrivalRate;
  std::vector<Session> segments(static_cast<size_t>(rounds));
  std::vector<Session> bursts(static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    Session& seg = segments[static_cast<size_t>(r)];
    deal(kDecksPerSegment, &seg);
    for (int d = 0; d < kDecksPerSegment; ++d) {
      std::vector<double> times(kLibraryPlans);
      for (double& t : times) t = (d + rng.Uniform()) * window;
      std::sort(times.begin(), times.end());
      seg.due.insert(seg.due.end(), times.begin(), times.end());
    }
    deal(kBurstQueries / kLibraryPlans, &bursts[static_cast<size_t>(r)]);
  }
  const size_t max_queries = kDecksPerSegment * kLibraryPlans;

  // Schedule() runs on the coordinator thread: its spans go to the engine
  // log.
  TimedScheduler timed(&guarded, max_queries,
                       trace != nullptr ? &trace->engine : nullptr);
  ServingDaemonConfig cfg;
  cfg.real.num_threads = NumWorkers();
  // Unbounded admission: a shed query would be a failed operation, and the
  // open loop runs well below capacity.
  cfg.policy.max_live_queries = 0;
  ServingDaemon daemon(cfg);

  // Warm-up session: every library plan once, checked like the rest.
  {
    Session warm;
    daemon.Start(lib.catalog.get(), &timed);
    for (int p = 0; p < kLibraryPlans; ++p) {
      warm.plan_of.push_back(p);
      daemon.Submit(lib.plans[static_cast<size_t>(p)],
                    QueryTag{p % 2, QueryPriority::kNormal});
    }
    WaitCompleted(timed, kLibraryPlans);
    CheckSession(daemon.Stop(), warm, lib, "warm-up", report);
  }
  const double setup_s = Now();

  // --------------------------------------------------------------- rounds
  // Each segment and each burst is its own daemon session (QueryIds restart
  // at 0), drained before the next starts.
  std::vector<double> segment_mean, burst_rate, lateness;
  LayerFigures layers;
  // Σ over the workers of their executing and dispatch time: the engine's
  // own time outside Schedule().
  auto add_session = [&](const RealRunResult& result) {
    const EpisodeResult& e = result.episode;
    layers.AddEngine(e);
    for (const prof::WorkerStateBuckets& w : e.worker_states) {
      layers.engine_s +=
          1e-9 * static_cast<double>(
                     w.ns[static_cast<int>(prof::WorkerState::kExecuting)] +
                     w.ns[static_cast<int>(prof::WorkerState::kDispatch)]);
    }
    layers.decision_s.insert(layers.decision_s.end(),
                             timed.call_seconds().begin(),
                             timed.call_seconds().end());
  };
  for (int r = 0; r < rounds; ++r) {
    const Session& seg = segments[static_cast<size_t>(r)];
    const std::string where = "round " + std::to_string(r);
    timed.ResetCompletions();
    timed.ClearCalls();
    daemon.Start(lib.catalog.get(), &timed);
    const double t0 = Now();
    for (size_t i = 0; i < seg.due.size(); ++i) {
      const double due = t0 + seg.due[i];
      const double left = due - Now();
      if (left > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(left));
      }
      const double at = Now();
      const QueryId id = daemon.Submit(
          lib.plans[static_cast<size_t>(seg.plan_of[i])],
          QueryTag{static_cast<TenantId>(i % 2), QueryPriority::kNormal});
      report->Check(id == static_cast<QueryId>(i),
                    where + " open-loop submit " + std::to_string(i));
      lateness.push_back(at - due);
      if (spans != nullptr) {
        spans->Add("gen.lateness", due, at, -1, static_cast<int64_t>(i));
      }
    }
    WaitCompleted(timed, static_cast<int>(seg.due.size()));
    const RealRunResult open_result = daemon.Stop();
    CheckSession(open_result, seg, lib, (where + " open loop").c_str(),
                 report);
    std::vector<double> seg_ms;
    for (size_t i = 0; i < seg.due.size(); ++i) {
      const double done = timed.completion(static_cast<QueryId>(i));
      if (std::isnan(done)) continue;  // already counted as failed
      seg_ms.push_back((done - (t0 + seg.due[i])) * 1e3);
      if (spans != nullptr) {
        spans->Add("query", t0 + seg.due[i], done, -1,
                   static_cast<int64_t>(i));
      }
    }
    segment_mean.push_back(Mean(seg_ms));
    layers.latency_ms.insert(layers.latency_ms.end(), seg_ms.begin(),
                             seg_ms.end());
    add_session(open_result);
    layers.AddDecomposition(open_result.episode);

    const Session& burst = bursts[static_cast<size_t>(r)];
    timed.ResetCompletions();
    timed.ClearCalls();
    daemon.Start(lib.catalog.get(), &timed);
    double burst_seconds = 0.0;
    {
      ScopedSpan span(spans, "gen.burst", -1, r);
      const double start = Now();
      for (size_t q = 0; q < burst.plan_of.size(); ++q) {
        daemon.Submit(lib.plans[static_cast<size_t>(burst.plan_of[q])],
                      QueryTag{static_cast<TenantId>(q % 2),
                               QueryPriority::kNormal});
      }
      WaitCompleted(timed, kBurstQueries);
      burst_seconds = Now() - start;
    }
    const RealRunResult burst_result = daemon.Stop();
    CheckSession(burst_result, burst, lib, (where + " burst").c_str(), report);
    burst_rate.push_back(kBurstQueries / burst_seconds);
    add_session(burst_result);
  }

  // -------------------------------------------------------------- metrics
  // Medians over rounds: every segment (and every burst) runs the same
  // multiset of plans, and a median ignores the rounds a stall of the host
  // hit (README "Steadiness").
  const double latency_mean_ms = Percentile(segment_mean, 0.50);
  const double queries_per_s = Percentile(burst_rate, 0.50);
  std::fprintf(stderr,
               "lsbench: real_serve%s %d rounds: %zu open-loop queries "
               "(p50 %.3f ms, p99 %.3f ms, generator late by %.3f ms at "
               "p99), %d bursts of %d, %d workers\n",
               trace != nullptr ? " (traced)" : "", rounds,
               layers.latency_ms.size(), Percentile(layers.latency_ms, 0.50),
               Percentile(layers.latency_ms, 0.99),
               Percentile(lateness, 0.99) * 1e3, rounds, kBurstQueries,
               cfg.real.num_threads);
  std::fprintf(stderr,
               "lsbench: per round: mean latency ms / burst queries/s:");
  for (int r = 0; r < rounds; ++r) {
    std::fprintf(stderr, " %.2f/%.1f", segment_mean[static_cast<size_t>(r)],
                 burst_rate[static_cast<size_t>(r)]);
  }
  std::fprintf(stderr, "\n");
  std::fprintf(stderr, "lsbench: real_serve%s %.3f ms, %.2f queries/s\n",
               trace != nullptr ? " (traced)" : "", latency_mean_ms,
               queries_per_s);
  if (trace == nullptr) {
    ReportEndToEnd(setup_s, latency_mean_ms, report);
  } else {
    ReportLayers(layers, layered, report);
  }
}

}  // namespace lsbench
