// Workload `sim_serve_job`: ServingDaemon::RunScript replays seeded
// multi-tenant JOB held-out scripts on SimEngine under guarded greedy LSched
// with fixed weights. No kernel runs: the simulator and the scheduler's
// serving path share the wall-clock time. Virtual-time latencies are
// bit-deterministic, so every pass over the scripts must repeat them exactly.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "core/agent.h"
#include "sched/guarded_policy.h"
#include "serve/serving_daemon.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/templates.h"
#include "workload/workload.h"

namespace lsbench {
namespace {

using namespace lsched;

// --- workload constants (README "sim_serve_job") --------------------------
constexpr int kScripts = 6;
/// Each script deals this many shuffled decks of the JOB held-out
/// templates (57 of them), so that every run replays the same template mix.
constexpr int kDecksPerScript = 3;
/// Mean inter-arrival gap of each script, in virtual seconds.
constexpr double kMeanGapSeconds = 0.5;
constexpr int kSimThreads = 60;
/// Passes over the scripts per second of --seconds on the reference host:
/// fixes the amount of work per run.
constexpr double kPassesPerSecond = 0.2;

ScriptedIngress MakeScript(uint64_t seed) {
  WorkloadConfig wc;
  wc.benchmark = Benchmark::kJob;
  wc.split = WorkloadSplit::kTest;
  const std::vector<std::pair<int, int>> pool = TemplatePool(wc);
  const std::vector<TemplateSpec> specs = TemplatesOf(Benchmark::kJob);
  Rng rng(seed);
  std::vector<QueryPlan> plans;
  std::vector<IngressEvent> events;
  double at = 0.0;
  for (int d = 0; d < kDecksPerScript; ++d) {
    std::vector<std::pair<int, int>> deck = pool;
    rng.Shuffle(&deck);
    for (const auto& [tmpl, sf] : deck) {
      Result<QueryPlan> plan = InstantiateTemplate(
          Benchmark::kJob, specs[static_cast<size_t>(tmpl)], sf, &rng);
      LSCHED_CHECK(plan.ok()) << plan.status().ToString();
      // Three tenants round-robin (weights 1/2/3 below); every 7th query
      // high priority, every 3rd low.
      const size_t i = plans.size();
      QueryTag tag;
      tag.tenant = static_cast<TenantId>(i % 3);
      if (i % 7 == 3) {
        tag.priority = QueryPriority::kHigh;
      } else if (i % 3 == 1) {
        tag.priority = QueryPriority::kLow;
      }
      at += rng.Exponential(kMeanGapSeconds);
      events.push_back(IngressEvent::Submit(at, static_cast<int>(i), tag));
      plans.push_back(std::move(plan).value());
    }
  }
  return ScriptedIngress(std::move(events), std::move(plans));
}

ServingDaemonConfig DaemonConfig() {
  ServingDaemonConfig cfg;
  // Unbounded admission (a shed query would be a failed operation).
  cfg.policy.max_live_queries = 0;
  cfg.policy.tenant_weights = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
  cfg.sim.num_threads = kSimThreads;
  cfg.sim.seed = 7;
  return cfg;
}

/// One pass: every script once. Appends the pass's query latencies, pooled
/// in script order, to `latencies`, and returns the wall time of each
/// script's replay. Traced passes add their engine runs and Schedule()
/// calls to `layers`.
std::vector<double> RunPass(const std::vector<ScriptedIngress>& scripts,
               ServingDaemon* daemon, TimedScheduler* timed,
               const std::string& where, Report* report,
               std::vector<double>* latencies, LayerFigures* layers) {
  std::vector<double> walls;
  for (size_t s = 0; s < scripts.size(); ++s) {
    timed->ClearCalls();
    const double t0 = Now();
    const EpisodeResult r = daemon->RunScript(scripts[s], timed);
    const double elapsed = Now() - t0;
    walls.push_back(elapsed);
    CheckSimProperties(r, scripts[s].num_submissions(),
                       where + " script " + std::to_string(s), report);
    latencies->insert(latencies->end(), r.query_latencies.begin(),
                      r.query_latencies.end());
    if (layers != nullptr) {
      const std::vector<double>& calls = timed->call_seconds();
      double sched = 0.0;
      for (double c : calls) sched += c;
      layers->engine_s += elapsed - sched;
      layers->decision_s.insert(layers->decision_s.end(), calls.begin(),
                                calls.end());
      layers->AddEngine(r);
      layers->AddDecomposition(r);
      for (double l : r.query_latencies) layers->latency_ms.push_back(l * 1e3);
    }
  }
  return walls;
}

}  // namespace

void RunSimServeJob(const Args& args, Report* report, Trace* trace) {
  SpanLog* spans = trace != nullptr ? &trace->driver : nullptr;
  // ---------------------------------------------------------------- set-up
  std::vector<ScriptedIngress> scripts;
  for (int s = 0; s < kScripts; ++s) {
    scripts.push_back(
        MakeScript(args.seed * 1000003ULL + static_cast<uint64_t>(s)));
  }
  LSchedModel model(ModelConfig());
  LSchedAgent agent(&model);
  GuardedPolicy guarded(&agent);
  TimedScheduler timed(&guarded, 0, spans);
  // Traced runs make every pass after the first through the layer-timed
  // decision, which must decide exactly as LSchedAgent did in pass 0.
  LayerTimedLSched layered(&model, spans);
  GuardedPolicy layered_guard(&layered);
  TimedScheduler layered_timed(&layered_guard, 0, spans);
  ServingDaemon daemon(DaemonConfig());
  const int passes = std::max(
      2, static_cast<int>(std::lround(args.seconds * kPassesPerSecond)));
  {
    // Warm-up: one replay of the first script.
    std::vector<double> ignored;
    RunPass({scripts[0]}, &daemon, &timed, "warm-up", report, &ignored,
            nullptr);
  }
  const double setup_s = Now();

  // -------------------------------------------------------------- measure
  // Wall time of each script's replay: the least over the passes. Every
  // pass does the same work and makes the same decisions, so the fastest
  // replay of a script is the one the host disturbed least (README
  // "Steadiness").
  std::vector<double> best_wall(scripts.size(), 1e300);
  std::vector<double> first;
  LayerFigures layers;
  for (int p = 0; p < passes; ++p) {
    ScopedSpan span(spans, "pass", -1, p);
    const bool layer_timed = trace != nullptr && p > 0;
    std::vector<double> lat;
    const std::vector<double> walls =
        RunPass(scripts, &daemon, layer_timed ? &layered_timed : &timed,
                "pass " + std::to_string(p), report, &lat,
                layer_timed ? &layers : nullptr);
    std::fprintf(stderr, "lsbench: pass %d, s per script:", p);
    for (size_t s = 0; s < scripts.size(); ++s) {
      best_wall[s] = std::min(best_wall[s], walls[s]);
      std::fprintf(stderr, " %.3f", walls[s]);
    }
    std::fprintf(stderr, "\n");
    if (p == 0) {
      first = lat;
    } else {
      report->Check(lat == first,
                    "pass " + std::to_string(p) +
                        " repeats pass 0's latencies bit for bit" +
                        (layer_timed ? " (layer-timed decisions)" : ""));
    }
  }
  report->Check(guarded.fallback_count() == 0 &&
                    layered_guard.fallback_count() == 0,
                "guarded LSched never fell back to FIFO");

  double replay_s = 0.0;
  for (double w : best_wall) replay_s += w;
  const double queries_per_s = static_cast<double>(first.size()) / replay_s;
  std::fprintf(stderr, "lsbench: sim_serve_job%s %.2f queries/s\n",
               trace != nullptr ? " (traced)" : "", queries_per_s);
  if (trace == nullptr) {
    ReportEndToEnd(setup_s, Mean(first) * 1e3, report);
  } else {
    ReportLayers(layers, layered, report);
  }
}

}  // namespace lsbench
