// Shared pieces of the lsbench driver: arguments, timing, percentiles, the
// result line, the in-memory span log of traced runs, the timing wrapper
// around the Scheduler under test, and the engine property checks.
#ifndef LSBENCH_COMMON_H_
#define LSBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/agent.h"
#include "core/encoder.h"
#include "core/features.h"
#include "core/model.h"
#include "core/predictor.h"
#include "exec/episode_result.h"
#include "exec/scheduler.h"
#include "exec/scheduling_context.h"
#include "util/rng.h"

namespace lsbench {

using lsched::QueryId;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Seconds on the steady clock since the process started (static
/// initialisation of the driver), the one timebase of every measurement.
double Now();

/// Nearest-rank percentile (p in [0, 1]) of `xs`; 0 for an empty sample.
double Percentile(std::vector<double> xs, double p);
double Mean(const std::vector<double>& xs);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// What one run reports: operations attempted/failed and named metrics.
class Report {
 public:
  void Attempt(int64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and explains it on stderr.
  void Fail(const std::string& why);
  /// Attempts one operation that failed iff `!ok`.
  void Check(bool ok, const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);
  /// The result line: the last line the driver prints on stdout.
  void Print() const;

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t reported_failures_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Spans recorded by traced runs around the driver's calls into each layer:
/// kept in memory, written out once the run ends. One log per recording
/// thread (`tid`); a log is not thread-safe.
class SpanLog {
 public:
  explicit SpanLog(int tid = 1) : tid_(tid) {}
  /// Opens a span and returns its id (-1 once the log is full).
  int64_t Begin(const char* name, int64_t parent = -1, int64_t request = -1);
  void End(int64_t id);
  /// Records a finished span with explicit times (seconds on Now()).
  int64_t Add(const char* name, double start, double end, int64_t parent = -1,
              int64_t request = -1);
  size_t size() const { return spans_.size(); }

  /// Writes the spans of `logs` as one Chrome trace_event JSON file (open
  /// it in a trace viewer); parent ids refer to spans of the same tid.
  static bool Write(const std::string& path,
                    const std::vector<const SpanLog*>& logs);

 private:
  struct Span {
    const char* name;
    int64_t parent;
    int64_t request;
    double start;
    double end;
  };
  static constexpr size_t kMaxSpans = 1 << 20;
  int tid_;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

/// Scoped span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1,
             int64_t request = -1)
      : log_(log), id_(log ? log->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

/// The timing wrapper around the Scheduler a run passes to the engine:
/// times every Schedule() call and stamps each query's completion on the
/// driver's clock. Engines call it from one thread (the simulator's, or
/// RealEngine's coordinator); completion stamps are read after the engine
/// stopped, or through completed() while it runs.
class TimedScheduler : public lsched::Scheduler {
 public:
  TimedScheduler(lsched::Scheduler* inner, size_t max_queries,
                 SpanLog* spans = nullptr);
  std::string name() const override { return inner_->name(); }
  void Reset() override { inner_->Reset(); }
  lsched::SchedulingDecision Schedule(
      const lsched::SchedulingEvent& event,
      const lsched::SchedulingContext& ctx) override;
  using lsched::Scheduler::Schedule;
  void OnQueryCompleted(QueryId query, double latency) override;

  /// Per-call Schedule() latencies in seconds, in call order.
  const std::vector<double>& call_seconds() const { return call_seconds_; }
  void ClearCalls() { call_seconds_.clear(); }
  /// Driver-clock completion time of query `id` (NaN if not completed).
  double completion(QueryId id) const;
  /// Queries completed since construction or the last ResetCompletions().
  int completed() const { return completed_.load(std::memory_order_acquire); }
  void ResetCompletions();

 private:
  lsched::Scheduler* inner_;
  SpanLog* spans_;
  std::vector<double> call_seconds_;
  std::unique_ptr<std::atomic<double>[]> completion_;
  size_t max_queries_;
  std::atomic<int> completed_{0};
};

/// LSched's decision on its serving path (LSchedAgent::Schedule with the
/// fast path on), assembled by the driver from the public src/core serving
/// functions so that each stage can be timed: structural features
/// (EncodingCache::GetStructural and the QF rows), the query encoder on
/// cache misses (EncodingCache::EnsureEncoded, which runs
/// EncodeQueryServing), the all-queries embedding (ComputeAqeServing) and
/// the decision heads (RunPredictorServing). Greedy, it decides as
/// LSchedAgent with sampling off; after EnableSampling it samples and
/// records experiences as a training LSchedAgent with the same seed does.
/// Traced runs check both against the stock agent.
class LayerTimedLSched : public lsched::Scheduler {
 public:
  LayerTimedLSched(const lsched::LSchedModel* model, SpanLog* spans);
  std::string name() const override { return "LSched"; }
  void Reset() override;
  lsched::SchedulingDecision Schedule(
      const lsched::SchedulingEvent& event,
      const lsched::SchedulingContext& ctx) override;
  using lsched::Scheduler::Schedule;

  /// Samples actions from an Rng seeded `seed` (uniform among unmasked
  /// actions with probability `epsilon`) and records an Experience per
  /// decision, as LSchedAgent does with sampling and recording on.
  void EnableSampling(uint64_t seed, double epsilon);
  std::vector<lsched::Experience>& experiences() { return experiences_; }

  double features_s = 0.0, encode_s = 0.0, aqe_s = 0.0, heads_s = 0.0;
  int64_t decisions = 0, encodes = 0, candidates = 0, hits = 0, misses = 0;

 private:
  int Choose(const double* logprobs, int n);

  const lsched::LSchedModel* model_;
  lsched::FeatureExtractor extractor_;
  SpanLog* spans_;
  lsched::EncodingCache cache_;
  lsched::ScratchArena arena_;
  lsched::ServingPredictorOutput out_;
  bool sample_ = false;
  double epsilon_ = 0.0;
  lsched::Rng rng_;
  std::vector<lsched::Experience> experiences_;
};

/// What a traced run measured outside LayerTimedLSched, pooled over the
/// engine runs (sessions, script replays or episodes) it reports on.
struct LayerFigures {
  /// Schedule() call latencies (TimedScheduler), seconds.
  std::vector<double> decision_s;
  /// Wall time the engine spent outside Schedule(), seconds.
  double engine_s = 0.0;
  int64_t queries = 0, work_orders = 0;
  /// Worker-state buckets: idle plus stalled, and wall.
  int64_t idle_ns = 0, wall_ns = 0;
  /// Latency decomposition of the runs passed to AddDecomposition.
  int64_t queue_ns = 0, service_ns = 0, decomposed = 0;
  /// Query latencies, ms.
  std::vector<double> latency_ms;

  /// Adds a run's queries, work orders and worker-state buckets.
  void AddEngine(const lsched::EpisodeResult& r);
  void AddDecomposition(const lsched::EpisodeResult& r);
};

/// Reports the per-layer metrics (BENCHMARK.json "per_layer"): the same
/// set, from the same definitions, in every workload.
void ReportLayers(const LayerFigures& f, const LayerTimedLSched& lsched,
                  Report* report);

/// Reports the end-to-end metrics (BENCHMARK.json "end_to_end"), the same
/// set in every workload; peak RSS is read here. Wall-clock throughput is
/// not among them (README "Steadiness and bounds"): workloads print it on
/// stderr.
void ReportEndToEnd(double setup_s, double query_latency_mean_ms,
                    Report* report);

/// The fixed-weight model every workload serves or trains: the benches'
/// default LSched sizes, weights seeded by a constant so that the run seed
/// varies only the workload.
lsched::LSchedConfig ModelConfig();

/// Checks the properties every finished simulator run must have, one
/// operation per query: DONE; latency == completion - arrival; the
/// four-bucket decomposition sums to the total. Plus one operation for
/// work-order conservation (planned == dispatched == completed).
void CheckSimProperties(const lsched::EpisodeResult& r, int expected_queries,
                        const std::string& where, Report* report);

/// Copies every parameter value of `model`, in store order.
std::vector<double> SnapshotWeights(lsched::LSchedModel* model);

/// The span logs of a traced run: one for the driver's thread, one for the
/// engine thread that calls the scheduler when that is another thread.
struct Trace {
  SpanLog driver{1};
  SpanLog engine{2};
};

// Workload entry points (one per BENCHMARK.json workload). `trace` is null
// in untraced runs, which report the end-to-end metrics; traced runs report
// the per-layer metrics.
void RunRealServe(const Args& args, Report* report, Trace* trace);
void RunSimServeJob(const Args& args, Report* report, Trace* trace);
void RunSimTrainTpch(const Args& args, Report* report, Trace* trace);

}  // namespace lsbench

#endif  // LSBENCH_COMMON_H_
