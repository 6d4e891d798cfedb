#ifndef LSCHED_EXEC_SIM_ENGINE_H_
#define LSCHED_EXEC_SIM_ENGINE_H_

#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "exec/episode_recorder.h"
#include "exec/episode_result.h"
#include "exec/exec_types.h"
#include "exec/query_state.h"
#include "exec/scheduler.h"
#include "exec/scheduling_context.h"
#include "exec/serving_hooks.h"
#include "plan/cost_model.h"
#include "util/rng.h"

namespace lsched {

/// One query to run: its physical plan, its (virtual-time) arrival, and its
/// serving metadata (tenant/priority; defaulted for single-tenant runs).
struct QuerySubmission {
  QueryPlan plan;
  double arrival_time = 0.0;
  QueryTag tag;
};

struct SimEngineConfig {
  int num_threads = 60;
  std::vector<ThreadPoolEvent> thread_events;
  CostModelParams cost_params;
  uint64_t seed = 7;
  size_t regression_window = 32;
  /// Safety valve: abort (with whatever completed) past this virtual time.
  double max_virtual_seconds = 1e9;
  /// Max scheduler re-invocations per event while it keeps scheduling.
  int max_rounds_per_event = 128;
  /// Retry/backoff policy for failed work-order attempts (DESIGN.md §10).
  RetryPolicy retry;
  /// Per-work-order deadline in virtual seconds; attempts that would run
  /// longer fail at the deadline instead. 0 = no deadline.
  double work_order_deadline_seconds = 0.0;
  /// Scripted cancellations, applied at their virtual times. A cancel at or
  /// before the query's arrival cancels it on admission.
  std::vector<CancelRequest> cancels;
  /// Serving-layer callbacks (admission control, fairness/priority decision
  /// post-processing, tenant accounting; DESIGN.md §11). Not owned; null =
  /// episode mode, every arrival admitted, decisions applied verbatim.
  ServingHooks* hooks = nullptr;
};

/// Discrete-event simulator of the work-order execution model (paper §5.1):
/// a scheduler thread plus a pool of worker threads, each executing fused
/// pipeline work orders whose durations come from the cost model (plus
/// noise, locality gain, and memory-thrashing penalties). It triggers the
/// Scheduler exactly on the events of §5.2 and applies its decisions.
///
/// Scheduling state (live queries, thread occupancy, free-thread count,
/// per-query change versions) lives in an incremental SchedulingContext
/// mutated as events happen — no per-round snapshot rebuilds.
///
/// This is the substrate used for RL training and all large benchmark
/// sweeps; RealEngine executes the same decisions on real blocks.
class SimEngine {
 public:
  explicit SimEngine(SimEngineConfig config);

  /// Runs `workload` to completion under `scheduler` and returns telemetry.
  EpisodeResult Run(const std::vector<QuerySubmission>& workload,
                    Scheduler* scheduler);

  /// Cancels a live query at the current virtual time: marks it CANCELLED,
  /// kills its pipelines (in-flight attempts are discarded when they come
  /// back), and removes it from the scheduling context so policies stop
  /// scoring it. Callable from scheduler callbacks mid-run. Returns false
  /// if the query is unknown or already terminal (double-cancel and
  /// cancel-after-done are no-ops).
  bool CancelQuery(QueryId query);

  const SimEngineConfig& config() const { return config_; }

 private:
  struct ActivePipeline {
    QueryId query = kInvalidQuery;
    std::vector<int> chain;
    int total_fused = 0;
    int dispatched = 0;  ///< attempts handed to threads (incl. retries)
    int inflight = 0;
    int next_wo = 0;     ///< next fresh work-order index to dispatch
    int succeeded = 0;   ///< work orders that completed successfully
    bool dead = false;   ///< query reached a terminal state; stop dispatching
    std::vector<int> retry_ready;  ///< failed work orders awaiting re-dispatch
    std::unordered_map<int, int> attempts;  ///< failed attempts per work order
    double not_before = 0.0;  ///< retry backoff: no dispatch before this time
    double est_seconds_per_fused = 0.0;
    double memory = 0.0;
    double created_at = 0.0;      ///< virtual time the pipeline was launched
    int64_t decision_id = -1;     ///< obs decision-log id that launched it
    bool listed = false;          ///< present in dispatchable_

    /// Live with fresh or retry work left to hand out.
    bool HasPendingWork() const {
      return !dead && (next_wo < total_fused || !retry_ready.empty());
    }
  };

  /// Sim-local per-thread state; occupancy/locality (busy, running_query,
  /// last_query) lives in the SchedulingContext's ThreadInfo.
  struct SimThread {
    int id = 0;
    // In-flight work order.
    int pipeline_index = -1;  ///< index into active_pipelines_
    int wo_index = -1;        ///< fused work-order index within the pipeline
    bool attempt_failed = false;  ///< injected fault / deadline overrun
    double busy_since = 0.0;
    double busy_until = 0.0;
    bool retired = false;  ///< removed from the pool (skipped everywhere)
  };

  struct SimEvent {
    double time = 0.0;
    int64_t seq = 0;  ///< FIFO tiebreak
    enum Kind {
      kArrival,
      kWorkOrderDone,
      kPoolChange,
      kCancel,      ///< scripted cancellation (payload: config cancel index)
      kRetryReady,  ///< a retry backoff elapsed (payload: pipeline index)
    } kind = kArrival;
    int payload = 0;  ///< arrival: workload index; done: thread id
    bool operator>(const SimEvent& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  // --- helpers used by Run ------------------------------------------------
  void ResetRunState();
  bool AnyPendingFusedWork() const;
  void ApplyDecision(const SchedulingDecision& decision, double now);
  int AssignThreads(double now);  ///< returns #dispatches made
  void DispatchTo(int thread_id, int pipeline_idx, double now);
  void InvokeScheduler(const SchedulingEvent& event, Scheduler* scheduler,
                       double now);
  void ForceFallbackSchedule(double now);
  /// Moves a live query to terminal `status` (kCancelled/kFailed, or kShed
  /// for admission-time displacement of a still-ADMITTED query): flips the
  /// state machine, kills its pipelines (accounting dropped work orders),
  /// removes it from the scheduling context. Returns false for
  /// unknown/already-terminal queries.
  bool TerminateQuery(QueryId query, QueryStatus status, double now);

  SimEngineConfig config_;
  CostModel cost_model_;

  // Per-run state.
  Rng rng_{0};
  std::vector<std::unique_ptr<QueryState>> queries_;
  std::vector<SimThread> threads_;
  SchedulingContext ctx_;
  /// Per-thread state accountants (DESIGN.md §8.3), indexed by thread id
  /// like `threads_`. Virtual-clock integer-ns charges, so buckets are
  /// bit-identical across replays. A deque because WorkerAccount holds
  /// atomics (non-movable) and the pool can grow mid-run.
  std::deque<prof::WorkerAccount> accounts_;
  std::vector<ActivePipeline> active_pipelines_;
  /// Ascending indices into active_pipelines_ of every pipeline with work
  /// left to dispatch (plus ones that ran out since the last scan, which
  /// AssignThreads drops lazily), so a dispatch scan skips the exhausted
  /// pipelines of a long run. A retry that revives an exhausted pipeline
  /// re-inserts it in order; the scan order, and hence every tie-break,
  /// is that of a scan over all pipelines.
  std::vector<int> dispatchable_;
  std::vector<int> candidates_scratch_;  ///< AssignThreads' per-pass list
  std::priority_queue<SimEvent, std::vector<SimEvent>, std::greater<SimEvent>>
      events_;
  int64_t event_seq_ = 0;
  EpisodeRecorder recorder_;
  /// Decision-log id of the in-flight scheduler/fallback decision; tags
  /// pipelines created by ApplyDecision.
  int64_t current_decision_id_ = -1;
  /// Queries that reached a terminal state (DONE + CANCELLED + FAILED).
  int terminal_queries_ = 0;
  int pending_thread_removals_ = 0;
};

}  // namespace lsched

#endif  // LSCHED_EXEC_SIM_ENGINE_H_
