#include "exec/episode_recorder.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "exec/query_state.h"
#include "obs/trace.h"
#include "plan/operator_type.h"
#include "util/math_util.h"

namespace lsched {

namespace {

/// Every currently-schedulable (query, op) pair into `entry`'s candidate
/// set (the first kMaxLoggedCandidates stored, all counted). When
/// `schedulable` is non-null, also collects the id of every query with at
/// least one schedulable operator — the trace layer's considered-but-
/// skipped set — so the per-invocation plan walk happens exactly once.
void CollectCandidates(const SchedulingContext& ctx, obs::DecisionEntry* entry,
                       std::vector<QueryId>* schedulable) {
  for (const QueryState* q : ctx.queries()) {
    // Probe IsOpSchedulable directly: SchedulableOps() allocates a vector
    // per query, too hot for a path run on every scheduler invocation.
    const int ops = static_cast<int>(q->plan().num_nodes());
    bool any = false;
    for (int op = 0; op < ops; ++op) {
      if (!q->IsOpSchedulable(op)) continue;
      if (!any && schedulable != nullptr) schedulable->push_back(q->id());
      any = true;
      entry->AddCandidate(q->id(), op);
    }
  }
}

/// Interned `name_of(key)`, memoized in `cache` (0 = not interned yet).
template <typename Enum, typename NameFn>
uint16_t CachedNameId(std::array<uint16_t, 256>* cache, Enum key,
                      NameFn name_of) {
  uint16_t& id = (*cache)[static_cast<uint8_t>(key)];
  if (id == 0) id = obs::InternName(name_of(key));
  return id;
}

/// Static names/categories/arg labels per SimSpanKind, applied when the
/// compact episode buffer is expanded into TraceEvents (Finalize).
struct SpanMeta {
  const char* name;
  const char* category;
  const char* arg1_name;
  const char* arg2_name;
};
constexpr SpanMeta kSpanMeta[] = {
    {"engine.work_order", "engine", "query", "pipeline"},
    {"sched.queue_wait", "sched", "query", nullptr},
    {"sched.pipeline_launch", "sched", "query", "root_op"},
    {"engine.query_completed", "engine", "query", nullptr},
    {"engine.query_terminated", "engine", "query", "status"},
};

}  // namespace

EpisodeRecorder::EpisodeRecorder() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  invocations_ = reg.GetCounter("sched.invocations");
  actions_ = reg.GetCounter("sched.pipelines_launched");
  fallbacks_ = reg.GetCounter("sched.fallback_decisions");
  work_orders_dispatched_ = reg.GetCounter("engine.work_orders_dispatched");
  work_orders_completed_ = reg.GetCounter("engine.work_orders_completed");
  queries_completed_ = reg.GetCounter("engine.queries_completed");
  cancel_total_ = reg.GetCounter("exec.cancel_total");
  retry_total_ = reg.GetCounter("exec.retry_total");
  fail_total_ = reg.GetCounter("exec.fail_total");
  shed_total_ = reg.GetCounter("exec.shed_total");
  inflight_high_water_ = reg.GetGauge("engine.inflight_high_water");
  sched_overhead_fraction_ = reg.GetGauge("exec.sched_overhead_fraction");
  decision_seconds_ = reg.GetHistogram("sched.decision_seconds");
  pipeline_degree_ = reg.GetHistogram("sched.pipeline_degree");
  queue_wait_seconds_ = reg.GetHistogram("sched.queue_wait_seconds");
  work_order_seconds_ = reg.GetHistogram("engine.work_order_seconds");
  query_latency_seconds_ = reg.GetHistogram("engine.query_latency_seconds");
}

void EpisodeRecorder::Begin(const char* engine_name, Scheduler* scheduler,
                            bool virtual_time, size_t num_queries) {
  result_ = EpisodeResult{};
  result_.final_statuses.assign(num_queries, QueryStatus::kAdmitted);
  result_.query_breakdowns.assign(num_queries, LatencyBreakdown{});
  timelines_.clear();
  timelines_.resize(num_queries);
#if LSCHED_OBS_ENABLED
  query_edges_.clear();
  trace_on_ =
      obs::Enabled() && obs::QueryTraceLog::Global().capture_enabled();
#endif
  engine_name_ = engine_name;
  scheduler_ = scheduler;
  virtual_time_ = virtual_time;
  pending_base_ = -1;
  pending_.clear();
  engine_name_id_ = obs::InternName(engine_name);
  policy_name_id_ =
      scheduler != nullptr ? obs::InternName(scheduler->name()) : 0;
  vs_next_ = 0;
  vs_total_ = 0;
  if (virtual_time && obs::Enabled()) {
    const size_t cap = obs::Tracer::Global().capacity();
    if (virtual_spans_.size() != cap) virtual_spans_.resize(cap);
  } else {
    virtual_spans_.clear();
  }
  local_invocations_ = 0;
  local_actions_ = 0;
  local_fallbacks_ = 0;
  local_dispatched_ = 0;
  local_completed_ = 0;
  local_queries_completed_ = 0;
  local_cancels_ = 0;
  local_retries_ = 0;
  local_query_failures_ = 0;
  local_sheds_ = 0;
  flushed_inflight_high_water_ = 0;
  lh_decision_seconds_.Reset();
  lh_pipeline_degree_.Reset();
  lh_queue_wait_seconds_.Reset();
  lh_work_order_seconds_.Reset();
  lh_query_latency_seconds_.Reset();
}

void EpisodeRecorder::TrackQuery(QueryId qid) {
  if (qid < 0) return;
  const size_t n = static_cast<size_t>(qid) + 1;
  if (result_.final_statuses.size() < n) {
    result_.final_statuses.resize(n, QueryStatus::kAdmitted);
  }
}

EpisodeRecorder::QueryTimeline* EpisodeRecorder::TimelineFor(
    QueryId qid, double arrival_time) {
  if (qid < 0) return nullptr;
  const size_t idx = static_cast<size_t>(qid);
  if (timelines_.size() <= idx) timelines_.resize(idx + 1);
  QueryTimeline& t = timelines_[idx];
  if (!t.started) {
    t.started = true;
    t.arrival_ns = LatencyNs(arrival_time);
    t.last_ns = t.arrival_ns;
  }
  return &t;
}

void EpisodeRecorder::AdvanceTimeline(QueryTimeline& t, double now) {
  // Charge the elapsed nanoseconds to the *current* mode, then let the
  // caller apply the state change. Deltas telescope from arrival to
  // terminal, which is what makes the decomposition sum exact.
  const int64_t now_ns = LatencyNs(now);
  const int64_t delta = now_ns - t.last_ns;
  if (t.inflight > 0) {
    t.breakdown.service_ns += delta;
  } else if (t.retries_pending > 0) {
    t.breakdown.stall_ns += delta;
  } else if (t.launched) {
    t.breakdown.queue_ns += delta;
  } else {
    t.breakdown.admission_ns += delta;
  }
  t.last_ns = now_ns;
}

void EpisodeRecorder::FinishTimeline(QueryState* query, double now) {
  QueryTimeline* t = TimelineFor(query->id(), query->arrival_time());
  if (t == nullptr || t->finished) return;
  AdvanceTimeline(*t, now);
  t->finished = true;
  t->breakdown.total_ns = LatencyNs(now) - t->arrival_ns;
  t->breakdown.valid = true;
  query->set_breakdown(t->breakdown);

  const size_t idx = static_cast<size_t>(query->id());
  if (result_.query_breakdowns.size() <= idx) {
    result_.query_breakdowns.resize(idx + 1);
  }
  result_.query_breakdowns[idx] = t->breakdown;
  result_.sum_admission_wait_ns += t->breakdown.admission_ns;
  result_.sum_queue_wait_ns += t->breakdown.queue_ns;
  result_.sum_service_time_ns += t->breakdown.service_ns;
  result_.sum_stall_time_ns += t->breakdown.stall_ns;
  result_.sum_latency_ns += t->breakdown.total_ns;
  ++result_.num_queries_decomposed;

#if LSCHED_OBS_ENABLED
  if (trace_on_) {
    obs::QueryTraceRecord rec;
    rec.query = query->id();
    rec.tenant = query->tag().tenant;
    rec.priority = static_cast<int32_t>(query->tag().priority);
    rec.engine = engine_name_;
    rec.final_status = static_cast<int32_t>(query->status());
    rec.arrival_time = query->arrival_time();
    rec.terminal_time = now;
    rec.breakdown = t->breakdown;
    if (query_edges_.size() <= idx) query_edges_.resize(idx + 1);
    QueryEdges& qe = query_edges_[idx];
    obs::TraceEdge term;
    term.time = now;
    term.kind = obs::TraceEdgeKind::kTerminal;
    term.a = static_cast<int64_t>(query->status());
    term.value = t->breakdown.total_seconds();
    // Published exactly sized; the terminal edge is always kept, even past
    // the cap. A capped buffer already has the one spare slot (see
    // AddTraceEdge), so only shorter traces are copied.
    if (qe.edges.capacity() == qe.edges.size() + 1) {
      qe.edges.push_back(term);
      rec.edges = std::move(qe.edges);
    } else {
      rec.edges.reserve(qe.edges.size() + 1);
      rec.edges.assign(qe.edges.begin(), qe.edges.end());
      rec.edges.push_back(term);
    }
    rec.dropped_edges = qe.dropped;
    qe = QueryEdges{};  // release the slot's memory in serving mode
    obs::QueryTraceLog::Global().Record(std::move(rec));
  }
#endif
}

#if LSCHED_OBS_ENABLED
void EpisodeRecorder::AddTraceEdge(QueryId qid, const obs::TraceEdge& e) {
  if (qid < 0) return;
  const size_t idx = static_cast<size_t>(qid);
  if (query_edges_.size() <= idx) query_edges_.resize(idx + 1);
  QueryEdges& qe = query_edges_[idx];
  constexpr size_t kCap = static_cast<size_t>(obs::kMaxTraceEdgesPerQuery);
  if (qe.edges.size() >= kCap) {
    ++qe.dropped;
    return;
  }
  // Grow geometrically but never past the cap plus the terminal edge's
  // slot, so a capped query's buffer is exactly its published size.
  if (qe.edges.size() == qe.edges.capacity()) {
    const size_t grown = std::max<size_t>(16, 2 * qe.edges.size());
    qe.edges.reserve(grown >= kCap ? kCap + 1 : grown);
  }
  qe.edges.push_back(e);
}
#endif

void EpisodeRecorder::OnQueryArrival(const QueryState& query, double /*now*/) {
  TimelineFor(query.id(), query.arrival_time());
#if LSCHED_OBS_ENABLED
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = query.arrival_time();
    e.kind = obs::TraceEdgeKind::kArrival;
    e.a = query.tag().tenant;
    e.b = static_cast<int64_t>(query.tag().priority);
    AddTraceEdge(query.id(), e);
  }
#endif
}

void EpisodeRecorder::OnAdmissionVerdict(QueryId qid, double now,
                                         bool admitted, QueryId displaced) {
#if LSCHED_OBS_ENABLED
  if (!trace_on_) return;
  obs::TraceEdge e;
  e.time = now;
  if (admitted) {
    e.kind = obs::TraceEdgeKind::kAdmit;
    e.a = displaced != kInvalidQuery ? 1 : 0;
    AddTraceEdge(qid, e);
    if (displaced != kInvalidQuery) {
      obs::TraceEdge d;
      d.time = now;
      d.kind = obs::TraceEdgeKind::kDisplace;
      d.a = displaced;
      AddTraceEdge(qid, d);
    }
  } else {
    e.kind = obs::TraceEdgeKind::kShed;
    AddTraceEdge(qid, e);
  }
#else
  (void)qid;
  (void)now;
  (void)admitted;
  (void)displaced;
#endif
}

void EpisodeRecorder::OnQueryDisplaced(QueryId victim, QueryId newcomer,
                                       double now) {
#if LSCHED_OBS_ENABLED
  if (!trace_on_) return;
  obs::TraceEdge e;
  e.time = now;
  e.kind = obs::TraceEdgeKind::kDisplacedBy;
  e.a = newcomer;
  AddTraceEdge(victim, e);
#else
  (void)victim;
  (void)newcomer;
  (void)now;
#endif
}

int64_t EpisodeRecorder::OnSchedulerInvocation(
    const SchedulingEvent& event, const SchedulingContext& ctx,
    const SchedulingDecision& decision, double wall_seconds) {
  result_.scheduler_wall_seconds += wall_seconds;
  ++result_.num_scheduler_invocations;
  result_.decisions.push_back(
      {ctx.now(), static_cast<int>(ctx.queries().size())});

  if (!obs::Enabled()) return -1;
  ++local_invocations_;
  lh_decision_seconds_.Observe(wall_seconds);

  obs::DecisionEntry& rec = entry_scratch_;
  rec.Reset();
  rec.time = ctx.now();
  rec.engine = engine_name_id_;
  rec.event =
      CachedNameId(&event_name_ids_, event.type, SchedulingEventTypeName);
  rec.policy = policy_name_id_;
#if LSCHED_OBS_ENABLED
  considered_scratch_.clear();
  CollectCandidates(ctx, &rec, trace_on_ ? &considered_scratch_ : nullptr);
#else
  CollectCandidates(ctx, &rec, nullptr);
#endif
  rec.running_queries = static_cast<int>(ctx.queries().size());
  rec.free_threads = ctx.num_free_threads();
  if (!decision.pipelines.empty()) {
    rec.chosen_query = decision.pipelines.front().query;
    rec.chosen_root = decision.pipelines.front().root_op;
    rec.degree = decision.pipelines.front().degree;
    if (const QueryState* q = ctx.FindQuery(rec.chosen_query)) {
      // Operator type of the chosen root: the per-key attribution the
      // drift monitor groups prediction errors by.
      if (rec.chosen_root >= 0 &&
          rec.chosen_root < static_cast<int>(q->plan().num_nodes())) {
        rec.op_type = CachedNameId(&op_type_name_ids_,
                                   q->plan().node(rec.chosen_root).type,
                                   OperatorTypeName);
      }
      // Tenant of the chosen query: keys the per-tenant drift shards.
      rec.tenant = q->tag().tenant;
    }
  }
  if (!decision.parallelism.empty()) {
    rec.max_threads = decision.parallelism.front().max_threads;
  }
  rec.predicted_score = obs::TakePredictedScore();
  rec.schedule_wall_us = wall_seconds * 1e6;
  const int64_t chosen_query = rec.chosen_query;
  const double predicted_score = rec.predicted_score;
  const int64_t decision_id = obs::DecisionLog::Global().Add(rec);
  TrackDecision(decision_id, rec);

  // Drain the serving-action channel even when tracing is off, so stale
  // annotations from one invocation can never leak into a later one.
  obs::ServingAction actions[32];
  const size_t num_actions =
      obs::TakeServingActions(actions, sizeof(actions) / sizeof(actions[0]));
#if LSCHED_OBS_ENABLED
  if (trace_on_) {
    // "Considered but skipped": every query with at least one schedulable
    // operator that this decision did not launch gets a causal edge tying
    // its wait to the decision (and the policy's predicted score for what
    // it chose instead). The set was collected by the CollectCandidates
    // walk above — no second plan scan.
    obs::TraceEdge e;
    e.time = ctx.now();
    e.kind = obs::TraceEdgeKind::kConsideredSkipped;
    e.a = decision_id;
    e.b = chosen_query;
    e.value = predicted_score;
    for (const QueryId qid : considered_scratch_) {
      if (qid == chosen_query) continue;
      AddTraceEdge(qid, e);
    }
    // Fairness redirections / injections announced by the serving policy's
    // FilterDecision, which ran immediately before on this same thread.
    for (size_t i = 0; i < num_actions; ++i) {
      const obs::ServingAction& a = actions[i];
      obs::TraceEdge e;
      e.time = ctx.now();
      if (a.kind == obs::ServingAction::kRedirect) {
        e.kind = obs::TraceEdgeKind::kRedirected;
        e.a = a.other;
        AddTraceEdge(a.query, e);
        obs::TraceEdge w;
        w.time = ctx.now();
        w.kind = obs::TraceEdgeKind::kInjected;
        w.a = a.query;
        w.value = 2.0;
        AddTraceEdge(a.other, w);
      } else {
        e.kind = obs::TraceEdgeKind::kInjected;
        e.a = a.other;
        e.value = a.kind == obs::ServingAction::kInjectPriority ? 1.0 : 2.0;
        AddTraceEdge(a.query, e);
      }
    }
  }
#endif
  return decision_id;
}

void EpisodeRecorder::OnPipelineLaunched(int64_t decision_id, QueryId query,
                                         int root_op, int degree,
                                         int64_t planned_work_orders,
                                         double now) {
  ++result_.num_actions;
  result_.num_work_orders_planned += planned_work_orders;
  if (QueryTimeline* t = TimelineFor(query, now)) {
    if (!t->finished) {
      AdvanceTimeline(*t, now);
      t->launched = true;  // admission wait ends at the first launch
    }
  }
#if LSCHED_OBS_ENABLED
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = now;
    e.kind = obs::TraceEdgeKind::kScheduled;
    e.a = decision_id;
    e.b = root_op;
    e.value = static_cast<double>(degree);
    AddTraceEdge(query, e);
  }
#endif

  if (!obs::Enabled()) return;
  ++local_actions_;
  lh_pipeline_degree_.Observe(static_cast<double>(degree));
  obs::DecisionLog::Global().AddPipeline(decision_id, planned_work_orders);
  if (virtual_time_) {
    RecordVirtualSpan(SimSpanKind::kPipelineLaunch, now * 1e6, -1.0f,
                      obs::ThreadId(), static_cast<uint32_t>(query), root_op);
  } else {
    obs::TraceEvent e;
    e.name = "sched.pipeline_launch";
    e.category = "sched";
    e.ts_us = obs::NowMicros();
    e.tid = obs::ThreadId();
    e.arg1_name = "query";
    e.arg1 = static_cast<int64_t>(query);
    e.arg2_name = "root_op";
    e.arg2 = root_op;
    obs::Tracer::Global().RecordSpan(e);
  }
}

void EpisodeRecorder::OnWorkOrderDispatched(QueryId query, bool retry,
                                            int inflight_now,
                                            double queue_wait_seconds,
                                            double now) {
  ++result_.num_work_orders_dispatched;
  result_.max_inflight_work_orders =
      std::max(result_.max_inflight_work_orders, inflight_now);
  if (QueryTimeline* t = TimelineFor(query, now)) {
    if (!t->finished) {
      AdvanceTimeline(*t, now);
      ++t->inflight;
      ++t->breakdown.dispatches;
      if (retry && t->retries_pending > 0) --t->retries_pending;
    }
  }

  if (!obs::Enabled()) return;
  ++local_dispatched_;
  lh_queue_wait_seconds_.Observe(std::max(0.0, queue_wait_seconds));
#if LSCHED_OBS_ENABLED
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = now;
    e.kind = obs::TraceEdgeKind::kDispatch;
    e.value = retry ? 1.0 : 0.0;
    AddTraceEdge(query, e);
  }
#endif
}

void EpisodeRecorder::OnWorkOrderCompleted(QueryId query, int64_t decision_id,
                                           double seconds, double now) {
  ++result_.num_work_orders_completed;
  if (QueryTimeline* t = TimelineFor(query, now)) {
    if (!t->finished) {
      AdvanceTimeline(*t, now);
      if (t->inflight > 0) --t->inflight;
    }
  }
#if LSCHED_OBS_ENABLED
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = now;
    e.kind = obs::TraceEdgeKind::kComplete;
    e.value = seconds;
    AddTraceEdge(query, e);
  }
#endif

  if (!obs::Enabled()) return;
  ++local_completed_;
  lh_work_order_seconds_.Observe(seconds);
  if (decision_id >= 0) {
    // Coordinator-local accumulation; flushed to the decision log (one
    // mutex acquisition per decision, not per work order) in FlushWindow.
    const int64_t idx = decision_id - pending_base_;
    if (pending_base_ >= 0 && idx >= 0 &&
        idx < static_cast<int64_t>(pending_.size())) {
      pending_[static_cast<size_t>(idx)].realized_seconds += seconds;
    } else {
      // A decision of an earlier window (serving mode): back-fill it now.
      obs::DecisionLog::Global().AddRealized(decision_id, seconds);
    }
  }
}

void EpisodeRecorder::TrackDecision(int64_t id,
                                    const obs::DecisionEntry& entry) {
  if (id < 0) return;
  if (pending_.empty()) pending_base_ = id;
  // Ids are process-global: decisions other code logged in between (guard
  // fallbacks, other engines) leave zero-cost gaps that are never flushed.
  const size_t idx = static_cast<size_t>(id - pending_base_);
  if (idx >= pending_.size()) pending_.resize(idx + 1);
  PendingBackfill& p = pending_[idx];
  p.realized_seconds = 0.0;
  p.predicted_score = entry.predicted_score;
  p.op_type = entry.op_type;
  p.tenant = entry.tenant;
}

void EpisodeRecorder::OnWorkOrderFailed(QueryId query, double now) {
  ++result_.num_work_orders_failed;
  if (QueryTimeline* t = TimelineFor(query, now)) {
    if (!t->finished) {
      AdvanceTimeline(*t, now);
      if (t->inflight > 0) --t->inflight;
    }
  }
#if LSCHED_OBS_ENABLED
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = now;
    e.kind = obs::TraceEdgeKind::kFailed;
    AddTraceEdge(query, e);
  }
#endif
}

void EpisodeRecorder::OnWorkOrderRetried(QueryId query, double now) {
  ++result_.num_retries;
  if (QueryTimeline* t = TimelineFor(query, now)) {
    if (!t->finished) {
      AdvanceTimeline(*t, now);
      ++t->retries_pending;
      ++t->breakdown.retries;
    }
  }
#if LSCHED_OBS_ENABLED
  if (trace_on_) {
    obs::TraceEdge e;
    e.time = now;
    e.kind = obs::TraceEdgeKind::kRetry;
    AddTraceEdge(query, e);
  }
#endif
  if (obs::Enabled()) ++local_retries_;
}

void EpisodeRecorder::OnWorkOrderDiscarded() {
  ++result_.num_work_orders_discarded;
}

void EpisodeRecorder::OnWorkOrderExpired() {
  ++result_.num_work_orders_expired;
}

double EpisodeRecorder::OnQueryCompleted(QueryState* query, double now) {
  query->TransitionTo(QueryStatus::kDone);
  FinishTimeline(query, now);
  const QueryId qid = query->id();
  if (qid >= 0 &&
      static_cast<size_t>(qid) < result_.final_statuses.size()) {
    result_.final_statuses[static_cast<size_t>(qid)] = QueryStatus::kDone;
  }
  query->set_completion_time(now);
  const double latency = now - query->arrival_time();
  result_.query_arrivals.push_back(query->arrival_time());
  result_.query_completions.push_back(now);
  result_.query_latencies.push_back(latency);
  if (scheduler_ != nullptr) scheduler_->OnQueryCompleted(query->id(), latency);

  if (obs::Enabled()) {
    ++local_queries_completed_;
    lh_query_latency_seconds_.Observe(latency);
    if (virtual_time_) {
      RecordVirtualSpan(SimSpanKind::kQueryCompleted, now * 1e6, -1.0f,
                        obs::ThreadId(),
                        static_cast<uint32_t>(query->id()));
    } else {
      obs::TraceEvent e;
      e.name = "engine.query_completed";
      e.category = "engine";
      e.ts_us = obs::NowMicros();
      e.tid = obs::ThreadId();
      e.arg1_name = "query";
      e.arg1 = static_cast<int64_t>(query->id());
      obs::Tracer::Global().RecordSpan(e);
    }
  }
  return latency;
}

void EpisodeRecorder::OnQueryTerminated(QueryState* query, double now,
                                        int64_t dropped_work_orders) {
  FinishTimeline(query, now);
  const QueryStatus status = query->status();
  const QueryId qid = query->id();
  if (qid >= 0 &&
      static_cast<size_t>(qid) < result_.final_statuses.size()) {
    result_.final_statuses[static_cast<size_t>(qid)] = status;
  }
  result_.num_work_orders_dropped += dropped_work_orders;
  if (status == QueryStatus::kCancelled) ++result_.num_queries_cancelled;
  if (status == QueryStatus::kFailed) ++result_.num_queries_failed;
  if (status == QueryStatus::kShed) ++result_.num_queries_shed;

  if (!obs::Enabled()) return;
  if (status == QueryStatus::kCancelled) ++local_cancels_;
  if (status == QueryStatus::kFailed) ++local_query_failures_;
  if (status == QueryStatus::kShed) ++local_sheds_;
  if (virtual_time_) {
    RecordVirtualSpan(SimSpanKind::kQueryTerminated, now * 1e6, -1.0f,
                      obs::ThreadId(), static_cast<uint32_t>(qid),
                      static_cast<int32_t>(status));
  } else {
    obs::TraceEvent e;
    e.name = "engine.query_terminated";
    e.category = "engine";
    e.ts_us = obs::NowMicros();
    e.tid = obs::ThreadId();
    e.arg1_name = "query";
    e.arg1 = static_cast<int64_t>(qid);
    e.arg2_name = "status";
    e.arg2 = static_cast<int64_t>(status);
    obs::Tracer::Global().RecordSpan(e);
  }
}

int64_t EpisodeRecorder::OnFallback(double now, const SchedulingContext& ctx,
                                    QueryId chosen) {
  ++result_.num_fallback_decisions;

  if (!obs::Enabled()) return -1;
  ++local_fallbacks_;
  static const uint16_t kFallbackEvent = obs::InternName("fallback");
  obs::DecisionEntry& rec = entry_scratch_;
  rec.Reset();
  rec.time = now;
  rec.engine = engine_name_id_;
  rec.event = kFallbackEvent;
  rec.policy = policy_name_id_;
  rec.fallback = true;
  if (chosen >= 0) {
    rec.chosen_query = chosen;
    if (const QueryState* q = ctx.FindQuery(chosen)) {
      rec.tenant = q->tag().tenant;
    }
  }
  const int64_t decision_id = obs::DecisionLog::Global().Add(rec);
  TrackDecision(decision_id, rec);
#if LSCHED_OBS_ENABLED
  if (trace_on_) {
    for (const QueryState* q : ctx.queries()) {
      if (q->id() == chosen) continue;
      const int ops = static_cast<int>(q->plan().num_nodes());
      bool schedulable = false;
      for (int op = 0; op < ops; ++op) {
        if (q->IsOpSchedulable(op)) {
          schedulable = true;
          break;
        }
      }
      if (!schedulable) continue;
      obs::TraceEdge e;
      e.time = now;
      e.kind = obs::TraceEdgeKind::kFallback;
      e.a = decision_id;
      e.b = chosen;
      AddTraceEdge(q->id(), e);
    }
  }
#endif
  return decision_id;
}

void EpisodeRecorder::OnWorkerStates(
    std::vector<prof::WorkerStateBuckets> buckets) {
  result_.worker_states = std::move(buckets);
  int64_t dispatch_ns = 0;
  int64_t wall_ns = 0;
  for (const prof::WorkerStateBuckets& b : result_.worker_states) {
    dispatch_ns += b.ns[static_cast<int>(prof::WorkerState::kDispatch)];
    wall_ns += b.wall_ns;
  }
  const double sched_seconds = result_.scheduler_wall_seconds;
  const double denom = sched_seconds + static_cast<double>(wall_ns) * 1e-9;
  result_.sched_overhead_fraction =
      denom > 0.0
          ? (sched_seconds + static_cast<double>(dispatch_ns) * 1e-9) / denom
          : 0.0;
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  while (worker_gauges_.size() < result_.worker_states.size()) {
    const size_t i = worker_gauges_.size();
    std::array<obs::Gauge*, prof::kNumWorkerStates> gauges{};
    for (int s = 0; s < prof::kNumWorkerStates; ++s) {
      char name[64];
      std::snprintf(name, sizeof(name), "exec.worker%zu.%s_seconds", i,
                    prof::WorkerStateName(static_cast<prof::WorkerState>(s)));
      gauges[static_cast<size_t>(s)] = reg.GetGauge(name);
    }
    worker_gauges_.push_back(gauges);
  }
  for (size_t i = 0; i < result_.worker_states.size(); ++i) {
    const prof::WorkerStateBuckets& b = result_.worker_states[i];
    for (int s = 0; s < prof::kNumWorkerStates; ++s) {
      worker_gauges_[i][static_cast<size_t>(s)]->Set(
          static_cast<double>(b.ns[s]) * 1e-9);
    }
  }
  sched_overhead_fraction_->Set(result_.sched_overhead_fraction);
}

void EpisodeRecorder::FlushWindow() {
  if (obs::Enabled()) {
    invocations_->Add(local_invocations_);
    actions_->Add(local_actions_);
    fallbacks_->Add(local_fallbacks_);
    work_orders_dispatched_->Add(local_dispatched_);
    work_orders_completed_->Add(local_completed_);
    queries_completed_->Add(local_queries_completed_);
    cancel_total_->Add(local_cancels_);
    retry_total_->Add(local_retries_);
    fail_total_->Add(local_query_failures_);
    shed_total_->Add(local_sheds_);
    if (result_.max_inflight_work_orders > flushed_inflight_high_water_) {
      inflight_high_water_->Set(
          static_cast<double>(result_.max_inflight_work_orders));
      flushed_inflight_high_water_ = result_.max_inflight_work_orders;
    }
    decision_seconds_->MergeSnapshot(lh_decision_seconds_.snap);
    pipeline_degree_->MergeSnapshot(lh_pipeline_degree_.snap);
    queue_wait_seconds_->MergeSnapshot(lh_queue_wait_seconds_.snap);
    work_order_seconds_->MergeSnapshot(lh_work_order_seconds_.snap);
    query_latency_seconds_->MergeSnapshot(lh_query_latency_seconds_.snap);
    // Realized per-decision costs flow into the decision log here, which
    // notifies its back-fill observer — so an attached DriftMonitor keeps
    // scoring mid-stream without waiting for an episode end. The observer
    // sees every decision of the window from this buffer, however many
    // of them the log's ring still retains.
    obs::DecisionLog& log = obs::DecisionLog::Global();
    for (size_t i = 0; i < pending_.size(); ++i) {
      const PendingBackfill& p = pending_[i];
      if (p.realized_seconds == 0.0) continue;
      obs::BackfillSample sample;
      sample.id = pending_base_ + static_cast<int64_t>(i);
      sample.predicted_score = p.predicted_score;
      sample.realized_seconds = p.realized_seconds;
      sample.op_type = p.op_type;
      sample.tenant = p.tenant;
      log.Backfill(sample, p.realized_seconds);
    }
    log.PublishGauges();
    obs::QueryTraceLog::Global().PublishGauges();
    if (vs_total_ > 0) {
      // Expand the surviving compact records into full TraceEvents in
      // chronological order (oldest surviving entry first when the local
      // ring wrapped) and hand them to the tracer in one batch, charging
      // the ring's own drops so Tracer::dropped_events() stays truthful.
      const size_t size = virtual_spans_.size();
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(vs_total_, size));
      const size_t start = vs_total_ > size ? vs_next_ : 0;
      flush_scratch_.clear();
      flush_scratch_.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        size_t idx = start + i;
        if (idx >= size) idx -= size;
        const CompactSpan& c = virtual_spans_[idx];
        const SpanMeta& m = kSpanMeta[static_cast<size_t>(c.kind)];
        obs::TraceEvent e;
        e.name = m.name;
        e.category = m.category;
        e.ts_us = c.ts_us;
        e.dur_us = c.dur_us < 0.0f ? -1.0 : static_cast<double>(c.dur_us);
        e.tid = c.tid;
        e.arg1_name = m.arg1_name;
        e.arg1 = c.query;
        e.arg2_name = m.arg2_name;
        e.arg2 = c.arg2;
        flush_scratch_.push_back(e);
      }
      obs::Tracer::Global().RecordSpans(flush_scratch_.data(), n, vs_total_);
    }
  }
  local_invocations_ = 0;
  local_actions_ = 0;
  local_fallbacks_ = 0;
  local_dispatched_ = 0;
  local_completed_ = 0;
  local_queries_completed_ = 0;
  local_cancels_ = 0;
  local_retries_ = 0;
  local_query_failures_ = 0;
  local_sheds_ = 0;
  lh_decision_seconds_.Reset();
  lh_pipeline_degree_.Reset();
  lh_queue_wait_seconds_.Reset();
  lh_work_order_seconds_.Reset();
  lh_query_latency_seconds_.Reset();
  pending_base_ = -1;
  pending_.clear();
  vs_next_ = 0;
  vs_total_ = 0;
}

EpisodeResult EpisodeRecorder::SnapshotResult(double now) const {
  EpisodeResult snap = result_;
  snap.avg_latency = Mean(snap.query_latencies);
  snap.p90_latency = Percentile(snap.query_latencies, 90.0);
  snap.makespan = now;
  return snap;
}

void EpisodeRecorder::Finalize(double makespan) {
  result_.avg_latency = Mean(result_.query_latencies);
  result_.p90_latency = Percentile(result_.query_latencies, 90.0);
  result_.makespan = makespan;
  FlushWindow();
}

}  // namespace lsched
