#include "exec/sim_engine.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "testing/faultpoint.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace lsched {

SimEngine::SimEngine(SimEngineConfig config)
    : config_(std::move(config)), cost_model_(config_.cost_params) {}

void SimEngine::ResetRunState() {
  rng_ = Rng(config_.seed);
  queries_.clear();
  threads_.assign(static_cast<size_t>(config_.num_threads), SimThread{});
  ctx_.Reset();
  accounts_.clear();
  for (size_t i = 0; i < threads_.size(); ++i) {
    threads_[i].id = static_cast<int>(i);
    ThreadInfo info;
    info.id = threads_[i].id;
    ctx_.AddThread(info);
    accounts_.emplace_back();
    accounts_.back().Start(0, prof::WorkerState::kIdle);
  }
  active_pipelines_.clear();
  dispatchable_.clear();
  while (!events_.empty()) events_.pop();
  event_seq_ = 0;
  current_decision_id_ = -1;
  terminal_queries_ = 0;
  pending_thread_removals_ = 0;
  // Scripted cancels are queued before arrivals (Run) so that at equal
  // times the lower sequence number wins the tie and a cancel at t <=
  // arrival deterministically cancels the query on admission.
  for (size_t i = 0; i < config_.cancels.size(); ++i) {
    events_.push(SimEvent{config_.cancels[i].time, event_seq_++,
                          SimEvent::kCancel, static_cast<int>(i)});
  }
  for (size_t i = 0; i < config_.thread_events.size(); ++i) {
    events_.push(SimEvent{config_.thread_events[i].time, event_seq_++,
                          SimEvent::kPoolChange, static_cast<int>(i)});
  }
}

bool SimEngine::AnyPendingFusedWork() const {
  for (const int i : dispatchable_) {
    if (active_pipelines_[static_cast<size_t>(i)].HasPendingWork()) {
      return true;
    }
  }
  return false;
}

bool SimEngine::TerminateQuery(QueryId query, QueryStatus status, double now) {
  if (query < 0 || static_cast<size_t>(query) >= queries_.size()) return false;
  QueryState* q = queries_[static_cast<size_t>(query)].get();
  if (q == nullptr || IsTerminalStatus(q->status())) return false;
  LSCHED_CHECK(q->TransitionTo(status));
  // Kill the query's pipelines: pending fused work is dropped, in-flight
  // attempts are discarded when they come back, retries are abandoned.
  int64_t dropped = 0;
  for (ActivePipeline& p : active_pipelines_) {
    if (p.query != query || p.dead) continue;
    p.dead = true;
    p.retry_ready.clear();
    dropped += static_cast<int64_t>(p.total_fused - p.succeeded);
  }
  recorder_.OnQueryTerminated(q, now, dropped);
  if (ctx_.FindQuery(query) != nullptr) ctx_.RemoveQuery(query);
  ++terminal_queries_;
  if (config_.hooks != nullptr) config_.hooks->OnQueryTerminal(*q, now);
  return true;
}

bool SimEngine::CancelQuery(QueryId query) {
  return TerminateQuery(query, QueryStatus::kCancelled, ctx_.now());
}

void SimEngine::ApplyDecision(const SchedulingDecision& decision, double now) {
  (void)now;
  for (const ParallelismChoice& pc : decision.parallelism) {
    if (QueryState* q = ctx_.FindQuery(pc.query)) {
      q->set_max_threads(std::max(0, pc.max_threads));
    }
  }
  for (const PipelineChoice& choice : decision.pipelines) {
    QueryState* q = ctx_.FindQuery(choice.query);
    if (q == nullptr) continue;
    if (choice.root_op < 0 ||
        choice.root_op >= static_cast<int>(q->plan().num_nodes())) {
      continue;
    }
    if (!q->IsOpSchedulable(choice.root_op)) continue;

    std::vector<int> valid = q->ValidPipelineFrom(choice.root_op);
    const int degree =
        std::clamp(choice.degree, 1, static_cast<int>(valid.size()));
    valid.resize(static_cast<size_t>(degree));

    ActivePipeline pipeline;
    pipeline.query = q->id();
    pipeline.chain = valid;
    pipeline.total_fused =
        std::max(q->plan().node(valid[0]).num_work_orders, 1);
    pipeline.est_seconds_per_fused =
        cost_model_.PipelineWorkOrderSeconds(q->plan(), valid);
    pipeline.memory = cost_model_.PipelineMemory(q->plan(), valid);
    pipeline.created_at = now;
    pipeline.decision_id = current_decision_id_;
    for (int op : valid) q->set_op_scheduled(op, true);
    // Scheduling flags entered the query's feature inputs: invalidate
    // cached encodings.
    ctx_.MarkQueryDirty(q->id());
    recorder_.OnPipelineLaunched(current_decision_id_, q->id(), valid[0],
                                 degree, pipeline.total_fused, now);
    pipeline.listed = true;
    dispatchable_.push_back(static_cast<int>(active_pipelines_.size()));
    active_pipelines_.push_back(std::move(pipeline));
  }
}

void SimEngine::DispatchTo(int thread_id, int pipeline_idx, double now) {
  ActivePipeline& p = active_pipelines_[static_cast<size_t>(pipeline_idx)];
  SimThread& t = threads_[static_cast<size_t>(thread_id)];

  QueryState* q = ctx_.FindQuery(p.query);
  LSCHED_CHECK(q != nullptr);

  // Pick the work order: retries first (FIFO), then the next fresh index.
  const bool is_retry = !p.retry_ready.empty();
  int wo_index;
  if (is_retry) {
    wo_index = p.retry_ready.front();
    p.retry_ready.erase(p.retry_ready.begin());
  } else {
    wo_index = p.next_wo++;
  }

  double duration = p.est_seconds_per_fused;
  const double noise =
      std::max(0.05, rng_.Normal(1.0, config_.cost_params.noise_cv));
  duration *= noise;
  const ThreadInfo* info = ctx_.thread(thread_id);
  LSCHED_CHECK(info != nullptr);
  if (info->last_query == p.query) {
    duration *= (1.0 - config_.cost_params.locality_gain);
  }
  // Intra-query contention: k threads (incl. this one) on the same query.
  duration *= 1.0 + config_.cost_params.intra_query_contention *
                        static_cast<double>(q->assigned_threads());
  duration = std::max(duration, 1e-9);

  // Fault injection at the canonical execution point. Probed AFTER the
  // noise draw so the RNG sequence — and therefore every duration — of a
  // run with faults compiled out (or disarmed) is bit-identical to a
  // no-fault run.
  bool attempt_failed = false;
  if (const FaultAction fault = LSCHED_FAULT("work_order_exec", p.query, now)) {
    if (fault.type == FaultType::kError) {
      attempt_failed = true;  // the attempt consumes its full duration
    } else {
      duration += std::max(0.0, fault.param);  // kDelay / kStall
    }
  }
  // Per-work-order deadline: the attempt is aborted at the deadline.
  if (config_.work_order_deadline_seconds > 0.0 &&
      duration > config_.work_order_deadline_seconds) {
    attempt_failed = true;
    duration = config_.work_order_deadline_seconds;
    recorder_.OnWorkOrderExpired();
  }

  const bool first_dispatch = p.dispatched == 0;
  ++p.dispatched;
  ++p.inflight;
  ctx_.SetThreadBusy(thread_id, p.query);
  t.pipeline_index = pipeline_idx;
  t.wo_index = wo_index;
  t.attempt_failed = attempt_failed;
  t.busy_since = now;
  t.busy_until = now + duration;
  q->set_assigned_threads(q->assigned_threads() + 1);
  const int inflight = ctx_.total_threads() - ctx_.num_free_threads();
  recorder_.OnWorkOrderDispatched(p.query, is_retry, inflight,
                                  now - p.created_at, now);

  if (obs::Enabled()) {
    // Virtual-time spans: the work order's full extent is known at
    // dispatch, so record it immediately against the simulated thread.
    recorder_.RecordVirtualSpan(
        EpisodeRecorder::SimSpanKind::kWorkOrder, now * 1e6,
        static_cast<float>(duration * 1e6), static_cast<uint32_t>(thread_id),
        static_cast<uint32_t>(p.query), pipeline_idx);
    if (first_dispatch && now > p.created_at) {
      recorder_.RecordVirtualSpan(
          EpisodeRecorder::SimSpanKind::kQueueWait, p.created_at * 1e6,
          static_cast<float>((now - p.created_at) * 1e6),
          static_cast<uint32_t>(thread_id), static_cast<uint32_t>(p.query));
    }
  }

  accounts_[static_cast<size_t>(thread_id)].Transition(
      prof::WorkerState::kExecuting, LatencyNs(now));

  events_.push(SimEvent{now + duration, event_seq_++, SimEvent::kWorkOrderDone,
                        thread_id});
}

int SimEngine::AssignThreads(double now) {
  int dispatched = 0;
  while (true) {
    // Candidate pipelines with pending fused work whose query is below its
    // parallelism cap, in ascending pipeline order. Pipelines that ran out
    // of work are unlisted on the way.
    std::vector<int>& candidates = candidates_scratch_;
    candidates.clear();
    size_t kept = 0;
    for (const int i : dispatchable_) {
      ActivePipeline& p = active_pipelines_[static_cast<size_t>(i)];
      if (!p.HasPendingWork()) {
        p.listed = false;
        continue;
      }
      dispatchable_[kept++] = i;
      if (p.not_before > now + 1e-12) continue;  // retry backoff pending
      QueryState* q = ctx_.FindQuery(p.query);
      if (q == nullptr) continue;
      const int cap =
          q->max_threads() > 0 ? q->max_threads() : config_.num_threads;
      if (q->assigned_threads() >= cap) continue;
      candidates.push_back(i);
    }
    dispatchable_.resize(kept);
    if (candidates.empty()) return dispatched;

    // Pick a free thread, preferring one with locality to some candidate.
    int thread_id = -1;
    int chosen_pipeline = -1;
    for (const ThreadInfo& t : ctx_.threads()) {
      if (t.busy) continue;
      for (int ci : candidates) {
        if (active_pipelines_[static_cast<size_t>(ci)].query == t.last_query) {
          thread_id = t.id;
          chosen_pipeline = ci;
          break;
        }
      }
      if (thread_id >= 0) break;
    }
    if (thread_id < 0) {
      for (const ThreadInfo& t : ctx_.threads()) {
        if (!t.busy) {
          thread_id = t.id;
          break;
        }
      }
      if (thread_id < 0) return dispatched;  // no free thread
      // Least-loaded query first (fair progress among scheduled pipelines).
      double best_load = 1e300;
      for (int ci : candidates) {
        const ActivePipeline& p = active_pipelines_[static_cast<size_t>(ci)];
        if (const QueryState* q = ctx_.FindQuery(p.query)) {
          const double load = static_cast<double>(q->assigned_threads());
          if (load < best_load) {
            best_load = load;
            chosen_pipeline = ci;
          }
        }
      }
    }
    if (chosen_pipeline < 0) return dispatched;
    DispatchTo(thread_id, chosen_pipeline, now);
    ++dispatched;
  }
}

void SimEngine::InvokeScheduler(const SchedulingEvent& event,
                                Scheduler* scheduler, double now) {
  // Per §5.2: no decisions if all threads are busy or nothing to schedule.
  // Exception: a query-cancelled event is a lifecycle notification the
  // policy must always see (it may be tracking the query), even when no
  // decision is currently possible.
  ctx_.set_now(now);
  const bool lifecycle = event.type == SchedulingEventType::kQueryCancelled;
  for (int round = 0; round < config_.max_rounds_per_event; ++round) {
    const bool can_schedule =
        ctx_.num_free_threads() > 0 && ctx_.AnySchedulableOp();
    if (!can_schedule && !(lifecycle && round == 0)) return;
    Stopwatch sw;
    SchedulingDecision decision = scheduler->Schedule(event, ctx_);
    // Serving layer post-processing (priority classes, weighted fairness)
    // sits between the policy and the engine; ApplyDecision re-validates
    // every choice, so injected launches can never corrupt run state.
    if (config_.hooks != nullptr) {
      config_.hooks->FilterDecision(&decision, ctx_);
    }
    current_decision_id_ = recorder_.OnSchedulerInvocation(
        event, ctx_, decision, sw.ElapsedSeconds());
    if (decision.empty()) return;
    const size_t before = active_pipelines_.size();
    ApplyDecision(decision, now);
    AssignThreads(now);
    if (active_pipelines_.size() == before) return;  // no new pipelines
  }
}

void SimEngine::ForceFallbackSchedule(double now) {
  // Deadlock guard: the policy scheduled nothing although work exists.
  // Launch the first schedulable operator of the oldest query, degree 1.
  for (QueryState* q : ctx_.queries()) {
    const std::vector<int> ops = q->SchedulableOps();
    if (ops.empty()) continue;
    SchedulingDecision d;
    d.pipelines.push_back(PipelineChoice{q->id(), ops[0], 1});
    current_decision_id_ = recorder_.OnFallback(now, ctx_, q->id());
    ApplyDecision(d, now);
    AssignThreads(now);
    return;
  }
}

EpisodeResult SimEngine::Run(const std::vector<QuerySubmission>& workload,
                             Scheduler* scheduler) {
  ResetRunState();
  recorder_.Begin("sim", scheduler, /*virtual_time=*/true, workload.size());
  scheduler->Reset();

  for (size_t i = 0; i < workload.size(); ++i) {
    events_.push(SimEvent{workload[i].arrival_time, event_seq_++,
                          SimEvent::kArrival, static_cast<int>(i)});
  }
  queries_.resize(workload.size());

  double now = 0.0;
  while (!events_.empty()) {
    const SimEvent ev = events_.top();
    events_.pop();
    now = ev.time;
    ctx_.set_now(now);
    if (now > config_.max_virtual_seconds) {
      LSCHED_LOG(Warning) << "simulation exceeded max virtual time";
      break;
    }

    if (ev.kind == SimEvent::kArrival) {
      const size_t idx = static_cast<size_t>(ev.payload);
      // queries_[idx] already set means the query was cancelled before it
      // arrived (admit-and-cancel): nothing to admit.
      if (queries_[idx] == nullptr) {
        queries_[idx] = std::make_unique<QueryState>(
            static_cast<QueryId>(idx), workload[idx].plan, now,
            config_.regression_window);
        QueryState* q = queries_[idx].get();
        q->set_tag(workload[idx].tag);
        recorder_.OnQueryArrival(*q, now);
        // Admission fault point: a kError here rejects the query (terminal
        // FAILED) before it ever reaches the scheduler.
        const FaultAction admit =
            LSCHED_FAULT("query_admit", static_cast<QueryId>(idx), now);
        if (admit && admit.type == FaultType::kError) {
          LSCHED_CHECK(q->TransitionTo(QueryStatus::kFailed));
          recorder_.OnQueryTerminated(q, now, 0);
          ++terminal_queries_;
          if (config_.hooks != nullptr) {
            config_.hooks->OnEngineRefused(*q, now);
            config_.hooks->OnQueryTerminal(*q, now);
          }
        } else if (AdmissionVerdict verdict =
                       config_.hooks != nullptr
                           ? config_.hooks->OnAdmission(*q, ctx_, now)
                           : AdmissionVerdict{};
                   !verdict.admit) {
          // Load shed: terminal before the scheduler ever sees the query.
          recorder_.OnAdmissionVerdict(q->id(), now, /*admitted=*/false,
                                       kInvalidQuery);
          LSCHED_CHECK(q->TransitionTo(QueryStatus::kShed));
          recorder_.OnQueryTerminated(q, now, 0);
          ++terminal_queries_;
          config_.hooks->OnQueryTerminal(*q, now);
        } else {
          // A higher-priority arrival may displace a pending lower-priority
          // query. Only ADMITTED (never-launched) queries are eligible — a
          // stale/illegal victim id is ignored rather than fatal.
          QueryId displaced = kInvalidQuery;
          if (verdict.displace != kInvalidQuery) {
            const size_t vi = static_cast<size_t>(verdict.displace);
            if (vi < queries_.size() && queries_[vi] != nullptr &&
                queries_[vi]->status() == QueryStatus::kAdmitted) {
              displaced = verdict.displace;
            }
          }
          recorder_.OnAdmissionVerdict(q->id(), now, /*admitted=*/true,
                                       displaced);
          if (displaced != kInvalidQuery) {
            recorder_.OnQueryDisplaced(displaced, q->id(), now);
            if (TerminateQuery(displaced, QueryStatus::kShed, now)) {
              SchedulingEvent shed_ev;
              shed_ev.type = SchedulingEventType::kQueryCancelled;
              shed_ev.time = now;
              shed_ev.query = displaced;
              InvokeScheduler(shed_ev, scheduler, now);
            }
          }
          ctx_.AddQuery(q);
          SchedulingEvent se;
          se.type = SchedulingEventType::kQueryArrival;
          se.time = now;
          se.query = static_cast<QueryId>(idx);
          InvokeScheduler(se, scheduler, now);
          AssignThreads(now);
        }
      }
    } else if (ev.kind == SimEvent::kCancel) {
      const CancelRequest& cr = config_.cancels[static_cast<size_t>(ev.payload)];
      if (cr.query >= 0 && static_cast<size_t>(cr.query) < queries_.size()) {
        const size_t idx = static_cast<size_t>(cr.query);
        if (queries_[idx] == nullptr) {
          // Not yet arrived: admit-and-cancel so the terminal status is
          // deterministic regardless of arrival/cancel ordering.
          queries_[idx] = std::make_unique<QueryState>(
              cr.query, workload[idx].plan, now, config_.regression_window);
          QueryState* q = queries_[idx].get();
          q->set_tag(workload[idx].tag);
          recorder_.OnQueryArrival(*q, now);
          LSCHED_CHECK(q->TransitionTo(QueryStatus::kCancelled));
          recorder_.OnQueryTerminated(q, now, 0);
          ++terminal_queries_;
          if (config_.hooks != nullptr) {
            config_.hooks->OnEngineRefused(*q, now);
            config_.hooks->OnQueryTerminal(*q, now);
          }
        } else if (TerminateQuery(cr.query, QueryStatus::kCancelled, now)) {
          // The cancel freed this query's claim on threads/memory: tell the
          // scheduler so it can re-plan, then backfill the pool.
          SchedulingEvent se;
          se.type = SchedulingEventType::kQueryCancelled;
          se.time = now;
          se.query = cr.query;
          InvokeScheduler(se, scheduler, now);
          AssignThreads(now);
        }
      }
    } else if (ev.kind == SimEvent::kRetryReady) {
      // A retry backoff elapsed; backfill idle threads.
      AssignThreads(now);
    } else if (ev.kind == SimEvent::kPoolChange) {
      const ThreadPoolEvent& change =
          config_.thread_events[static_cast<size_t>(ev.payload)];
      SchedulingEvent se;
      se.time = now;
      if (change.delta > 0) {
        for (int k = 0; k < change.delta; ++k) {
          SimThread t;
          t.id = static_cast<int>(threads_.size());
          threads_.push_back(t);
          ThreadInfo info;
          info.id = t.id;
          ctx_.AddThread(info);
          accounts_.emplace_back();
          accounts_.back().Start(LatencyNs(now), prof::WorkerState::kIdle);
        }
        se.type = SchedulingEventType::kThreadAdded;
      } else if (change.delta < 0) {
        int to_remove = -change.delta;
        for (SimThread& t : threads_) {
          if (to_remove == 0) break;
          const ThreadInfo* info = ctx_.thread(t.id);
          if (!t.retired && info != nullptr && !info->busy) {
            t.retired = true;
            ctx_.RetireThread(t.id);
            accounts_[static_cast<size_t>(t.id)].Stop(LatencyNs(now));
            --to_remove;
          }
        }
        // Busy threads retire as their current work order completes.
        pending_thread_removals_ += to_remove;
        se.type = SchedulingEventType::kThreadRemoved;
      }
      InvokeScheduler(se, scheduler, now);
      AssignThreads(now);
    } else {  // kWorkOrderDone
      SimThread& t = threads_[static_cast<size_t>(ev.payload)];
      const int pipeline_idx = t.pipeline_index;
      LSCHED_CHECK(pipeline_idx >= 0);
      ActivePipeline& p =
          active_pipelines_[static_cast<size_t>(pipeline_idx)];
      // The owning query may already be terminal (cancelled/failed while
      // this attempt was in flight), in which case it has left the
      // scheduling context — resolve it through the owning store instead.
      QueryState* q = queries_[static_cast<size_t>(p.query)].get();
      LSCHED_CHECK(q != nullptr);
      const int wo_index = t.wo_index;
      const bool attempt_failed = t.attempt_failed;
      const double busy_since = t.busy_since;

      // Free the thread first — identical bookkeeping for every outcome.
      --p.inflight;
      ctx_.SetThreadIdle(t.id, p.query);
      t.pipeline_index = -1;
      t.wo_index = -1;
      t.attempt_failed = false;
      q->set_assigned_threads(q->assigned_threads() - 1);
      if (pending_thread_removals_ > 0 && !t.retired) {
        t.retired = true;
        ctx_.RetireThread(t.id);
        --pending_thread_removals_;
      }
      {
        prof::WorkerAccount& acct = accounts_[static_cast<size_t>(t.id)];
        if (t.retired) {
          acct.Stop(LatencyNs(now));
        } else {
          // Work outstanding anywhere in the system means this free thread
          // is stalled on a dependency, not idle.
          const bool work_exists =
              AnyPendingFusedWork() || !ctx_.queries().empty();
          acct.Transition(work_exists ? prof::WorkerState::kStalled
                                      : prof::WorkerState::kIdle,
                          LatencyNs(now));
        }
      }

      std::vector<int> completed_ops;
      bool emit_cancel_event = false;
      if (p.dead) {
        // The query reached a terminal state while this attempt was in
        // flight: throw the result away.
        recorder_.OnWorkOrderDiscarded();
      } else if (attempt_failed) {
        recorder_.OnWorkOrderFailed(p.query, now);
        const int attempt = ++p.attempts[wo_index];
        if (attempt > config_.retry.max_retries) {
          // Retry budget exhausted: the whole query fails.
          TerminateQuery(p.query, QueryStatus::kFailed, now);
          emit_cancel_event = true;
        } else {
          recorder_.OnWorkOrderRetried(p.query, now);
          p.retry_ready.push_back(wo_index);
          if (!p.listed) {
            p.listed = true;
            dispatchable_.insert(std::lower_bound(dispatchable_.begin(),
                                                  dispatchable_.end(),
                                                  pipeline_idx),
                                 pipeline_idx);
          }
          const double backoff = config_.retry.BackoffFor(attempt);
          if (backoff > 0.0) {
            p.not_before = std::max(p.not_before, now + backoff);
            events_.push(SimEvent{now + backoff, event_seq_++,
                                  SimEvent::kRetryReady, pipeline_idx});
          }
        }
      } else {
        // Success: advance every pipeline member proportionally and detect
        // operator completions.
        const double fused_total = static_cast<double>(p.total_fused);
        for (size_t s = 0; s < p.chain.size(); ++s) {
          const int op = p.chain[s];
          const double amount =
              static_cast<double>(q->plan().node(op).num_work_orders) /
              fused_total;
          const double op_share =
              p.est_seconds_per_fused / static_cast<double>(p.chain.size());
          const double mem_share =
              q->plan().node(op).est_mem_per_wo * amount;
          if (q->AdvanceOperator(op, amount, op_share, mem_share)) {
            completed_ops.push_back(op);
          }
        }
        // Operator progress changed (O-WO/O-DUR/O-MEM, possibly completion
        // flags): invalidate cached encodings for this query.
        ctx_.MarkQueryDirty(q->id());
        q->AddAttainedService(p.est_seconds_per_fused);
        recorder_.OnWorkOrderCompleted(p.query, p.decision_id,
                                       now - busy_since, now);
        ++p.succeeded;

        // Retire fully-executed pipelines (swap-erase keeps indices of
        // other pipelines stable only if we fix thread references, so mark
        // instead). We leave exhausted pipelines in place; they are
        // skipped by AssignThreads and cleared when the run ends.

        const bool query_done = q->completed();
        if (query_done && q->completion_time() < 0.0) {
          recorder_.OnQueryCompleted(q, now);
          ++terminal_queries_;
          ctx_.RemoveQuery(q->id());
          if (config_.hooks != nullptr) config_.hooks->OnQueryTerminal(*q, now);
        }
      }

      // Re-dispatch pending work first; the scheduler is only consulted on
      // the major events of §5.2 — an operator completing, a thread left
      // with nothing to do, or a query leaving the system — not on every
      // work-order completion.
      AssignThreads(now);
      SchedulingEvent se;
      se.time = now;
      bool should_invoke = false;
      if (emit_cancel_event) {
        se.type = SchedulingEventType::kQueryCancelled;
        se.query = p.query;
        should_invoke = true;
      } else if (!completed_ops.empty()) {
        se.type = SchedulingEventType::kOperatorCompleted;
        se.query = p.query;
        se.op = completed_ops.front();
        should_invoke = true;
      } else {
        // A retired thread (nullptr) still surfaces its final idle event.
        const ThreadInfo* info = ctx_.thread(t.id);
        if (info == nullptr || !info->busy) {
          se.type = SchedulingEventType::kThreadIdle;
          se.thread = t.id;
          should_invoke = true;
        }
      }
      if (should_invoke) {
        InvokeScheduler(se, scheduler, now);
        AssignThreads(now);
      }
    }

    // Deadlock guard: live queries but no running or pending work.
    const bool any_busy = ctx_.num_free_threads() != ctx_.total_threads();
    if (!any_busy && !AnyPendingFusedWork() &&
        terminal_queries_ < static_cast<int>(queries_.size()) &&
        events_.empty()) {
      if (!ctx_.queries().empty()) {
        ForceFallbackSchedule(now);
      }
    }
  }

  // Close every still-live account at the final virtual time and hand the
  // exact buckets to the recorder (Stop on an already-stopped/retired
  // account re-charges a zero-length interval, so this is safe for all).
  std::vector<prof::WorkerStateBuckets> worker_states;
  worker_states.reserve(accounts_.size());
  for (size_t i = 0; i < accounts_.size(); ++i) {
    if (!threads_[i].retired) accounts_[i].Stop(LatencyNs(now));
    worker_states.push_back(accounts_[i].Read());
  }
  recorder_.OnWorkerStates(std::move(worker_states));

  recorder_.Finalize(now);
  return recorder_.Take();
}

}  // namespace lsched
