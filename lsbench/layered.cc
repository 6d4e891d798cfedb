// The layer-timed LSched decision and the metric sets every workload
// reports (per-layer and end-to-end).
#include <algorithm>
#include <cmath>

#include "common.h"

namespace lsbench {

using namespace lsched;

LayerTimedLSched::LayerTimedLSched(const LSchedModel* model, SpanLog* spans)
    : model_(model), extractor_(model->config().features), spans_(spans) {}

void LayerTimedLSched::Reset() {
  experiences_.clear();
  cache_.Clear();
}

void LayerTimedLSched::EnableSampling(uint64_t seed, double epsilon) {
  sample_ = true;
  epsilon_ = epsilon;
  rng_ = Rng(seed);
}

namespace {
int Argmax(const double* v, int n) {
  int best = 0;
  for (int c = 1; c < n; ++c) {
    if (v[c] > v[best]) best = c;
  }
  return best;
}
}  // namespace

// LSchedAgent::SelectAction's choice of one sub-action, draw for draw.
int LayerTimedLSched::Choose(const double* logprobs, int n) {
  if (!sample_) return Argmax(logprobs, n);
  std::vector<double> probs(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) {
    probs[static_cast<size_t>(c)] = std::exp(logprobs[c]);
  }
  if (epsilon_ > 0.0 && rng_.Uniform() < epsilon_) {
    std::vector<double> uniform(probs.size(), 0.0);
    for (size_t i = 0; i < probs.size(); ++i) {
      uniform[i] = probs[i] > 1e-30 ? 1.0 : 0.0;
    }
    const size_t idx = rng_.WeightedIndex(uniform);
    if (idx < probs.size()) return static_cast<int>(idx);
  }
  const size_t idx = rng_.WeightedIndex(probs);
  return idx >= probs.size() ? 0 : static_cast<int>(idx);
}

SchedulingDecision LayerTimedLSched::Schedule(const SchedulingEvent& event,
                                              const SchedulingContext& ctx) {
  (void)event;
  SchedulingDecision decision;
  if (ctx.num_free_threads() == 0) return decision;
  arena_.Reset();
  const std::vector<QueryState*>& queries = ctx.queries();

  double t = Now();
  const int64_t features_span = spans_ ? spans_->Begin("core.features") : -1;
  const int64_t hits0 = cache_.hits(), misses0 = cache_.misses();
  ServingStateView view;
  view.total_threads = ctx.total_threads();
  view.free_threads = ctx.num_free_threads();
  std::vector<EncodingCache::Entry*> entries(queries.size());
  std::vector<std::vector<double>> qf_rows(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryState* q = queries[qi];
    EncodingCache::Entry& entry = cache_.GetStructural(
        *q, ctx.query_version(q->id()), *model_, extractor_);
    entries[qi] = &entry;
    view.queries.push_back(&entry.features);
    qf_rows[qi] = extractor_.ExtractQf(*q, ctx);
    view.qf.push_back(&qf_rows[qi]);
    int head_row = 0;
    for (const auto& [op, degree] : entry.candidates) {
      Candidate c;
      c.query_index = static_cast<int>(qi);
      c.op = op;
      c.max_degree = degree;
      view.candidates.push_back(c);
      view.head_row.push_back(head_row++);
    }
  }
  hits += cache_.hits() - hits0;
  misses += cache_.misses() - misses0;
  if (spans_) spans_->End(features_span);
  features_s += Now() - t;
  if (view.candidates.empty()) return decision;

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (!entries[qi]->encoded) {
      ScopedSpan span(spans_, "core.encode", -1, queries[qi]->id());
      t = Now();
      cache_.EnsureEncoded(entries[qi], *model_, &arena_);
      encode_s += Now() - t;
      ++encodes;
    }
    view.encoded.push_back(&entries[qi]->enc);
    view.head_in.push_back(&entries[qi]->head_in);
  }
  t = Now();
  Matrix aqe;
  {
    ScopedSpan span(spans_, "core.aqe");
    aqe = ComputeAqeServing(*model_, view, &arena_);
  }
  const double t_heads = Now();
  aqe_s += t_heads - t;
  {
    ScopedSpan span(spans_, "core.heads");
    RunPredictorServing(*model_, view, aqe, &arena_, &out_);
  }
  heads_s += Now() - t_heads;
  ++decisions;
  candidates += static_cast<int64_t>(view.candidates.size());

  const int max_deg = out_.degree_logprobs.cols();
  const int num_par = out_.par_logprobs.cols();
  SchedulingAction action;
  action.candidate_index =
      Choose(out_.root_logprobs.data(), out_.root_logprobs.cols());
  action.degree_index = Choose(out_.degree_logprobs.data() +
                                   static_cast<size_t>(action.candidate_index) *
                                       static_cast<size_t>(max_deg),
                               max_deg);
  action.parallelism_index =
      Choose(out_.par_logprobs.data() +
                 static_cast<size_t>(action.candidate_index) *
                     static_cast<size_t>(num_par),
             num_par);
  const Candidate& c =
      view.candidates[static_cast<size_t>(action.candidate_index)];
  const QueryFeatures& qf = *view.queries[static_cast<size_t>(c.query_index)];
  decision.pipelines.push_back(
      PipelineChoice{qf.qid, c.op, action.degree_index + 1});
  const double frac =
      model_->config()
          .parallelism_fractions[static_cast<size_t>(action.parallelism_index)];
  const int max_threads = std::max(
      1, static_cast<int>(
             std::lround(frac * static_cast<double>(view.total_threads))));
  decision.parallelism.push_back(ParallelismChoice{qf.qid, max_threads});

  if (sample_) {
    // The experience LSchedAgent records for the trainer's replay.
    Experience exp;
    exp.time = ctx.now();
    exp.num_running_queries = static_cast<int>(queries.size());
    exp.action = action;
    exp.state.time = ctx.now();
    exp.state.total_threads = view.total_threads;
    exp.state.free_threads = view.free_threads;
    exp.state.candidates = view.candidates;
    exp.state.queries.reserve(queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      QueryFeatures f = *view.queries[qi];
      f.qf = std::move(qf_rows[qi]);
      exp.state.queries.push_back(std::move(f));
    }
    experiences_.push_back(std::move(exp));
  }
  if (cache_.size() > queries.size() * 2 + 16) cache_.Trim(queries);
  return decision;
}

void LayerFigures::AddEngine(const EpisodeResult& r) {
  queries += static_cast<int64_t>(r.final_statuses.size());
  work_orders += r.num_work_orders_completed;
  // Idle share: worker time with no work order to run, whether none
  // existed (idle) or the runnable ones were blocked (stalled).
  for (const prof::WorkerStateBuckets& w : r.worker_states) {
    idle_ns += w.ns[static_cast<int>(prof::WorkerState::kIdle)] +
               w.ns[static_cast<int>(prof::WorkerState::kStalled)];
    wall_ns += w.wall_ns;
  }
}

void LayerFigures::AddDecomposition(const EpisodeResult& r) {
  queue_ns += r.sum_queue_wait_ns;
  service_ns += r.sum_service_time_ns;
  decomposed += r.num_queries_decomposed;
}

void ReportLayers(const LayerFigures& f, const LayerTimedLSched& l,
                  Report* report) {
  auto ratio = [](double num, double den) {
    return num / std::max(den, 1.0);
  };
  const double decisions = static_cast<double>(l.decisions);
  const double queries = static_cast<double>(f.queries);
  const double wos = static_cast<double>(f.work_orders);
  report->Metric("sched.decision_us_p50", Percentile(f.decision_s, 0.50) * 1e6,
                 "us");
  report->Metric("sched.decision_us_p99", Percentile(f.decision_s, 0.99) * 1e6,
                 "us");
  report->Metric("sched.decisions_per_query",
                 ratio(static_cast<double>(f.decision_s.size()), queries),
                 "count");
  report->Metric("core.features_us_per_decision",
                 ratio(l.features_s * 1e6, decisions), "us");
  report->Metric("core.encode_us_per_miss",
                 ratio(l.encode_s * 1e6, static_cast<double>(l.encodes)),
                 "us");
  report->Metric("core.aqe_us_per_decision", ratio(l.aqe_s * 1e6, decisions),
                 "us");
  report->Metric("core.heads_us_per_decision",
                 ratio(l.heads_s * 1e6, decisions), "us");
  report->Metric("core.encoding_cache_hit_rate",
                 ratio(static_cast<double>(l.hits),
                       static_cast<double>(l.hits + l.misses)),
                 "share");
  report->Metric("core.candidates_per_decision",
                 ratio(static_cast<double>(l.candidates), decisions), "count");
  report->Metric("exec.engine_us_per_work_order", ratio(f.engine_s * 1e6, wos),
                 "us");
  report->Metric("exec.work_orders_per_query", ratio(wos, queries), "count");
  report->Metric("exec.worker_idle_share",
                 ratio(static_cast<double>(f.idle_ns),
                       static_cast<double>(f.wall_ns)),
                 "share");
  const double decomposed = static_cast<double>(f.decomposed);
  report->Metric("serve.queue_wait_ms_mean",
                 ratio(static_cast<double>(f.queue_ns) * 1e-6, decomposed),
                 "ms");
  report->Metric("serve.service_ms_mean",
                 ratio(static_cast<double>(f.service_ns) * 1e-6, decomposed),
                 "ms");
  report->Metric("serve.query_latency_p50_ms", Percentile(f.latency_ms, 0.50),
                 "ms");
  report->Metric("serve.query_latency_p99_ms", Percentile(f.latency_ms, 0.99),
                 "ms");
}

void ReportEndToEnd(double setup_s, double query_latency_mean_ms,
                    Report* report) {
  report->Metric("setup_s", setup_s, "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("query_latency_mean_ms", query_latency_mean_ms, "ms");
}

}  // namespace lsbench
