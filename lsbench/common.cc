#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "nn/params.h"

namespace lsbench {

namespace {
// Initialised before main(): the start of the process, as far as the
// driver can see it.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();
}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (++reported_failures_ <= 20) {
    std::fprintf(stderr, "lsbench: FAILED %s\n", why.c_str());
  }
}

void Report::Check(bool ok, const std::string& what) {
  Attempt();
  if (!ok) Fail(what);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Print() const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed_ == 0 ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t request) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, parent, request, Now(), -1.0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end = Now();
}

int64_t SpanLog::Add(const char* name, double start, double end,
                     int64_t parent, int64_t request) {
  const int64_t id = Begin(name, parent, request);
  if (id >= 0) {
    spans_[static_cast<size_t>(id)].start = start;
    spans_[static_cast<size_t>(id)].end = end;
  }
  return id;
}

bool SpanLog::Write(const std::string& path,
                    const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [");
  const char* sep = "\n";
  int64_t dropped = 0;
  for (const SpanLog* log : logs) {
    dropped += log->dropped_;
    for (size_t i = 0; i < log->spans_.size(); ++i) {
      const Span& s = log->spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %lld, \"request\": %lld}}",
                   sep, s.name, log->tid_, s.start * 1e6,
                   (std::max(s.end, s.start) - s.start) * 1e6, i,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
      sep = ",\n";
    }
  }
  std::fprintf(f, "\n], \"droppedSpans\": %lld}\n",
               static_cast<long long>(dropped));
  return std::fclose(f) == 0;
}

TimedScheduler::TimedScheduler(lsched::Scheduler* inner, size_t max_queries,
                               SpanLog* spans)
    : inner_(inner),
      spans_(spans),
      completion_(new std::atomic<double>[max_queries]),
      max_queries_(max_queries) {
  ResetCompletions();
}

lsched::SchedulingDecision TimedScheduler::Schedule(
    const lsched::SchedulingEvent& event,
    const lsched::SchedulingContext& ctx) {
  ScopedSpan span(spans_, "sched.decision");
  const auto t0 = std::chrono::steady_clock::now();
  lsched::SchedulingDecision d = inner_->Schedule(event, ctx);
  call_seconds_.push_back(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  return d;
}

void TimedScheduler::OnQueryCompleted(QueryId query, double latency) {
  if (query >= 0 && static_cast<size_t>(query) < max_queries_) {
    completion_[static_cast<size_t>(query)].store(Now(),
                                                  std::memory_order_relaxed);
  }
  completed_.fetch_add(1, std::memory_order_release);
  inner_->OnQueryCompleted(query, latency);
}

double TimedScheduler::completion(QueryId id) const {
  if (id < 0 || static_cast<size_t>(id) >= max_queries_) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return completion_[static_cast<size_t>(id)].load(std::memory_order_relaxed);
}

void TimedScheduler::ResetCompletions() {
  for (size_t i = 0; i < max_queries_; ++i) {
    completion_[i].store(std::numeric_limits<double>::quiet_NaN(),
                         std::memory_order_relaxed);
  }
  completed_.store(0, std::memory_order_release);
}

lsched::LSchedConfig ModelConfig() {
  lsched::LSchedConfig cfg;
  cfg.hidden_dim = 12;
  cfg.summary_dim = 12;
  cfg.head_hidden = 16;
  cfg.num_conv_layers = 2;
  cfg.seed = 17;
  return cfg;
}

void CheckSimProperties(const lsched::EpisodeResult& r, int expected_queries,
                        const std::string& where, Report* report) {
  report->Check(r.num_work_orders_planned == r.num_work_orders_dispatched &&
                    r.num_work_orders_dispatched ==
                        r.num_work_orders_completed &&
                    r.num_work_orders_planned > 0,
                where + ": work orders planned == dispatched == completed");
  for (int q = 0; q < expected_queries; ++q) {
    const size_t qi = static_cast<size_t>(q);
    const bool done = qi < r.final_statuses.size() &&
                      r.final_statuses[qi] == lsched::QueryStatus::kDone;
    const bool split = qi < r.query_breakdowns.size() &&
                       r.query_breakdowns[qi].valid &&
                       r.query_breakdowns[qi].SumNs() ==
                           r.query_breakdowns[qi].total_ns;
    // query_latencies/arrivals/completions are in completion order; entry q
    // of those stands for the q-th query to complete.
    const bool latency =
        qi < r.query_latencies.size() && qi < r.query_arrivals.size() &&
        qi < r.query_completions.size() &&
        r.query_latencies[qi] ==
            r.query_completions[qi] - r.query_arrivals[qi];
    report->Check(done && split && latency,
                  where + ": query " + std::to_string(q) +
                      (done ? "" : " not DONE") +
                      (split ? "" : " decomposition != total") +
                      (latency ? "" : " latency != completion - arrival"));
  }
}

std::vector<double> SnapshotWeights(lsched::LSchedModel* model) {
  std::vector<double> out;
  for (lsched::Param* p : model->params()->All()) {
    out.insert(out.end(), p->value.raw().begin(), p->value.raw().end());
  }
  return out;
}

}  // namespace lsbench
