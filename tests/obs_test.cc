#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "decision_log_testing.h"
#include "exec/episode_recorder.h"
#include "exec/query_state.h"
#include "exec/scheduling_context.h"
#include "exec/sim_engine.h"
#include "obs/decision_log.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sched/heuristics.h"
#include "testing/fuzzer.h"
#include "util/rng.h"
#include "workload/workload.h"

// Heap allocations made by the calling thread, for the allocation-free
// logging test. Sanitizer builds keep their own allocator.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define LSCHED_TEST_COUNTS_ALLOCATIONS 1
namespace {
thread_local int64_t tls_allocations = 0;
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression (a false -Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  ++tls_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#else
#define LSCHED_TEST_COUNTS_ALLOCATIONS 0
#endif

namespace lsched {
namespace {

// The whole suite only makes sense with the layer compiled in; with
// -DLSCHED_OBS=OFF the stubs are exercised (they must still link and
// return inert values), which the last test covers.

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough to validate the Chrome trace_event
// output (objects, arrays, strings with escapes, numbers, literals).
// ---------------------------------------------------------------------------

struct JsonParser {
  const std::string& s;
  size_t pos = 0;
  bool ok = true;

  explicit JsonParser(const std::string& text) : s(text) {}

  void SkipWs() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                              s[pos] == '\t' || s[pos] == '\r')) {
      ++pos;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    ok = false;
    return false;
  }
  bool ParseString() {
    SkipWs();
    if (pos >= s.size() || s[pos] != '"') return ok = false;
    ++pos;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') {
        ++pos;
        if (pos >= s.size()) return ok = false;
      }
      ++pos;
    }
    if (pos >= s.size()) return ok = false;
    ++pos;  // closing quote
    return true;
  }
  bool ParseNumber() {
    SkipWs();
    const size_t start = pos;
    if (pos < s.size() && (s[pos] == '-' || s[pos] == '+')) ++pos;
    while (pos < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[pos])) || s[pos] == '.' ||
            s[pos] == 'e' || s[pos] == 'E' || s[pos] == '-' || s[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return ok = false;
    return true;
  }
  bool ParseValue() {
    SkipWs();
    if (pos >= s.size()) return ok = false;
    const char c = s[pos];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (s.compare(pos, 4, "true") == 0) {
      pos += 4;
      return true;
    }
    if (s.compare(pos, 5, "false") == 0) {
      pos += 5;
      return true;
    }
    if (s.compare(pos, 4, "null") == 0) {
      pos += 4;
      return true;
    }
    return ParseNumber();
  }
  bool ParseObject() {
    if (!Consume('{')) return false;
    SkipWs();
    if (pos < s.size() && s[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      if (!ParseString()) return false;
      if (!Consume(':')) return false;
      if (!ParseValue()) return false;
      SkipWs();
      if (pos < s.size() && s[pos] == ',') {
        ++pos;
        continue;
      }
      return Consume('}');
    }
  }
  bool ParseArray() {
    if (!Consume('[')) return false;
    SkipWs();
    if (pos < s.size() && s[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      if (!ParseValue()) return false;
      SkipWs();
      if (pos < s.size() && s[pos] == ',') {
        ++pos;
        continue;
      }
      return Consume(']');
    }
  }
  /// Full-document parse: one value, then nothing but whitespace.
  bool ParseDocument() {
    if (!ParseValue()) return false;
    SkipWs();
    if (pos != s.size()) ok = false;
    return ok;
  }
};

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

#if LSCHED_OBS_ENABLED

TEST(HistogramTest, BucketBoundariesAreHalfOpen) {
  // Bucket 0 is [0, 1e-9); bucket i >= 1 is [1e-9*2^(i-1), 1e-9*2^i).
  EXPECT_EQ(obs::Histogram::BucketFor(0.0), 0u);
  EXPECT_EQ(obs::Histogram::BucketFor(-1.0), 0u);
  EXPECT_EQ(obs::Histogram::BucketFor(0.5e-9), 0u);
  EXPECT_EQ(obs::Histogram::BucketFor(1e-9), 1u);

  // Every exact boundary must land in the bucket it opens, and the value
  // just below it in the previous bucket.
  for (size_t b = 1; b < 63; ++b) {
    const double lower = obs::HistogramSnapshot::LowerBound(b);
    const double upper = obs::HistogramSnapshot::UpperBound(b);
    EXPECT_EQ(obs::Histogram::BucketFor(lower), b) << "lower of " << b;
    EXPECT_EQ(obs::Histogram::BucketFor(std::nextafter(upper, 0.0)), b)
        << "just below upper of " << b;
    EXPECT_EQ(obs::Histogram::BucketFor(upper), b + 1) << "upper of " << b;
    const double mid = lower + (upper - lower) / 2.0;
    EXPECT_EQ(obs::Histogram::BucketFor(mid), b) << "mid of " << b;
  }

  // Overflow clamps into the last bucket; NaN goes to bucket 0.
  EXPECT_EQ(obs::Histogram::BucketFor(1e300), 63u);
  EXPECT_EQ(obs::Histogram::BucketFor(std::nan("")), 0u);
}

TEST(HistogramTest, ObserveSnapshotAndPercentile) {
  obs::Histogram h("test.histogram");
  // 100 observations at ~1ms, 100 at ~4ms.
  for (int i = 0; i < 100; ++i) h.Observe(1e-3);
  for (int i = 0; i < 100; ++i) h.Observe(4e-3);
  obs::HistogramSnapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 200u);
  EXPECT_NEAR(snap.sum, 0.5, 1e-9);
  EXPECT_NEAR(snap.Mean(), 2.5e-3, 1e-9);
  // p25 must sit in the 1ms bucket, p90 in the 4ms bucket.
  const double p25 = snap.Percentile(25.0);
  const double p90 = snap.Percentile(90.0);
  const size_t b1 = obs::Histogram::BucketFor(1e-3);
  const size_t b4 = obs::Histogram::BucketFor(4e-3);
  EXPECT_GE(p25, obs::HistogramSnapshot::LowerBound(b1));
  EXPECT_LT(p25, obs::HistogramSnapshot::UpperBound(b1));
  EXPECT_GE(p90, obs::HistogramSnapshot::LowerBound(b4));
  EXPECT_LT(p90, obs::HistogramSnapshot::UpperBound(b4));
  // p0 degrades to the lower bound of the first occupied bucket.
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0),
                   obs::HistogramSnapshot::LowerBound(b1));

  h.Reset();
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
}

TEST(HistogramTest, SnapshotMergeAddsBucketwise) {
  obs::Histogram a("test.merge_a");
  obs::Histogram b("test.merge_b");
  a.Observe(1e-6);
  a.Observe(1e-3);
  b.Observe(1e-3);
  b.Observe(1.0);
  obs::HistogramSnapshot sa = a.TakeSnapshot();
  sa.Merge(b.TakeSnapshot());
  EXPECT_EQ(sa.count, 4u);
  EXPECT_NEAR(sa.sum, 1e-6 + 2e-3 + 1.0, 1e-12);
  EXPECT_EQ(sa.bucket_counts[obs::Histogram::BucketFor(1e-3)], 2u);
  EXPECT_EQ(sa.bucket_counts[obs::Histogram::BucketFor(1.0)], 1u);
}

TEST(HistogramTest, MergeSnapshotPublishesBatchedObservations) {
  obs::Histogram h("test.merge_snapshot");
  obs::HistogramSnapshot local;
  for (int i = 0; i < 10; ++i) {
    const size_t b = obs::Histogram::BucketFor(2e-3);
    if (b >= local.bucket_counts.size()) local.bucket_counts.resize(b + 1, 0);
    ++local.bucket_counts[b];
    ++local.count;
    local.sum += 2e-3;
  }
  h.MergeSnapshot(local);
  h.Observe(2e-3);  // direct path still composes with the batched one
  obs::HistogramSnapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 11u);
  EXPECT_NEAR(snap.sum, 11 * 2e-3, 1e-12);
  EXPECT_EQ(snap.bucket_counts[obs::Histogram::BucketFor(2e-3)], 11u);
}

// ---------------------------------------------------------------------------
// Counters / gauges / registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* c1 = reg.GetCounter("test.registry_counter");
  obs::Counter* c2 = reg.GetCounter("test.registry_counter");
  EXPECT_EQ(c1, c2);
  c1->Reset();
  c1->Add(3);
  c2->Add(4);
  EXPECT_EQ(c1->Value(), 7);

  obs::Gauge* g = reg.GetGauge("test.registry_gauge");
  g->Reset();
  g->Add(2.5);
  g->Sub(1.0);
  EXPECT_NEAR(g->Value(), 1.5, 1e-12);
  g->Set(42.0);
  EXPECT_NEAR(g->Value(), 42.0, 1e-12);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.snap_a")->Add(1);
  reg.GetCounter("test.snap_b")->Add(2);
  auto snap = reg.TakeSnapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LE(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

TEST(MetricsRegistryTest, EightThreadHammer) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* counter = reg.GetCounter("test.hammer_counter");
  obs::Gauge* gauge = reg.GetGauge("test.hammer_gauge");
  obs::Histogram* hist = reg.GetHistogram("test.hammer_histogram");
  counter->Reset();
  gauge->Reset();
  hist->Reset();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Add(1);
        gauge->Add(1.0);
        hist->Observe(1e-6 * static_cast<double>(1 + ((t + i) % 7)));
        // Re-resolving by name concurrently must also be safe.
        if (i % 1000 == 0) {
          reg.GetCounter("test.hammer_counter")->Add(0);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kOpsPerThread);
  EXPECT_NEAR(gauge->Value(), double(kThreads) * kOpsPerThread, 1e-6);
  EXPECT_EQ(hist->TakeSnapshot().count, uint64_t{kThreads} * kOpsPerThread);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, RingWraparoundKeepsNewestEvents) {
  auto& tracer = obs::Tracer::Global();
  const size_t old_cap = tracer.capacity();
  tracer.SetCapacityForTest(8);
  // A fresh thread leases a fresh (capacity-8) ring; record 20 events.
  std::thread recorder([&]() {
    for (int i = 0; i < 20; ++i) {
      obs::TraceEvent e;
      e.name = "wrap.event";
      e.category = "test";
      e.ts_us = static_cast<double>(i);
      e.dur_us = 1.0;
      e.tid = 777;
      tracer.RecordSpan(e);
    }
  });
  recorder.join();
  tracer.SetCapacityForTest(old_cap);

  std::ostringstream out;
  tracer.ExportChromeTrace(out);
  const std::string json = out.str();
  // Only the newest 8 survive: ts 12..19.
  EXPECT_EQ(CountOccurrences(json, "wrap.event"), 8);
  EXPECT_EQ(json.find("\"ts\":11"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":12"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":19"), std::string::npos);
  EXPECT_GE(tracer.dropped_events(), 12u);
  tracer.Clear();
}

TEST(TracerTest, BatchRecordCountsUpstreamDrops) {
  auto& tracer = obs::Tracer::Global();
  tracer.Clear();
  const size_t old_cap = tracer.capacity();
  tracer.SetCapacityForTest(4);
  std::thread recorder([&]() {
    std::vector<obs::TraceEvent> batch(6);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].name = "batch.event";
      batch[i].category = "test";
      batch[i].ts_us = static_cast<double>(100 + i);
    }
    // The recorder saw 10 events but only buffered the newest 6.
    tracer.RecordSpans(batch.data(), batch.size(), /*total=*/10);
  });
  recorder.join();
  tracer.SetCapacityForTest(old_cap);

  std::ostringstream out;
  tracer.ExportChromeTrace(out);
  const std::string json = out.str();
  // Ring capacity 4 < batch 6: the newest 4 survive.
  EXPECT_EQ(CountOccurrences(json, "batch.event"), 4);
  EXPECT_NE(json.find("\"ts\":105"), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":101"), std::string::npos);
  // All 6 non-surviving of the 10 total are accounted as dropped.
  EXPECT_EQ(tracer.dropped_events(), 6u);
  tracer.Clear();
}

TEST(TracerTest, ChromeTraceJsonParsesBack) {
  auto& tracer = obs::Tracer::Global();
  tracer.Clear();
  obs::TraceEvent e;
  e.name = "json \"escaped\"\n";
  e.category = "test\\cat";
  e.ts_us = 12.5;
  e.dur_us = 3.25;
  e.tid = 5;
  e.arg1_name = "query";
  e.arg1 = 42;
  e.arg2_name = "op";
  e.arg2 = -7;
  tracer.RecordSpan(e);
  tracer.RecordInstant("inst", "test", 20.0, 6, "mark", 1);

  std::ostringstream out;
  tracer.ExportChromeTrace(out);
  const std::string json = out.str();

  JsonParser parser(json);
  EXPECT_TRUE(parser.ParseDocument()) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // the span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // the instant
  EXPECT_NE(json.find("json \\\"escaped\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"query\":42"), std::string::npos);
  EXPECT_NE(json.find("\"op\":-7"), std::string::npos);
  tracer.Clear();
  EXPECT_EQ(tracer.buffered_events(), 0u);
}

// ---------------------------------------------------------------------------
// Decision log
// ---------------------------------------------------------------------------

TEST(DecisionLogTest, CsvRoundTrip) {
  auto& log = obs::DecisionLog::Global();
  log.Clear();

  obs::DecisionRecord rec;
  rec.time = 1.25;
  rec.engine = "sim";
  rec.event = "QueryArrival";
  rec.policy = "LSched";
  rec.candidates = "0:1;0:2;7:0";
  rec.num_candidates = 3;
  rec.running_queries = 2;
  rec.free_threads = 5;
  rec.chosen_query = 7;
  rec.chosen_root = 0;
  rec.op_type = "HashJoin";
  rec.degree = 4;
  rec.max_threads = 8;
  rec.predicted_score = -0.5;
  rec.schedule_wall_us = 17.5;
  rec.tenant = 3;
  const int64_t id = AddDecisionRecord(log, rec);
  ASSERT_GE(id, 0);
  log.AddPipeline(id, 12);
  log.AddRealized(id, 0.75);
  log.AddRealized(id, 0.25);

  obs::DecisionRecord fallback;
  fallback.time = 2.0;
  fallback.engine = "sim";
  fallback.event = "fallback";
  fallback.policy = "LSched";
  fallback.fallback = true;
  AddDecisionRecord(log, fallback);

  std::ostringstream out;
  log.WriteCsv(out);
  std::istringstream in(out.str());
  std::vector<obs::DecisionRecord> parsed;
  ASSERT_TRUE(obs::ParseDecisionCsv(in, &parsed)) << out.str();
  ASSERT_EQ(parsed.size(), 2u);

  const obs::DecisionRecord& p = parsed[0];
  EXPECT_EQ(p.id, id);
  EXPECT_DOUBLE_EQ(p.time, 1.25);
  EXPECT_EQ(p.engine, "sim");
  EXPECT_EQ(p.event, "QueryArrival");
  EXPECT_EQ(p.policy, "LSched");
  EXPECT_EQ(p.candidates, "0:1;0:2;7:0");
  EXPECT_EQ(p.num_candidates, 3);
  EXPECT_EQ(p.running_queries, 2);
  EXPECT_EQ(p.free_threads, 5);
  EXPECT_EQ(p.chosen_query, 7);
  EXPECT_EQ(p.chosen_root, 0);
  EXPECT_EQ(p.op_type, "HashJoin");
  EXPECT_EQ(p.degree, 4);
  EXPECT_EQ(p.max_threads, 8);
  EXPECT_EQ(p.num_pipelines, 1);
  EXPECT_EQ(p.planned_work_orders, 12);
  EXPECT_DOUBLE_EQ(p.predicted_score, -0.5);
  EXPECT_DOUBLE_EQ(p.schedule_wall_us, 17.5);
  EXPECT_DOUBLE_EQ(p.realized_seconds, 1.0);
  EXPECT_EQ(p.tenant, 3);
  EXPECT_FALSE(p.fallback);
  EXPECT_TRUE(parsed[1].fallback);
  EXPECT_EQ(parsed[1].tenant, -1);
  EXPECT_TRUE(std::isnan(parsed[1].predicted_score));
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(DecisionLogTest, RingWrapKeepsNewestOldestFirstAndCountsDrops) {
  auto& log = obs::DecisionLog::Global();
  log.SetCapacityForTest(4);
  int backfills = 0;
  log.SetBackfillObserver([&](const obs::BackfillSample&) { ++backfills; });

  std::vector<int64_t> ids;
  for (int i = 0; i < 10; ++i) {
    obs::DecisionRecord rec;
    rec.time = static_cast<double>(i);
    rec.engine = "sim";
    rec.predicted_score = 0.5;
    ids.push_back(AddDecisionRecord(log, rec));
    if (i > 0) {
      EXPECT_EQ(ids[i], ids[i - 1] + 1) << "ids stay monotonic";
    }
  }
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6);

  // Oldest first: the last four adds.
  std::vector<obs::DecisionRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (size_t k = 0; k < snap.size(); ++k) {
    EXPECT_EQ(snap[k].id, ids[6 + k]);
    EXPECT_EQ(snap[k].time, static_cast<double>(6 + k));
  }

  // Back-fill into an evicted id is a no-op that is counted.
  log.AddRealized(ids[2], 1.0);
  log.AddPipeline(ids[5], 3);
  EXPECT_EQ(log.dropped_backfills(), 2);
  EXPECT_EQ(backfills, 0);
  snap = log.Snapshot();
  for (const obs::DecisionRecord& r : snap) {
    EXPECT_EQ(r.realized_seconds, 0.0);
    EXPECT_EQ(r.num_pipelines, 0);
  }
  // Ids never assigned and negative ids are ignored, not counted.
  log.AddRealized(ids.back() + 100, 1.0);
  log.AddRealized(-1, 1.0);
  EXPECT_EQ(log.dropped_backfills(), 2);
  // A retained id still back-fills and notifies.
  log.AddRealized(ids[9], 0.25);
  log.AddPipeline(ids[9], 3);
  EXPECT_EQ(backfills, 1);
  snap = log.Snapshot();
  EXPECT_EQ(snap.back().realized_seconds, 0.25);
  EXPECT_EQ(snap.back().planned_work_orders, 3);

  // Wrapping again keeps the accounting exact.
  for (int i = 0; i < 5; ++i) {
    AddDecisionRecord(log, obs::DecisionRecord{});
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 11);
  EXPECT_EQ(log.Snapshot().front().id, ids.back() + 2);

  log.SetBackfillObserver(nullptr);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0);
  EXPECT_EQ(log.dropped_backfills(), 0);
  EXPECT_GT(AddDecisionRecord(log, obs::DecisionRecord{}), ids.back())
      << "ids survive Clear";
  log.SetCapacityForTest(obs::kDecisionLogCapacity);
  EXPECT_EQ(log.capacity(), obs::kDecisionLogCapacity);
}

/// Replaces the id column by its offset from the first row's id (ids are
/// process-monotonic, so absolute values depend on earlier tests) and the
/// wall-clock schedule_wall_us column by "X".
std::string NormalizeDecisionCsv(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  std::string out;
  std::getline(in, line);
  out += line + "\n";
  long long first = -1;
  while (std::getline(in, line)) {
    std::vector<std::string> f;
    std::string cur;
    bool quoted = false;
    for (char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) {
        f.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    f.push_back(cur);
    const long long id = std::stoll(f[0]);
    if (first < 0) first = id;
    f[0] = std::to_string(id - first);
    f[17] = "X";
    for (size_t i = 0; i < f.size(); ++i) {
      if (i > 0) out += ',';
      out += f[i];
    }
    out += "\n";
  }
  return out;
}

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(DecisionLogTest, CsvIsByteIdenticalToStringRecordRendering) {
  // The expected text is what the log rendered when it stored string
  // records, for the same calls: the compact entries must not change a
  // byte of the CSV (quoting, precision, NaN, fallback and note rows).
  auto& log = obs::DecisionLog::Global();
  log.Clear();
  obs::DecisionRecord a;
  a.time = 1e-7;
  a.engine = "sim";
  a.event = "QueryArrival";
  a.policy = "Guarded(LSched, v2)";
  a.candidates = "3:0;3:1;12:4";
  a.num_candidates = 3;
  a.running_queries = 2;
  a.free_threads = 6;
  a.chosen_query = 3;
  a.chosen_root = 1;
  a.op_type = "ProbeHash";
  a.degree = 2;
  a.max_threads = 4;
  a.predicted_score = 0.1;
  a.schedule_wall_us = 12.345;
  a.tenant = 2;
  const int64_t ida = AddDecisionRecord(log, a);
  log.AddPipeline(ida, 7);
  log.AddPipeline(ida, 5);
  log.AddRealized(ida, 0.3);
  log.AddRealized(ida, 0.6);
  obs::DecisionRecord b;
  b.time = 2.5;
  b.engine = "sim";
  b.event = "fallback";
  b.policy = "FIFO";
  b.fallback = true;
  b.chosen_query = 4;
  b.tenant = 1;
  log.AddPipeline(AddDecisionRecord(log, b), 1);
  obs::DecisionRecord c;
  c.time = 3.0;
  c.event = "guard_fallback";
  c.policy = "LSched";
  c.candidates = "say \"exception\"";
  c.running_queries = 3;
  c.free_threads = 2;
  c.fallback = true;
  AddDecisionRecord(log, c);
  obs::DecisionRecord d;
  d.time = 1234567.875;
  d.engine = "real";
  d.event = "ThreadIdle";
  d.policy = "SJF";
  d.chosen_query = int64_t{1} << 40;
  d.chosen_root = 0;
  d.predicted_score = -1e300;
  d.schedule_wall_us = 0.5;
  d.tenant = 0;
  log.AddRealized(AddDecisionRecord(log, d), 1.0 / 3.0);

  std::ostringstream out;
  log.WriteCsv(out);
  const std::string expected =
      std::string(obs::DecisionLog::CsvHeader()) + "\n" +
      "0,9.9999999999999995e-08,sim,QueryArrival,\"Guarded(LSched, v2)\","
      "3:0;3:1;12:4,3,2,6,3,1,ProbeHash,2,4,2,12,0.10000000000000001,X,"
      "0.89999999999999991,0,2\n"
      "1,2.5,sim,fallback,FIFO,,0,0,0,4,-1,,0,0,1,1,nan,X,0,1,1\n"
      "2,3,,guard_fallback,LSched,\"say \"\"exception\"\"\",0,3,2,-1,-1,,0,0,"
      "0,0,nan,X,0,1,-1\n"
      "3,1234567.875,real,ThreadIdle,SJF,,0,0,0,1099511627776,0,,0,0,0,0,"
      "-1.0000000000000001e+300,X,0.33333333333333331,0,0\n";
  EXPECT_EQ(NormalizeDecisionCsv(out.str()), expected);
  // The wall-clock column too, unnormalized.
  EXPECT_NE(out.str().find(",12.345000000000001,"), std::string::npos);
  std::istringstream in(out.str());
  std::vector<obs::DecisionRecord> parsed;
  ASSERT_TRUE(obs::ParseDecisionCsv(in, &parsed));
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed[2].candidates, "say \"exception\"");

  // Engine-built entries: candidate pairs (including the "+N" overflow
  // marker), interned names and back-filled costs of two SimEngine
  // episodes, hashed against the string-record rendering.
  const struct {
    bool batch;
    uint64_t hash;
  } kRuns[] = {{true, 0xcfc24169497da281ULL}, {false, 0xb504d08ebc49c2bbULL}};
  for (const auto& run : kRuns) {
    log.Clear();
    WorkloadConfig w;
    w.benchmark = Benchmark::kJob;
    w.num_queries = 12;
    w.batch = run.batch;
    w.mean_interarrival_seconds = 0.05;
    Rng rng(77);
    const std::vector<QuerySubmission> workload = GenerateWorkload(w, &rng);
    FairScheduler fair;
    SimEngineConfig cfg;
    cfg.num_threads = 6;
    cfg.seed = 5;
    SimEngine engine(cfg);
    engine.Run(workload, &fair);
    std::ostringstream csv;
    log.WriteCsv(csv);
    const std::string normalized = NormalizeDecisionCsv(csv.str());
    EXPECT_EQ(Fnv1a64(normalized), run.hash) << normalized;
  }
  log.Clear();
}

TEST(DecisionLogTest, LoggingADecisionDoesNotAllocate) {
#if LSCHED_TEST_COUNTS_ALLOCATIONS
  obs::SetEnabled(true);
  obs::QueryTraceLog::Global().SetCapture(true);
  auto& log = obs::DecisionLog::Global();
  log.Clear();

  // A live scheduling context: four JOB queries (plenty of candidates,
  // more than kMaxLoggedCandidates) and a few threads.
  WorkloadConfig w;
  w.benchmark = Benchmark::kJob;
  w.num_queries = 4;
  w.batch = true;
  Rng rng(9);
  const std::vector<QuerySubmission> workload = GenerateWorkload(w, &rng);
  SchedulingContext ctx;
  for (int t = 0; t < 4; ++t) {
    ThreadInfo info;
    info.id = t;
    ctx.AddThread(info);
  }
  std::vector<std::unique_ptr<QueryState>> queries;
  for (size_t i = 0; i < workload.size(); ++i) {
    queries.push_back(std::make_unique<QueryState>(
        static_cast<QueryId>(i), workload[i].plan, 0.0));
    ctx.AddQuery(queries.back().get());
  }
  FifoScheduler fifo;
  SchedulingEvent event;
  event.type = SchedulingEventType::kQueryArrival;
  const SchedulingDecision decision = fifo.Schedule(event, ctx);
  ASSERT_FALSE(decision.pipelines.empty());

  EpisodeRecorder recorder;
  recorder.Begin("sim", &fifo, /*virtual_time=*/true, workload.size());
  // Warm-up: the first Add allocates the ring; episode-lifetime buffers
  // (the result's decision series, the back-fill and edge buffers) reach
  // a capacity the measured calls stay within.
  for (int i = 0; i < 1500; ++i) {
    recorder.OnSchedulerInvocation(event, ctx, decision, 1e-6);
  }
  const int64_t before = tls_allocations;
  for (int i = 0; i < 500; ++i) {
    recorder.OnSchedulerInvocation(event, ctx, decision, 1e-6);
  }
  EXPECT_EQ(tls_allocations - before, 0)
      << "EpisodeRecorder::OnSchedulerInvocation allocated";

  obs::DecisionEntry entry{};
  entry.Reset();
  for (int c = 0; c < 40; ++c) entry.AddCandidate(c, c % 3);
  const int64_t before_add = tls_allocations;
  for (int i = 0; i < 1000; ++i) log.Add(entry);
  EXPECT_EQ(tls_allocations - before_add, 0) << "DecisionLog::Add allocated";
  log.Clear();
  obs::QueryTraceLog::Global().Clear();
#else
  GTEST_SKIP() << "allocation counting is off under sanitizers";
#endif
}

/// FIFO that annotates a predicted score on every decision, so each
/// back-filled decision is one drift observation.
class ScoredFifo : public FifoScheduler {
 public:
  SchedulingDecision Schedule(const SchedulingEvent& event,
                              const SchedulingContext& ctx) override {
    obs::AnnotatePredictedScore(0.01);
    return FifoScheduler::Schedule(event, ctx);
  }
  using FifoScheduler::Schedule;
};

TEST(DecisionLogTest, BackfillPastCapacityObservesEveryDecision) {
  auto& log = obs::DecisionLog::Global();
  WorkloadConfig w;
  w.benchmark = Benchmark::kTpch;
  w.num_queries = 24;
  w.mean_interarrival_seconds = 0.05;
  const auto run = [&]() {
    Rng rng(5);
    ScoredFifo policy;
    SimEngineConfig cfg;
    cfg.num_threads = 4;
    SimEngine engine(cfg);
    return engine.Run(GenerateWorkload(w, &rng), &policy);
  };

  // Reference: the default ring retains the whole episode.
  log.Clear();
  const EpisodeResult full = run();
  ASSERT_EQ(log.dropped(), 0);
  std::vector<double> realized;  // per decision, in id order
  for (const obs::DecisionRecord& r : log.Snapshot()) {
    if (r.realized_seconds != 0.0) realized.push_back(r.realized_seconds);
  }
  ASSERT_FALSE(realized.empty());

  // Same episode through a ring far smaller than its decision count.
  constexpr size_t kSmall = 16;
  log.SetCapacityForTest(kSmall);
  obs::DriftMonitor monitor;
  std::vector<double> observed;
  log.SetBackfillObserver([&](const obs::BackfillSample& s) {
    observed.push_back(s.realized_seconds);
    monitor.ObserveBackfill(s);
  });
  const EpisodeResult small = run();
  log.SetBackfillObserver(nullptr);
  ASSERT_EQ(small.num_scheduler_invocations, full.num_scheduler_invocations);
  ASSERT_GT(static_cast<size_t>(small.num_scheduler_invocations), 4 * kSmall);
  EXPECT_EQ(log.size(), kSmall);
  EXPECT_GT(log.dropped(), 0);
  // One observation per back-filled decision, with the full realized cost,
  // although most of those decisions left the ring long before the flush.
  EXPECT_EQ(observed, realized);
  EXPECT_EQ(monitor.sample_count(), static_cast<int64_t>(realized.size()));
  EXPECT_GT(log.dropped_backfills(), 0);
  log.SetCapacityForTest(obs::kDecisionLogCapacity);
}

// ---------------------------------------------------------------------------
// End-to-end: one decision-log row per scheduler invocation
// ---------------------------------------------------------------------------

TEST(ObsIntegrationTest, OneDecisionRowPerSchedulerInvocation) {
  obs::DecisionLog::Global().Clear();
  obs::Tracer::Global().Clear();

  WorkloadFuzzer fuzzer(2024);
  FuzzedWorkload w = fuzzer.NextWorkload();
  FairScheduler policy;
  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  EpisodeResult result = engine.Run(w.sim_queries, &policy);

  ASSERT_GT(result.num_scheduler_invocations, 0);
  const auto records = obs::DecisionLog::Global().Snapshot();
  int64_t invocation_rows = 0;
  for (const auto& r : records) {
    if (!r.fallback) ++invocation_rows;
  }
  EXPECT_EQ(invocation_rows, result.num_scheduler_invocations);
  // The run also produced trace events (work orders at minimum).
  EXPECT_GT(obs::Tracer::Global().buffered_events(), 0u);

  std::ostringstream out;
  obs::Tracer::Global().ExportChromeTrace(out);
  const std::string json = out.str();
  JsonParser parser(json);
  EXPECT_TRUE(parser.ParseDocument());
  EXPECT_NE(json.find("engine.work_order"), std::string::npos);

  obs::DecisionLog::Global().Clear();
  obs::Tracer::Global().Clear();
}

TEST(ObsIntegrationTest, DisabledRecordingIsInert) {
  obs::DecisionLog::Global().Clear();
  obs::Tracer::Global().Clear();
  obs::MetricsRegistry::Global().ResetAll();
  obs::SetEnabled(false);

  WorkloadFuzzer fuzzer(99);
  FuzzedWorkload w = fuzzer.NextWorkload();
  FairScheduler policy;
  SimEngineConfig config;
  config.num_threads = 4;
  SimEngine engine(config);
  EpisodeResult result = engine.Run(w.sim_queries, &policy);
  obs::SetEnabled(true);

  // EpisodeResult telemetry is independent of the obs layer...
  EXPECT_GT(result.num_scheduler_invocations, 0);
  // ...but nothing leaked into the global sinks.
  EXPECT_EQ(obs::DecisionLog::Global().size(), 0u);
  EXPECT_EQ(obs::Tracer::Global().buffered_events(), 0u);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("sched.invocations")
                ->Value(),
            0);
}

#endif  // LSCHED_OBS_ENABLED

// Compiles in both modes: the stub API must stay source-compatible.
TEST(ObsStubTest, ApiIsUsableRegardlessOfCompileGate) {
  obs::MetricsRegistry::Global().GetCounter("test.stub")->Add(1);
  obs::Tracer::Global().RecordInstant("stub", "test", 0.0, 0);
  LSCHED_TRACE_SPAN("stub.span", "test");
  std::ostringstream out;
  obs::Tracer::Global().ExportChromeTrace(out);
  EXPECT_NE(out.str().find("traceEvents"), std::string::npos);
  SUCCEED();
}

}  // namespace
}  // namespace lsched
