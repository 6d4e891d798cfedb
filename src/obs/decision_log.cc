#include "obs/decision_log.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <deque>

namespace lsched {
namespace obs {

namespace {

struct NameTable {
  std::mutex mu;
  /// A deque so references handed out by InternedName stay valid.
  std::deque<std::string> names{std::string()};
};

NameTable& Names() {
  static NameTable* table = new NameTable();
  return *table;
}

}  // namespace

uint16_t InternName(std::string_view name) {
  if (name.empty()) return 0;
  NameTable& t = Names();
  std::lock_guard<std::mutex> lock(t.mu);
  for (size_t i = 1; i < t.names.size(); ++i) {
    if (t.names[i] == name) return static_cast<uint16_t>(i);
  }
  if (t.names.size() > std::numeric_limits<uint16_t>::max()) return 0;
  t.names.emplace_back(name);
  return static_cast<uint16_t>(t.names.size() - 1);
}

const std::string& InternedName(uint16_t id) {
  NameTable& t = Names();
  std::lock_guard<std::mutex> lock(t.mu);
  return id < t.names.size() ? t.names[id] : t.names[0];
}

void DecisionEntry::Reset() {
  id = -1;
  time = 0.0;
  engine = event = policy = op_type = note = 0;
  has_note = false;
  fallback = false;
  num_candidates = running_queries = free_threads = 0;
  chosen_root = -1;
  degree = max_threads = num_pipelines = 0;
  tenant = -1;
  chosen_query = -1;
  planned_work_orders = 0;
  predicted_score = std::numeric_limits<double>::quiet_NaN();
  schedule_wall_us = 0.0;
  realized_seconds = 0.0;
}

}  // namespace obs
}  // namespace lsched

#if LSCHED_OBS_ENABLED

#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

namespace lsched {
namespace obs {

namespace {

/// Quotes a field if it contains CSV metacharacters (RFC-4180 style).
void WriteField(std::ostream& out, const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    out << s;
    return;
  }
  out << '"';
  for (char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

/// Splits one CSV line honoring quoted fields.
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

/// The string form of a stored entry (the rendering WriteCsv prints).
DecisionRecord Render(const DecisionEntry& e) {
  DecisionRecord r;
  r.id = e.id;
  r.time = e.time;
  r.engine = InternedName(e.engine);
  r.event = InternedName(e.event);
  r.policy = InternedName(e.policy);
  if (e.has_note) {
    r.candidates = InternedName(e.note);
  } else {
    // "q:op" pairs joined by ';', then "+N" for the pairs not held.
    const int held = std::min(e.num_candidates, kMaxLoggedCandidates);
    char buf[48];
    for (int i = 0; i < held; ++i) {
      std::snprintf(buf, sizeof(buf), "%s%lld:%d", i == 0 ? "" : ";",
                    static_cast<long long>(e.candidate_query[i]),
                    e.candidate_op[i]);
      r.candidates += buf;
    }
    if (e.num_candidates > held) {
      std::snprintf(buf, sizeof(buf), "+%d", e.num_candidates - held);
      r.candidates += buf;
    }
  }
  r.num_candidates = e.num_candidates;
  r.running_queries = e.running_queries;
  r.free_threads = e.free_threads;
  r.chosen_query = e.chosen_query;
  r.chosen_root = e.chosen_root;
  r.op_type = InternedName(e.op_type);
  r.degree = e.degree;
  r.max_threads = e.max_threads;
  r.num_pipelines = e.num_pipelines;
  r.planned_work_orders = e.planned_work_orders;
  r.predicted_score = e.predicted_score;
  r.schedule_wall_us = e.schedule_wall_us;
  r.realized_seconds = e.realized_seconds;
  r.fallback = e.fallback;
  r.tenant = e.tenant;
  return r;
}

}  // namespace

DecisionLog& DecisionLog::Global() {
  static DecisionLog* log = new DecisionLog();
  return *log;
}

DecisionEntry* DecisionLog::Find(int64_t id) {
  if (id < first_id_ || id >= next_id_) return nullptr;
  return &ring_[static_cast<size_t>(id) % capacity_];
}

void DecisionLog::CountDroppedBackfill(int64_t id) {
  if (id >= 0 && id < next_id_) ++dropped_backfills_;
}

int64_t DecisionLog::Add(const DecisionEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_ == nullptr) ring_.reset(new DecisionEntry[capacity_]);
  const int64_t id = next_id_++;
  if (next_id_ - first_id_ > static_cast<int64_t>(capacity_)) ++first_id_;
  DecisionEntry& slot = ring_[static_cast<size_t>(id) % capacity_];
  // Header plus only the candidate pairs actually held.
  std::memcpy(&slot, &entry, offsetof(DecisionEntry, candidate_query));
  const int n = std::min(entry.num_candidates, kMaxLoggedCandidates);
  if (!entry.has_note && n > 0) {
    std::memcpy(slot.candidate_query, entry.candidate_query,
                static_cast<size_t>(n) * sizeof(entry.candidate_query[0]));
    std::memcpy(slot.candidate_op, entry.candidate_op,
                static_cast<size_t>(n) * sizeof(entry.candidate_op[0]));
  }
  slot.id = id;
  return id;
}

void DecisionLog::AddRealized(int64_t id, double seconds) {
  if (id < 0) return;
  std::shared_ptr<const BackfillObserver> observer;
  BackfillSample sample;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DecisionEntry* e = Find(id);
    if (e == nullptr) {
      CountDroppedBackfill(id);
      return;
    }
    e->realized_seconds += seconds;
    if (backfill_observer_ != nullptr) {
      observer = backfill_observer_;
      sample.id = id;
      sample.predicted_score = e->predicted_score;
      sample.realized_seconds = e->realized_seconds;
      sample.op_type = e->op_type;
      sample.tenant = e->tenant;
    }
  }
  if (observer != nullptr) (*observer)(sample);
}

void DecisionLog::Backfill(const BackfillSample& sample, double seconds) {
  if (sample.id < 0) return;
  std::shared_ptr<const BackfillObserver> observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (DecisionEntry* e = Find(sample.id)) {
      e->realized_seconds += seconds;
    } else {
      CountDroppedBackfill(sample.id);
    }
    observer = backfill_observer_;
  }
  if (observer != nullptr) (*observer)(sample);
}

void DecisionLog::SetBackfillObserver(BackfillObserver observer) {
  std::lock_guard<std::mutex> lock(mu_);
  if (observer == nullptr) {
    backfill_observer_.reset();
  } else {
    backfill_observer_ =
        std::make_shared<const BackfillObserver>(std::move(observer));
  }
}

void DecisionLog::AddPipeline(int64_t id, int64_t planned_work_orders) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  DecisionEntry* e = Find(id);
  if (e == nullptr) {
    CountDroppedBackfill(id);
    return;
  }
  ++e->num_pipelines;
  e->planned_work_orders += planned_work_orders;
}

size_t DecisionLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(next_id_ - first_id_);
}

size_t DecisionLog::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

int64_t DecisionLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_id_ - clear_id_;
}

int64_t DecisionLog::dropped_backfills() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_backfills_;
}

std::vector<DecisionRecord> DecisionLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DecisionRecord> out;
  out.reserve(static_cast<size_t>(next_id_ - first_id_));
  for (int64_t id = first_id_; id < next_id_; ++id) {
    out.push_back(Render(ring_[static_cast<size_t>(id) % capacity_]));
  }
  return out;
}

void DecisionLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  first_id_ = next_id_;
  clear_id_ = next_id_;
  dropped_backfills_ = 0;
}

void DecisionLog::SetCapacityForTest(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(1, capacity);
  ring_.reset();
  first_id_ = next_id_;
  clear_id_ = next_id_;
  dropped_backfills_ = 0;
}

void DecisionLog::PublishGauges() const {
  static Gauge* retained =
      MetricsRegistry::Global().GetGauge("obs.decision_log.retained");
  static Gauge* dropped_total =
      MetricsRegistry::Global().GetGauge("obs.decision_log.dropped_total");
  std::lock_guard<std::mutex> lock(mu_);
  retained->Set(static_cast<double>(next_id_ - first_id_));
  dropped_total->Set(static_cast<double>(first_id_ - clear_id_));
}

const char* DecisionLog::CsvHeader() {
  return "id,time,engine,event,policy,candidates,num_candidates,"
         "running_queries,free_threads,chosen_query,chosen_root,op_type,"
         "degree,max_threads,num_pipelines,planned_work_orders,"
         "predicted_score,schedule_wall_us,realized_seconds,fallback,"
         "tenant";
}

void DecisionLog::WriteCsv(std::ostream& out) const {
  const std::vector<DecisionRecord> records = Snapshot();
  out << CsvHeader() << "\n";
  out.precision(17);
  for (const DecisionRecord& r : records) {
    out << r.id << ',' << r.time << ',';
    WriteField(out, r.engine);
    out << ',';
    WriteField(out, r.event);
    out << ',';
    WriteField(out, r.policy);
    out << ',';
    WriteField(out, r.candidates);
    out << ',' << r.num_candidates << ',' << r.running_queries << ','
        << r.free_threads << ',' << r.chosen_query << ',' << r.chosen_root
        << ',';
    WriteField(out, r.op_type);
    out << ',' << r.degree << ',' << r.max_threads << ',' << r.num_pipelines
        << ',' << r.planned_work_orders << ',';
    if (std::isnan(r.predicted_score)) {
      out << "nan";
    } else {
      out << r.predicted_score;
    }
    out << ',' << r.schedule_wall_us << ',' << r.realized_seconds << ','
        << (r.fallback ? 1 : 0) << ',' << r.tenant << "\n";
  }
}

bool DecisionLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  WriteCsv(out);
  return out.good();
}

bool ParseDecisionCsv(std::istream& in, std::vector<DecisionRecord>* out) {
  out->clear();
  std::string line;
  if (!std::getline(in, line)) return false;
  if (line != DecisionLog::CsvHeader()) return false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = SplitCsvLine(line);
    if (f.size() != 21) return false;
    DecisionRecord r;
    try {
      r.id = std::stoll(f[0]);
      r.time = std::stod(f[1]);
      r.engine = f[2];
      r.event = f[3];
      r.policy = f[4];
      r.candidates = f[5];
      r.num_candidates = std::stoi(f[6]);
      r.running_queries = std::stoi(f[7]);
      r.free_threads = std::stoi(f[8]);
      r.chosen_query = std::stoll(f[9]);
      r.chosen_root = std::stoi(f[10]);
      r.op_type = f[11];
      r.degree = std::stoi(f[12]);
      r.max_threads = std::stoi(f[13]);
      r.num_pipelines = std::stoi(f[14]);
      r.planned_work_orders = std::stoll(f[15]);
      r.predicted_score = std::stod(f[16]);
      r.schedule_wall_us = std::stod(f[17]);
      r.realized_seconds = std::stod(f[18]);
      r.fallback = f[19] == "1";
      r.tenant = std::stoi(f[20]);
    } catch (...) {
      return false;
    }
    out->push_back(std::move(r));
  }
  return true;
}

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_ENABLED
