#ifndef LSCHED_OBS_DECISION_LOG_H_
#define LSCHED_OBS_DECISION_LOG_H_

// Scheduler decision log: one record per scheduler invocation, capturing
// the candidate set the policy chose from, the chosen action, the policy's
// own predicted score (learned schedulers annotate it via
// obs::AnnotatePredictedScore), and the *realized* cost of the pipelines
// the decision launched — back-filled as their work orders complete. The
// CSV dump is the offline substrate for prediction-error analysis
// (predicted score vs realized work-order runtimes, cf. Decima &
// IconqSched tooling).
//
// The log is a fixed-capacity ring of compact entries (DESIGN.md §8): the
// newest kDecisionLogCapacity decisions are retained, older ones are
// evicted and counted, so the log's memory stays flat however many
// decisions a long-running daemon makes.
// Entries are plain data — names are interned ids, the candidate set is
// (query, op) pairs — so logging a decision never allocates; the string
// DecisionRecord form is built only when the log is rendered (Snapshot,
// WriteCsv).

#include <cstdint>
#include <functional>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace lsched {
namespace obs {

struct DecisionRecord {
  int64_t id = -1;          ///< sequence number within this process
  double time = 0.0;        ///< engine time of the invocation (virtual or wall)
  std::string engine;       ///< "sim" or "real"
  std::string event;        ///< SchedulingEventTypeName of the trigger
  std::string policy;       ///< Scheduler::name()
  /// Candidate set: "query:op" pairs joined by ';' (truncated to
  /// kMaxLoggedCandidates with a trailing "+N" marker).
  std::string candidates;
  int num_candidates = 0;
  int running_queries = 0;
  int free_threads = 0;
  /// Chosen action (first pipeline of the decision; -1/empty decision if
  /// the policy returned nothing).
  int64_t chosen_query = -1;
  int chosen_root = -1;
  /// OperatorTypeName of the chosen root ("" when no pipeline was chosen) —
  /// the per-operator-type key for prediction-drift analysis.
  std::string op_type;
  int degree = 0;
  int max_threads = 0;         ///< parallelism cap set (0 = unchanged)
  int num_pipelines = 0;       ///< pipelines accepted from this decision
  int64_t planned_work_orders = 0;
  double predicted_score = std::numeric_limits<double>::quiet_NaN();
  double schedule_wall_us = 0.0;  ///< wall time inside Schedule()
  double realized_seconds = 0.0;  ///< measured runtime of launched work orders
  bool fallback = false;
  /// Tenant of the chosen query (serving mode; -1 when no pipeline was
  /// chosen or the run predates multi-tenancy). Keys the per-tenant drift
  /// shards (DriftMonitor) without making src/obs depend on src/exec.
  int32_t tenant = -1;
};

inline constexpr int kMaxLoggedCandidates = 32;

/// Ring capacity of DecisionLog::Global(): the newest decisions retained.
inline constexpr size_t kDecisionLogCapacity = 16384;

/// Process-global table of the names decision entries refer to (engine,
/// event, policy and operator-type names, guard fallback reasons). Id 0 is
/// the empty name. Names are never removed, so the table holds the few
/// dozen distinct names a process uses; past 65535 names InternName
/// returns 0. Thread-safe; compiled in every build mode.
uint16_t InternName(std::string_view name);
const std::string& InternedName(uint16_t id);

/// The compact form the log stores. Trivially constructible, so the ring's
/// storage is not written (and its pages not touched) until entries land
/// there; declare other instances value-initialized (`DecisionEntry e{};`)
/// and call Reset() before filling one in. Only the first
/// min(num_candidates, kMaxLoggedCandidates) pairs are ever read.
struct DecisionEntry {
  int64_t id;
  double time;
  uint16_t engine;   ///< interned names (InternName)
  uint16_t event;
  uint16_t policy;
  uint16_t op_type;
  /// Interned free text rendered in place of the candidate pairs when
  /// has_note is set: a guard fallback's reason.
  uint16_t note;
  bool has_note;
  bool fallback;
  int32_t num_candidates;  ///< full candidate count (pairs hold the first 32)
  int32_t running_queries;
  int32_t free_threads;
  int32_t chosen_root;
  int32_t degree;
  int32_t max_threads;
  int32_t num_pipelines;
  int32_t tenant;
  int64_t chosen_query;
  int64_t planned_work_orders;
  double predicted_score;
  double schedule_wall_us;
  double realized_seconds;
  int64_t candidate_query[kMaxLoggedCandidates];
  int32_t candidate_op[kMaxLoggedCandidates];

  /// DecisionRecord's defaults (no candidates, nothing chosen, NaN score,
  /// tenant -1). Leaves the candidate arrays untouched.
  void Reset();
  /// Renders `text` (interned) as the candidate set instead of pairs.
  void SetNote(std::string_view text) {
    note = InternName(text);
    has_note = true;
  }
  /// Appends one schedulable (query, op) pair: counted always, stored while
  /// fewer than kMaxLoggedCandidates are held.
  void AddCandidate(int64_t query, int32_t op) {
    if (num_candidates < kMaxLoggedCandidates) {
      candidate_query[num_candidates] = query;
      candidate_op[num_candidates] = op;
    }
    ++num_candidates;
  }
};

/// What the drift observer needs of one back-filled decision.
struct BackfillSample {
  int64_t id = -1;
  double predicted_score = std::numeric_limits<double>::quiet_NaN();
  /// The decision's cumulative realized work-order seconds so far.
  double realized_seconds = 0.0;
  uint16_t op_type = 0;  ///< interned OperatorTypeName, 0 when none
  int32_t tenant = -1;
};

#if LSCHED_OBS_ENABLED

class DecisionLog {
 public:
  static DecisionLog& Global();

  /// Stores `entry` (its id is assigned, the passed value ignored) and
  /// returns the assigned id for realized-cost attribution. Ids increase
  /// by one per call for the life of the process (Clear does not reset
  /// them). When the ring is full the oldest entry is evicted. Copies into
  /// preallocated storage: no heap allocation after the first call.
  int64_t Add(const DecisionEntry& entry);

  /// Accumulates measured work-order seconds into entry `id` and notifies
  /// the back-fill observer, if any. No-op for negative ids (pipelines
  /// launched without a tracked decision); an id the ring has already
  /// evicted counts one dropped back-fill and notifies no one.
  void AddRealized(int64_t id, double seconds);

  /// The back-fill path of the engines' recorder: adds `seconds` to entry
  /// `sample.id` if the ring still retains it (a dropped back-fill if not)
  /// and notifies the observer with `sample` either way, so drift scoring
  /// does not depend on how long the ring retains a decision.
  void Backfill(const BackfillSample& sample, double seconds);

  /// Observer invoked (outside the log's lock) on every back-fill — the
  /// feed for the online DriftMonitor. Pass nullptr to clear. One observer
  /// at a time; setting replaces the previous one.
  using BackfillObserver = std::function<void(const BackfillSample&)>;
  void SetBackfillObserver(BackfillObserver observer);

  /// Adds accepted-pipeline bookkeeping to entry `id` (same id rules as
  /// AddRealized).
  void AddPipeline(int64_t id, int64_t planned_work_orders);

  /// Entries retained (<= capacity()).
  size_t size() const;
  size_t capacity() const;
  /// Entries evicted by the ring since the last Clear(): size() +
  /// dropped() is the number of decisions logged since then.
  int64_t dropped() const;
  /// AddRealized / AddPipeline / Backfill calls that found their entry
  /// already evicted, since the last Clear().
  int64_t dropped_backfills() const;

  /// Retained entries rendered as records, oldest first.
  std::vector<DecisionRecord> Snapshot() const;
  /// Forgets every entry and resets the drop counts (ids keep counting).
  void Clear();
  /// Replaces the ring with one of `capacity` entries (and clears it).
  void SetCapacityForTest(size_t capacity);

  /// Sets the obs.decision_log.retained and obs.decision_log.dropped_total
  /// gauges (the engines' recorder calls this once per flush window).
  void PublishGauges() const;

  void WriteCsv(std::ostream& out) const;
  bool WriteCsv(const std::string& path) const;
  static const char* CsvHeader();

 private:
  DecisionLog() = default;
  /// Retained entry for `id`, nullptr when evicted or never assigned.
  /// Caller holds mu_.
  DecisionEntry* Find(int64_t id);
  /// Bumps dropped_backfills_ for an assigned but no longer retained id.
  /// Caller holds mu_.
  void CountDroppedBackfill(int64_t id);

  mutable std::mutex mu_;
  size_t capacity_ = kDecisionLogCapacity;
  /// Allocated on first Add; entry `id` lives at slot id % capacity_.
  std::unique_ptr<DecisionEntry[]> ring_;
  int64_t next_id_ = 0;
  int64_t first_id_ = 0;  ///< oldest retained id
  int64_t clear_id_ = 0;  ///< next_id_ at the last Clear()
  int64_t dropped_backfills_ = 0;
  /// shared_ptr so a back-fill can copy the handle under the lock and
  /// invoke the observer after releasing it (the observer may re-enter
  /// metrics or block; never call out under mu_).
  std::shared_ptr<const BackfillObserver> backfill_observer_;
};

/// Parses a CSV produced by WriteCsv back into records (header required).
/// Returns false on malformed input. Used by tests (round-trip) and
/// available to offline tooling.
bool ParseDecisionCsv(std::istream& in, std::vector<DecisionRecord>* out);

#else  // !LSCHED_OBS_ENABLED

class DecisionLog {
 public:
  static DecisionLog& Global() {
    static DecisionLog log;
    return log;
  }
  int64_t Add(const DecisionEntry&) { return -1; }
  void AddRealized(int64_t, double) {}
  void Backfill(const BackfillSample&, double) {}
  using BackfillObserver = std::function<void(const BackfillSample&)>;
  void SetBackfillObserver(BackfillObserver) {}
  void AddPipeline(int64_t, int64_t) {}
  size_t size() const { return 0; }
  size_t capacity() const { return 0; }
  int64_t dropped() const { return 0; }
  int64_t dropped_backfills() const { return 0; }
  std::vector<DecisionRecord> Snapshot() const { return {}; }
  void Clear() {}
  void SetCapacityForTest(size_t) {}
  void PublishGauges() const {}
  void WriteCsv(std::ostream&) const {}
  bool WriteCsv(const std::string&) const { return false; }
  static const char* CsvHeader() { return ""; }
};

inline bool ParseDecisionCsv(std::istream&, std::vector<DecisionRecord>*) {
  return false;
}

#endif  // LSCHED_OBS_ENABLED

}  // namespace obs
}  // namespace lsched

#endif  // LSCHED_OBS_DECISION_LOG_H_
