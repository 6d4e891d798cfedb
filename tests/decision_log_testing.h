#ifndef LSCHED_TESTS_DECISION_LOG_TESTING_H_
#define LSCHED_TESTS_DECISION_LOG_TESTING_H_

// Test helper: adds a string DecisionRecord to a DecisionLog by building
// the compact DecisionEntry the log stores. Names are interned and the
// candidate string becomes the entry's note, rendered back verbatim.

#include <cstdint>

#include "obs/decision_log.h"

namespace lsched {

inline int64_t AddDecisionRecord(obs::DecisionLog& log,
                                 const obs::DecisionRecord& record) {
  obs::DecisionEntry e{};
  e.Reset();
  e.time = record.time;
  e.engine = obs::InternName(record.engine);
  e.event = obs::InternName(record.event);
  e.policy = obs::InternName(record.policy);
  e.op_type = obs::InternName(record.op_type);
  e.SetNote(record.candidates);
  e.fallback = record.fallback;
  e.num_candidates = record.num_candidates;
  e.running_queries = record.running_queries;
  e.free_threads = record.free_threads;
  e.chosen_query = record.chosen_query;
  e.chosen_root = record.chosen_root;
  e.degree = record.degree;
  e.max_threads = record.max_threads;
  e.num_pipelines = record.num_pipelines;
  e.planned_work_orders = record.planned_work_orders;
  e.predicted_score = record.predicted_score;
  e.schedule_wall_us = record.schedule_wall_us;
  e.realized_seconds = record.realized_seconds;
  e.tenant = record.tenant;
  return log.Add(e);
}

}  // namespace lsched

#endif  // LSCHED_TESTS_DECISION_LOG_TESTING_H_
