#ifndef LSCHED_CORE_EXPERIENCE_H_
#define LSCHED_CORE_EXPERIENCE_H_

#include <vector>

#include "core/agent.h"

namespace lsched {

/// The Experience Manager (paper Fig. 2): holds the reward experiences of
/// the latest training/online episode and maintains the per-decision-index
/// reward baselines used to reduce REINFORCE's gradient variance (paper §6,
/// [61]). The baselines are running EWMAs, so no earlier episode is kept:
/// memory stays that of one episode however long training runs.
class ExperienceManager {
 public:
  explicit ExperienceManager(double baseline_alpha = 0.1)
      : baseline_alpha_(baseline_alpha) {}

  /// Records an episode's returns and updates the baselines.
  void AddEpisode(std::vector<Experience> experiences,
                  std::vector<double> returns);

  /// Baseline value b(d) for decision index d (0 before any data).
  double Baseline(size_t decision_index) const;

  /// Advantages G_d - b(d) for the most recent episode, normalized to unit
  /// variance when `normalize` (stabilizes updates across workload scales).
  std::vector<double> LatestAdvantages(bool normalize = true) const;

  struct StoredEpisode {
    std::vector<Experience> experiences;
    std::vector<double> returns;
    std::vector<double> advantages;  ///< returns minus pre-episode baselines
  };

  /// The most recent episode (requires !empty()).
  const StoredEpisode& latest() const { return latest_; }
  /// Episodes held: 1 once any was added (only the latest is kept).
  size_t num_episodes() const { return has_latest_ ? 1 : 0; }
  bool empty() const { return !has_latest_; }
  void Clear();

 private:
  double baseline_alpha_;
  StoredEpisode latest_;
  bool has_latest_ = false;
  std::vector<double> baseline_;       ///< EWMA of G_d per decision index
  std::vector<bool> baseline_init_;
};

}  // namespace lsched

#endif  // LSCHED_CORE_EXPERIENCE_H_
