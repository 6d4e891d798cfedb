// Workload `sim_train_tpch`: a ReinforceTrainer trains LSched on a fixed,
// seeded list of TPCH training-split episodes on SimEngine. The autograd
// tape, its backward pass and Adam do the work. Checks: the gradient of a
// sampled decision's loss against central finite differences (after the
// first episode and after the last), and a second trainer with the same
// seed reproducing the first episodes' weights bit for bit.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "core/encoder.h"
#include "core/experience.h"
#include "core/predictor.h"
#include "core/reward.h"
#include "core/trainer.h"
#include "nn/optimizer.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/templates.h"
#include "workload/workload.h"

namespace lsbench {
namespace {

using namespace lsched;

// --- workload constants (README "sim_train_tpch") -------------------------
/// Every episode deals one deck of the 11 TPCH training templates at one
/// scale factor: the same query multiset, in a seeded order.
constexpr int kDecksPerEpisode = 1;
constexpr int kScaleFactor = 10;
constexpr double kMeanGapSeconds = 0.05;
constexpr int kSimThreads = 60;
/// Episodes each repetition trains.
constexpr int kEpisodes = 40;
/// Repetitions per second of --seconds on the reference host: fixes the
/// number of repetitions per run (at least 2).
constexpr double kRepetitionsPerSecond = 0.2;
/// Episodes the set-up trains a throwaway model on.
constexpr int kWarmupEpisodes = 5;
/// Parameter entries spot-checked per tensor by the finite-difference check.
constexpr int kGradEntriesPerTensor = 2;

TrainConfig MakeTrainConfig() {
  TrainConfig tc;
  // Small enough that the policy stays near its initial weights for the
  // whole run: the cost of an episode (how many decisions, over how many
  // live queries) then does not depend on where training drifted (README).
  tc.learning_rate = 1e-5;
  tc.seed = 31;
  // Episodes run one by one through TrainOneEpisode; Train() with zero
  // episodes then returns the TrainStats of those episodes.
  tc.episodes = 0;
  return tc;
}

SimEngineConfig EngineConfig() {
  SimEngineConfig cfg;
  cfg.num_threads = kSimThreads;
  cfg.seed = 7;
  return cfg;
}

/// The ReinforceTrainer episode, assembled by the driver from public
/// functions so that each stage can be timed: the rollout (SimEngine::Run
/// with the sampling LayerTimedLSched, which decides and records as the
/// trainer's LSchedAgent does, behind a timing wrapper), the replayed tape
/// forward of every decision, the backward pass, and gradient clipping plus
/// Adam. It updates the weights exactly as ReinforceTrainer::TrainOneEpisode
/// does; traced runs check that bit for bit.
class LayerTimedTrainer {
 public:
  LayerTimedTrainer(LSchedModel* model, TrainConfig config, SpanLog* spans)
      : model_(model),
        config_(config),
        agent_(model, spans),
        optimizer_(config.learning_rate),
        spans_(spans) {
    // ReinforceTrainer seeds its agent so.
    agent_.EnableSampling(config.seed ^ 0x5bd1e995, config.exploration_epsilon);
  }

  EpisodeResult TrainOneEpisode(const std::vector<QuerySubmission>& workload,
                                int episode);
  const ExperienceManager& experience() const { return experience_; }
  const LayerTimedLSched& agent() const { return agent_; }

  /// Per-layer figures of the rollouts.
  LayerFigures layers;
  double sim_s = 0.0, rollout_s = 0.0, replay_s = 0.0, backward_s = 0.0,
         adam_s = 0.0;
  int64_t decisions = 0;

 private:
  LSchedModel* model_;
  TrainConfig config_;
  SimEngine engine_{EngineConfig()};
  LayerTimedLSched agent_;
  ExperienceManager experience_;
  Adam optimizer_;
  SpanLog* spans_;
};

EpisodeResult LayerTimedTrainer::TrainOneEpisode(
    const std::vector<QuerySubmission>& workload, int episode) {
  ScopedSpan episode_span(spans_, "train.episode", -1, episode);
  TimedScheduler timed(&agent_, 0);
  double t = Now();
  EpisodeResult result;
  {
    ScopedSpan span(spans_, "exec.sim_run", episode_span.id(), episode);
    result = engine_.Run(workload, &timed);
  }
  double rollout = 0.0;
  for (double s : timed.call_seconds()) rollout += s;
  sim_s += Now() - t - rollout;
  rollout_s += rollout;
  layers.engine_s += Now() - t - rollout;
  layers.decision_s.insert(layers.decision_s.end(),
                           timed.call_seconds().begin(),
                           timed.call_seconds().end());
  layers.AddEngine(result);
  layers.AddDecomposition(result);
  for (double l : result.query_latencies) layers.latency_ms.push_back(l * 1e3);

  std::vector<Experience>& exps = agent_.experiences();
  if (exps.empty()) return result;
  const std::vector<double> returns =
      ComputeReturns(ComputeRewards(exps, config_.reward, result.makespan));
  experience_.AddEpisode(std::move(exps), returns);
  agent_.experiences().clear();

  const ExperienceManager::StoredEpisode& ep = experience_.latest();
  const std::vector<double> adv = experience_.LatestAdvantages(true);
  const bool want_entropy = config_.entropy_coef > 0.0 || obs::Enabled();
  model_->params()->ZeroGrads();
  const double scale = 1.0 / std::max<size_t>(ep.experiences.size(), 1);
  const int64_t update_span =
      spans_ ? spans_->Begin("nn.update", episode_span.id(), episode) : -1;
  for (size_t d = 0; d < ep.experiences.size(); ++d) {
    const Experience& exp = ep.experiences[d];
    if (exp.state.candidates.empty()) continue;
    t = Now();
    Tape tape;
    const EncodedState encoded = EncodeState(model_, exp.state, &tape);
    const PredictorOutput out = RunPredictor(model_, exp.state, encoded, &tape);
    Var loss = tape.Scale(ActionLogProb(&tape, out, exp.action), -adv[d]);
    if (want_entropy) {
      Var entropy = ActionEntropy(&tape, out, exp.action);
      if (config_.entropy_coef > 0.0) {
        loss = tape.Add(loss, tape.Scale(entropy, -config_.entropy_coef));
      }
    }
    const double t_backward = Now();
    replay_s += t_backward - t;
    tape.Backward(loss, scale);
    backward_s += Now() - t_backward;
    ++decisions;
  }
  t = Now();
  model_->params()->ClipGradNorm(config_.grad_clip);
  optimizer_.Step(model_->params());
  adam_s += Now() - t;
  if (spans_) spans_->End(update_span);
  return result;
}

/// The loss ReinforceTrainer applies for one decision, without the
/// advantage weight: -log pi(a | s) - entropy_coef * H(pi).
double DecisionLoss(LSchedModel* model, const Experience& exp,
                    double entropy_coef, bool backward) {
  Tape tape;
  const EncodedState encoded = EncodeState(model, exp.state, &tape);
  const PredictorOutput out = RunPredictor(model, exp.state, encoded, &tape);
  Var loss = tape.Scale(ActionLogProb(&tape, out, exp.action), -1.0);
  if (entropy_coef > 0.0) {
    loss = tape.Add(
        loss, tape.Scale(ActionEntropy(&tape, out, exp.action), -entropy_coef));
  }
  if (backward) tape.Backward(loss);
  return loss.value().at(0, 0);
}

/// Checks the backpropagated gradient of one sampled decision of the
/// latest episode against central finite differences on a few entries of
/// every parameter tensor. Leaves weights unchanged and gradients zero.
void CheckGradient(LSchedModel* model, const ExperienceManager& experience,
                   double entropy_coef, Rng* rng, const std::string& where,
                   Report* report) {
  const std::vector<Experience>& exps = experience.latest().experiences;
  std::vector<size_t> usable;
  for (size_t d = 0; d < exps.size(); ++d) {
    if (!exps[d].state.candidates.empty()) usable.push_back(d);
  }
  if (usable.empty()) {
    report->Check(false, where + ": an episode decision to check");
    return;
  }
  const Experience& exp = exps[usable[rng->UniformInt(usable.size())]];
  model->params()->ZeroGrads();
  DecisionLoss(model, exp, entropy_coef, true);
  const double h = 1e-6;
  int bad = 0, checked = 0;
  std::string first_bad;
  for (Param* p : model->params()->All()) {
    for (int k = 0; k < kGradEntriesPerTensor; ++k) {
      const size_t i = rng->UniformInt(p->value.raw().size());
      const double orig = p->value.raw()[i];
      p->value.raw()[i] = orig + h;
      const double fp = DecisionLoss(model, exp, entropy_coef, false);
      p->value.raw()[i] = orig - h;
      const double fm = DecisionLoss(model, exp, entropy_coef, false);
      p->value.raw()[i] = orig;
      const double numeric = (fp - fm) / (2.0 * h);
      ++checked;
      if (std::fabs(p->grad.raw()[i] - numeric) >
          2e-4 * std::max(1.0, std::fabs(numeric))) {
        if (bad++ == 0) {
          first_bad = p->name + "[" + std::to_string(i) + "] " +
                      std::to_string(p->grad.raw()[i]) + " vs " +
                      std::to_string(numeric);
        }
      }
    }
  }
  model->params()->ZeroGrads();
  report->Check(bad == 0, where + ": " + std::to_string(bad) + " of " +
                              std::to_string(checked) +
                              " gradient entries off finite differences" +
                              (first_bad.empty() ? "" : " (" + first_bad + ")"));
}

}  // namespace

void RunSimTrainTpch(const Args& args, Report* report, Trace* trace) {
  SpanLog* spans = trace != nullptr ? &trace->driver : nullptr;
  // ---------------------------------------------------------------- set-up
  const int repetitions = std::max(
      2, static_cast<int>(std::lround(args.seconds * kRepetitionsPerSecond)));
  // Each episode deals whole shuffled decks of the TPCH training templates,
  // so that every episode runs the same query multiset; --seed sets the
  // order, the selectivities and the arrival gaps.
  std::vector<std::vector<QuerySubmission>> episodes(
      static_cast<size_t>(kEpisodes));
  {
    WorkloadConfig wc;
    wc.benchmark = Benchmark::kTpch;
    wc.split = WorkloadSplit::kTrain;
    wc.scale_factors = {kScaleFactor};
    const std::vector<std::pair<int, int>> pool = TemplatePool(wc);
    const std::vector<TemplateSpec> specs = TemplatesOf(Benchmark::kTpch);
    Rng rng(args.seed);
    for (std::vector<QuerySubmission>& episode : episodes) {
      double at = 0.0;
      for (int d = 0; d < kDecksPerEpisode; ++d) {
        std::vector<std::pair<int, int>> deck = pool;
        rng.Shuffle(&deck);
        for (const auto& [tmpl, sf] : deck) {
          Result<QueryPlan> plan = InstantiateTemplate(
              Benchmark::kTpch, specs[static_cast<size_t>(tmpl)], sf, &rng);
          LSCHED_CHECK(plan.ok()) << plan.status().ToString();
          at += rng.Exponential(kMeanGapSeconds);
          QuerySubmission sub;
          sub.plan = std::move(plan).value();
          sub.arrival_time = at;
          episode.push_back(std::move(sub));
        }
      }
    }
  }
  const TrainConfig tc = MakeTrainConfig();
  {
    // Warm-up: a few episodes on a throwaway model and trainer.
    LSchedModel warm_model(ModelConfig());
    SimEngine warm_engine(EngineConfig());
    ReinforceTrainer warm(&warm_model, &warm_engine, tc);
    for (int e = 0; e < kWarmupEpisodes; ++e) {
      warm.TrainOneEpisode(episodes[static_cast<size_t>(e)]);
    }
  }
  // Traced runs train repetition 1 through the layer-timed trainer.
  LSchedModel layered_model(ModelConfig());
  LayerTimedTrainer layered(&layered_model, tc, spans);
  Rng check_rng(args.seed ^ 0xC4ECCULL);
  const double setup_s = Now();

  // -------------------------------------------------------------- measure
  // Every repetition trains a fresh model from the same initial weights on
  // the same episodes, and must end with repetition 0's weights bit for
  // bit. Per episode, the least time over the repetitions counts: the
  // fastest run of identical work is the one the host disturbed least
  // (README "Steadiness").
  std::vector<double> best(episodes.size(), 1e300);
  std::vector<double> reference_weights;
  double latency_mean_ms = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    ScopedSpan rep_span(spans, "train.repetition", -1, rep);
    const bool layer_timed = trace != nullptr && rep == 1;
    LSchedModel model(ModelConfig());
    SimEngine engine(EngineConfig());
    ReinforceTrainer trainer(&model, &engine, tc);
    for (int e = 0; e < kEpisodes; ++e) {
      const std::vector<QuerySubmission>& episode =
          episodes[static_cast<size_t>(e)];
      const double t = Now();
      if (layer_timed) {
        const EpisodeResult r = layered.TrainOneEpisode(episode, e);
        CheckSimProperties(r, static_cast<int>(episode.size()),
                           "episode " + std::to_string(e), report);
      } else {
        trainer.TrainOneEpisode(episode);
      }
      best[static_cast<size_t>(e)] =
          std::min(best[static_cast<size_t>(e)], Now() - t);
      report->Attempt();  // the episode itself
      if (rep == 0 && (e == 0 || e + 1 == kEpisodes)) {
        CheckGradient(&model, *trainer.experience_manager(), tc.entropy_coef,
                      &check_rng, "episode " + std::to_string(e) + " gradient",
                      report);
      }
    }
    if (rep == 0) {
      reference_weights = SnapshotWeights(&model);
      // Train() with zero episodes returns the stats of those run.
      const TrainStats stats = trainer.Train(
          [](int, Rng*) { return std::vector<QuerySubmission>(); });
      latency_mean_ms = Mean(stats.episode_avg_latency) * 1e3;
    } else {
      report->Check(
          SnapshotWeights(layer_timed ? &layered_model : &model) ==
              reference_weights,
          "repetition " + std::to_string(rep) +
              (layer_timed ? " (layer-timed trainer)" : "") +
              " reproduces repetition 0's weights bit for bit");
    }
  }

  // -------------------------------------------------------------- metrics
  double train_s = 0.0;
  for (double b : best) train_s += b;
  const double queries_per_s =
      static_cast<double>(kEpisodes) *
      static_cast<double>(episodes[0].size()) / train_s;
  std::fprintf(stderr,
               "lsbench: sim_train_tpch%s %d repetitions of %d episodes, "
               "least episode times sum to %.3f s: %.2f queries/s\n",
               trace != nullptr ? " (traced)" : "", repetitions, kEpisodes,
               train_s, queries_per_s);
  if (trace == nullptr) {
    ReportEndToEnd(setup_s, latency_mean_ms, report);
    return;
  }
  ReportLayers(layered.layers, layered.agent(), report);
  // The learner runs only in this workload, so its split has no per-layer
  // metric (every workload reports the same set); it goes to stderr.
  const double n = kEpisodes;
  std::fprintf(stderr,
               "lsbench: layer-timed repetition, per episode (%.1f "
               "decisions): rollout %.2f ms, simulator %.2f ms, tape forward "
               "%.2f ms, backward %.2f ms, clip+Adam %.3f ms\n",
               static_cast<double>(layered.decisions) / n,
               layered.rollout_s * 1e3 / n, layered.sim_s * 1e3 / n,
               layered.replay_s * 1e3 / n, layered.backward_s * 1e3 / n,
               layered.adam_s * 1e3 / n);
}

}  // namespace lsbench
