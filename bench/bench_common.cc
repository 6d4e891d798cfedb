#include "bench/bench_common.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>

#include "sched/heuristics.h"
#include "util/build_info.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace lsched {
namespace bench {

BenchConfig BenchConfig::FromEnv() {
  BenchConfig cfg;
  if (const char* e = std::getenv("LSCHED_EPISODES")) {
    cfg.episodes = std::max(1, std::atoi(e));
  }
  if (const char* e = std::getenv("LSCHED_THREADS")) {
    cfg.threads = std::max(1, std::atoi(e));
  }
  if (const char* e = std::getenv("LSCHED_EVAL_QUERIES")) {
    cfg.eval_queries = std::max(1, std::atoi(e));
  }
  if (const char* e = std::getenv("LSCHED_MODEL_DIR")) {
    cfg.model_dir = e;
  }
  ::mkdir(cfg.model_dir.c_str(), 0755);
  return cfg;
}

SimEngine MakeEngine(int threads, uint64_t seed) {
  SimEngineConfig cfg;
  cfg.num_threads = threads;
  cfg.seed = seed;
  return SimEngine(cfg);
}

WorkloadFactory TrainFactory(Benchmark benchmark) {
  // §7.1: streaming episodes with varying query counts and arrival rates.
  // Query counts are scaled to simulator-tractable sizes.
  return MakeEpisodeFactory(benchmark, 10, 30, 0.02, 0.12);
}

std::vector<QuerySubmission> TestWorkload(Benchmark benchmark,
                                          int num_queries, bool batch,
                                          double mean_interarrival,
                                          uint64_t seed) {
  WorkloadConfig cfg;
  cfg.benchmark = benchmark;
  cfg.split = WorkloadSplit::kTest;
  cfg.num_queries = num_queries;
  cfg.batch = batch;
  cfg.mean_interarrival_seconds = mean_interarrival;
  Rng rng(seed);
  return GenerateWorkload(cfg, &rng);
}

LSchedConfig DefaultLSchedConfig() {
  LSchedConfig cfg;
  cfg.hidden_dim = 12;
  cfg.summary_dim = 12;
  cfg.head_hidden = 16;
  cfg.num_conv_layers = 2;
  return cfg;
}

namespace {
/// Cache file of a trained model, keyed by everything that determines it:
/// kind, benchmark, variant, episodes, threads, seed and the build's git
/// sha (so a trainer change never serves a model the old code trained).
std::string CachePath(const BenchConfig& bench, Benchmark benchmark,
                      const std::string& kind, const std::string& variant,
                      int episodes) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%s/%s_%s_%s_e%d_t%d_s%llu_%s.model",
                bench.model_dir.c_str(), kind.c_str(),
                BenchmarkName(benchmark), variant.c_str(), episodes,
                bench.threads, static_cast<unsigned long long>(bench.seed),
                buildinfo::kGitSha);
  return buf;
}

/// A build from a modified or unknown tree has no sha that pins its
/// trainer, so it neither loads nor writes cached models.
bool CacheUsable() {
  const std::string sha = buildinfo::kGitSha;
  return sha != "unknown" && sha.find("-dirty") == std::string::npos;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}
}  // namespace

std::unique_ptr<LSchedModel> TrainedLSched(const BenchConfig& bench,
                                           Benchmark benchmark,
                                           const std::string& variant,
                                           LSchedConfig config,
                                           int episodes_override,
                                           LSchedModel* warm_start) {
  const int episodes =
      episodes_override > 0 ? episodes_override : bench.episodes;
  auto model = std::make_unique<LSchedModel>(config);
  const std::string path =
      CachePath(bench, benchmark, "lsched", variant, episodes);
  if (CacheUsable() && FileExists(path) && model->Load(path).ok()) {
    std::fprintf(stderr, "[bench] loaded cached model %s\n", path.c_str());
    return model;
  }
  if (warm_start != nullptr) {
    model->params()->CopyValuesFrom(*warm_start->params());
    model->FreezeForTransfer();
  }
  SimEngine engine = MakeEngine(bench.threads, bench.seed);
  TrainConfig tcfg;
  tcfg.episodes = episodes;
  tcfg.learning_rate = 2e-3;
  tcfg.seed = bench.seed;
  std::fprintf(stderr, "[bench] training LSched(%s/%s) for %d episodes...\n",
               BenchmarkName(benchmark), variant.c_str(), episodes);
  ReinforceTrainer trainer(model.get(), &engine, tcfg);
  trainer.Train(TrainFactory(benchmark));
  if (warm_start != nullptr) model->UnfreezeAll();
  if (!CacheUsable()) return model;
  const Status st = model->Save(path);
  if (!st.ok()) {
    std::fprintf(stderr, "[bench] model save failed: %s\n",
                 st.ToString().c_str());
  }
  return model;
}

std::unique_ptr<DecimaModel> TrainedDecima(const BenchConfig& bench,
                                           Benchmark benchmark,
                                           int episodes_override) {
  const int episodes =
      episodes_override > 0 ? episodes_override : bench.episodes;
  auto model = std::make_unique<DecimaModel>(DecimaConfig{});
  const std::string path =
      CachePath(bench, benchmark, "decima", "full", episodes);
  if (CacheUsable() && FileExists(path)) {
    auto reader = BinaryReader::FromFile(path);
    if (reader.ok() && model->params()->Deserialize(&*reader).ok()) {
      std::fprintf(stderr, "[bench] loaded cached model %s\n", path.c_str());
      return model;
    }
  }
  SimEngine engine = MakeEngine(bench.threads, bench.seed);
  std::fprintf(stderr, "[bench] training Decima(%s) for %d episodes...\n",
               BenchmarkName(benchmark), episodes);
  DecimaTrainer trainer(model.get(), &engine, episodes, 2e-3, bench.seed);
  trainer.Train(TrainFactory(benchmark));
  if (!CacheUsable()) return model;
  BinaryWriter writer;
  model->params()->Serialize(&writer);
  (void)writer.SaveToFile(path);
  return model;
}

SelfTuneParams TunedSelfTune(const BenchConfig& bench, Benchmark benchmark,
                             int iterations) {
  SimEngine engine = MakeEngine(bench.threads, bench.seed);
  Rng rng(bench.seed ^ 0xFACE);
  std::vector<std::vector<QuerySubmission>> training;
  WorkloadFactory factory = TrainFactory(benchmark);
  for (int i = 0; i < 3; ++i) training.push_back(factory(i, &rng));
  std::fprintf(stderr, "[bench] tuning SelfTune(%s), %d iterations...\n",
               BenchmarkName(benchmark), iterations);
  return TuneSelfTune(&engine, training, iterations, &rng).best_params;
}

void PrintCsvHeader() {
  std::printf("figure,scheduler,queries,threads,metric,value\n");
}

void PrintCsvRow(const std::string& figure, const std::string& scheduler,
                 int queries, int threads, const std::string& metric,
                 double value) {
  std::printf("%s,%s,%d,%d,%s,%.9g\n", figure.c_str(), scheduler.c_str(),
              queries, threads, metric.c_str(), value);
}

void PrintCdfRow(const std::string& name,
                 const std::vector<double>& latencies) {
  std::printf("%-12s mean=%8.3f |", name.c_str(), Mean(latencies));
  for (int p = 10; p <= 100; p += 10) {
    std::printf(" p%d=%7.2f", p, Percentile(latencies, p));
  }
  std::printf("\n");
}

double PrintAvgRow(const std::string& name, const EpisodeResult& result) {
  std::printf("%-12s avg=%8.3f p90=%8.3f makespan=%8.3f actions=%d\n",
              name.c_str(), result.avg_latency, result.p90_latency,
              result.makespan, result.num_actions);
  return result.avg_latency;
}

bool WriteBenchSnapshot(const PerfSnapshot& snap) {
  const char* env = std::getenv("LSCHED_BENCH_OUT");
  const std::string path =
      env != nullptr && *env != '\0' ? env : "BENCH_" + snap.name + ".json";
  if (!WritePerfSnapshot(snap, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu metrics, sha %s)\n", path.c_str(),
              snap.metrics.size(), snap.git_sha.c_str());
  return true;
}

void RunHeadlineComparison(const BenchConfig& bench, Benchmark benchmark,
                           bool include_fifo) {
  auto lsched_model =
      TrainedLSched(bench, benchmark, "full", DefaultLSchedConfig());
  auto decima_model = TrainedDecima(bench, benchmark);
  const SelfTuneParams st_params = TunedSelfTune(bench, benchmark);

  SimEngine engine = MakeEngine(bench.threads, bench.seed + 1);
  for (const bool batch : {false, true}) {
    std::printf("\n=== %s %s: CDF of avg query duration (sec), %d queries, "
                "%d threads ===\n",
                BenchmarkName(benchmark), batch ? "Batching" : "Streaming",
                bench.eval_queries, bench.threads);
    const auto workload =
        TestWorkload(benchmark, bench.eval_queries, batch,
                     bench.eval_interarrival, bench.seed + 99);

    LSchedAgent lsched(lsched_model.get());
    DecimaScheduler decima(decima_model.get());
    QuickstepScheduler quickstep;
    SelfTuneScheduler selftune(st_params);
    FairScheduler fair;
    FifoScheduler fifo;

    std::vector<std::pair<std::string, Scheduler*>> schedulers = {
        {"LSched", &lsched},     {"Decima", &decima},
        {"Quickstep", &quickstep}, {"SelfTune", &selftune},
        {"Fair", &fair}};
    if (include_fifo) schedulers.push_back({"FIFO", &fifo});

    double lsched_avg = 0.0, decima_avg = 0.0;
    for (auto& [name, sched] : schedulers) {
      const EpisodeResult r = engine.Run(workload, sched);
      PrintCdfRow(name, r.query_latencies);
      if (name == "LSched") lsched_avg = r.avg_latency;
      if (name == "Decima") decima_avg = r.avg_latency;
    }
    if (decima_avg > 0.0) {
      std::printf("LSched improvement over Decima: %.1f%%\n",
                  100.0 * (decima_avg - lsched_avg) / decima_avg);
    }
  }
}

}  // namespace bench
}  // namespace lsched
