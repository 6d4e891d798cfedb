// lsbench: runs one benchmark workload of the LSched reproduction and prints
// one JSON result line (see README.md). Usually started through run.py,
// which builds this program first:
//
//   lsbench --workload real_serve|sim_serve_job|sim_train_tpch
//           --seed N --seconds S --trace 0|1
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "lsbench: %s\nusage: lsbench --workload "
               "real_serve|sim_serve_job|sim_train_tpch --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  lsbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    long long v = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, (1LL << 62), &v)) return Usage("bad --seed");
      args.seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 120, &v)) return Usage("bad --seconds");
      args.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &v)) return Usage("bad --trace");
      args.trace = v == 1;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  void (*run)(const lsbench::Args&, lsbench::Report*, lsbench::Trace*) =
      nullptr;
  if (args.workload == "real_serve") {
    run = lsbench::RunRealServe;
  } else if (args.workload == "sim_serve_job") {
    run = lsbench::RunSimServeJob;
  } else if (args.workload == "sim_train_tpch") {
    run = lsbench::RunSimTrainTpch;
  } else {
    return Usage("unknown or missing --workload");
  }

  lsbench::Report report;
  if (!args.trace) {
    run(args, &report, nullptr);
  } else {
    lsbench::Trace trace;
    run(args, &report, &trace);
    // Spans stay in memory during the run and are written out only now.
    const std::string path = ".bench_out/trace_" + args.workload + "_seed" +
                             std::to_string(args.seed) + ".json";
    ::mkdir(".bench_out", 0755);
    if (!lsbench::SpanLog::Write(path, {&trace.driver, &trace.engine})) {
      std::fprintf(stderr, "lsbench: could not write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "lsbench: wrote %zu spans to %s\n",
                   trace.driver.size() + trace.engine.size(), path.c_str());
    }
  }
  report.Print();
  return 0;
}
