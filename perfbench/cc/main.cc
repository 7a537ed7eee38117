// The benchmark's entry point:
//   perfbench --workload olap|ingest|crowd --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE]
// Runs one workload on a machine of one 2-worker pool, prints
// workload-specific figures as "# name value unit" lines, and ends with
// one JSON line: correct, attempted, failed and the metrics (end-to-end
// with --trace 0, per-layer with --trace 1). Exits non-zero when a check
// fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "cc/workloads.h"
#include "fault/injector.h"
#include "obs/alloc_hook.h"
#include "query/pool.h"

namespace {

using namespace perfbench;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload olap|ingest|crowd "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "olap" && args.workload != "ingest" &&
      args.workload != "crowd") {
    Usage("--workload must be olap, ingest or crowd");
  }
  if (!have_trace) Usage("--trace is required");
  if (args.work_dir.empty()) Usage("--work-dir is required");
  return args;
}

void PrintJson(const RunResult& r, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Tracer::Get();  // spans belong to this (the main) thread
  dbm::obs::InstallCountingAllocator();
  const Args args = Parse(argc, argv);
  // Timing must not absorb injected faults.
  (void)dbm::fault::Injector::Default().Configure("", 0);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  RunResult result;
  {
    // The thread budget: the main thread plus these workers, passed to
    // every parallel call site.
    dbm::query::WorkerPool pool(2);
    // olap's dop-2 queries need a CPU per worker. crowd's front door
    // hands a batch of ~2 requests to the pool every millisecond of
    // simulated time; with the workers on other CPUs each hand-off waits
    // for an idle CPU to wake, and that wait swung crowd's throughput
    // between 14k and 43k requests/s over five runs of one binary, so
    // crowd keeps its threads on one CPU (57k-59k over eight runs).
    const size_t pinned = PinThreads(args.workload == "crowd"
                                         ? Placement::kShared
                                         : Placement::kSpread);
    if (args.workload == "olap") {
      result = RunOlap(args, &pool);
    } else if (args.workload == "ingest") {
      result = RunIngest(args);
    } else {
      result = RunCrowd(args, &pool);
    }
    result.detail.push_back(
        {"threads_pinned", static_cast<double>(pinned), "count"});
  }
  std::filesystem::remove_all(args.work_dir, ec);

  // The metrics the flag selects: end-to-end untraced, per-layer traced
  // (every per-layer name, 0 where the workload does not use the layer).
  std::vector<Metric> metrics = result.end_to_end;
  if (args.trace) {
    metrics = PerLayerMetrics();
    for (Metric& m : metrics) {
      for (const Metric& got : result.per_layer) {
        if (got.name == m.name) m.value = got.value;
      }
    }
    if (!args.trace_path.empty() &&
        !Tracer::Get().Write(args.trace_path)) {
      result.Fail("cannot write spans to " + args.trace_path);
    }
  }
  if (result.failed > 0) result.correct = false;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) result.Fail("metric " + m.name + " is not finite");
  }
  for (const Metric& m : result.detail) {
    std::printf("# %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench %s: %s\n", args.workload.c_str(),
                 e.c_str());
  }
  std::fflush(stderr);
  PrintJson(result, metrics);
  return result.correct ? 0 : 1;
}
