// perfbench — one run of one perf-ledger workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--root DIR] [--bin-dir DIR] [--work-dir DIR]
//
// Prints a human-readable table on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics", "errors",
// "notes"}. perfbench/run.py builds this binary and narrows the object to
// the metrics BENCHMARK.json lists. Exit code 0 whenever a result was
// printed (a failed check is reported in it, not by the exit code).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/json.hpp"
#include "common/log.hpp"
#include "workloads.hpp"

using namespace perfbench;

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.workload.clear();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::stoull(v);
    else if (k == "--seconds") cfg.seconds = std::stod(v);
    else if (k == "--trace") cfg.trace = v == "1";
    else if (k == "--root") cfg.root = v;
    else if (k == "--bin-dir") cfg.bin_dir = v;
    else if (k == "--work-dir") cfg.work_dir = v;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (cfg.workload.empty() || cfg.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--root DIR] [--bin-dir DIR]\n");
    return 2;
  }
  neptune::set_log_level(neptune::LogLevel::kError);

  RunResult r;
  try {
    r = run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  std::fprintf(stderr, "\n== %s (seed %llu, %s) ==\n", cfg.workload.c_str(),
               static_cast<unsigned long long>(cfg.seed), cfg.trace ? "traced" : "untraced");
  for (const auto& [name, m] : r.metrics)
    std::fprintf(stderr, "  %-52s %16.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  for (const auto& n : r.notes) std::fprintf(stderr, "  note: %s\n", n.c_str());
  for (const auto& e : r.errors) std::fprintf(stderr, "  CHECK FAILED: %s\n", e.c_str());

  neptune::JsonObject metrics;
  for (const auto& [name, m] : r.metrics) {
    neptune::JsonObject x;
    x["value"] = neptune::JsonValue(m.value);
    x["unit"] = neptune::JsonValue(m.unit);
    metrics[name] = neptune::JsonValue(std::move(x));
  }
  neptune::JsonArray errors, notes;
  for (const auto& e : r.errors) errors.emplace_back(e);
  for (const auto& n : r.notes) notes.emplace_back(n);
  neptune::JsonObject o;
  o["correct"] = neptune::JsonValue(r.correct);
  o["attempted"] = neptune::JsonValue(static_cast<int64_t>(r.attempted));
  o["failed"] = neptune::JsonValue(static_cast<int64_t>(r.failed));
  o["metrics"] = neptune::JsonValue(std::move(metrics));
  o["errors"] = neptune::JsonValue(std::move(errors));
  o["notes"] = neptune::JsonValue(std::move(notes));
  std::printf("%s\n", neptune::JsonValue(std::move(o)).dump().c_str());
  return 0;
}
