// perfbench_measure — the repository benchmark's measuring process.
//
//   perfbench_measure --workload serve_hot|campaign --seed N
//                    --seconds S --trace 0|1 --serve PATH --work-dir DIR
//
// Prints an {"artifact": ...} line (thread counts, seed, phase detail) and
// then the result line {"correct", "attempted", "failed", "metrics"}. Exits
// 1 when any output was incorrect, 2 on a usage error. perfbench/run.py
// builds this binary and sre_serve, then runs it.

#include <sched.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "runs.hpp"

namespace {

unsigned visible_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.nproc = visible_cores();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--serve") {
      opt.serve_path = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      std::cerr << "perfbench_measure: unknown option " << flag << "\n";
      return 2;
    }
  }
  const bool serve = opt.workload == "serve_hot";
  if (!serve && opt.workload != "campaign") {
    std::cerr << "perfbench_measure: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  if (serve && (opt.serve_path.empty() || opt.work_dir.empty())) {
    std::cerr << "perfbench_measure: serve_hot needs --serve and --work-dir\n";
    return 2;
  }

  perfbench::Report rep;
  try {
    if (serve) {
      opt.trace ? perfbench::run_serve_trace(opt, rep) : perfbench::run_serve(opt, rep);
    } else {
      opt.trace ? perfbench::run_campaign_trace(opt, rep)
                : perfbench::run_campaign(opt, rep);
    }
  } catch (const std::exception& e) {
    rep.attempt();
    rep.fail(std::string("run aborted: ") + e.what());
  }
  std::cout << rep.artifact_line() << "\n" << rep.result_line() << std::endl;
  return rep.correct() ? 0 : 1;
}
