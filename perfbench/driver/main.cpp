// perfbench_driver: runs one benchmark workload and writes its raw
// samples for perfbench/run.py.
//
//   perfbench_driver --workload locality|census|serve --seed N
//                    --seconds S --trace 0|1 --threads T --out DIR
//                    [--serve-bin PATH]
//
// Writes DIR/raw.json (and DIR/spans.json when traced). Exit 0 when the
// run completed, whatever its checks found (the verdicts are in
// raw.json); exit 2 on bad arguments, 1 on an internal error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload locality|census|serve "
               "--seed N --seconds S --trace 0|1 --threads T --out DIR "
               "[--serve-bin PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--threads") {
      args.threads = std::atoi(value.c_str());
    } else if (key == "--out") {
      args.out_dir = value;
    } else if (key == "--serve-bin") {
      args.serve_bin = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.out_dir.empty() || args.threads < 1 ||
      args.seconds <= 0) {
    return usage();
  }

  perfbench::Raw raw;
  raw.workload = args.workload;
  raw.threads = args.threads;
  int rc = 0;
  try {
    if (args.workload == "locality") {
      rc = perfbench::run_locality(args, raw);
    } else if (args.workload == "census") {
      rc = perfbench::run_census(args, raw);
    } else if (args.workload == "serve") {
      rc = perfbench::run_serve(args, raw);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  if (rc != 0) return rc;
  if (args.trace &&
      !perfbench::Tracer::instance().write(args.out_dir + "/spans.json")) {
    std::fprintf(stderr, "perfbench_driver: cannot write spans\n");
    return 1;
  }
  if (!raw.write(args.out_dir + "/raw.json")) {
    std::fprintf(stderr, "perfbench_driver: cannot write raw.json\n");
    return 1;
  }
  return 0;
}
