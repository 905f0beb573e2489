// perfbench: runs one workload in this process and prints its
// result as the last line of stdout. See ../README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload lbfgs|beam_search|serve_rnn|"
               "treelstm --seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  const std::map<std::string, void (*)(perfbench::Context&)> workloads = {
      {"lbfgs", perfbench::RunLbfgs},
      {"beam_search", perfbench::RunBeamSearch},
      {"serve_rnn", perfbench::RunServeRnn},
      {"treelstm", perfbench::RunTreeLstm}};
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage("unknown workload");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  std::filesystem::create_directories(args.out_dir);
  perfbench::Context ctx(args);
  try {
    it->second(ctx);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (ctx.spans.enabled()) {
    const std::string path = ctx.OutPath("-spans.json");
    if (!ctx.spans.Write(path)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
    ctx.report.Note("spans: " + std::to_string(ctx.spans.size()) + " -> " +
                    path);
  }
  ctx.report.Print();
  return 0;
}
