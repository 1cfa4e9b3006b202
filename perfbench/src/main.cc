// skimbench: the program behind the skimjoin repository benchmark.
//
//   skimbench --workload <join_ingest|join_answer|concurrent_point|
//                         fleet_refresh>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//             [--scratch <dir>]
//
// Prints one `metric <name> <value> <unit>` line per measurement, the run
// context, any failed check, and as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when any
// operation or output check failed. perfbench/run.py builds this binary and
// filters its metrics to the ones BENCHMARK.json names.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "hashing/simd_hash.h"

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::cerr << "skimbench: " << message
            << "\nusage: skimbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--smoke] [--scratch <dir>]\n";
  return 2;
}

std::string Escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Run(const Options& options) {
#if !defined(__OPTIMIZE__)
  std::cerr << "skimbench: refusing to report numbers from an unoptimized "
               "build (configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  Report report;
  report.Context("workload", options.workload);
  report.Context("seed", std::to_string(options.seed));
  report.Context("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Context("simd", skimjoin::hashing::SimdLevelName(
                             skimjoin::hashing::DetectSimdLevel()));
#if defined(NDEBUG)
  report.Context("ndebug", "1");
#else
  report.Context("ndebug", "0");
#endif
  report.Context("compiler", __VERSION__);
  report.Context("trace", options.trace ? "1" : "0");
  report.Context("smoke", options.smoke ? "1" : "0");

  std::error_code error;
  std::filesystem::create_directories(options.scratch, error);
  if (error) {
    std::cerr << "skimbench: cannot create " << options.scratch << ": "
              << error.message() << "\n";
    return 2;
  }

  Tracer tracer;
  Tracer* spans = options.trace ? &tracer : nullptr;
  if (options.workload == "join_ingest") {
    RunJoinIngest(options, &report, spans);
  } else if (options.workload == "join_answer") {
    RunJoinAnswer(options, &report, spans);
  } else if (options.workload == "concurrent_point") {
    RunConcurrentPoint(options, &report, spans);
  } else if (options.workload == "fleet_refresh") {
    RunFleetRefresh(options, &report, spans);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  const uint64_t attempted = std::max<uint64_t>(1, report.attempted());
  report.Metric("failed_op_ratio",
                static_cast<double>(report.failed()) /
                    static_cast<double>(attempted),
                "ratio",
                std::to_string(report.failed()) + " of " +
                    std::to_string(report.attempted()) +
                    " operations and checks");
  if (options.trace) {
    const std::string path = options.scratch + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    report.Op(tracer.WriteJson(path, options.workload), "span dump");
    report.Context("spans", std::to_string(tracer.spans().size()) + " -> " +
                                path);
  }

  for (const auto& [key, value] : report.context()) {
    std::cout << "context " << key << " = " << value << "\n";
  }
  for (const Report::Row& row : report.rows()) {
    std::cout << "metric " << row.name << " " << Number(row.value) << " "
              << row.unit;
    if (!row.note.empty()) std::cout << "  # " << row.note;
    std::cout << "\n";
  }
  for (const std::string& failure : report.failures()) {
    std::cout << "FAILED " << failure << "\n";
  }
  const bool correct = report.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted()
            << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  bool first = true;
  for (const Report::Row& row : report.rows()) {
    std::cout << (first ? "" : ", ") << "\"" << Escape(row.name)
              << "\": {\"value\": " << Number(row.value) << ", \"unit\": \""
              << Escape(row.unit) << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return perfbench::Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return perfbench::Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0)) {
        return perfbench::Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return perfbench::Usage("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else {
      return perfbench::Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return perfbench::Usage("--workload is required");
  return perfbench::Run(options);
}
