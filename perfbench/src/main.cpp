/// \file main.cpp
/// \brief perfbench: the layered benchmark's binary (see ../README.md).
///
/// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
///                  [--size tiny] [--inject short-run] [--work-dir <dir>]
///
/// Prints provenance, every metric by name with its unit, the correctness
/// gate, and as its last line one JSON object with the keys correct,
/// attempted, failed and metrics (the end-to-end metrics with --trace 0,
/// the per-layer metrics with --trace 1).
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

Options parse(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opts.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(value);
      if (!(opts.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      opts.trace = value == "1";
    } else if (key == "--size") {
      if (value != "tiny" && value != "full") {
        throw std::invalid_argument("--size takes tiny or full");
      }
      opts.tiny = value == "tiny";
    } else if (key == "--inject") {
      if (value != "short-run") {
        throw std::invalid_argument("--inject takes short-run");
      }
      opts.inject_short_run = true;
    } else if (key == "--work-dir") {
      opts.work_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return opts;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    opts = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    const perfbench::Outcome out = perfbench::run_workload(opts);
    std::cout << "perfbench workload=" << opts.workload
              << " seed=" << opts.seed << " seconds=" << number(opts.seconds)
              << " trace=" << (opts.trace ? 1 : 0)
              << (opts.tiny ? " size=tiny" : "") << "\n";
    std::cout << "provenance {\"nproc\": "
              << std::thread::hardware_concurrency()
              << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
              << ", \"flags\": " << quoted(PERFBENCH_FLAGS)
              << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE) << "}\n";
    std::cout << "end-to-end:\n";
    print_metrics(out.end_to_end);
    if (opts.trace) {
      std::cout << "per-layer (traced run):\n";
      print_metrics(out.per_layer);
    }
    std::cout << "detail:\n";
    print_metrics(out.detail);

    const std::vector<Metric>& reported =
        opts.trace ? out.per_layer : out.end_to_end;
    bool finite = true;
    for (const Metric& m : reported) finite = finite && std::isfinite(m.value);
    const std::size_t attempted = out.gate.attempted();
    const std::size_t failed = out.gate.failed();
    std::cout << "gate: attempted " << attempted << ", failed " << failed
              << ", failed_frac "
              << number(attempted == 0 ? 0.0
                                       : static_cast<double>(failed) /
                                             static_cast<double>(attempted))
              << " fraction\n";
    for (const std::string& reason : out.gate.reasons()) {
      std::cout << "  failure: " << reason << "\n";
    }
    if (!finite) std::cout << "  failure: a reported metric is not finite\n";

    std::string json = "{\"correct\": ";
    json += (failed == 0 && finite && attempted > 0) ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < reported.size(); ++i) {
      const Metric& m = reported[i];
      json += (i == 0 ? "" : ", ") + quoted(m.name) + ": {\"value\": " +
              (std::isfinite(m.value) ? number(m.value) : "0") +
              ", \"unit\": " + quoted(m.unit) + "}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
