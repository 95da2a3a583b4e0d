/// \file fleet_tool.cpp
/// \brief Population mode: run a fleet of simulated devices across worker
///        processes and print the merged distributional report.
///
/// The driver half launches this same binary as its workers (`mode=worker`
/// is appended to argv[0] together with the population's canonical
/// arguments), so one executable is both orchestrator and shard runner —
/// there is no separate worker binary to install or locate.
///
/// Usage:
///   fleet_tool governors=ondemand,rtm workloads=h264 fps=25 \
///              devices-per-cell=8 frames=200 [seed=42] [stream=1]
///              [shards=4] [workers=4] [retries=2] [out=fleet-out]
///              [checkpoint-every=0]   worker checkpoint cadence in devices
///              [report=report.csv]    write the population report CSV here
///              [max-rss-mb=0]         fail if peak RSS (self+children)
///                                     exceeds this bound (0 = no check)
///              [dashboard-port-base=0] shard i serves live snapshots on
///                                     loopback port base+i (dash_tool reads
///                                     them; 0 = off)
///
/// Internal worker invocation (what the driver execs; not for direct use).
/// One worker process runs a batch of shards in order, stopping at the first
/// that fails; shard I serves its dashboard on port P+I while it runs:
///   fleet_tool mode=worker <population args> shard=I,J,... shards=N
///              out=DIR checkpoint-every=K attempt=A,B,... [fail-after=D]
///              [dashboard-port-base=P] [dashboard-every=N]
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "fleet/driver.hpp"
#include "fleet/runner.hpp"

namespace {

/// Peak resident set in MB across this process and every reaped child —
/// population runs advertise a memory bound covering the whole worker tree.
long peak_rss_mb() {
  long kb = 0;
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) kb = usage.ru_maxrss;
  if (getrusage(RUSAGE_CHILDREN, &usage) == 0) {
    kb = std::max(kb, usage.ru_maxrss);
  }
  return kb / 1024;  // ru_maxrss is KB on Linux
}

int worker_main(const prime::common::Config& cfg) {
  using namespace prime;
  return fleet::run_worker(fleet::PopulationSpec::from_config(cfg),
                           fleet::WorkerBatch::from_config(cfg));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prime;

  common::Config cfg;
  cfg.parse_args(argc, argv);

  try {
    if (cfg.get_string("mode", "run") == "worker") return worker_main(cfg);

    const fleet::PopulationSpec pop = fleet::PopulationSpec::from_config(cfg);
    if (pop.governors.empty() || pop.workloads.empty()) {
      std::cerr << "Usage: fleet_tool governors=ondemand,rtm workloads=h264 "
                   "[fps=25] [devices-per-cell=8] [frames=200] [shards=4] "
                   "[workers=4] [retries=2] [out=fleet-out] "
                   "[checkpoint-every=0] [report=report.csv] [max-rss-mb=0] "
                   "[dashboard-port-base=0]\n";
      return 2;
    }

    fleet::FleetOptions options;
    options.shards = static_cast<std::size_t>(cfg.get_int("shards", 1));
    options.workers = static_cast<std::size_t>(
        cfg.get_int("workers", static_cast<long long>(options.shards)));
    options.retries = static_cast<std::size_t>(cfg.get_int("retries", 2));
    options.out_dir = cfg.get_string("out", "fleet-out");
    options.checkpoint_every =
        static_cast<std::size_t>(cfg.get_int("checkpoint-every", 0));
    options.fail_first_attempt_after =
        static_cast<std::size_t>(cfg.get_int("fail-after", 0));
    options.dashboard_port_base =
        static_cast<std::uint32_t>(cfg.get_int("dashboard-port-base", 0));
    if (options.workers > 0) {
      options.worker_argv = {argv[0], "mode=worker"};
      for (const auto& arg : pop.to_args()) {
        options.worker_argv.push_back(arg);
      }
    }

    fleet::FleetDriver driver(options);
    const fleet::PopulationReport report = driver.run(pop);
    report.print(std::cout);
    std::cout << "devices:  " << report.devices << " across "
              << options.shards << " shard(s), " << driver.launches()
              << " worker launch(es), " << driver.retries_used()
              << " retr" << (driver.retries_used() == 1 ? "y" : "ies")
              << "\n";

    const std::string report_path = cfg.get_string("report", "");
    if (!report_path.empty()) {
      std::ofstream out(report_path);
      if (!out) {
        std::cerr << "fleet_tool: cannot open '" << report_path
                  << "' for writing\n";
        return 1;
      }
      report.write_csv(out);
      out.close();
      if (!out) {
        std::cerr << "fleet_tool: writing '" << report_path << "' failed\n";
        return 1;
      }
      std::cout << "report:   " << report_path << "\n";
    }

    const long rss_mb = peak_rss_mb();
    std::cout << "peak rss: " << rss_mb << " MB (self+workers)\n";
    const long long rss_bound = cfg.get_int("max-rss-mb", 0);
    if (rss_bound > 0 && rss_mb > rss_bound) {
      std::cerr << "fleet_tool: peak RSS " << rss_mb << " MB exceeds bound "
                << rss_bound << " MB\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fleet_tool: " << e.what() << "\n";
    return 1;
  }
}
