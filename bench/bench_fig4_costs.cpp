// Figure 4 reproduction: estimated monthly (a) and cumulative (b) costs of
// hosting the Internet Archive year on each single cloud and on the three
// Cloud-of-Clouds schemes (DuraCloud = 2x replication, RACS = RAID5 over
// four clouds, HyRD = hybrid).
//
// Paper claims to check: DuraCloud most expensive, Aliyun cheapest single
// cloud, HyRD ~33.4% below DuraCloud and ~20.4% below RACS cumulatively.
//
// The replay runs at a configurable scale (bills are linear in volume, so
// reported full-scale dollars and all ratios are scale-exact).
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "workload/cost_sim.h"

using namespace hyrd;

int main(int argc, char** argv) {
  // Optional arg: replay scale divisor (default 20000 => ~100 MB of
  // simulated ingest per month; pass a smaller divisor for a larger,
  // slower, statistically smoother replay).
  const double divisor = argc > 1 ? std::atof(argv[1]) : 20000.0;

  workload::IaTraceParams trace_params;
  const auto trace = workload::synthesize_ia_trace(trace_params);
  workload::CostSimConfig sim_config;
  sim_config.scale = 1.0 / divisor;
  workload::CostSimulator sim(sim_config);

  std::printf(
      "=== Figure 4: cloud hosting costs, IA trace (12 months, replay scale "
      "1/%.0f, seed %llu) ===\n\n",
      divisor, static_cast<unsigned long long>(sim_config.seed));

  std::vector<workload::CostSimReport> reports;
  for (const auto& [name, factory] : bench::all_schemes()) {
    auto scheme = bench::make_scheme(name, factory, 2014);
    reports.push_back(sim.replay(trace, *scheme.client, *scheme.registry));
    std::printf("  replayed %-12s  (%llu files, cumulative $%.0f)\n",
                name.c_str(),
                static_cast<unsigned long long>(reports.back().files_created),
                reports.back().total_cost());
  }

  std::printf("\n(a) Monthly cost (full-scale USD)\n");
  {
    std::vector<std::string> headers = {"Month"};
    for (const auto& r : reports) headers.push_back(r.client);
    common::Table t(headers);
    for (int m = 0; m < 12; ++m) {
      std::vector<std::string> row = {
          std::string("m").append(std::to_string(m))};
      for (const auto& r : reports) {
        row.push_back(common::Table::num(r.monthly_cost[m], 0));
      }
      t.add_row(row);
    }
    t.print();
  }

  std::printf("\n(b) Cumulative cost (full-scale USD)\n");
  {
    std::vector<std::string> headers = {"Month"};
    for (const auto& r : reports) headers.push_back(r.client);
    common::Table t(headers);
    for (int m = 0; m < 12; ++m) {
      std::vector<std::string> row = {
          std::string("m").append(std::to_string(m))};
      for (const auto& r : reports) {
        row.push_back(common::Table::num(r.cumulative_cost[m], 0));
      }
      t.add_row(row);
    }
    t.print();
  }

  auto total = [&](const std::string& name) {
    for (const auto& r : reports) {
      if (r.client == name || r.client == "Single(" + name + ")") {
        return r.total_cost();
      }
    }
    return 0.0;
  };
  const double hyrd = total("HyRD");
  const double racs = total("RACS");
  const double dura = total("DuraCloud");

  std::printf("\nPaper-shape checks:\n");
  std::printf("  HyRD vs DuraCloud: %.1f%% cheaper (paper: 33.4%%)\n",
              100.0 * (1.0 - hyrd / dura));
  std::printf("  HyRD vs RACS:      %.1f%% cheaper (paper: 20.4%%)\n",
              100.0 * (1.0 - hyrd / racs));
  std::printf("  DuraCloud is the most expensive scheme: %s\n",
              (dura >= racs && dura >= hyrd) ? "yes" : "NO (regression)");
  const double aliyun = total("Aliyun");
  bool aliyun_cheapest = true;
  for (const char* n : {"AmazonS3", "WindowsAzure", "Rackspace"}) {
    if (total(n) < aliyun) aliyun_cheapest = false;
  }
  std::printf("  Aliyun is the cheapest single cloud: %s\n",
              aliyun_cheapest ? "yes" : "NO (regression)");
  return 0;
}
