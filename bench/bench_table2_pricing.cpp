// Table II reproduction: monthly price plans for Amazon S3, Windows Azure,
// Aliyun OSS and Rackspace Cloud Files (China region, Sep 10 2014), plus
// the category row — here derived two ways: as declared in the paper and
// as measured by HyRD's Cost & Performance Evaluator.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "common/units.h"
#include "core/evaluator.h"

using namespace hyrd;

int main() {
  std::printf("=== Table II: monthly price plans (USD, China region) ===\n\n");

  const auto configs = cloud::standard_four();
  common::Table table({"Operations & Vendors", "Amazon S3", "Windows Azure",
                       "Aliyun", "RackSpace"});
  auto row = [&](const std::string& label, auto getter, int precision) {
    std::vector<std::string> cells = {label};
    for (const auto& c : configs) {
      const double v = getter(c.prices);
      cells.push_back(v == 0.0 ? "Free"
                               : std::string("$").append(
                                     common::Table::num(v, precision)));
    }
    table.add_row(cells);
  };
  row("Storage (per GB/month)",
      [](const cloud::PriceSchedule& p) { return p.storage_gb_month; }, 3);
  row("Data In (per GB)",
      [](const cloud::PriceSchedule& p) { return p.data_in_gb; }, 3);
  row("Data Out to Internet (per GB)",
      [](const cloud::PriceSchedule& p) { return p.data_out_gb; }, 3);
  row("Put, Copy, Post, List (per 10K txns)",
      [](const cloud::PriceSchedule& p) { return p.put_class_per_10k; }, 4);
  row("Get and others (per 10K txns)",
      [](const cloud::PriceSchedule& p) { return p.get_class_per_10k; }, 4);
  {
    std::vector<std::string> cells = {"Category (paper)"};
    for (const auto& c : configs) cells.push_back(c.declared_category.str());
    table.add_row(cells);
  }

  // Derived categories: run the evaluator against a live fleet.
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 2014);
  gcs::MultiCloudSession session(registry);
  core::CostPerfEvaluator evaluator(core::HyRDConfig{});
  const auto report = evaluator.evaluate(session);
  {
    std::vector<std::string> cells = {"Category (measured)"};
    for (const auto& c : configs) {
      for (const auto& e : report.providers) {
        if (e.provider == c.name) cells.push_back(e.category.str());
      }
    }
    table.add_row(cells);
  }
  table.print();

  std::printf("\nEvaluator probe measurements (mean over %zu probes of %s):\n",
              core::HyRDConfig{}.evaluator_probes,
              common::format_bytes(core::HyRDConfig{}.evaluator_probe_size)
                  .c_str());
  common::Table probes({"Provider", "read ms", "write ms", "cost score $/GB"});
  for (const auto& e : report.providers) {
    probes.add_row({e.provider, common::Table::num(e.mean_read_ms, 1),
                    common::Table::num(e.mean_write_ms, 1),
                    common::Table::num(e.cost_score, 3)});
  }
  probes.print();
  std::printf(
      "\nPaper check: Aliyun categorized as BOTH cost- and performance-"
      "oriented -> %s\n",
      [&] {
        for (const auto& e : report.providers) {
          if (e.provider == "Aliyun") {
            return e.category.cost_oriented && e.category.performance_oriented;
          }
        }
        return false;
      }()
          ? "yes"
          : "NO (regression)");
  return 0;
}
