// Figure 5 reproduction: read (a) and write (b) latency of each single
// cloud provider as a function of request size {4K,16K,64K,256K,1M,4M},
// mean of 3 repetitions with deviation — exactly the paper's methodology
// ("we run each experiment for three times and use the average latency
// results with the deviation values").
//
// Paper claims to check: Aliyun lowest at every size; latency grows
// disproportionally from 1 MB to 4 MB (the knee that sets HyRD's
// large-file threshold at 1 MB).
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"

using namespace hyrd;

int main(int argc, char** argv) {
  bench::JsonSink json(argc, argv);
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 705);  // exp start: Jul 5, 2014
  gcs::MultiCloudSession session(registry);
  session.ensure_container_everywhere("fig5");

  const std::vector<std::pair<const char*, std::uint64_t>> sizes = {
      {"4KB", 4ull << 10},   {"16KB", 16ull << 10}, {"64KB", 64ull << 10},
      {"256KB", 256ull << 10}, {"1MB", 1ull << 20}, {"4MB", 4ull << 20}};
  constexpr int kRepetitions = 3;

  if (!json.quiet()) {
    std::printf("=== Figure 5: single-cloud latency vs request size "
                "(mean of %d runs +- dev, seconds) ===\n\n", kRepetitions);
  }

  struct Cell {
    common::RunningStat read_ms;
    common::RunningStat write_ms;
  };
  std::vector<std::vector<Cell>> grid(
      session.client_count(), std::vector<Cell>(sizes.size()));

  for (std::size_t p = 0; p < session.client_count(); ++p) {
    auto& client = session.client(p);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      for (int rep = 0; rep < kRepetitions; ++rep) {
        const auto payload = common::patterned(sizes[s].second,
                                               s * 100 + static_cast<std::size_t>(rep));
        const cloud::ObjectKey key{"fig5", std::string("o")
                                               .append(std::to_string(s))
                                               .append("-")
                                               .append(std::to_string(rep))};
        auto put = client.put(key, payload);
        auto get = client.get(key);
        if (put.ok()) grid[p][s].write_ms.add(common::to_ms(put.latency));
        if (get.ok()) grid[p][s].read_ms.add(common::to_ms(get.latency));
        client.remove(key);
      }
    }
  }

  auto print_table = [&](const char* title, bool read) {
    std::printf("%s\n", title);
    std::vector<std::string> headers = {"Provider"};
    for (const auto& [label, size] : sizes) headers.push_back(label);
    common::Table t(headers);
    for (std::size_t p = 0; p < session.client_count(); ++p) {
      std::vector<std::string> row = {session.client(p).provider_name()};
      for (std::size_t s = 0; s < sizes.size(); ++s) {
        const auto& stat = read ? grid[p][s].read_ms : grid[p][s].write_ms;
        row.push_back(common::Table::num(stat.mean() / 1000.0, 2) + " +- " +
                      common::Table::num(stat.stddev() / 1000.0, 2));
      }
      t.add_row(row);
    }
    t.print();
  };

  if (!json.quiet()) {
    print_table("(a) Read latency (s)", true);
    std::printf("\n");
    print_table("(b) Write latency (s)", false);
  }
  for (std::size_t p = 0; p < session.client_count(); ++p) {
    const std::string provider = session.client(p).provider_name();
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      json.add("read_ms/" + provider + "/" + sizes[s].first,
               grid[p][s].read_ms.mean());
      json.add("write_ms/" + provider + "/" + sizes[s].first,
               grid[p][s].write_ms.mean());
    }
  }

  // Paper-shape checks.
  const std::size_t aliyun = session.index_of("Aliyun");
  bool aliyun_fastest = true;
  for (std::size_t p = 0; p < session.client_count(); ++p) {
    if (p == aliyun) continue;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      if (grid[p][s].read_ms.mean() < grid[aliyun][s].read_ms.mean()) {
        aliyun_fastest = false;
      }
    }
  }
  if (!json.quiet()) {
    std::printf("\nPaper-shape checks:\n");
    std::printf("  Aliyun lowest read latency at every size: %s\n",
                aliyun_fastest ? "yes" : "NO (regression)");
  }

  // Disproportional growth 1MB -> 4MB: latency ratio must exceed the 4x
  // size ratio once the congestion knee kicks in past 1 MB.
  double worst_ratio = 0.0;
  for (std::size_t p = 0; p < session.client_count(); ++p) {
    const double r4m = grid[p][5].read_ms.mean();
    const double r1m = grid[p][4].read_ms.mean();
    worst_ratio = std::max(worst_ratio, r4m / r1m);
  }
  if (!json.quiet()) {
    std::printf(
        "  1MB->4MB latency grows disproportionally (max ratio %.1fx > 4x "
        "size ratio): %s\n",
        worst_ratio, worst_ratio > 4.0 ? "yes" : "NO (regression)");
    std::printf("  => HyRD sets the large-file threshold at 1MB\n");
  }
  json.add("check/aliyun_fastest_every_size", aliyun_fastest ? 1.0 : 0.0);
  json.add("check/knee_ratio_1mb_to_4mb", worst_ratio);
  json.flush("bench_fig5_latency");
  return 0;
}
