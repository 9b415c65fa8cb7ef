// hyrd_shell: an interactive (or piped) command shell over a HyRD client —
// poke at the Cloud-of-Clouds by hand: store files, kill providers, watch
// degraded reads and recovery, inspect bills.
//
//   $ ./build/examples/hyrd_shell
//   hyrd> put /docs/a 4096
//   hyrd> outage WindowsAzure
//   hyrd> get /docs/a
//   hyrd> restore WindowsAzure
//   hyrd> bill
//   hyrd> help
#include <cstdio>
#include <iostream>
#include <sstream>

#include "cloud/outage.h"
#include "cloud/profiles.h"
#include "common/table.h"
#include "common/units.h"
#include "core/hyrd_client.h"

using namespace hyrd;

namespace {

void print_help() {
  std::printf(
      "commands:\n"
      "  put <path> <bytes>       store a file of the given size\n"
      "  write <path> <text...>   store a file with literal contents\n"
      "  get <path>               read a file (shows latency + integrity)\n"
      "  cat <path>               read a file and print its contents\n"
      "  update <path> <off> <n>  overwrite n bytes at offset\n"
      "  rm <path>                delete a file\n"
      "  ls                       list logical files\n"
      "  stat <path>              show a file's metadata\n"
      "  providers                provider status + evaluation\n"
      "  outage <provider>        take a provider offline\n"
      "  restore <provider>       bring it back (runs consistency update)\n"
      "  bill                     close the billing month and print bills\n"
      "  stats                    client-side latency statistics\n"
      "  help | quit\n");
}

}  // namespace

int main() {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, /*seed=*/7);
  gcs::MultiCloudSession session(registry);
  core::HyRDClient hyrd(session);
  cloud::OutageController outages(registry);
  common::Xoshiro256 rng(7);

  std::printf("HyRD shell — four simulated clouds ready. Type 'help'.\n");

  std::string line;
  while (true) {
    std::printf("hyrd> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      print_help();
    } else if (cmd == "put") {
      std::string path;
      std::uint64_t size = 0;
      if (!(in >> path >> size)) {
        std::printf("usage: put <path> <bytes>\n");
        continue;
      }
      auto w = hyrd.put(path, common::patterned(size, rng()));
      std::printf("%s (%.0f ms, %s, %zu fragment(s))\n",
                  w.status.to_string().c_str(), common::to_ms(w.latency),
                  std::string(meta::redundancy_name(w.meta.redundancy)).c_str(),
                  w.meta.locations.size());
    } else if (cmd == "write") {
      std::string path, text;
      in >> path;
      std::getline(in, text);
      if (!text.empty() && text.front() == ' ') text.erase(0, 1);
      auto w = hyrd.put(path, common::bytes_of(text));
      std::printf("%s (%.0f ms)\n", w.status.to_string().c_str(),
                  common::to_ms(w.latency));
    } else if (cmd == "get" || cmd == "cat") {
      std::string path;
      in >> path;
      auto r = hyrd.get(path);
      if (!r.status.is_ok()) {
        std::printf("%s\n", r.status.to_string().c_str());
        continue;
      }
      std::printf("%s, %.0f ms%s\n",
                  common::format_bytes(r.data.size()).c_str(),
                  common::to_ms(r.latency),
                  r.degraded ? " [degraded: reconstructed]" : "");
      if (cmd == "cat") std::printf("%s\n", common::to_string(r.data).c_str());
    } else if (cmd == "update") {
      std::string path;
      std::uint64_t offset = 0, n = 0;
      if (!(in >> path >> offset >> n)) {
        std::printf("usage: update <path> <offset> <bytes>\n");
        continue;
      }
      auto u = hyrd.update(path, offset, common::patterned(n, rng()));
      std::printf("%s (%.0f ms)\n", u.status.to_string().c_str(),
                  common::to_ms(u.latency));
    } else if (cmd == "rm") {
      std::string path;
      in >> path;
      auto r = hyrd.remove(path);
      std::printf("%s (%.0f ms)\n", r.status.to_string().c_str(),
                  common::to_ms(r.latency));
    } else if (cmd == "ls") {
      for (const auto& path : hyrd.list()) {
        const auto m = hyrd.stat(path);
        std::printf("  %-40s %10s  %s\n", path.c_str(),
                    common::format_bytes(m->size).c_str(),
                    std::string(meta::redundancy_name(m->redundancy)).c_str());
      }
    } else if (cmd == "stat") {
      std::string path;
      in >> path;
      const auto m = hyrd.stat(path);
      if (!m.has_value()) {
        std::printf("not found\n");
        continue;
      }
      std::printf("  size %s, version %llu, %s, crc %08x\n",
                  common::format_bytes(m->size).c_str(),
                  static_cast<unsigned long long>(m->version),
                  std::string(meta::redundancy_name(m->redundancy)).c_str(),
                  m->crc);
      for (const auto& loc : m->locations) {
        std::printf("    %-13s %s\n", loc.provider.c_str(),
                    loc.object_name.c_str());
      }
    } else if (cmd == "providers") {
      common::Table t({"Provider", "State", "Read ms", "Category",
                       "Stored"});
      for (const auto& e : hyrd.evaluation().providers) {
        auto* p = registry.find(e.provider);
        t.add_row({e.provider, p->online() ? "online" : "OFFLINE",
                   common::Table::num(e.mean_read_ms, 0), e.category.str(),
                   common::format_bytes(p->stored_bytes())});
      }
      t.print();
    } else if (cmd == "outage") {
      std::string name;
      in >> name;
      std::printf(outages.take_down(name) ? "%s is now offline\n"
                                          : "unknown provider %s\n",
                  name.c_str());
    } else if (cmd == "restore") {
      std::string name;
      in >> name;
      if (!outages.restore(name)) {
        std::printf("unknown provider %s\n", name.c_str());
        continue;
      }
      const auto resync = hyrd.on_provider_restored(name);
      std::printf("%s back online; consistency update %s, took %.0f ms\n",
                  name.c_str(), resync.status.to_string().c_str(),
                  common::to_ms(resync.latency));
    } else if (cmd == "bill") {
      common::Table t({"Provider", "Stored", "In", "Out", "Total $"});
      for (const auto& p : registry.all()) {
        const auto b = p->close_month();
        t.add_row({p->name(), common::format_bytes(b.stored_bytes),
                   common::format_bytes(b.bytes_in),
                   common::format_bytes(b.bytes_out),
                   common::Table::num(b.total(), 4)});
      }
      t.print();
    } else if (cmd == "stats") {
      const auto s = hyrd.stats_snapshot();
      std::printf("  puts %zu (mean %.0f ms)  gets %zu (mean %.0f ms)  "
                  "updates %zu  removes %zu  degraded reads %llu\n",
                  s.put_ms.count(), s.put_ms.mean(), s.get_ms.count(),
                  s.get_ms.mean(), s.update_ms.count(), s.remove_ms.count(),
                  static_cast<unsigned long long>(s.degraded_reads));
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
  }
  std::printf("\nbye.\n");
  return 0;
}
