#include "metadata/metadata_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <utility>

#include "metadata/serializer.h"

namespace hyrd::meta {

using common::stable_key_hash;

namespace {
constexpr std::uint32_t kBlockMagic = 0x48795244;  // "HyRD"

/// split_path without the two string allocations — the views alias `path`,
/// which every caller keeps alive across the table operation. Semantics
/// match split_path exactly: no slash → {"/", path}, empty dir → "/".
inline std::pair<std::string_view, std::string_view> split_path_view(
    std::string_view path) {
  const std::size_t pos = path.rfind('/');
  if (pos == std::string_view::npos) return {std::string_view("/"), path};
  std::string_view dir = path.substr(0, pos);
  if (dir.empty()) dir = std::string_view("/");
  return {dir, path.substr(pos + 1)};
}

/// Steady-clock nanoseconds, read only when the metrics plane is compiled
/// in — the sharded hot path pays nothing for timing in the OFF build.
inline std::uint64_t metric_now_ns() {
  if constexpr (!obs::kMetricsEnabled) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII latency sample into a registry histogram (no-op when disabled).
/// Samples 1 in 64 operations: a table op is tens of nanoseconds, so two
/// unconditional clock reads would cost more than the op being measured.
class ScopedLatency {
 public:
  static constexpr std::uint32_t kSampleMask = 63;

  explicit ScopedLatency(const obs::Histogram& h) : h_(h) {
    if constexpr (obs::kMetricsEnabled) {
      thread_local std::uint32_t tick = 0;
      armed_ = (++tick & kSampleMask) == 0;
      if (armed_) start_ = metric_now_ns();
    }
  }
  ~ScopedLatency() {
    if constexpr (obs::kMetricsEnabled) {
      if (armed_) h_.record(static_cast<double>(metric_now_ns() - start_));
    }
  }

 private:
  const obs::Histogram& h_;
  std::uint64_t start_ = 0;
  bool armed_ = false;
};
}  // namespace

MetadataStore::MetadataStore(std::size_t shard_count)
    : keyspace_(shard_count == 0 ? 1 : shard_count) {
  auto& registry = obs::MetricsRegistry::global();
  // 16 ns .. ~1 s in half-decade-ish steps: plenty for an in-memory table.
  lookup_ns_ = registry.histogram("meta.lookup.ns", 16.0, 2.0, 28);
  upsert_ns_ = registry.histogram("meta.upsert.ns", 16.0, 2.0, 28);
  shards_.reserve(keyspace_.shard_count());
  for (std::size_t i = 0; i < keyspace_.shard_count(); ++i) {
    auto shard = std::make_unique<Shard>();
    char name[48];
    std::snprintf(name, sizeof name, "meta.shard.%02zu.files", i);
    shard->files_gauge = registry.gauge(name);
    std::snprintf(name, sizeof name, "meta.shard.%02zu.contended", i);
    shard->contended = registry.counter(name);
    shards_.push_back(std::move(shard));
  }
}

std::unique_lock<std::mutex> MetadataStore::lock_shard(const Shard& s) const {
  std::unique_lock lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    s.contended.inc();
    lock.lock();
  }
  return lock;
}

void MetadataStore::upsert(FileMeta m) {
  const ScopedLatency timer(upsert_ns_);
  const auto [dir, name] = split_path_view(m.path);
  const std::uint64_t dh = stable_key_hash(dir);
  Shard& shard = *shards_[keyspace_.shard_of_hash(dh)];
  const auto lock = lock_shard(shard);
  DirTable& files = shard.dirs.try_emplace_h(dh, dir);
  // `name` aliases m.path; insert_or_assign materializes its key before
  // the move, so the view never dangles.
  if (files.insert_or_assign(name, std::move(m))) {
    ++shard.files;
    shard.files_gauge.inc();
  }
}

std::uint64_t MetadataStore::upsert_versioned(FileMeta& m) {
  const ScopedLatency timer(upsert_ns_);
  const auto [dir, name] = split_path_view(m.path);
  const std::uint64_t dh = stable_key_hash(dir);
  const std::uint64_t nh = stable_key_hash(name);
  Shard& shard = *shards_[keyspace_.shard_of_hash(dh)];
  const auto lock = lock_shard(shard);
  DirTable& files = shard.dirs.try_emplace_h(dh, dir);
  FileMeta* existing = files.find_h(nh, name);
  if (existing != nullptr) {
    m.version = existing->version + 1;
    *existing = m;
  } else {
    m.version = 1;
    files.insert_or_assign_h(nh, name, FileMeta(m));
    ++shard.files;
    shard.files_gauge.inc();
  }
  return m.version;
}

bool MetadataStore::upsert_if_newer(FileMeta m) {
  const ScopedLatency timer(upsert_ns_);
  const auto [dir, name] = split_path_view(m.path);
  const std::uint64_t dh = stable_key_hash(dir);
  const std::uint64_t nh = stable_key_hash(name);
  Shard& shard = *shards_[keyspace_.shard_of_hash(dh)];
  const auto lock = lock_shard(shard);
  DirTable& files = shard.dirs.try_emplace_h(dh, dir);
  const FileMeta* existing = files.find_h(nh, name);
  if (existing != nullptr && existing->version > m.version) return false;
  if (files.insert_or_assign_h(nh, name, std::move(m))) {
    ++shard.files;
    shard.files_gauge.inc();
  }
  return true;
}

std::optional<FileMeta> MetadataStore::lookup(const std::string& path) const {
  const ScopedLatency timer(lookup_ns_);
  const auto [dir, name] = split_path_view(path);
  const std::uint64_t dh = stable_key_hash(dir);
  const Shard& shard = *shards_[keyspace_.shard_of_hash(dh)];
  const auto lock = lock_shard(shard);
  const DirTable* files = shard.dirs.find_h(dh, dir);
  if (files == nullptr) return std::nullopt;
  const FileMeta* m = files->find(name);
  if (m == nullptr) return std::nullopt;
  return *m;
}

bool MetadataStore::erase(const std::string& path) {
  const auto [dir, name] = split_path_view(path);
  const std::uint64_t dh = stable_key_hash(dir);
  Shard& shard = *shards_[keyspace_.shard_of_hash(dh)];
  const auto lock = lock_shard(shard);
  DirTable* files = shard.dirs.find_h(dh, dir);
  if (files == nullptr) return false;
  if (!files->erase(name)) return false;
  --shard.files;
  shard.files_gauge.dec();
  if (files->empty()) shard.dirs.erase_h(dh, dir);
  return true;
}

std::size_t MetadataStore::file_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    const auto lock = lock_shard(*shard);
    n += shard->files;
  }
  return n;
}

std::vector<std::string> MetadataStore::directories() const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    const auto lock = lock_shard(*shard);
    shard->dirs.for_each(
        [&](const std::string& dir, const DirTable&) { out.push_back(dir); });
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<FileMeta> MetadataStore::files_in(const std::string& dir) const {
  std::vector<FileMeta> out;
  const std::uint64_t dh = stable_key_hash(dir);
  const Shard& shard = *shards_[keyspace_.shard_of_hash(dh)];
  const auto lock = lock_shard(shard);
  const DirTable* files = shard.dirs.find_h(dh, dir);
  if (files == nullptr) return out;
  out.reserve(files->size());
  files->for_each(
      [&](const std::string&, const FileMeta& m) { out.push_back(m); });
  std::sort(out.begin(), out.end(), [](const FileMeta& a, const FileMeta& b) {
    return a.filename() < b.filename();
  });
  return out;
}

std::vector<std::string> MetadataStore::all_paths() const {
  // (dir, name, path) triples, sorted the way the legacy nested map
  // iterated: by directory, then filename.
  std::vector<std::pair<std::pair<std::string, std::string>, std::string>> rows;
  for (const auto& shard : shards_) {
    const auto lock = lock_shard(*shard);
    shard->dirs.for_each([&](const std::string& dir, const DirTable& files) {
      files.for_each([&](const std::string& name, const FileMeta& m) {
        rows.push_back({{dir, name}, m.path});
      });
    });
  }
  std::sort(rows.begin(), rows.end());
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (auto& r : rows) out.push_back(std::move(r.second));
  return out;
}

common::Bytes MetadataStore::serialize_directory(const std::string& dir) const {
  const std::uint64_t dh = stable_key_hash(dir);
  const Shard& shard = *shards_[keyspace_.shard_of_hash(dh)];
  const auto lock = lock_shard(shard);
  Writer w;
  w.u32(kBlockMagic);
  const DirTable* files = shard.dirs.find_h(dh, dir);
  w.str(dir);
  w.u32(files == nullptr ? 0 : static_cast<std::uint32_t>(files->size()));
  if (files != nullptr) {
    // Filename order, exactly as the legacy std::map iterated — the block
    // format is pinned byte-compatible across shard counts.
    std::vector<std::pair<const std::string*, const FileMeta*>> rows;
    rows.reserve(files->size());
    files->for_each([&](const std::string& name, const FileMeta& m) {
      rows.push_back({&name, &m});
    });
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return *a.first < *b.first; });
    for (const auto& [name, m] : rows) m->serialize(w);
  }
  return w.take();
}

common::Status MetadataStore::load_directory_block(common::ByteSpan block) {
  Reader r(block);
  auto magic = r.u32();
  if (!magic.is_ok()) return magic.status();
  if (magic.value() != kBlockMagic) {
    return common::invalid_argument("bad metadata block magic");
  }
  auto dir = r.str();
  if (!dir.is_ok()) return dir.status();
  auto count = r.u32();
  if (!count.is_ok()) return count.status();

  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto m = FileMeta::deserialize(r);
    if (!m.is_ok()) return m.status();
    // Routed per record via the keyspace; the version comparison and the
    // upsert are one atomic step under the owning shard's lock.
    upsert_if_newer(std::move(m).value());
  }
  return common::Status::ok();
}

void MetadataStore::clear() {
  for (const auto& shard : shards_) {
    const auto lock = lock_shard(*shard);
    shard->dirs.clear();
    shard->files_gauge.add(-static_cast<std::int64_t>(shard->files));
    shard->files = 0;
  }
}

std::mutex& MetadataStore::write_order_mu(const std::string& path) {
  const auto [dir, name] = split_path_view(path);
  Shard& shard = *shards_[keyspace_.shard_of_dir(dir)];
  const std::size_t stripe =
      stable_key_hash(path) % kWriteStripesPerShard;
  return shard.write_order[stripe];
}

std::vector<MetadataStore::ShardOccupancy> MetadataStore::shard_occupancy()
    const {
  std::vector<ShardOccupancy> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const auto lock = lock_shard(*shard);
    out.push_back({shard->dirs.size(), shard->files});
  }
  return out;
}

}  // namespace hyrd::meta
