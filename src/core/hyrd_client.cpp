#include "core/hyrd_client.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <optional>
#include <set>
#include <string_view>

#include "common/checksum.h"
#include "common/copy_meter.h"

namespace hyrd::core {

namespace {
/// Logical-path prefix of deduplicated content: "cas:" + SHA-256 hex.
constexpr std::string_view kCasPrefix = "cas:";
}  // namespace

HyRDClient::HyRDClient(gcs::MultiCloudSession& session, HyRDConfig config)
    : StorageClient(
          session, config.data_container,
          dist::ReplicationScheme(config.data_container),
          dist::ErasureScheme(config.data_container, config.geometry)),
      config_(config),
      monitor_(config.large_file_threshold) {
  // Wire the engine knobs through to the schemes. Defaults reproduce the
  // paper's cost model; aggressive settings enable first-k erasure reads
  // and hedged replica reads.
  replication_->set_hedge(config_.hedge);
  erasure_->set_read_strategy(config_.erasure_read_strategy);

  (void)session_.ensure_container_everywhere(config_.data_container);
  (void)session_.ensure_container_everywhere(config_.meta_container);

  CostPerfEvaluator evaluator(config_);
  eval_ = evaluator.evaluate(session_);

  const auto perf = eval_.performance_order();
  const std::size_t level =
      std::min(config_.replication_level, perf.size());
  replica_targets_.assign(perf.begin(),
                          perf.begin() + static_cast<std::ptrdiff_t>(level));

  // Erasure slots: large files go to the *cost-oriented* providers
  // (Fig. 2), cheapest-to-serve first, so data fragments sit where reads
  // are cheap and parity lands on the most expensive slot. If the
  // geometry needs more slots than there are cost-oriented providers,
  // fall back to the remaining providers in cost order.
  const auto cost = eval_.cost_order();
  std::vector<std::size_t> pool;
  for (std::size_t idx : cost) {
    for (const auto& e : eval_.providers) {
      if (e.client_index == idx && e.category.cost_oriented) {
        pool.push_back(idx);
      }
    }
  }
  for (std::size_t idx : cost) {
    if (std::find(pool.begin(), pool.end(), idx) == pool.end()) {
      pool.push_back(idx);
    }
  }
  const std::size_t slots = std::min(config_.geometry.total(), pool.size());
  shard_slots_.assign(pool.begin(),
                      pool.begin() + static_cast<std::ptrdiff_t>(slots));
  assert(shard_slots_.size() == config_.geometry.total() &&
         "need at least k+m providers for the configured geometry");
}

common::SimDuration HyRDClient::persist_metadata(const std::string& dir) {
  const common::Bytes block = store_.serialize_directory(dir);
  monitor_.record_write(DataClass::kMetadata, block.size());
  return replicate_block(dir, block, config_.meta_container,
                         replica_targets_);
}

void HyRDClient::drop_hot_copy(const std::string& path, bool remove_remote) {
  meta::FragmentLocation loc;
  {
    std::lock_guard lock(hot_mu_);
    auto it = hot_copies_.find(path);
    if (it == hot_copies_.end()) return;
    loc = it->second;
    hot_copies_.erase(it);
  }
  if (remove_remote) {
    const std::size_t idx = session_.index_of(loc.provider);
    if (idx != static_cast<std::size_t>(-1) &&
        session_.client(idx)
                .remove({config_.data_container, loc.object_name})
                .status.code() == common::StatusCode::kUnavailable) {
      // The copy is billed until the provider's replay deletes it.
      log_.append(loc.provider, config_.data_container, path,
                  loc.object_name, meta::LogAction::kRemove);
    }
  }
  monitor_.forget(path);
}

bool HyRDClient::has_hot_copy(const std::string& path) const {
  std::lock_guard lock(hot_mu_);
  return hot_copies_.contains(path);
}

dist::WriteResult HyRDClient::write_class(
    const std::string& path, common::Buffer data, DataClass cls,
    std::vector<std::string>& unreachable) {
  if (cls == DataClass::kSmallFile) {
    return replication_->write(session_, path, std::move(data),
                               replica_targets_, &unreachable);
  }
  return erasure_->write(session_, path, std::move(data), shard_slots_,
                         &unreachable);
}

dist::WriteResult HyRDClient::put_dedup(const std::string& path,
                                        const common::Buffer& data,
                                        DataClass cls,
                                        std::vector<std::string>& unreachable) {
  const auto digest = common::Sha256::digest(data);
  const auto prev = store_.lookup(path);
  dist::WriteResult result;

  const auto canonical = dedup_.find(digest);
  if (canonical.has_value() && canonical->size == data.size()) {
    // Duplicate content: alias the existing fragments; only metadata moves.
    // Re-putting the content `path` already holds must not release it.
    result.meta = *canonical;
    result.meta.path = path;
    if (prev.has_value() && prev->locations != canonical->locations) {
      result.latency += remove_object(*prev).latency;
    }
    dedup_.add_alias(digest, path, data.size());
    result.status = common::Status::ok();
    return result;
  }

  // Unique content: write fragments under content-addressed names so
  // future aliases can share them and overwrites never clobber shared
  // fragments. Missed fragments are logged under the content's name, so
  // the replay resolves them to the content, not to whatever `path`
  // holds by then.
  result = write_class(std::string(kCasPrefix).append(digest.hex()), data,
                       cls, unreachable);
  if (!result.status.is_ok()) return result;
  log_unreachable(unreachable, result.meta, meta::LogAction::kPut);
  unreachable.clear();
  result.meta.path = path;
  if (prev.has_value()) result.latency += remove_object(*prev).latency;
  dedup_.add_canonical(digest, result.meta);
  return result;
}

std::optional<meta::FileMeta> HyRDClient::logged_meta(
    const std::string& path) const {
  if (!path.starts_with(kCasPrefix)) return StorageClient::logged_meta(path);
  const auto hex = std::string_view(path).substr(kCasPrefix.size());
  common::Sha256Digest digest;
  if (hex.size() != 2 * digest.bytes.size()) return std::nullopt;
  for (std::size_t i = 0; i < digest.bytes.size(); ++i) {
    const char* first = hex.data() + 2 * i;
    if (std::from_chars(first, first + 2, digest.bytes[i], 16).ptr !=
        first + 2) {
      return std::nullopt;
    }
  }
  return dedup_.find(digest);
}

dist::WriteResult HyRDClient::write_object(
    const std::string& path, common::Buffer data,
    std::vector<std::string>& unreachable) {
  const DataClass cls = monitor_.classify_file(data.size());
  monitor_.record_write(cls, data.size());
  if (config_.dedup_enabled) return put_dedup(path, data, cls, unreachable);
  const auto prev = store_.lookup(path);

  auto result = write_class(path, std::move(data), cls, unreachable);
  if (!result.status.is_ok()) return result;

  // A file that crossed the size threshold changes redundancy kind; the
  // old fragments use a different name suffix and must be removed.
  if (prev.has_value() && prev->redundancy != result.meta.redundancy) {
    result.latency += remove_object(*prev).latency;
  }
  drop_hot_copy(path, /*remove_remote=*/true);
  return result;
}

dist::ReadResult HyRDClient::read_object(const meta::FileMeta& m) {
  if (m.redundancy == meta::RedundancyKind::kReplicated) {
    monitor_.record_read(DataClass::kSmallFile, m.size);
    return replication_->read(session_, m);
  }

  monitor_.record_read(DataClass::kLargeFile, m.size);
  dist::ReadResult result;

  // Hot-copy fast path (Fig. 2): frequently read large files may also
  // live fully on a performance-oriented provider. The dispatcher serves
  // from the hot copy only when that is expected to beat the stripe —
  // always the case when a data-slot provider is in outage (the stripe
  // would need reconstruction), sometimes the case for latency alone.
  // Snapshot the hot-copy record under the lock, then drop it: the latency
  // scan and (especially) the remote get must not serialize other clients'
  // hot-copy bookkeeping behind this read's cloud I/O.
  std::optional<meta::FragmentLocation> hot;
  {
    std::lock_guard lock(hot_mu_);
    auto it = hot_copies_.find(m.path);
    if (it != hot_copies_.end()) hot = it->second;
  }
  if (hot.has_value()) {
    const std::size_t idx = session_.index_of(hot->provider);
    bool use_hot = idx != static_cast<std::size_t>(-1) &&
                   session_.client(idx).provider()->online();
    if (use_hot) {
      // Expected stripe latency over the k fragments the read would
      // actually fetch (online slots, data first, parity filling in for
      // degraded slots) — compared with a full-size hot-copy read.
      std::size_t online_slots = 0;
      common::SimDuration stripe_expected = 0;
      for (std::size_t i = 0;
           i < m.locations.size() && online_slots < m.stripe_k; ++i) {
        const std::size_t slot = session_.index_of(m.locations[i].provider);
        if (slot == static_cast<std::size_t>(-1) ||
            !session_.client(slot).provider()->online()) {
          continue;
        }
        ++online_slots;
        stripe_expected = std::max(
            stripe_expected,
            session_.client(slot).provider()->latency_model().expected(
                cloud::OpKind::kGet, m.shard_size));
      }
      const bool stripe_unreachable = online_slots < m.stripe_k;
      const common::SimDuration hot_expected =
          session_.client(idx).provider()->latency_model().expected(
              cloud::OpKind::kGet, m.size);
      use_hot = stripe_unreachable || hot_expected < stripe_expected;
    }
    if (use_hot) {
      auto get = session_.client(idx).get(
          {config_.data_container, hot->object_name});
      if (get.ok() && common::crc32c(get.data) == m.crc) {
        result.status = common::Status::ok();
        result.latency = get.latency;
        result.data = std::move(get.data);
        return result;
      }
      // Hot copy unreachable or stale: fall through to the stripe.
      result.latency += get.latency;
    }
  }

  auto stripe_read = erasure_->read(session_, m);
  stripe_read.latency += result.latency;
  result = std::move(stripe_read);

  if (result.status.is_ok() && config_.hot_promotion_enabled) {
    const std::uint32_t reads = monitor_.bump_read_count(m.path);
    if (reads >= config_.hot_promotion_reads && !has_hot_copy(m.path) &&
        !replica_targets_.empty()) {
      // Background promotion: not charged to this read's latency.
      const std::size_t target = replica_targets_.front();
      const std::string object = dist::fragment_object_name(m.path, 'h', 0);
      auto putr = session_.client(target).put(
          {config_.data_container, object}, result.data);
      if (putr.ok()) {
        std::lock_guard lock(hot_mu_);
        hot_copies_[m.path] = {session_.client(target).provider_name(),
                               object};
      }
    }
  }
  return result;
}

dist::WriteResult HyRDClient::update_object(
    const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
    std::vector<std::string>& unreachable) {
  if (config_.dedup_enabled) {
    // Copy-on-write: dedup must hash the full new content, and shared
    // fragments may never be patched in place. This is the cost the paper
    // warns about ("applying data deduplication in HyRD is not easy").
    dist::ReadResult whole = StorageClient::read_object(m);
    dist::WriteResult result;
    if (!whole.status.is_ok()) {
      result.status = whole.status;
      result.latency = whole.latency;
      return result;
    }
    common::Bytes patched = std::move(whole.data).into_bytes();
    common::count_copied_bytes(data.size());
    std::memcpy(patched.data() + offset, data.data(), data.size());
    monitor_.record_write(monitor_.classify_file(patched.size()), data.size());
    const common::Buffer next = common::Buffer::from(std::move(patched));
    result = put_dedup(m.path, next, monitor_.classify_file(next.size()),
                       unreachable);
    result.latency += whole.latency;
    return result;
  }

  const bool replicated = m.redundancy == meta::RedundancyKind::kReplicated;
  monitor_.record_write(
      replicated ? DataClass::kSmallFile : DataClass::kLargeFile, data.size());
  // A whole-file overwrite under replication needs no read at all; a
  // partial one is block writes only, zero reads (the paper's §II-B
  // contrast with erasure coding's 2R+2W).
  auto result =
      replicated && offset == 0 && data.size() == m.size
          ? replication_->write(session_, m.path, data, replica_targets_,
                                &unreachable)
          : StorageClient::update_object(m, offset, data, unreachable);
  if (result.status.is_ok()) drop_hot_copy(m.path, /*remove_remote=*/true);
  return result;
}

dist::RemoveResult HyRDClient::remove_object(const meta::FileMeta& m) {
  const bool delete_fragments =
      !config_.dedup_enabled || dedup_.unlink(m.path);
  dist::RemoveResult result;
  if (delete_fragments) {
    result = StorageClient::remove_object(m);
  } else {
    result.status = common::Status::ok();
  }
  drop_hot_copy(m.path, /*remove_remote=*/delete_fragments);
  return result;
}

StorageClient::FlushResult HyRDClient::flush_entries(
    std::vector<cache::DirtyEntry> entries) {
  FlushResult out;
  // Partition: the common case (plain replicated small write, no dedup,
  // no redundancy-kind change, no hot copy) batches into one group
  // commit; everything else takes the full dispatcher per entry.
  std::vector<cache::DirtyEntry> fallback;
  std::vector<dist::ReplicationScheme::GroupWrite> group;
  std::vector<cache::DirtyEntry> group_entries;
  for (auto& e : entries) {
    const bool small =
        monitor_.classify_file(e.data.size()) == DataClass::kSmallFile;
    const auto prev = store_.lookup(e.path);
    const bool kind_change =
        prev.has_value() &&
        prev->redundancy != meta::RedundancyKind::kReplicated;
    if (config_.dedup_enabled || !small || kind_change ||
        has_hot_copy(e.path)) {
      fallback.push_back(std::move(e));
      continue;
    }
    monitor_.record_write(DataClass::kSmallFile, e.data.size());
    group.push_back({e.path, e.data});  // refbump; entry kept for restore
    group_entries.push_back(std::move(e));
  }

  if (!group.empty()) {
    auto results = replication_->write_many(session_, std::move(group),
                                            replica_targets_);
    std::set<std::string> dirs;  // sorted: deterministic persist order
    for (std::size_t i = 0; i < results.size(); ++i) {
      auto& r = results[i].result;
      if (r.status.is_ok()) {
        upsert_and_log(r, results[i].unreachable);
        dirs.insert(r.meta.directory());
        ++out.flushed;
        out.flushed_bytes += group_entries[i].data.size();
        out.latency = std::max(out.latency, r.latency);
        note_put(r.latency, true);
      } else {
        note_put(r.latency, false);
        out.failed.push_back(std::move(group_entries[i]));
      }
    }
    // One metadata-block persist per distinct directory for the whole
    // group — the second half of the group-commit saving (N absorbed
    // writes to one directory pay one replicated block write, not N).
    common::SimDuration meta_latency = 0;
    for (const auto& dir : dirs) {
      meta_latency = std::max(meta_latency, persist_metadata(dir));
    }
    out.latency += meta_latency;
  }

  if (!fallback.empty()) {
    auto fb = StorageClient::flush_entries(std::move(fallback));
    out.latency = std::max(out.latency, fb.latency);
    out.flushed += fb.flushed;
    out.flushed_bytes += fb.flushed_bytes;
    for (auto& e : fb.failed) out.failed.push_back(std::move(e));
  }
  return out;
}

void HyRDClient::on_cache_hit(const std::string& path,
                              const common::Buffer& data,
                              std::uint32_t hits) {
  if (!config_.hot_promotion_enabled || replica_targets_.empty()) return;
  const auto m = store_.lookup(path);
  if (!m.has_value() || m->redundancy != meta::RedundancyKind::kErasure) {
    return;
  }
  monitor_.record_read(DataClass::kLargeFile, m->size);
  if (hits < config_.hot_promotion_reads || has_hot_copy(path)) return;
  // Promote from the cached bytes: unlike the stripe-read promotion in
  // read_object, this costs zero extra read amplification. Background
  // write, not charged to the serving read.
  const std::size_t target = replica_targets_.front();
  const std::string object = dist::fragment_object_name(path, 'h', 0);
  auto putr =
      session_.client(target).put({config_.data_container, object}, data);
  if (putr.ok()) {
    std::lock_guard lock(hot_mu_);
    hot_copies_[path] = {session_.client(target).provider_name(), object};
  }
}

void HyRDClient::wire_adaptive(cache::ClientCache& cache) {
  if (!cache.config().adaptive.enabled) return;
  const double space_weight = cache.config().adaptive.space_weight;
  // Read/write mix observed so far (defaults to write-only): the modeled
  // per-object cost is one write plus `mix` reads.
  const auto read_mix = [this]() -> double {
    const auto small = monitor_.stats(DataClass::kSmallFile);
    const auto large = monitor_.stats(DataClass::kLargeFile);
    const std::uint64_t writes = small.writes + large.writes;
    const std::uint64_t reads = small.reads + large.reads;
    if (writes == 0) return 0.0;
    return static_cast<double>(reads) / static_cast<double>(writes);
  };

  cache::CostModel model;
  // Replicated: parallel fan-out writes the full object everywhere
  // (latency = slowest target), reads come from the fastest replica.
  // The storage-overhead factor (level× for replication, (k+m)/k for the
  // stripe) scales the cost by 1 + w·(overhead−1): the §III-C
  // cost/performance trade-off in one dimensionless knob.
  model.replicated_cost = [this, space_weight,
                           read_mix](std::uint64_t bytes) -> double {
    common::SimDuration put_ns = 0;
    common::SimDuration get_ns = 0;
    bool first = true;
    for (std::size_t idx : replica_targets_) {
      const auto& lm = session_.client(idx).provider()->latency_model();
      put_ns = std::max(put_ns, lm.expected(cloud::OpKind::kPut, bytes));
      const auto g = lm.expected(cloud::OpKind::kGet, bytes);
      get_ns = first ? g : std::min(get_ns, g);
      first = false;
    }
    const double latency = common::to_ms(put_ns) +
                           read_mix() * common::to_ms(get_ns);
    const double overhead = static_cast<double>(config_.replication_level);
    return latency * (1.0 + space_weight * (overhead - 1.0));
  };
  // Erasure: writes fan shard_size = ceil(bytes/k) to every slot; reads
  // collect the k data shards (slowest of the first k slots).
  model.erasure_cost = [this, space_weight,
                        read_mix](std::uint64_t bytes) -> double {
    const std::size_t k = config_.geometry.k;
    const std::uint64_t shard = (bytes + k - 1) / k;
    common::SimDuration put_ns = 0;
    common::SimDuration get_ns = 0;
    for (std::size_t i = 0; i < shard_slots_.size(); ++i) {
      const auto& lm =
          session_.client(shard_slots_[i]).provider()->latency_model();
      put_ns = std::max(put_ns, lm.expected(cloud::OpKind::kPut, shard));
      if (i < k) {
        get_ns = std::max(get_ns, lm.expected(cloud::OpKind::kGet, shard));
      }
    }
    const double latency = common::to_ms(put_ns) +
                           read_mix() * common::to_ms(get_ns);
    const double overhead = config_.geometry.expansion();
    return latency * (1.0 + space_weight * (overhead - 1.0));
  };
  cache.wire_adaptive(std::move(model),
                      [this](std::uint64_t t) { monitor_.set_threshold(t); },
                      monitor_.threshold());
}

common::Status HyRDClient::rebuild_metadata_from_cloud() {
  store_.clear();
  // List the metadata container on each replica target (fastest first)
  // and load every block found.
  for (std::size_t target : replica_targets_) {
    auto& client = session_.client(target);
    auto listing = client.list(config_.meta_container);
    if (!listing.ok()) continue;
    bool all_ok = true;
    for (const auto& name : listing.names) {
      auto block = client.get({config_.meta_container, name});
      if (!block.ok()) {
        all_ok = false;
        continue;
      }
      if (auto st = store_.load_directory_block(block.data); !st.is_ok()) {
        return st;
      }
    }
    if (all_ok) return common::Status::ok();
  }
  return common::unavailable("no metadata replica fully readable");
}

}  // namespace hyrd::core
