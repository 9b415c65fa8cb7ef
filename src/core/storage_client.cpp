#include "core/storage_client.h"

#include <algorithm>
#include <unordered_set>

#include "common/checksum.h"
#include "common/virtual_time.h"
#include "gcsapi/async_batch.h"
#include "obs/trace.h"

namespace hyrd::core {

namespace {
constexpr std::string_view kMetaPathPrefix = "//meta/";

void emit_flush_span(common::SimDuration dur, std::size_t attempted,
                     std::size_t flushed, bool forced) {
  if (!obs::trace_active()) return;
  obs::TraceSpan span;
  span.name = "cache_flush";
  span.cat = "cache";
  if (const auto base = common::VirtualScope::snapshot()) {
    span.tid = base->tenant;
    span.ts = base->now;
  }
  span.dur = dur;
  span.arg("entries", static_cast<long long>(attempted));
  span.arg("flushed", static_cast<long long>(flushed));
  span.arg("forced", forced ? 1 : 0);
  obs::emit(std::move(span));
}
}  // namespace

// --- Cache layer ---

bool StorageClient::should_absorb(std::uint64_t size) const {
  return cache_ != nullptr && cache_->write_back_active() &&
         size <= cache_->config().max_object_bytes &&
         size < write_back_threshold();
}

dist::WriteResult StorageClient::put(const std::string& path,
                                     common::Buffer data) {
  if (cache_ != nullptr) cache_->observe_write(data.size());
  if (should_absorb(data.size())) return absorb_put(path, std::move(data));
  dist::WriteResult result;
  {
    // Overwrites of one path are serialized end-to-end (fragment writes,
    // metadata upsert, metadata persist). Without this, two concurrent
    // writers can land on the scheme's replicas in different orders —
    // object names are path-derived, not versioned — leaving one replica's
    // bytes disagreeing with the winning metadata CRC, which a later
    // degraded read (other replicas offline) surfaces as data loss.
    const std::lock_guard lock(store_.write_order_mu(path));
    // A large write supersedes any still-dirty small incarnation of the
    // path (it was never observable remotely) and stales the read copy.
    if (cache_ != nullptr && cache_->config().enabled) cache_->invalidate(path);
    result = do_put(path, std::move(data));
  }
  return result;
}

dist::WriteResult StorageClient::absorb_put(const std::string& path,
                                            common::Buffer data) {
  const std::uint64_t size = data.size();
  cache::ClientCache::AbsorbOutcome outcome;
  {
    // Same-path ordering with in-flight flushes/writes; own() because a
    // borrowed span dies with the caller while the dirty entry lives on.
    const std::lock_guard lock(store_.write_order_mu(path));
    outcome = cache_->absorb(path, std::move(data).own());
  }
  dist::WriteResult result;
  result.status = common::Status::ok();
  result.meta.path = path;
  result.meta.size = size;
  result.meta.redundancy = meta::RedundancyKind::kReplicated;
  if (outcome.need_flush) {
    // Lazy fsync: the watermark write pays for the whole group commit.
    result.latency = run_flush_group(/*forced=*/false).latency;
  }
  return result;
}

dist::ReadResult StorageClient::get(const std::string& path) {
  if (cache_ != nullptr && cache_->config().enabled) {
    if (cache_->write_back_active()) {
      if (cache_->config().serve_dirty_reads) {
        if (auto dirty = cache_->dirty_lookup(path)) {
          dist::ReadResult result;
          result.status = common::Status::ok();
          result.data = std::move(*dirty);
          note_get(0, true, false);
          return result;
        }
      } else {
        // Flush-on-read coherence: the remote GET below must observe the
        // absorbed bytes.
        (void)flush_path(path);
      }
    }
    if (auto hit = cache_->read_lookup(path)) {
      note_get(0, true, false);
      on_cache_hit(path, hit->data, hit->hits);
      dist::ReadResult result;
      result.status = common::Status::ok();
      result.data = std::move(hit->data);
      return result;
    }
  }
  auto result = do_get(path);
  if (cache_ != nullptr && result.status.is_ok()) {
    cache_->read_insert(path, result.data);
  }
  return result;
}

dist::WriteResult StorageClient::update(const std::string& path,
                                        std::uint64_t offset,
                                        common::ByteSpan data) {
  common::SimDuration coherence = 0;
  if (cache_ != nullptr && cache_->config().enabled) {
    // Updates patch remote state in place, so the base version must exist
    // remotely first; the read copy is stale either way.
    coherence = flush_path(path);
    cache_->invalidate_read(path);
  }
  auto result = do_update(path, offset, data);
  result.latency += coherence;
  return result;
}

dist::RemoveResult StorageClient::remove(const std::string& path) {
  if (cache_ != nullptr && cache_->config().enabled) {
    const bool was_dirty = cache_->drop_dirty(path);
    cache_->invalidate_read(path);
    if (was_dirty && !store_.lookup(path).has_value()) {
      // The object never reached a provider: dropping the dirty entry IS
      // the removal.
      dist::RemoveResult result;
      result.status = common::Status::ok();
      note_remove(0, true);
      return result;
    }
  }
  return do_remove(path);
}

void StorageClient::configure_cache(const cache::CacheConfig& config) {
  if (!config.enabled) {
    cache_.reset();
    return;
  }
  cache_ = std::make_unique<cache::ClientCache>(config);
  wire_adaptive(*cache_);
}

StorageClient::FlushResult StorageClient::flush_entries(
    std::vector<cache::DirtyEntry> entries) {
  FlushResult out;
  for (auto& e : entries) {
    common::Buffer payload = e.data;  // refbump: survives a failed do_put
    auto r = do_put(e.path, std::move(e.data));
    // All entries are issued at the same virtual instant, so the batch
    // overlaps into (at most) the slowest round trip.
    out.latency = std::max(out.latency, r.latency);
    if (r.status.is_ok()) {
      ++out.flushed;
      out.flushed_bytes += payload.size();
    } else {
      e.data = std::move(payload);
      out.failed.push_back(std::move(e));
    }
  }
  return out;
}

StorageClient::FlushResult StorageClient::run_flush_group(
    std::vector<cache::DirtyEntry> entries, bool forced) {
  FlushResult out;
  if (entries.empty()) return out;
  const std::size_t attempted = entries.size();

  // Lock every involved path stripe in address order (stripes are shared
  // across paths: dedup, then a global order so concurrent flushes and
  // put()s never deadlock).
  std::vector<std::mutex*> stripes;
  stripes.reserve(entries.size());
  for (const auto& e : entries) {
    stripes.push_back(&store_.write_order_mu(e.path));
  }
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  for (auto* mu : stripes) mu->lock();
  out = flush_entries(std::move(entries));
  for (auto rit = stripes.rbegin(); rit != stripes.rend(); ++rit) {
    (*rit)->unlock();
  }

  cache_->note_flush_batch(out.flushed, out.flushed_bytes, forced);
  emit_flush_span(out.latency, attempted, out.flushed, forced);
  if (!out.failed.empty()) cache_->restore_dirty(std::move(out.failed));
  return out;
}

StorageClient::FlushResult StorageClient::run_flush_group(bool forced) {
  // One flush at a time: take-order must equal flush-order, or two
  // overlapping groups could land an older incarnation of a path after a
  // newer one (stale data winning the metadata CRC).
  const std::lock_guard lock(flush_mu_);
  return run_flush_group(cache_->take_flush_group(), forced);
}

common::SimDuration StorageClient::flush_path(const std::string& path) {
  if (cache_ == nullptr || !cache_->write_back_active()) return 0;
  const std::lock_guard lock(flush_mu_);
  auto entry = cache_->take_dirty(path);
  if (!entry.has_value()) return 0;
  std::vector<cache::DirtyEntry> one;
  one.push_back(std::move(*entry));
  return run_flush_group(std::move(one), /*forced=*/true).latency;
}

StorageClient::CacheDrainReport StorageClient::flush_cache() {
  CacheDrainReport report;
  if (cache_ == nullptr || !cache_->write_back_active()) return report;
  for (;;) {
    auto r = run_flush_group(/*forced=*/false);
    if (r.flushed == 0 && r.failed.empty()) break;  // drained
    report.latency += r.latency;
    report.flushed_entries += r.flushed;
    report.flushed_bytes += r.flushed_bytes;
    // failed entries were restored; if nothing landed this round, no
    // provider is reachable — stop instead of spinning.
    if (r.flushed == 0) break;
  }
  report.remaining_entries = cache_->dirty_entries();
  report.remaining_bytes = cache_->dirty_bytes();
  return report;
}

// --- Stats ---

ClientStats StorageClient::stats_snapshot() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

void StorageClient::reset_stats() {
  std::lock_guard lock(stats_mu_);
  stats_ = ClientStats{};
}

void StorageClient::note_put(common::SimDuration latency, bool ok) {
  std::lock_guard lock(stats_mu_);
  stats_.put_ms.add(common::to_ms(latency));
  if (!ok) ++stats_.failed_ops;
}

void StorageClient::note_get(common::SimDuration latency, bool ok,
                             bool degraded) {
  std::lock_guard lock(stats_mu_);
  stats_.get_ms.add(common::to_ms(latency));
  if (!ok) ++stats_.failed_ops;
  if (degraded) ++stats_.degraded_reads;
}

void StorageClient::note_update(common::SimDuration latency, bool ok) {
  std::lock_guard lock(stats_mu_);
  stats_.update_ms.add(common::to_ms(latency));
  if (!ok) ++stats_.failed_ops;
}

void StorageClient::note_remove(common::SimDuration latency, bool ok) {
  std::lock_guard lock(stats_mu_);
  stats_.remove_ms.add(common::to_ms(latency));
  if (!ok) ++stats_.failed_ops;
}

// --- The op skeleton ---

StorageClient::StorageClient(
    gcs::MultiCloudSession& session, std::string container,
    std::optional<dist::ReplicationScheme> replication,
    std::optional<dist::ErasureScheme> erasure)
    : session_(session),
      container_(std::move(container)),
      replication_(std::move(replication)),
      erasure_(std::move(erasure)) {}

namespace {
/// The one metadata lookup of get/update/remove; a miss sets `status`.
std::optional<meta::FileMeta> find_file(const meta::MetadataStore& store,
                                        const std::string& path,
                                        common::Status& status) {
  auto m = store.lookup(path);
  if (!m.has_value()) status = common::not_found("no such file: " + path);
  return m;
}
}  // namespace

void StorageClient::commit(dist::WriteResult& result,
                           const std::vector<std::string>& unreachable) {
  if (!result.status.is_ok()) return;
  upsert_and_log(result, unreachable);
  result.latency += persist_metadata(result.meta.directory());
}

dist::WriteResult StorageClient::do_put(const std::string& path,
                                        common::Buffer data) {
  std::vector<std::string> unreachable;
  dist::WriteResult result = write_object(path, std::move(data), unreachable);
  commit(result, unreachable);
  note_put(result.latency, result.status.is_ok());
  return result;
}

dist::ReadResult StorageClient::do_get(const std::string& path) {
  dist::ReadResult result;
  if (const auto m = find_file(store_, path, result.status)) {
    result = read_object(*m);
  }
  note_get(result.latency, result.status.is_ok(), result.degraded);
  return result;
}

dist::WriteResult StorageClient::do_update(const std::string& path,
                                           std::uint64_t offset,
                                           common::ByteSpan data) {
  dist::WriteResult result;
  if (const auto m = find_file(store_, path, result.status)) {
    if (!common::range_within(offset, data.size(), m->size)) {
      result.status = common::invalid_argument("update must not grow the file");
    } else {
      std::vector<std::string> unreachable;
      result = update_object(*m, offset, data, unreachable);
      commit(result, unreachable);
    }
  }
  note_update(result.latency, result.status.is_ok());
  return result;
}

dist::RemoveResult StorageClient::do_remove(const std::string& path) {
  dist::RemoveResult result;
  if (const auto m = find_file(store_, path, result.status)) {
    result = remove_object(*m);
    store_.erase(path);
    result.latency += persist_metadata(m->directory());
  }
  note_remove(result.latency, result.status.is_ok());
  return result;
}

RestoreResult StorageClient::on_provider_restored(
    const std::string& provider) {
  RestoreResult out;
  const std::size_t node = session_.index_of(provider);
  if (node == static_cast<std::size_t>(-1)) {
    out.status = common::invalid_argument("unknown provider: " + provider);
    return out;
  }
  auto& client = session_.client(node);
  if (!client.provider()->online()) {
    out.status = common::failed_precondition(provider + " still offline");
    return out;
  }

  // Deletes the record's object. NotFound is fine: the object never
  // reached the provider.
  const auto drop = [&](const meta::LogRecord& rec) {
    auto r = client.remove({rec.container, rec.object_name});
    out.latency += r.latency;
    return r.ok() || r.status.code() == common::StatusCode::kNotFound
               ? common::Status::ok()
               : r.status;
  };
  // One rebuild restores every object of a file on the provider.
  std::unordered_set<std::string> rebuilt;
  const auto apply = [&](const meta::LogRecord& rec) -> common::Status {
    if (rec.action == meta::LogAction::kRemove) return drop(rec);
    if (const auto m = logged_meta(rec.path)) {
      if (!rebuilt.insert(rec.path).second) return common::Status::ok();
      return rebuild_on(*m, node, out.latency);
    }
    if (const auto dir = parse_meta_block_path(rec.path)) {
      // A block persisted by replicate_block has no FileMeta: regenerate it.
      auto r = client.put({rec.container, rec.object_name},
                          store_.serialize_directory(*dir));
      out.latency += r.latency;
      return r.status;
    }
    return drop(rec);  // the file was deleted after the logged write
  };

  // Records are in sequence order, so everything through `applied` is done
  // (or superseded by a later record). Truncating through it on error as
  // well as on success means a retry replays only from the failed record.
  std::uint64_t applied = 0;
  out.status = common::Status::ok();
  for (const auto& rec : log_.pending_for(provider)) {
    out.status = apply(rec);
    if (!out.status.is_ok()) break;
    applied = rec.seq;
  }
  if (applied > 0) log_.truncate(provider, applied);
  return out;
}

common::Status StorageClient::rebuild_on(const meta::FileMeta& m,
                                         std::size_t node,
                                         common::SimDuration& latency) {
  auto& client = session_.client(node);
  const bool replicated = m.redundancy == meta::RedundancyKind::kReplicated;
  if (replicated ? !replication_ : !erasure_) {
    return common::failed_precondition("no scheme to rebuild " + m.path +
                                       " with");
  }
  std::vector<std::pair<std::string, common::Buffer>> objects;
  if (replicated) {
    auto whole = replication_->read(session_, m);
    latency += whole.latency;
    if (!whole.status.is_ok()) return whole.status;
    for (const auto& loc : m.locations) {
      if (loc.provider == client.provider_name()) {
        objects.emplace_back(loc.object_name, whole.data);
      }
    }
  } else {
    auto fragments = erasure_->rebuild_fragments_for(
        session_, m, client.provider_name(), &latency);
    if (!fragments.is_ok()) return fragments.status();
    objects = std::move(fragments).value();
  }
  const std::string& container =
      replicated ? replication_->container() : erasure_->container();
  for (auto& [name, bytes] : objects) {
    auto r = client.put({container, name}, std::move(bytes));
    latency += r.latency;
    if (!r.ok()) return r.status;
  }
  return common::Status::ok();
}

dist::WriteResult StorageClient::write_object(
    const std::string& path, common::Buffer data,
    std::vector<std::string>& unreachable) {
  if (erasure_) {
    return erasure_->write(session_, path, std::move(data), placement(path),
                           &unreachable);
  }
  return replication_->write(session_, path, std::move(data), placement(path),
                             &unreachable);
}

dist::ReadResult StorageClient::read_object(const meta::FileMeta& m) {
  return m.redundancy == meta::RedundancyKind::kErasure
             ? erasure_->read(session_, m)
             : replication_->read(session_, m);
}

dist::WriteResult StorageClient::update_object(
    const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
    std::vector<std::string>& unreachable) {
  if (m.redundancy == meta::RedundancyKind::kErasure) {
    return erasure_->update_range(session_, m, offset, data, nullptr,
                                  &unreachable);
  }
  if (offset == 0 && data.size() == m.size) {
    return write_object(m.path, common::Buffer::borrow(data), unreachable);
  }
  return replication_->update_range(session_, m, offset, data, &unreachable);
}

dist::RemoveResult StorageClient::remove_object(const meta::FileMeta& m) {
  auto result = dist::remove_fragments(session_, container_, m);
  log_unreachable(result.unreachable_providers, m, meta::LogAction::kRemove);
  return result;
}

common::SimDuration StorageClient::persist_metadata(
    const std::string& dir) {
  std::vector<std::string> unreachable;
  auto r = write_object(meta_block_path(dir),
                        common::Buffer::from(store_.serialize_directory(dir)),
                        unreachable);
  if (r.status.is_ok()) upsert_and_log(r, unreachable);
  return r.latency;
}

void StorageClient::upsert_and_log(
    dist::WriteResult& result, const std::vector<std::string>& unreachable) {
  store_.upsert_versioned(result.meta);
  log_unreachable(unreachable, result.meta, meta::LogAction::kPut);
}

void StorageClient::log_unreachable(
    const std::vector<std::string>& providers, const meta::FileMeta& m,
    meta::LogAction action) {
  if (providers.empty()) return;
  for (const auto& loc : m.locations) {
    if (std::find(providers.begin(), providers.end(), loc.provider) !=
        providers.end()) {
      log_.append(loc.provider, container_, m.path, loc.object_name, action);
    }
  }
}

common::SimDuration StorageClient::replicate_block(
    const std::string& dir, common::ByteSpan block,
    const std::string& container, const std::vector<std::size_t>& targets) {
  const std::string object = meta_block_object_name(dir);
  gcs::AsyncBatch batch(session_);
  for (std::size_t target : targets) {
    batch.submit(gcs::CloudOp::put(target, {container, object}, block));
  }
  gcs::BatchStats stats;
  for (const auto& c : batch.await_all(&stats)) {
    if (!c.ok()) {
      log_.append(session_.client(targets[c.op_index]).provider_name(),
                  container, meta_block_path(dir), object,
                  meta::LogAction::kPut);
    }
  }
  return stats.latency;
}

// --- Local metadata ---

std::optional<meta::FileMeta> StorageClient::stat(
    const std::string& path) const {
  // A dirty (absorbed, unflushed) path is visible to stat with its newest
  // size/CRC: the cache is the freshest version of the object.
  if (const auto* c = client_cache();
      c != nullptr && c->write_back_active()) {
    if (auto dirty = c->dirty_peek(path)) {
      meta::FileMeta m;
      m.path = path;
      m.size = dirty->size();
      m.redundancy = meta::RedundancyKind::kReplicated;
      m.crc = common::crc32c(*dirty);
      const auto stored = store_.lookup(path);
      m.version = stored.has_value() ? stored->version + 1 : 1;
      return m;
    }
  }
  return store_.lookup(path);
}

std::vector<std::string> StorageClient::list() const {
  // Synthetic metadata-block entries (used by schemes that persist their
  // directory blocks through the normal write path) are not user files.
  std::vector<std::string> out;
  for (auto& p : store_.all_paths()) {
    if (!p.starts_with(kMetaPathPrefix)) out.push_back(std::move(p));
  }
  if (const auto* c = client_cache();
      c != nullptr && c->write_back_active()) {
    for (auto& p : c->dirty_paths()) {
      if (std::find(out.begin(), out.end(), p) == out.end()) {
        out.push_back(std::move(p));
      }
    }
  }
  return out;
}

std::string StorageClient::meta_block_path(const std::string& dir) {
  return std::string(kMetaPathPrefix) + dir;
}

std::string StorageClient::meta_block_object_name(const std::string& dir) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "md.%016llx",
                static_cast<unsigned long long>(
                    common::fnv1a(std::string_view(dir))));
  return buf;
}

std::optional<std::string> StorageClient::parse_meta_block_path(
    const std::string& path) {
  if (path.starts_with(kMetaPathPrefix)) {
    return path.substr(kMetaPathPrefix.size());
  }
  return std::nullopt;
}

}  // namespace hyrd::core
