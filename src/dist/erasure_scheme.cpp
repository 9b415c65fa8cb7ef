#include "dist/erasure_scheme.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <future>

#include "common/checksum.h"
#include "common/copy_meter.h"
#include "common/virtual_time.h"
#include "erasure/reed_solomon.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyrd::dist {

namespace {

// Encode/CRC phase accounting: bytes run through the GF encoder and the
// checksummer per stripe write, visible next to the upload counters in the
// same registry export.
struct StripeMetrics {
  obs::Counter encode_bytes =
      obs::MetricsRegistry::global().counter("scheme.encode_bytes");
  obs::Counter crc_bytes =
      obs::MetricsRegistry::global().counter("scheme.crc_bytes");
};

StripeMetrics& stripe_metrics() {
  static StripeMetrics m;
  return m;
}

/// Scheme-level span stamped with the issuing tenant's virtual context.
void emit_stripe_span(const char* name, common::SimDuration dur,
                      std::initializer_list<obs::TraceSpan::Arg> args) {
  if (!obs::trace_active()) return;
  obs::TraceSpan span;
  span.name = name;
  span.cat = "scheme";
  if (const auto base = common::VirtualScope::snapshot()) {
    span.tid = base->tenant;
    span.ts = base->now;
  }
  span.dur = dur;
  for (const auto& a : args) span.arg(a.key, a.value);
  obs::emit(std::move(span));
}

/// Maps each fragment slot of `meta` to its session client index; -1 when
/// the provider is not in the session.
std::vector<std::size_t> slot_clients(const gcs::MultiCloudSession& session,
                                      const meta::FileMeta& meta) {
  std::vector<std::size_t> out;
  out.reserve(meta.locations.size());
  for (const auto& loc : meta.locations) {
    out.push_back(session.index_of(loc.provider));
  }
  return out;
}

/// True if fragment `slot` of `meta` passes its integrity check (or no
/// digest is recorded for it).
bool fragment_intact(const meta::FileMeta& meta, std::size_t slot,
                     common::ByteSpan fragment) {
  if (slot >= meta.fragment_crcs.size()) return true;   // no digest recorded
  if (meta.fragment_crcs[slot] == 0) return true;       // digest unknown
  return common::crc32c(fragment) == meta.fragment_crcs[slot];
}

/// await_first predicate over a batch of fragment gets (`op_slot` maps
/// op_index to slot): the get succeeded and its fragment is intact.
/// await_first tests every op when it ranks arrivals and the caller tests
/// again when collecting, so each op's verdict is recorded in `verdicts`
/// (-1 = not yet checked) and every fragment is CRC'd once.
auto usable_fragment(const meta::FileMeta& meta,
                     const std::vector<std::size_t>& op_slot,
                     std::vector<std::int8_t>& verdicts) {
  verdicts.assign(op_slot.size(), -1);
  return [&meta, &op_slot, &verdicts](const gcs::CloudCompletion& c) {
    if (!c.ok()) return false;
    std::int8_t& v = verdicts[c.op_index];
    if (v < 0) v = fragment_intact(meta, op_slot[c.op_index], c.result.data);
    return v == 1;
  };
}

/// The expensive update path: read the whole object (degraded if need be),
/// patch `new_bytes` in at `offset` and re-stripe it. `spent` is the
/// virtual time the update already used before falling back here.
WriteResult restripe_patched(const ErasureScheme& scheme,
                             gcs::MultiCloudSession& session,
                             const meta::FileMeta& meta, std::uint64_t offset,
                             common::ByteSpan new_bytes,
                             std::vector<std::string>* unreachable,
                             common::SimDuration spent) {
  ReadResult whole = scheme.read(session, meta);
  if (!whole.status.is_ok()) {
    WriteResult result;
    result.status = whole.status;
    result.latency = spent + whole.latency;
    return result;
  }
  common::Bytes patched = std::move(whole.data).into_bytes();
  common::count_copied_bytes(new_bytes.size());
  std::memcpy(patched.data() + offset, new_bytes.data(), new_bytes.size());
  WriteResult result =
      scheme.write(session, meta.path, common::Buffer::from(std::move(patched)),
                   slot_clients(session, meta), unreachable);
  result.latency += spent + whole.latency;
  result.meta.version = meta.version + 1;
  return result;
}

}  // namespace

WriteResult ErasureScheme::write(gcs::MultiCloudSession& session,
                                 const std::string& path, common::Buffer data,
                                 const std::vector<std::size_t>& shard_clients,
                                 std::vector<std::string>* unreachable) const {
  WriteResult result;
  const auto& geom = striper_.geometry();
  if (shard_clients.size() != geom.total()) {
    result.status =
        common::invalid_argument("erasure write needs exactly k+m targets");
    return result;
  }

  const std::size_t total = geom.total();
  const std::size_t shard_size = striper_.shard_size_for(data.size());

  // Fragment plan: every full data shard is an O(1) slice of `data` (the
  // store keeps it by refbump — no memcpy anywhere on its way down); only
  // a shard that crosses or sits past EOF needs padding. The padded tail
  // and the m parity shards live in one side arena, sliced per fragment.
  std::vector<common::Buffer> fragments(total);
  std::vector<common::ByteSpan> data_views(geom.k);
  std::vector<common::ByteSpan> real_views(geom.k);  // data bytes, no padding
  std::vector<std::size_t> pad_slots;
  for (std::size_t i = 0; i < geom.k; ++i) {
    const std::size_t offset = i * shard_size;
    const std::size_t avail = offset < data.size() ? data.size() - offset : 0;
    real_views[i] = data.span().subspan(std::min(offset, data.size()),
                                        std::min(avail, shard_size));
    if (avail >= shard_size) {
      fragments[i] = data.slice(offset, shard_size);
      data_views[i] = fragments[i];
    } else {
      pad_slots.push_back(i);
    }
  }

  common::MutableBuffer arena((pad_slots.size() + geom.m) * shard_size);
  for (std::size_t j = 0; j < pad_slots.size(); ++j) {
    const common::ByteSpan real = real_views[pad_slots[j]];
    if (!real.empty()) arena.write(j * shard_size, real);
  }
  // Parity regions: writable spans taken before freeze(). The encode below
  // fills them before any parity slice is submitted, and no other view
  // covers them, so the late writes are invisible to concurrent readers of
  // the tail fragments (disjoint regions of the same block).
  std::vector<common::MutByteSpan> parity_views(geom.m);
  for (std::size_t p = 0; p < geom.m; ++p) {
    parity_views[p] =
        arena.span((pad_slots.size() + p) * shard_size, shard_size);
  }
  common::Buffer side = std::move(arena).freeze();
  for (std::size_t j = 0; j < pad_slots.size(); ++j) {
    fragments[pad_slots[j]] = side.slice(j * shard_size, shard_size);
    data_views[pad_slots[j]] = fragments[pad_slots[j]];
  }

  // Pipeline: parity encode and checksums run on the session pool while
  // the k data fragments (available immediately) are dispatched. Parity
  // is encoded in independent chunks so the pool can spread the GF work.
  // Each data byte is hashed once: a slot's CRC covers its real bytes, the
  // object CRC combines those, and a padded slot's fragment CRC extends
  // its real-byte CRC over the zero padding.
  auto& pool = session.pool();
  const erasure::ReedSolomon& rs = striper_.codec();
  constexpr std::size_t kEncodeChunk = 256 * 1024;
  std::vector<std::future<void>> encode_futs;
  for (std::size_t off = 0; off < shard_size; off += kEncodeChunk) {
    const std::size_t len = std::min(kEncodeChunk, shard_size - off);
    encode_futs.push_back(pool.submit([&geom, &rs, &data_views, &parity_views,
                                       off, len] {
      std::vector<common::ByteSpan> d(geom.k);
      for (std::size_t i = 0; i < geom.k; ++i) {
        d[i] = data_views[i].subspan(off, len);
      }
      std::vector<common::MutByteSpan> pv(geom.m);
      for (std::size_t p = 0; p < geom.m; ++p) {
        pv[p] = parity_views[p].subspan(off, len);
      }
      (void)rs.encode_into(d, pv);
    }));
  }
  std::vector<std::future<std::uint32_t>> crc_futs(total);
  for (std::size_t i = 0; i < geom.k; ++i) {
    crc_futs[i] = pool.submit(
        [view = real_views[i]] { return common::crc32c(view); });
  }

  std::vector<cloud::ObjectKey> keys;
  keys.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    keys.push_back({container_, fragment_object_name(path, 's', i)});
  }

  // One batch for the whole stripe: the k data fragments (available
  // immediately) dispatch while parity encodes; parity fragments join the
  // same batch once the encode lands. All ops carry offset 0, so the batch
  // is one concurrent round in virtual time — splitting the real
  // submission into two waves only overlaps client CPU with I/O.
  gcs::AsyncBatch batch(session);
  for (std::size_t i = 0; i < geom.k; ++i) {
    batch.submit(gcs::CloudOp::put(shard_clients[i], keys[i], fragments[i]));
  }

  for (auto& f : encode_futs) f.get();
  for (std::size_t p = 0; p < geom.m; ++p) {
    fragments[geom.k + p] =
        side.slice((pad_slots.size() + p) * shard_size, shard_size);
    crc_futs[geom.k + p] = pool.submit(
        [view = fragments[geom.k + p].span()] { return common::crc32c(view); });
  }
  for (std::size_t p = 0; p < geom.m; ++p) {
    batch.submit(gcs::CloudOp::put(shard_clients[geom.k + p], keys[geom.k + p],
                                   fragments[geom.k + p]));
  }

  gcs::BatchStats stats;
  auto put_completions = batch.await_all(&stats);
  result.latency = stats.latency;

  std::size_t landed = 0;
  meta::FileMeta m;
  m.path = path;
  m.size = data.size();
  m.redundancy = meta::RedundancyKind::kErasure;
  m.stripe_k = static_cast<std::uint32_t>(geom.k);
  m.stripe_m = static_cast<std::uint32_t>(geom.m);
  m.shard_size = shard_size;
  m.fragment_crcs.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    std::uint32_t crc = crc_futs[i].get();
    if (i < geom.k) {
      const std::size_t real = real_views[i].size();
      m.crc = common::crc32c_combine(m.crc, crc, real);
      crc = common::crc32c_zero_extend(crc, shard_size - real);
    }
    m.fragment_crcs.push_back(crc);
  }
  for (std::size_t i = 0; i < total; ++i) {
    const cloud::OpResult& put_result = put_completions[i].result;
    const std::string& provider =
        session.client(shard_clients[i]).provider_name();
    if (put_result.ok()) {
      ++landed;
    } else if (unreachable != nullptr) {
      unreachable->push_back(provider);
    }
    m.locations.push_back({provider, keys[i].name});
  }

  if (landed < geom.k) {
    result.status =
        common::unavailable("fewer than k fragments written; stripe lost");
    return result;
  }
  stripe_metrics().encode_bytes.add(
      static_cast<std::uint64_t>(geom.m) * shard_size);
  stripe_metrics().crc_bytes.add(data.size() +
                                 static_cast<std::uint64_t>(geom.m) * shard_size);
  result.status = common::Status::ok();
  result.meta = std::move(m);
  emit_stripe_span("stripe_write", result.latency,
                   {{"k", static_cast<long long>(geom.k)},
                    {"m", static_cast<long long>(geom.m)},
                    {"landed", static_cast<long long>(landed)}});
  return result;
}

ReadResult ErasureScheme::read(gcs::MultiCloudSession& session,
                               const meta::FileMeta& meta) const {
  ReadResult result;
  const auto& geom = striper_.geometry();
  if (meta.locations.size() != geom.total() || meta.stripe_k != geom.k ||
      meta.stripe_m != geom.m) {
    result.status = common::invalid_argument("meta/geometry mismatch");
    return result;
  }
  const auto clients = slot_clients(session, meta);
  for (std::size_t i = 0; i < geom.total(); ++i) {
    if (clients[i] == static_cast<std::size_t>(-1)) {
      result.status = common::internal_error("unknown provider in meta");
      return result;
    }
  }

  // All requests of a read — the preferred round, a phase-2 repair round,
  // or the full first-k fan-out — share one AsyncBatch, so virtual time is
  // one coherent order statistic over fragment arrivals.
  gcs::AsyncBatch batch(session);
  std::vector<std::size_t> op_slot;  // op_index -> fragment slot
  const auto submit_slot = [&](std::size_t slot, common::SimDuration start) {
    batch.submit(gcs::CloudOp::get(
        clients[slot], {container_, meta.locations[slot].object_name}, start));
    op_slot.push_back(slot);
  };

  std::vector<std::optional<common::Buffer>> shards(geom.total());

  if (read_strategy_ == ErasureReadStrategy::kFastestK) {
    // First-k-of-n: request every reachable fragment and complete at the
    // k-th fastest usable response; the shaved wait is reported as saved
    // virtual time. A corrupt or failed response simply doesn't count
    // toward k.
    for (std::size_t i = 0; i < geom.total(); ++i) {
      if (outage_aware_ && !session.client(clients[i]).provider()->online()) {
        result.degraded = true;
        continue;
      }
      submit_slot(i, 0);
    }
    std::vector<std::int8_t> verdicts;
    const auto usable = usable_fragment(meta, op_slot, verdicts);
    gcs::BatchStats stats;
    auto completions = batch.await_first(geom.k, &stats, usable);
    result.latency += stats.latency;
    result.saved = stats.saved();
    for (auto& c : completions) {
      if (usable(c)) {
        shards[op_slot[c.op_index]] = std::move(c.result.data);
      } else {
        result.degraded = true;  // outage surprise or corruption
      }
    }
  } else {
    // Phase 1: fetch k fragments in parallel. Providers known to be in
    // outage are skipped up front (a client learns this from its first
    // refused connection and the Cost & Performance Evaluator tracks it),
    // so a known outage costs one parallel round, not two; data slots are
    // preferred so the fast concatenation path applies when possible.
    for (std::size_t i = 0; i < geom.total() && op_slot.size() < geom.k; ++i) {
      if (outage_aware_ && !session.client(clients[i]).provider()->online()) {
        result.degraded = true;
        continue;
      }
      submit_slot(i, 0);
    }
    const std::size_t phase1_ops = op_slot.size();
    gcs::BatchStats stats;
    auto phase1 = batch.await_all(&stats);
    result.latency += stats.latency;

    bool all_fetched_ok = !phase1.empty();
    for (auto& c : phase1) {
      const std::size_t slot = op_slot[c.op_index];
      if (c.ok() && fragment_intact(meta, slot, c.result.data)) {
        shards[slot] = std::move(c.result.data);
      } else {
        // Unreachable — or silently corrupted: a failed integrity check
        // turns the fragment into an erasure and reconstruction takes over.
        all_fetched_ok = false;
        result.degraded = true;
      }
    }
    const bool have_all_data = [&] {
      for (std::size_t i = 0; i < geom.k; ++i) {
        if (!shards[i].has_value()) return false;
      }
      return true;
    }();

    if (all_fetched_ok && have_all_data) {
      // Fast path: fragments that came back as adjacent slices of the
      // writer's arena reassemble in O(1); anything else gathers once.
      auto object = striper_.assemble(meta.size, meta.crc, std::move(shards));
      if (!object.is_ok()) {
        result.status = object.status();
        return result;
      }
      result.status = common::Status::ok();
      result.data = std::move(object).value();
      emit_stripe_span("stripe_read", result.latency,
                       {{"k", static_cast<long long>(geom.k)},
                        {"degraded", result.degraded ? 1 : 0}});
      return result;
    }

    // Phase 2 (only on mid-flight surprises): fetch fragments not already
    // held, from slots not tried in phase 1. Submitting them into the same
    // batch at start_offset = phase-1 completion makes max-over-arrivals
    // reproduce the legacy two-round sum exactly.
    std::size_t present = 0;
    for (const auto& s : shards) present += s.has_value() ? 1 : 0;
    if (present < geom.k) {
      const common::SimDuration phase2_start = result.latency;
      for (std::size_t i = 0; i < geom.total(); ++i) {
        if (shards[i].has_value()) continue;
        if (std::find(op_slot.begin(), op_slot.begin() + static_cast<std::ptrdiff_t>(phase1_ops),
                      i) != op_slot.begin() + static_cast<std::ptrdiff_t>(phase1_ops)) {
          continue;  // already failed in phase 1
        }
        submit_slot(i, phase2_start);
      }
      auto all_ops = batch.await_all(&stats);
      result.latency = stats.latency;
      for (auto& c : all_ops) {
        if (c.op_index < phase1_ops) continue;  // consumed above
        const std::size_t slot = op_slot[c.op_index];
        if (c.ok() && fragment_intact(meta, slot, c.result.data)) {
          shards[slot] = std::move(c.result.data);
        }
      }
    }
  }

  auto object = striper_.assemble(meta.size, meta.crc, std::move(shards));
  if (!object.is_ok()) {
    result.status = object.status();
    return result;
  }
  result.status = common::Status::ok();
  result.data = std::move(object).value();
  emit_stripe_span("stripe_read", result.latency,
                   {{"k", static_cast<long long>(geom.k)},
                    {"degraded", result.degraded ? 1 : 0},
                    {"saved_ns", static_cast<long long>(result.saved)}});
  return result;
}

WriteResult ErasureScheme::update_range(gcs::MultiCloudSession& session,
                                        const meta::FileMeta& meta,
                                        std::uint64_t offset,
                                        common::ByteSpan new_bytes,
                                        bool* rmw_used,
                                        std::vector<std::string>* unreachable) const {
  WriteResult result;
  const auto& geom = striper_.geometry();
  if (!common::range_within(offset, new_bytes.size(), meta.size)) {
    result.status = common::invalid_argument("update range exceeds file size");
    return result;
  }
  const std::uint64_t shard_size = meta.shard_size;
  const std::size_t first_shard =
      static_cast<std::size_t>(offset / shard_size);
  const std::size_t last_shard = new_bytes.empty()
          ? first_shard
          : static_cast<std::size_t>((offset + new_bytes.size() - 1) / shard_size);

  if (first_shard != last_shard || first_shard >= geom.k) {
    // Multi-fragment update: read-whole, patch, re-stripe.
    if (rmw_used != nullptr) *rmw_used = false;
    return restripe_patched(*this, session, meta, offset, new_bytes,
                            unreachable, 0);
  }

  if (rmw_used != nullptr) *rmw_used = true;

  // RMW path at *block* granularity — the paper's RAID5 small-update cost
  // model: read the old data block and the old parity block(s), compute
  // the delta, write the new blocks back. (1+m) range reads + (1+m) range
  // writes = 2R + 2W for RAID5. Range reads are plain HTTP; range writes
  // model block overwrites in a block-chunked layout (DESIGN.md §2).
  const auto clients = slot_clients(session, meta);
  const std::size_t in_shard =
      static_cast<std::size_t>(offset - first_shard * shard_size);
  const std::uint64_t block_len = new_bytes.size();

  // Slot of each phase op: the updated data fragment, then the parities.
  std::vector<std::size_t> slots{first_shard};
  for (std::size_t p = 0; p < geom.m; ++p) slots.push_back(geom.k + p);
  gcs::AsyncBatch reads(session);
  for (std::size_t slot : slots) {
    reads.submit(gcs::CloudOp::get_range(
        clients[slot], {container_, meta.locations[slot].object_name},
        in_shard, block_len));
  }
  gcs::BatchStats phase;
  auto gets = reads.await_all(&phase);
  result.latency += phase.latency;
  for (const auto& g : gets) {
    if (!g.ok()) {
      // A needed fragment is unreachable: fall back to a degraded read +
      // full re-stripe (the expensive path the paper describes), charged
      // after the failed range-read round.
      if (rmw_used != nullptr) *rmw_used = false;
      return restripe_patched(*this, session, meta, offset, new_bytes,
                              unreachable, result.latency);
    }
  }

  // The code is linear bytewise, so parity deltas apply per block.
  const common::Buffer& old_block = gets[0].result.data;
  erasure::ReedSolomon rs(geom.k, geom.m);
  auto deltas = rs.parity_delta(first_shard, old_block, new_bytes);
  assert(deltas.is_ok());
  std::vector<common::Bytes> new_parity_blocks;
  new_parity_blocks.reserve(geom.m);
  for (std::size_t p = 0; p < geom.m; ++p) {
    common::Bytes block = std::move(gets[1 + p].result.data).into_bytes();
    const auto& d = deltas.value()[p];
    for (std::size_t i = 0; i < block.size(); ++i) block[i] ^= d[i];
    new_parity_blocks.push_back(std::move(block));
  }

  gcs::AsyncBatch writes(session);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    writes.submit(gcs::CloudOp::put_range(
        clients[slots[i]], {container_, meta.locations[slots[i]].object_name},
        in_shard,
        i == 0 ? new_bytes : common::ByteSpan(new_parity_blocks[i - 1])));
  }
  auto puts = writes.await_all(&phase);
  result.latency += phase.latency;
  for (const auto& p : puts) {
    if (!p.ok()) {
      result.status = p.result.status;
      return result;
    }
  }

  result.status = common::Status::ok();
  result.meta = meta;
  result.meta.version = meta.version + 1;
  // Whole-object and modified-fragment digests are unknown after an
  // in-place block update; mark them absent (0 = sentinel) rather than
  // re-reading whole fragments.
  result.meta.crc = 0;
  if (result.meta.fragment_crcs.size() == geom.total()) {
    result.meta.fragment_crcs[first_shard] = 0;
    for (std::size_t p = 0; p < geom.m; ++p) {
      result.meta.fragment_crcs[geom.k + p] = 0;
    }
  }
  return result;
}

RemoveResult ErasureScheme::remove(gcs::MultiCloudSession& session,
                                   const meta::FileMeta& meta) const {
  return remove_fragments(session, container_, meta);
}

common::Result<std::vector<std::pair<std::string, common::Buffer>>>
ErasureScheme::rebuild_fragments_for(gcs::MultiCloudSession& session,
                                     const meta::FileMeta& meta,
                                     const std::string& provider,
                                     common::SimDuration* latency) const {
  const auto& geom = striper_.geometry();
  const auto clients = slot_clients(session, meta);

  // Fetch every fragment not on `provider`.
  std::vector<std::optional<common::Bytes>> shards(geom.total());
  std::vector<std::size_t> batch_slots;
  std::vector<std::size_t> target_slots;
  for (std::size_t i = 0; i < geom.total(); ++i) {
    if (meta.locations[i].provider == provider) {
      target_slots.push_back(i);
      continue;
    }
    if (clients[i] == static_cast<std::size_t>(-1)) continue;
    batch_slots.push_back(i);
  }
  if (target_slots.empty()) {
    return std::vector<std::pair<std::string, common::Buffer>>{};
  }

  gcs::AsyncBatch batch(session);
  for (std::size_t slot : batch_slots) {
    batch.submit(gcs::CloudOp::get(
        clients[slot], {container_, meta.locations[slot].object_name}));
  }

  // Reconstruction needs any k intact survivors; under kFastestK the
  // rebuild is charged at the k-th usable arrival.
  std::vector<std::int8_t> verdicts;
  const auto usable = usable_fragment(meta, batch_slots, verdicts);
  gcs::BatchStats stats;
  auto gets = read_strategy_ == ErasureReadStrategy::kFastestK
                  ? batch.await_first(geom.k, &stats, usable)
                  : batch.await_all(&stats);
  if (latency != nullptr) *latency += stats.latency;
  for (auto& c : gets) {
    // Corrupt survivors must not poison the rebuilt fragments.
    if (usable(c)) {
      shards[batch_slots[c.op_index]] = std::move(c.result.data).into_bytes();
    }
  }

  erasure::ReedSolomon rs(geom.k, geom.m);
  if (auto st = rs.reconstruct(shards); !st.is_ok()) return st;

  std::vector<std::pair<std::string, common::Buffer>> out;
  out.reserve(target_slots.size());
  for (std::size_t slot : target_slots) {
    out.emplace_back(meta.locations[slot].object_name,
                     common::Buffer::from(std::move(*shards[slot])));
  }
  return out;
}

}  // namespace hyrd::dist
