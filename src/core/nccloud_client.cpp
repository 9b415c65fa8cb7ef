#include "core/nccloud_client.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/checksum.h"
#include "common/copy_meter.h"
#include "dist/scheme.h"
#include "gcsapi/async_batch.h"

namespace hyrd::core {

NCCloudClient::NCCloudClient(gcs::MultiCloudSession& session,
                             std::uint64_t seed, std::string data_container)
    : StorageClient(session, std::move(data_container), std::nullopt),
      code_(session.client_count(), 2),
      rng_(seed) {
  targets_.resize(session_.client_count());
  std::iota(targets_.begin(), targets_.end(), 0);
  (void)session_.ensure_container_everywhere(container_);
}

std::string NCCloudClient::chunk_name(const std::string& path,
                                      std::size_t index) const {
  return dist::fragment_object_name(path, 'f', index);
}

dist::WriteResult NCCloudClient::write_object(
    const std::string& path, common::Buffer data,
    std::vector<std::string>& unreachable) {
  dist::WriteResult result;

  erasure::Fmsr::Encoded enc;
  {
    std::lock_guard lock(coeff_mu_);
    enc = code_.encode(data, rng_);
  }

  const std::size_t cpn = code_.chunks_per_node();
  gcs::AsyncBatch batch(session_);
  for (std::size_t c = 0; c < code_.total_chunks(); ++c) {
    batch.submit(gcs::CloudOp::put(c / cpn, {container_, chunk_name(path, c)},
                                   common::ByteSpan(enc.chunks[c])));
  }
  gcs::BatchStats stats;
  auto puts = batch.await_all(&stats);
  result.latency = stats.latency;

  // A node "landed" when all its chunks did; need >= k nodes for the
  // object to be decodable.
  std::size_t landed_nodes = 0;
  for (std::size_t node = 0; node < code_.nodes(); ++node) {
    bool ok = true;
    for (std::size_t c = 0; c < cpn; ++c) {
      ok = ok && puts[node * cpn + c].ok();
    }
    if (ok) ++landed_nodes;
  }
  if (landed_nodes < code_.data_nodes()) {
    result.status = common::unavailable("fewer than k nodes reachable");
    return result;
  }

  meta::FileMeta m;
  m.path = path;
  m.size = data.size();
  m.redundancy = meta::RedundancyKind::kErasure;
  m.crc = enc.object_crc;
  m.stripe_k = static_cast<std::uint32_t>(code_.data_nodes());
  m.stripe_m = static_cast<std::uint32_t>(code_.nodes() - code_.data_nodes());
  m.shard_size = enc.chunk_size;
  for (std::size_t c = 0; c < code_.total_chunks(); ++c) {
    const std::string& provider = session_.client(c / cpn).provider_name();
    m.locations.push_back({provider, chunk_name(path, c)});
    m.fragment_crcs.push_back(common::crc32c(enc.chunks[c]));
    if (!puts[c].ok()) unreachable.push_back(provider);
  }
  {
    std::lock_guard lock(coeff_mu_);
    coefficients_[path] = enc.coefficients;
  }
  result.status = common::Status::ok();
  result.meta = std::move(m);
  return result;
}

common::SimDuration NCCloudClient::persist_metadata(const std::string& dir) {
  return replicate_block(dir, store_.serialize_directory(dir), container_,
                         targets_);
}

dist::ReadResult NCCloudClient::read_object(const meta::FileMeta& m) {
  dist::ReadResult result;
  erasure::Matrix coeffs;
  {
    std::lock_guard lock(coeff_mu_);
    auto it = coefficients_.find(m.path);
    if (it == coefficients_.end()) {
      result.status = common::internal_error("missing coefficients for " +
                                             m.path);
      return result;
    }
    coeffs = it->second;
  }

  // Choose k nodes: online, expected-fastest first; on failure walk
  // through the remaining pairs.
  const std::size_t cpn = code_.chunks_per_node();
  const auto order = dist::order_by_expected_read_latency(
      session_, targets_, m.shard_size * cpn);

  std::vector<std::size_t> preferred;
  std::vector<std::size_t> fallback;
  for (std::size_t node : order) {
    (session_.client(node).provider()->online() ? preferred : fallback)
        .push_back(node);
    if (!session_.client(node).provider()->online()) result.degraded = true;
  }
  preferred.insert(preferred.end(), fallback.begin(), fallback.end());

  // Try node subsets of size k in preference order (lexicographic over
  // the ranked list — at n=4, k=2 that is at most 6 pairs).
  for (std::size_t a = 0; a < preferred.size(); ++a) {
    for (std::size_t b = a + 1; b < preferred.size(); ++b) {
      gcs::AsyncBatch batch(session_);
      std::vector<std::size_t> indices;
      for (std::size_t node : {preferred[a], preferred[b]}) {
        for (std::size_t c = 0; c < cpn; ++c) {
          const std::size_t idx = node * cpn + c;
          batch.submit(gcs::CloudOp::get(
              node, {container_, m.locations[idx].object_name}));
          indices.push_back(idx);
        }
      }
      gcs::BatchStats stats;
      auto gets = batch.await_all(&stats);
      result.latency += stats.latency;

      std::vector<common::Bytes> chunks;
      bool ok = true;
      for (std::size_t j = 0; j < gets.size(); ++j) {
        if (!gets[j].ok() ||
            (m.fragment_crcs[indices[j]] != 0 &&
             common::crc32c(gets[j].result.data) !=
                 m.fragment_crcs[indices[j]])) {
          ok = false;
          break;
        }
        chunks.push_back(std::move(gets[j].result.data).into_bytes());
      }
      if (!ok) {
        result.degraded = true;
        continue;
      }
      auto decoded = code_.decode(coeffs, indices, chunks, m.size, m.crc);
      if (!decoded.is_ok()) {
        result.degraded = true;
        continue;
      }
      result.status = common::Status::ok();
      result.data = common::Buffer::from(std::move(decoded).value());
      return result;
    }
  }
  result.status = common::data_loss("no decodable node pair for " + m.path);
  return result;
}

dist::WriteResult NCCloudClient::update_object(
    const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
    std::vector<std::string>& unreachable) {
  // F-MSR has no partial-update path: read, patch, re-encode everything
  // (Table I: "Low for small updates"). The read is a full get.
  auto whole = do_get(m.path);
  dist::WriteResult result;
  if (!whole.status.is_ok()) {
    result.status = whole.status;
    result.latency = whole.latency;
    return result;
  }
  common::Bytes patched = std::move(whole.data).into_bytes();
  common::count_copied_bytes(data.size());
  std::memcpy(patched.data() + offset, data.data(), data.size());
  result = write_object(m.path, common::Buffer::from(std::move(patched)),
                        unreachable);
  result.latency += whole.latency;
  return result;
}

dist::RemoveResult NCCloudClient::remove_object(const meta::FileMeta& m) {
  {
    std::lock_guard lock(coeff_mu_);
    coefficients_.erase(m.path);
  }
  return StorageClient::remove_object(m);
}

common::Status NCCloudClient::rebuild_on(const meta::FileMeta& m,
                                         std::size_t node,
                                         common::SimDuration& latency) {
  const std::size_t cpn = code_.chunks_per_node();

  // Plan the functional repair, download exactly the planned chunks
  // (one per survivor — the NCCloud bandwidth saving), regenerate, push.
  erasure::Fmsr::RepairPlan plan;
  {
    std::lock_guard lock(coeff_mu_);
    const auto it = coefficients_.find(m.path);
    if (it == coefficients_.end()) {
      return common::failed_precondition("no coefficients for " + m.path);
    }
    auto planned = code_.plan_repair(it->second, node, rng_);
    if (!planned.is_ok()) return planned.status();
    plan = std::move(planned).value();
  }
  gcs::AsyncBatch batch(session_);
  for (std::size_t idx : plan.survivor_chunk_indices) {
    batch.submit(gcs::CloudOp::get(
        idx / cpn, {container_, m.locations[idx].object_name}));
  }
  gcs::BatchStats stats;
  auto gets = batch.await_all(&stats);
  latency += stats.latency;
  std::vector<common::Bytes> survivor_chunks;
  for (auto& g : gets) {
    if (!g.ok()) return g.result.status;
    survivor_chunks.push_back(std::move(g.result.data).into_bytes());
  }

  const auto new_chunks = code_.execute_repair(plan, survivor_chunks);
  meta::FileMeta updated = m;
  common::SimDuration push_latency = 0;
  for (std::size_t c = 0; c < cpn; ++c) {
    const std::size_t idx = node * cpn + c;
    auto r = session_.client(node).put(
        {container_, m.locations[idx].object_name}, new_chunks[c]);
    push_latency = std::max(push_latency, r.latency);
    if (!r.ok()) {
      latency += push_latency;
      return r.status;
    }
    updated.fragment_crcs[idx] = common::crc32c(new_chunks[c]);
  }
  latency += push_latency;
  // Committed only once every chunk of the node landed: a partial push
  // leaves the old CRCs and coefficients, which still decode from the
  // surviving nodes.
  store_.upsert(updated);
  {
    std::lock_guard lock(coeff_mu_);
    coefficients_[m.path] = plan.new_coefficients;
  }
  return common::Status::ok();
}

}  // namespace hyrd::core
