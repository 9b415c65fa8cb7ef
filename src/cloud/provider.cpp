#include "cloud/provider.h"

#include "common/checksum.h"
#include "common/virtual_time.h"

namespace hyrd::cloud {

SimProvider::SimProvider(ProviderConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      latency_(config_.latency),
      billing_(config_.prices),
      rng_(seed ^ common::fnv1a(std::string_view(config_.name))) {}

common::SimDuration SimProvider::charge(OpKind op, std::uint64_t bytes) {
  std::lock_guard lock(mu_);
  billing_.record(op, bytes);
  switch (op) {
    case OpKind::kList: ++counters_.lists; break;
    case OpKind::kGet:
      ++counters_.gets;
      counters_.bytes_read += bytes;
      break;
    case OpKind::kCreate: ++counters_.creates; break;
    case OpKind::kPut:
      ++counters_.puts;
      counters_.bytes_written += bytes;
      break;
    case OpKind::kRemove: ++counters_.removes; break;
  }
  auto sampled = latency_.sample(op, bytes, rng_);
  double scale = latency_scale_.load();
  if (scale != 1.0) {
    sampled = static_cast<common::SimDuration>(
        static_cast<double>(sampled) * scale);
  }
  return sampled;
}

void SimProvider::set_congestion(std::optional<CongestionParams> params) {
  std::lock_guard lock(mu_);
  congestion_ = params ? std::make_unique<FairQueue>(*params) : nullptr;
}

bool SimProvider::congestion_enabled() const {
  std::lock_guard lock(mu_);
  return congestion_ != nullptr;
}

CongestionStats SimProvider::congestion_stats() const {
  std::lock_guard lock(mu_);
  return congestion_ ? congestion_->stats() : CongestionStats{};
}

std::size_t SimProvider::congestion_depth(common::SimDuration now) const {
  std::lock_guard lock(mu_);
  return congestion_ ? congestion_->depth_at(now) : 0;
}

std::optional<OpResult> SimProvider::admit(std::uint64_t bytes,
                                           common::SimDuration* wait) {
  *wait = 0;
  const common::VirtualContext* ctx = common::VirtualScope::current();
  if (ctx == nullptr) return std::nullopt;  // legacy path: infinitely wide
  std::lock_guard lock(mu_);
  if (congestion_ == nullptr) return std::nullopt;
  const auto adm =
      congestion_->admit(ctx->tenant, ctx->weight, ctx->now, bytes);
  if (adm.admitted) {
    *wait = adm.wait;
    return std::nullopt;
  }
  ++counters_.throttled;
  OpResult r;
  r.status = common::resource_exhausted(config_.name + " over capacity");
  // A 429 is cheap for the server and comes back at request-processing
  // speed; the client pays one metadata-op round trip, no money.
  r.latency = common::from_ms(config_.latency.metadata_op_ms);
  return r;
}

OpResult SimProvider::unavailable_result() {
  {
    std::lock_guard lock(mu_);
    ++counters_.rejected_unavailable;
  }
  OpResult r;
  r.status = common::unavailable(config_.name + " is in outage");
  // A client discovers an outage quickly (connect failure); charge one
  // metadata-op worth of virtual time, no money.
  r.latency = common::from_ms(config_.latency.metadata_op_ms);
  return r;
}

OpResult SimProvider::create(const std::string& container) {
  if (!online()) return unavailable_result();
  if (op_hook_) op_hook_(OpKind::kCreate, {container, ""});
  OpResult r;
  r.status = store_.create(container);
  r.latency = charge(OpKind::kCreate, 0);
  return r;
}

OpResult SimProvider::put(const ObjectKey& key, common::Buffer data) {
  if (!online()) return unavailable_result();
  run_op_hook(OpKind::kPut, key);
  common::SimDuration wait = 0;
  if (auto throttled = admit(data.size(), &wait)) return *throttled;
  OpResult r;
  const std::uint64_t size = data.size();
  r.status = store_.put(key.container, key.name, std::move(data));
  if (r.status.is_ok()) {
    r.bytes_transferred = size;
    r.latency = wait + charge(OpKind::kPut, size);
  } else {
    r.latency = wait + charge(OpKind::kPut, 0);
  }
  return r;
}

GetResult SimProvider::get(const ObjectKey& key) {
  GetResult r;
  if (!online()) {
    static_cast<OpResult&>(r) = unavailable_result();
    return r;
  }
  run_op_hook(OpKind::kGet, key);
  auto res = store_.get(key.container, key.name);
  if (res.is_ok()) {
    common::SimDuration wait = 0;
    if (auto throttled = admit(res.value().size(), &wait)) {
      static_cast<OpResult&>(r) = *throttled;
      return r;
    }
    r.data = std::move(res).value();
    r.bytes_transferred = r.data.size();
    r.latency = wait + charge(OpKind::kGet, r.data.size());
    r.status = common::Status::ok();
  } else {
    r.status = res.status();
    r.latency = charge(OpKind::kGet, 0);
  }
  return r;
}

OpResult SimProvider::remove(const ObjectKey& key) {
  if (!online()) return unavailable_result();
  run_op_hook(OpKind::kRemove, key);
  common::SimDuration wait = 0;
  if (auto throttled = admit(0, &wait)) return *throttled;
  OpResult r;
  r.status = store_.remove(key.container, key.name);
  r.latency = wait + charge(OpKind::kRemove, 0);
  return r;
}

ListResult SimProvider::list(const std::string& container) {
  ListResult r;
  if (!online()) {
    static_cast<OpResult&>(r) = unavailable_result();
    return r;
  }
  if (op_hook_) op_hook_(OpKind::kList, {container, ""});
  auto res = store_.list(container);
  if (res.is_ok()) {
    r.names = std::move(res).value();
    r.status = common::Status::ok();
  } else {
    r.status = res.status();
  }
  r.latency = charge(OpKind::kList, 0);
  return r;
}

GetResult SimProvider::get_range(const ObjectKey& key, std::uint64_t offset,
                                 std::uint64_t length) {
  GetResult r;
  if (!online()) {
    static_cast<OpResult&>(r) = unavailable_result();
    return r;
  }
  run_op_hook(OpKind::kGet, key);
  auto res = store_.get_range(key.container, key.name, offset, length);
  if (res.is_ok()) {
    common::SimDuration wait = 0;
    if (auto throttled = admit(res.value().size(), &wait)) {
      static_cast<OpResult&>(r) = *throttled;
      return r;
    }
    r.data = std::move(res).value();
    r.bytes_transferred = r.data.size();
    r.latency = wait + charge(OpKind::kGet, r.data.size());
    r.status = common::Status::ok();
  } else {
    r.status = res.status();
    r.latency = charge(OpKind::kGet, 0);
  }
  return r;
}

OpResult SimProvider::put_range(const ObjectKey& key, std::uint64_t offset,
                                common::Buffer data) {
  if (!online()) return unavailable_result();
  run_op_hook(OpKind::kPut, key);
  common::SimDuration wait = 0;
  if (auto throttled = admit(data.size(), &wait)) return *throttled;
  OpResult r;
  r.status = store_.put_range(key.container, key.name, offset, data);
  if (r.status.is_ok()) {
    r.bytes_transferred = data.size();
    r.latency = wait + charge(OpKind::kPut, data.size());
  } else {
    r.latency = wait + charge(OpKind::kPut, 0);
  }
  return r;
}

void SimProvider::fail_permanently() {
  // Order matters: mark first, so a concurrent restore attempt racing this
  // call can never re-enable a wiped store.
  permanently_failed_.store(true);
  set_online(false);
  store_.wipe();
}

OpCounters SimProvider::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

void SimProvider::reset_counters() {
  std::lock_guard lock(mu_);
  counters_ = OpCounters{};
}

}  // namespace hyrd::cloud
