// Virtual-time issue context: the seam between the discrete-event
// scale-out engine (sim/) and the provider/middleware layers below it.
//
// The single-client stack never needed to tell a provider *when* (in
// virtual time) a request arrives — every call was its own isolated round
// and latency composed purely client-side. Once 10^5+ tenants share the
// fleet, arrival time matters: SimProvider's congestion queue
// (cloud/congestion.h) turns "requests per virtual second" into queueing
// delay, and that requires each op to carry its virtual arrival instant
// and the identity/weight of the tenant issuing it.
//
// The context travels as a thread-local scope the event loop installs
// around a tenant step. gcsapi::AsyncBatch captures the active context at
// construction and re-installs it around each op with now advanced by the
// op's start_offset, so failover chains and hedges arrive at the provider
// at the right instant.
//
// No scope installed (every pre-existing code path) means no behavior
// change anywhere: providers skip congestion accounting.
#pragma once

#include <cstdint>
#include <optional>

#include "common/clock.h"

namespace hyrd::common {

/// Who is issuing, and at what virtual instant.
struct VirtualContext {
  SimDuration now = 0;        // absolute virtual arrival time
  std::uint64_t tenant = 0;   // fair-queuing flow id
  double weight = 1.0;        // fair-queuing share (>0; bigger = more)
};

/// RAII thread-local installer, nestable (an AsyncBatch re-installs with
/// an advanced `now` around each op).
class VirtualScope {
 public:
  explicit VirtualScope(VirtualContext ctx) : ctx_(ctx), prev_(current_) {
    current_ = this;
  }
  ~VirtualScope() { current_ = prev_; }

  VirtualScope(const VirtualScope&) = delete;
  VirtualScope& operator=(const VirtualScope&) = delete;

  /// The innermost active context on this thread, if any.
  [[nodiscard]] static const VirtualContext* current() {
    return current_ != nullptr ? &current_->ctx_ : nullptr;
  }

  /// Copy of the active context (for capture across an object's lifetime).
  [[nodiscard]] static std::optional<VirtualContext> snapshot() {
    if (current_ == nullptr) return std::nullopt;
    return current_->ctx_;
  }

 private:
  VirtualContext ctx_;
  VirtualScope* prev_;
  inline static thread_local VirtualScope* current_ = nullptr;
};

}  // namespace hyrd::common
