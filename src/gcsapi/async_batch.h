// AsyncBatch: the completion-ordered async engine under the GCS-API layer.
//
// A blocking fan-out's virtual latency is the max over every member —
// correct for "wait for all", but a redundancy scheme rarely needs all:
// RS(k,m) reads need the fastest k shards, a replicated read needs one
// good replica, and a quorum write (DepSky) needs the quorum-th durable
// copy. AsyncBatch submits each op to the session pool individually and
// lets the caller aggregate by *order statistic* as well as by max:
//
//   arrival(op) = op.start_offset + result.latency      (virtual time)
//
//   await_all    latency = max arrival over non-cancelled ops (the
//                wait-for-all fan-out; results in input order)
//   await_first  completes once `need` usable ops landed, cancels the
//                stragglers still unresolved after a real-time grace
//                period, latency = need-th smallest usable arrival
//   await_quorum write-side: every op still runs to real completion
//                (durability + failure logging preserved); only the *ack*
//                latency is the quorum-th successful arrival
//
// `start_offset` is the op's virtual submit time relative to the batch
// epoch. Late submissions model sequential failover and phase-2 repair
// rounds: submitting a retry at offset = (failed op's arrival) makes
// max-over-arrivals reproduce the legacy sum-of-latencies chain exactly.
//
// Cancellation is cooperative (see cloud/cancel.h): each op owns a flag the
// pool task installs as a CancelScope; SimProvider aborts at its next check
// and the op resolves with StatusCode::kCancelled, zero latency, and no
// billing. Ops cancelled before dispatch never reach the provider at all.
// The destructor cancels and then joins every outstanding task, so a batch
// never leaks pool work or lets a task outlive the buffers its ops span.
//
// Inline (discrete-event) mode: when the batch is constructed under a
// common::VirtualScope — i.e. the caller is a tenant state machine being
// stepped by the sim/ event loop — submit() executes the op synchronously
// on the calling thread instead of dispatching it to the session pool,
// with the scope re-installed at now + start_offset so SimProvider's
// congestion queue sees the correct virtual arrival. Virtual-time
// aggregation is unchanged (arrivals and order statistics are computed
// identically); what changes is the real-time shape: every await_* and
// next() returns without blocking, so a single OS thread can step through
// millions of tenants' batches deterministically. Two semantic deltas,
// both deliberate: real-stall hedges (next_for) never fire — a
// single-threaded simulation has no wedged threads — and stragglers that
// an await_first would have torn down mid-flight have already completed,
// so they are billed as completed requests rather than cancelled ones.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "cloud/object_store.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/virtual_time.h"

#include <atomic>
#include <condition_variable>

namespace hyrd::gcs {

class MultiCloudSession;

/// One operation in a batch. Build with the static factories.
struct CloudOp {
  enum class Kind { kPut, kGet, kGetRange, kPutRange, kRemove };

  Kind kind = Kind::kGet;
  std::size_t client_index = 0;
  cloud::ObjectKey key;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  // Puts only. An owning Buffer keeps the payload alive for the batch's
  // lifetime (refbump, zero-copy). The ByteSpan factory overloads wrap a
  // borrow()ed view: that memory must outlive the batch, as before.
  common::Buffer data{};
  common::SimDuration start_offset = 0;

  static CloudOp put(std::size_t client, cloud::ObjectKey key,
                     common::Buffer data, common::SimDuration start = 0) {
    return {Kind::kPut, client, std::move(key), 0, 0, std::move(data), start};
  }
  static CloudOp put(std::size_t client, cloud::ObjectKey key,
                     common::ByteSpan data, common::SimDuration start = 0) {
    return put(client, std::move(key), common::Buffer::borrow(data), start);
  }
  static CloudOp get(std::size_t client, cloud::ObjectKey key,
                     common::SimDuration start = 0) {
    return {Kind::kGet, client, std::move(key), 0, 0, {}, start};
  }
  static CloudOp get_range(std::size_t client, cloud::ObjectKey key,
                           std::uint64_t offset, std::uint64_t length,
                           common::SimDuration start = 0) {
    return {Kind::kGetRange, client, std::move(key), offset, length, {}, start};
  }
  static CloudOp put_range(std::size_t client, cloud::ObjectKey key,
                           std::uint64_t offset, common::Buffer data,
                           common::SimDuration start = 0) {
    return {Kind::kPutRange, client, std::move(key), offset, 0,
            std::move(data), start};
  }
  static CloudOp put_range(std::size_t client, cloud::ObjectKey key,
                           std::uint64_t offset, common::ByteSpan data,
                           common::SimDuration start = 0) {
    return put_range(client, std::move(key), offset,
                     common::Buffer::borrow(data), start);
  }
  static CloudOp remove(std::size_t client, cloud::ObjectKey key,
                        common::SimDuration start = 0) {
    return {Kind::kRemove, client, std::move(key), 0, 0, {}, start};
  }
};

/// A resolved op. `result` is the full GetResult; for non-GET kinds the
/// data member is empty and callers slice the OpResult base.
struct CloudCompletion {
  std::size_t op_index = 0;
  cloud::GetResult result;
  common::SimDuration arrival = 0;  // start_offset + result.latency
  bool cancelled = false;           // torn down (pre- or mid-dispatch)

  [[nodiscard]] bool ok() const { return !cancelled && result.status.is_ok(); }
};

/// Aggregate accounting for one await_* call.
struct BatchStats {
  common::SimDuration latency = 0;      // what the caller is charged
  common::SimDuration max_latency = 0;  // what await_all would have charged
  std::size_t completed = 0;            // ops that resolved (incl. failures)
  std::size_t succeeded = 0;
  std::size_t cancelled = 0;

  /// Virtual time early completion shaved off versus waiting for the tail.
  /// Lower bound: cancelled stragglers never report an arrival at all.
  [[nodiscard]] common::SimDuration saved() const {
    return max_latency > latency ? max_latency - latency : 0;
  }
};

class AsyncBatch {
 public:
  /// Captures the active VirtualScope (if any) as the batch's virtual
  /// epoch: all ops of one batch belong to the client call that created
  /// it, at that call's virtual instant.
  explicit AsyncBatch(MultiCloudSession& session)
      : session_(session), sim_ctx_(common::VirtualScope::snapshot()) {}
  ~AsyncBatch();  // cancels stragglers and joins every task

  /// True when ops run inline on the submitting thread (discrete-event
  /// mode) instead of on the session pool.
  [[nodiscard]] bool inline_mode() const { return sim_ctx_.has_value(); }

  AsyncBatch(const AsyncBatch&) = delete;
  AsyncBatch& operator=(const AsyncBatch&) = delete;

  /// Schedules `op` on the session pool; returns its op_index. Late
  /// submission (after earlier ops resolved, or after cancel_remaining)
  /// is allowed — new ops are not affected by prior cancellations.
  std::size_t submit(CloudOp op);

  [[nodiscard]] std::size_t submitted() const;
  [[nodiscard]] std::size_t pending() const;  // submitted - resolved

  /// Next not-yet-delivered completion in real resolution order; blocks
  /// until one resolves. nullopt when every submitted op was delivered.
  std::optional<CloudCompletion> next();

  /// As next(), but gives up after `timeout_ms` of real (wall-clock) time
  /// — the scheme layer's "is this request *really* stalled?" probe.
  std::optional<CloudCompletion> next_for(int timeout_ms);

  /// Flags every unresolved op cancelled. Undispatched ops resolve
  /// immediately; in-flight ops resolve at the provider's next check.
  void cancel_remaining();

  using UsableFn = std::function<bool(const CloudCompletion&)>;

  /// Waits for all ops. Latency = max arrival over non-cancelled ops
  /// (failures included).
  /// Returns completions indexed by op_index.
  std::vector<CloudCompletion> await_all(BatchStats* stats = nullptr);

  /// Waits until `need` completions satisfying `usable` (default: ok())
  /// have resolved — or everything resolved — then gives the rest a short
  /// real-time grace period and cancels and drains whatever is still
  /// unresolved (a wedged request). Latency = need-th smallest usable
  /// arrival, so the winners are the virtually fastest ops, not the first
  /// to finish on the pool; falls back to await_all's max when fewer than
  /// `need` usable ops exist.
  std::vector<CloudCompletion> await_first(std::size_t need,
                                           BatchStats* stats = nullptr,
                                           UsableFn usable = {});

  /// Write-side aggregation: every op runs to real completion (durability
  /// and failure logging are never sacrificed) and none is cancelled; only
  /// the *ack* latency is an order statistic: the `quorum`-th smallest
  /// successful arrival, or await_all's max when fewer succeeded.
  std::vector<CloudCompletion> await_quorum(std::size_t quorum,
                                            BatchStats* stats = nullptr);

 private:
  struct OpRec {
    CloudOp op;
    std::atomic<bool> cancel{false};
    bool resolved = false;
    bool delivered = false;
    CloudCompletion completion;
  };

  void run_op(std::size_t index);
  void wait_all_resolved(std::unique_lock<std::mutex>& lock);
  std::vector<CloudCompletion> snapshot_locked();
  void fill_stats_locked(BatchStats* stats, common::SimDuration latency) const;

  MultiCloudSession& session_;
  const std::optional<common::VirtualContext> sim_ctx_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<OpRec> ops_;  // deque: stable addresses across submit()
  std::deque<std::size_t> ready_;  // resolved, not yet delivered via next()
  std::size_t resolved_count_ = 0;
};

}  // namespace hyrd::gcs
