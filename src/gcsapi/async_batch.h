// AsyncBatch: the order-statistic fan-out engine under the GCS-API layer.
//
// A blocking fan-out's virtual latency is the max over every member —
// correct for "wait for all", but a redundancy scheme rarely needs all:
// RS(k,m) reads need the fastest k shards, a replicated read needs one
// good replica, and a quorum write (DepSky) needs the quorum-th durable
// copy. AsyncBatch records every op's virtual arrival and lets the caller
// aggregate by *order statistic* as well as by max:
//
//   arrival(op) = op.start_offset + result.latency      (virtual time)
//
//   await_all    latency = max arrival (the wait-for-all fan-out)
//   await_first  latency = need-th smallest usable arrival
//   await_quorum latency = quorum-th smallest successful arrival (the ack;
//                every write still lands or fails and is logged)
//
// One execution model: submit() runs the op at once, on the calling
// thread, and records its completion. Concurrency lives in virtual time,
// not in threads: an op's virtual submit time is `start_offset` past the
// batch epoch, so ops of one batch overlap however they were run. Late
// submissions model sequential failover and phase-2 repair rounds:
// submitting a retry at offset = (failed op's arrival) makes
// max-over-arrivals reproduce the legacy sum-of-latencies chain exactly,
// and a sequential caller reads the op it just submitted via completion().
// Every op runs to completion and is billed, so the await_* calls only
// aggregate, and ops run in submit order, so a batch with several ops to
// one provider draws that provider's latency stream in a fixed order.
//
// Under a common::VirtualScope (a tenant state machine stepped by the sim/
// event loop) the batch captures the scope at construction as its epoch
// and re-installs it at epoch + start_offset around each op, so
// SimProvider's congestion queue sees the op's virtual arrival. Without a
// scope the providers skip congestion accounting and nothing is installed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cloud/object_store.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/virtual_time.h"

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
  // Puts only. The op runs inside submit(), so the payload need only live
  // that long: the ByteSpan factory overloads wrap a borrow()ed view, and
  // a store keeps an owning Buffer by refbump (zero-copy).
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

  [[nodiscard]] bool ok() const { return result.status.is_ok(); }
};

/// Aggregate accounting for one await_* call.
struct BatchStats {
  common::SimDuration latency = 0;      // what the caller is charged
  common::SimDuration max_latency = 0;  // what await_all would have charged
  std::size_t completed = 0;            // ops that resolved (incl. failures)
  std::size_t succeeded = 0;

  /// Virtual time early completion shaved off versus waiting for the tail.
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

  AsyncBatch(const AsyncBatch&) = delete;
  AsyncBatch& operator=(const AsyncBatch&) = delete;

  /// Runs `op` now, on this thread, and records its completion; returns
  /// its op_index. Submission after an await_* is allowed.
  std::size_t submit(CloudOp op);

  /// The completion of op `op_index`, valid until the next submit().
  /// Callers may move its payload out; after an await_* it has been moved
  /// into that call's result.
  [[nodiscard]] CloudCompletion& completion(std::size_t op_index) {
    return done_[op_index];
  }

  using UsableFn = std::function<bool(const CloudCompletion&)>;

  /// Latency = max arrival over every op (failures included).
  /// Returns completions indexed by op_index.
  std::vector<CloudCompletion> await_all(BatchStats* stats = nullptr);

  /// Latency = need-th smallest arrival among completions satisfying
  /// `usable` (default: ok()), so the winners are the virtually fastest
  /// ops; falls back to await_all's max when fewer than `need` are usable.
  std::vector<CloudCompletion> await_first(std::size_t need,
                                           BatchStats* stats = nullptr,
                                           UsableFn usable = {});

  /// Write-side aggregation: the *ack* latency is the `quorum`-th smallest
  /// successful arrival, or await_all's max when fewer succeeded.
  std::vector<CloudCompletion> await_quorum(std::size_t quorum,
                                            BatchStats* stats = nullptr);

 private:
  /// Charges the need-th smallest arrival among completions passing
  /// `counts` (unused when need == 0), or the max arrival when fewer pass;
  /// then hands every completion's payload to the caller.
  std::vector<CloudCompletion> finish(std::size_t need, const UsableFn& counts,
                                      BatchStats* stats);

  MultiCloudSession& session_;
  const std::optional<common::VirtualContext> sim_ctx_;
  std::vector<CloudCompletion> done_;  // indexed by op_index
};

}  // namespace hyrd::gcs
