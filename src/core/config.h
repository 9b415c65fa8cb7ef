// HyRD configuration knobs (paper §III-C design choices).
#pragma once

#include <cstdint>

#include "dist/erasure_scheme.h"
#include "dist/replication.h"
#include "erasure/striper.h"

namespace hyrd::core {

struct HyRDConfig {
  /// File-size threshold separating small (replicated) from large
  /// (erasure-coded) files. The paper's sensitivity study picks 1 MB.
  std::uint64_t large_file_threshold = 1u << 20;

  /// Replication level for metadata and small files. The paper picks 2:
  /// two concurrent cloud outages are extremely rare, and higher levels
  /// cost space and write latency. Configurable per user requirements.
  std::size_t replication_level = 2;

  /// Erasure geometry for large files. The paper's HyRD places large
  /// files on the *cost-oriented* providers only (S3, Aliyun, Rackspace
  /// in the standard fleet) with RAID5 redundancy — three slots, so
  /// k=2, m=1. (RACS, by contrast, stripes k=3+1 over all four clouds.)
  erasure::StripeGeometry geometry{.k = 2, .m = 1};

  /// Optional Fig. 2 optimization: promote frequently read large files to
  /// a full copy on the fastest performance-oriented provider.
  bool hot_promotion_enabled = false;
  std::uint32_t hot_promotion_reads = 4;  // reads before promotion

  /// Optional §VI future-work extension: whole-file deduplication.
  /// Duplicate content is aliased (metadata-only write, no data moved);
  /// fragments are content-addressed and reference-counted; updates to
  /// shared content are copy-on-write. Off by default — the paper notes
  /// client-side dedup "needs careful design considerations" (it costs a
  /// SHA-256 per write and turns in-place updates into full rewrites).
  bool dedup_enabled = false;

  /// Number of probe operations the Cost & Performance Evaluator issues
  /// per provider when measuring access latency.
  std::size_t evaluator_probes = 5;
  std::uint64_t evaluator_probe_size = 256 * 1024;

  /// Provider-side container names.
  const char* data_container = "hyrd-data";
  const char* meta_container = "hyrd-meta";
  const char* probe_container = "hyrd-probe";

  // --- Completion-ordered I/O engine knobs (gcsapi/async_batch.h) ---
  // Reads only: every write, update, remove and metadata persist waits for
  // all its targets. The erasure default reproduces the paper's cost
  // model; kFastestK trades extra requests for tail latency, as
  // quantified in EXPERIMENTS.md.

  /// Erasure read strategy: kPreferredK bills exactly k GETs per normal
  /// read (the paper's cost model); kFastestK requests all reachable
  /// fragments and completes at the k-th fastest usable one.
  dist::ErasureReadStrategy erasure_read_strategy =
      dist::ErasureReadStrategy::kPreferredK;

  /// Hedged-replica-read policy (conservative by default: hedges fire
  /// only under genuine brownouts or real stalls, never under baseline
  /// jitter, so normal-path request counts are unchanged).
  dist::HedgePolicy hedge{};
};

}  // namespace hyrd::core
