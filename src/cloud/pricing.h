// Cloud price schedules, modelled exactly after the paper's Table II
// (monthly price plans in USD for the China region, September 10th 2014).
//
// Real providers price storage and egress in usage tiers — the paper
// explicitly takes "the prices from the first chargeable usage tier"
// (storage within 1 TB/month on S3, egress between 1 GB and 10 TB).
// TieredRate models the full ladder; the standard profiles use flat
// first-tier rates so costs match the paper's methodology.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/object_store.h"

namespace hyrd::cloud {

/// Marginal usage tier: the rate applies to bytes up to `upto_bytes`
/// (cumulative); the final tier should use kUnbounded.
struct RateTier {
  std::uint64_t upto_bytes;
  double rate_per_gb;
};

class TieredRate {
 public:
  static constexpr std::uint64_t kUnbounded =
      static_cast<std::uint64_t>(-1);

  TieredRate() = default;
  /// Tiers must be in ascending `upto_bytes` order.
  explicit TieredRate(std::vector<RateTier> tiers) : tiers_(std::move(tiers)) {}

  [[nodiscard]] bool empty() const { return tiers_.empty(); }
  [[nodiscard]] const std::vector<RateTier>& tiers() const { return tiers_; }

  /// Marginal cost of `bytes` of usage: each slice of usage is billed at
  /// its own tier's rate (how S3-style ladders work).
  [[nodiscard]] double cost(std::uint64_t bytes) const {
    double total = 0.0;
    std::uint64_t billed = 0;
    for (const auto& tier : tiers_) {
      if (billed >= bytes) break;
      const std::uint64_t ceiling =
          tier.upto_bytes == kUnbounded ? bytes : std::min(bytes, tier.upto_bytes);
      if (ceiling > billed) {
        total += tier.rate_per_gb * static_cast<double>(ceiling - billed) / 1e9;
        billed = ceiling;
      }
    }
    return total;
  }

  /// Effective first-tier rate (what Table II quotes).
  [[nodiscard]] double first_tier_rate() const {
    return tiers_.empty() ? 0.0 : tiers_.front().rate_per_gb;
  }

 private:
  std::vector<RateTier> tiers_;
};

struct PriceSchedule {
  double storage_gb_month = 0.0;    // $ per decimal GB stored per month
  double data_in_gb = 0.0;          // $ per GB uploaded
  double data_out_gb = 0.0;         // $ per GB downloaded to Internet
  double put_class_per_10k = 0.0;   // $ per 10K Put/Copy/Post/List txns
  double get_class_per_10k = 0.0;   // $ per 10K Get & other txns

  // Optional full tier ladders; when empty the flat first-tier rates
  // above apply (the paper's methodology).
  TieredRate storage_tiers{};
  TieredRate egress_tiers{};

  [[nodiscard]] double storage_cost(std::uint64_t bytes_month) const {
    if (!storage_tiers.empty()) return storage_tiers.cost(bytes_month);
    return storage_gb_month * static_cast<double>(bytes_month) / 1e9;
  }
  [[nodiscard]] double ingress_cost(std::uint64_t bytes) const {
    return data_in_gb * static_cast<double>(bytes) / 1e9;
  }
  [[nodiscard]] double egress_cost(std::uint64_t bytes) const {
    if (!egress_tiers.empty()) return egress_tiers.cost(bytes);
    return data_out_gb * static_cast<double>(bytes) / 1e9;
  }
  [[nodiscard]] double txn_cost(OpKind op, std::uint64_t count) const {
    const double per_10k =
        is_put_class(op) ? put_class_per_10k : get_class_per_10k;
    return per_10k * static_cast<double>(count) / 1e4;
  }
};

/// Provider service orientation derived by the Cost & Performance Evaluator
/// (Table II bottom row): a provider can be cost-oriented, performance-
/// oriented, or both (the paper classifies Aliyun as both).
struct ProviderCategory {
  bool cost_oriented = false;
  bool performance_oriented = false;

  [[nodiscard]] std::string str() const {
    if (cost_oriented && performance_oriented) return "both";
    if (cost_oriented) return "cost-oriented";
    if (performance_oriented) return "performance-oriented";
    return "uncategorized";
  }
};

}  // namespace hyrd::cloud
