#include <cstring>
#include <vector>

#include "src/storage/policies.h"

namespace past {
namespace {

// The first eligible candidate in rank order: `score` descending, then
// position ascending. Each round selects the best candidate ranked after the
// last one probed, so it probes exactly 1 + (holders ranked above the pick)
// candidates, or all of them when none is eligible. This is the first
// maximum among the eligible — what a filter-then-scan picks — without
// probing the candidates that rank below it.
template <typename ScoreFn>
std::optional<size_t> FirstEligibleByRank(std::span<const PlacementCandidate> candidates,
                                          DiversionEligibility& eligibility, ScoreFn score) {
  using Score = decltype(score(candidates[0]));
  std::optional<size_t> last;
  Score last_score{};
  for (size_t round = 0; round < candidates.size(); ++round) {
    std::optional<size_t> best;
    Score best_score{};
    for (size_t i = 0; i < candidates.size(); ++i) {
      Score s = score(candidates[i]);
      bool after_last = !last || s < last_score || (s == last_score && i > *last);
      if (after_last && (!best || s > best_score)) {
        best = i;
        best_score = s;
      }
    }
    if (eligibility.Eligible(*best)) {
      return best;
    }
    last = best;
    last_score = best_score;
  }
  return std::nullopt;
}

// Indices of the eligible candidates, in caller order: probes every
// candidate once. The random policies draw over this list.
std::vector<size_t> EligibleIndices(std::span<const PlacementCandidate> candidates,
                                    DiversionEligibility& eligibility) {
  std::vector<size_t> eligible;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (eligibility.Eligible(i)) {
      eligible.push_back(i);
    }
  }
  return eligible;
}

// The paper's scheme, factored out of the formerly inlined decision sites in
// past_network.cc / insert_op.cc. Given the same candidate order and entropy
// source it reproduces the pre-refactor behavior draw-for-draw: the
// kMaxFreeSpace branch keeps the *first* maximum among the eligible
// (std::max_element semantics), kRandom consumes exactly one
// NextBelow(eligible count) draw, and kFirstFit takes the first eligible node
// that would accept, else the first eligible node.
class KClosestDiversion : public PlacementPolicy {
 public:
  explicit KClosestDiversion(DiversionSelection selection) : selection_(selection) {}

  const char* name() const override { return "kclosest"; }

  bool ShouldStorePrimary(const PlacementCandidate&, bool policy_accepts, uint64_t,
                          PlacementEntropy&) const override {
    return policy_accepts;
  }

  std::optional<size_t> ChooseDiversionTarget(std::span<const PlacementCandidate> candidates,
                                              DiversionEligibility& eligibility, uint64_t,
                                              PlacementEntropy& entropy) const override {
    switch (selection_) {
      case DiversionSelection::kMaxFreeSpace:
        // Paper policy: the eligible node with maximal remaining free space.
        return FirstEligibleByRank(candidates, eligibility,
                                   [](const PlacementCandidate& c) { return c.free_bytes; });
      case DiversionSelection::kRandom: {
        std::vector<size_t> eligible = EligibleIndices(candidates, eligibility);
        if (eligible.empty()) {
          return std::nullopt;
        }
        return eligible[entropy.NextBelow(eligible.size())];
      }
      case DiversionSelection::kFirstFit:
        return FirstEligibleByRank(candidates, eligibility, [](const PlacementCandidate& c) {
          return c.accepts_diverted ? 1 : 0;
        });
    }
    return std::nullopt;
  }

 private:
  DiversionSelection selection_;
};

// RPDP-style residual-performance placement: candidates are scored by
// residual capacity discounted by recent load, so diverted replicas steer
// away from nodes that are both full and hot. A primary that is itself hot
// sheds the replica into the leaf set (the diversion path) even when the
// free-space threshold would accept it.
class ResidualPerformance : public PlacementPolicy {
 public:
  explicit ResidualPerformance(uint64_t shed_load) : shed_load_(shed_load) {}

  const char* name() const override { return "residual"; }

  bool ShouldStorePrimary(const PlacementCandidate& self, bool policy_accepts, uint64_t,
                          PlacementEntropy&) const override {
    if (!policy_accepts) {
      return false;
    }
    return shed_load_ == 0 || self.recent_load < shed_load_;
  }

  std::optional<size_t> ChooseDiversionTarget(std::span<const PlacementCandidate> candidates,
                                              DiversionEligibility& eligibility, uint64_t,
                                              PlacementEntropy&) const override {
    // Residual score: free bytes per unit of recent load. Ties keep the
    // earliest candidate so replays are order-stable.
    return FirstEligibleByRank(candidates, eligibility, Score);
  }

 private:
  static double Score(const PlacementCandidate& c) {
    return static_cast<double>(c.free_bytes) / (1.0 + static_cast<double>(c.recent_load));
  }

  uint64_t shed_load_;
};

// Sarshar–Roychowdhury random structure: each diverted replica attaches to
// an eligible node with probability proportional to its advertised capacity,
// so large nodes accumulate proportionally more content — the
// capacity-weighted random graph whose cache-size distribution their
// analysis optimizes.
class RandomizedCacheSize : public PlacementPolicy {
 public:
  const char* name() const override { return "random"; }

  bool ShouldStorePrimary(const PlacementCandidate&, bool policy_accepts, uint64_t,
                          PlacementEntropy&) const override {
    return policy_accepts;
  }

  std::optional<size_t> ChooseDiversionTarget(std::span<const PlacementCandidate> candidates,
                                              DiversionEligibility& eligibility, uint64_t,
                                              PlacementEntropy& entropy) const override {
    std::vector<size_t> eligible = EligibleIndices(candidates, eligibility);
    if (eligible.empty()) {
      return std::nullopt;
    }
    uint64_t total = 0;
    for (size_t i : eligible) {
      total += candidates[i].capacity_bytes;
    }
    if (total == 0) {
      return eligible[entropy.NextBelow(eligible.size())];
    }
    uint64_t draw = entropy.NextBelow(total);
    uint64_t prefix = 0;
    for (size_t i : eligible) {
      prefix += candidates[i].capacity_bytes;
      if (draw < prefix) {
        return i;
      }
    }
    return eligible.back();
  }
};

}  // namespace

const char* PlacementKindName(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kKClosestDiversion:
      return "kclosest";
    case PlacementKind::kResidualPerformance:
      return "residual";
    case PlacementKind::kRandomizedCacheSize:
      return "random";
  }
  return "unknown";
}

std::optional<PlacementKind> PlacementKindFromName(const char* name) {
  if (name == nullptr) {
    return std::nullopt;
  }
  if (std::strcmp(name, "kclosest") == 0) {
    return PlacementKind::kKClosestDiversion;
  }
  if (std::strcmp(name, "residual") == 0) {
    return PlacementKind::kResidualPerformance;
  }
  if (std::strcmp(name, "random") == 0) {
    return PlacementKind::kRandomizedCacheSize;
  }
  return std::nullopt;
}

std::unique_ptr<PlacementPolicy> MakePlacementPolicy(PlacementKind kind,
                                                     const PlacementOptions& options) {
  switch (kind) {
    case PlacementKind::kKClosestDiversion:
      return std::make_unique<KClosestDiversion>(options.diversion_selection);
    case PlacementKind::kResidualPerformance:
      return std::make_unique<ResidualPerformance>(options.residual_shed_load);
    case PlacementKind::kRandomizedCacheSize:
      return std::make_unique<RandomizedCacheSize>();
  }
  return nullptr;
}

}  // namespace past
