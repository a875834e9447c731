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
// candidate once. The random kinds draw over this list.
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

// Residual score: free bytes per unit of recent load, so diverted replicas
// steer away from nodes that are both full and hot.
double ResidualScore(const PlacementCandidate& c) {
  return static_cast<double>(c.free_bytes) / (1.0 + static_cast<double>(c.recent_load));
}

// Sarshar–Roychowdhury random structure: an eligible node with probability
// proportional to its advertised capacity, so large nodes accumulate
// proportionally more content (uniform when every capacity is zero).
std::optional<size_t> DrawByCapacity(std::span<const PlacementCandidate> candidates,
                                     DiversionEligibility& eligibility,
                                     PlacementEntropy& entropy) {
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

}  // namespace

constexpr struct {
  PlacementKind kind;
  const char* name;
} kKindNames[] = {
    {PlacementKind::kKClosestDiversion, "kclosest"},
    {PlacementKind::kKClosestRandom, "kclosest-random"},
    {PlacementKind::kKClosestFirstFit, "kclosest-first-fit"},
    {PlacementKind::kResidualPerformance, "residual"},
    {PlacementKind::kRandomizedCacheSize, "random"},
};

const char* PlacementKindName(PlacementKind kind) {
  for (const auto& entry : kKindNames) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "unknown";
}

std::optional<PlacementKind> PlacementKindFromName(const char* name) {
  if (name == nullptr) {
    return std::nullopt;
  }
  for (const auto& entry : kKindNames) {
    if (std::strcmp(name, entry.name) == 0) {
      return entry.kind;
    }
  }
  return std::nullopt;
}

bool PlacementPolicy::ShouldStorePrimary(const PlacementCandidate& self,
                                         bool policy_accepts) const {
  // Only the residual kind sheds a hot primary into the leaf set; shedding
  // tightens the threshold verdict and never overrides a reject.
  bool sheds = kind == PlacementKind::kResidualPerformance && shed_load != 0 &&
               self.recent_load >= shed_load;
  return policy_accepts && !sheds;
}

// Given the same candidate order and entropy source, each kind reproduces
// the filter-then-pick choice draw for draw: the ranked kinds keep the
// *first* maximum among the eligible (std::max_element semantics), and the
// random kinds consume exactly one draw when any candidate is eligible.
std::optional<size_t> PlacementPolicy::ChooseDiversionTarget(
    std::span<const PlacementCandidate> candidates, DiversionEligibility& eligibility,
    PlacementEntropy& entropy) const {
  switch (kind) {
    case PlacementKind::kKClosestDiversion:
      // Paper policy: the eligible node with maximal remaining free space.
      return FirstEligibleByRank(candidates, eligibility,
                                 [](const PlacementCandidate& c) { return c.free_bytes; });
    case PlacementKind::kKClosestRandom: {
      std::vector<size_t> eligible = EligibleIndices(candidates, eligibility);
      if (eligible.empty()) {
        return std::nullopt;
      }
      return eligible[entropy.NextBelow(eligible.size())];
    }
    case PlacementKind::kKClosestFirstFit:
      return FirstEligibleByRank(candidates, eligibility, [](const PlacementCandidate& c) {
        return c.accepts_diverted ? 1 : 0;
      });
    case PlacementKind::kResidualPerformance:
      return FirstEligibleByRank(candidates, eligibility, ResidualScore);
    case PlacementKind::kRandomizedCacheSize:
      return DrawByCapacity(candidates, eligibility, entropy);
  }
  return std::nullopt;
}

}  // namespace past
