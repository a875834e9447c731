// PlacementPolicy unit tests: the k-closest kinds must reproduce the
// paper's decision rules exactly (first-max free space, one draw for
// kclosest-random), and the other kinds' scoring/shedding semantics are
// pinned here so bench_policies ablations stay meaningful across refactors.
// A differential test checks every kind's diversion choice against the
// filter-then-pick reference, draw for draw, and counts its eligibility
// probes.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <utility>
#include <vector>

#include "src/storage/policies.h"

namespace past {
namespace {

// Deterministic entropy that replays a scripted list of raw draws (reduced
// mod bound) and counts how many draws a policy consumed.
class ScriptedEntropy : public PlacementEntropy {
 public:
  explicit ScriptedEntropy(std::vector<uint64_t> draws = {}) : draws_(std::move(draws)) {}

  uint64_t NextBelow(uint64_t bound) override {
    ++calls_;
    if (draws_.empty()) {
      return 0;
    }
    uint64_t raw = draws_[next_ % draws_.size()];
    ++next_;
    return raw % bound;
  }

  size_t calls() const { return calls_; }

 private:
  std::vector<uint64_t> draws_;
  size_t next_ = 0;
  size_t calls_ = 0;
};

// Every candidate may take the replica: no leaf-set member holds the file.
class AllEligible : public DiversionEligibility {
 public:
  bool Eligible(size_t) override { return true; }
};

// A holder mask: candidate i is eligible unless holds[i]. Counts how often
// each candidate is asked.
class MaskEligibility : public DiversionEligibility {
 public:
  explicit MaskEligibility(std::vector<bool> holds)
      : holds_(std::move(holds)), probes_(holds_.size(), 0) {}

  bool Eligible(size_t i) override {
    ++probes_[i];
    return !holds_[i];
  }

  const std::vector<int>& probes() const { return probes_; }
  size_t total() const {
    size_t sum = 0;
    for (int p : probes_) {
      sum += static_cast<size_t>(p);
    }
    return sum;
  }

 private:
  std::vector<bool> holds_;
  std::vector<int> probes_;
};

PlacementCandidate Candidate(uint64_t free_bytes, uint64_t capacity = 0, uint64_t load = 0,
                             bool accepts = true) {
  PlacementCandidate c;
  c.free_bytes = free_bytes;
  c.capacity_bytes = capacity == 0 ? free_bytes : capacity;
  c.recent_load = load;
  c.accepts_diverted = accepts;
  return c;
}

TEST(PlacementKindTest, NamesRoundTrip) {
  const std::pair<PlacementKind, const char*> kinds[] = {
      {PlacementKind::kKClosestDiversion, "kclosest"},
      {PlacementKind::kKClosestRandom, "kclosest-random"},
      {PlacementKind::kKClosestFirstFit, "kclosest-first-fit"},
      {PlacementKind::kResidualPerformance, "residual"},
      {PlacementKind::kRandomizedCacheSize, "random"},
  };
  for (const auto& [kind, name] : kinds) {
    EXPECT_STREQ(PlacementKindName(kind), name);
    std::optional<PlacementKind> parsed = PlacementKindFromName(name);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(PlacementKindFromName("bogus").has_value());
  EXPECT_FALSE(PlacementKindFromName(nullptr).has_value());
}

TEST(KClosestDiversionTest, PrimaryFollowsThresholdVerdictWithoutDraws) {
  // The primary rule takes no entropy at all; a load that would make a
  // residual primary shed changes nothing here.
  PlacementPolicy policy{PlacementKind::kKClosestDiversion, 10};
  EXPECT_TRUE(policy.ShouldStorePrimary(Candidate(1000, 0, 50), true));
  EXPECT_FALSE(policy.ShouldStorePrimary(Candidate(1000), false));
}

TEST(KClosestDiversionTest, MaxFreeSpaceKeepsFirstMaximum) {
  PlacementPolicy policy{PlacementKind::kKClosestDiversion};
  AllEligible all;
  ScriptedEntropy entropy;
  std::vector<PlacementCandidate> eligible = {Candidate(5), Candidate(9), Candidate(9),
                                              Candidate(3)};
  std::optional<size_t> pick = policy.ChooseDiversionTarget(eligible, all, entropy);
  ASSERT_TRUE(pick.has_value());
  // std::max_element semantics: ties resolve to the earliest candidate, so
  // replays are independent of how the tie arose.
  EXPECT_EQ(*pick, 1u);
  EXPECT_EQ(entropy.calls(), 0u);
}

TEST(KClosestDiversionTest, RandomSelectionConsumesExactlyOneDraw) {
  PlacementPolicy policy{PlacementKind::kKClosestRandom};
  AllEligible all;
  ScriptedEntropy entropy({2});
  std::vector<PlacementCandidate> eligible = {Candidate(1), Candidate(2), Candidate(3),
                                              Candidate(4)};
  std::optional<size_t> pick = policy.ChooseDiversionTarget(eligible, all, entropy);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);
  EXPECT_EQ(entropy.calls(), 1u);
}

TEST(KClosestDiversionTest, FirstFitScansInCallerOrder) {
  PlacementPolicy policy{PlacementKind::kKClosestFirstFit};
  AllEligible all;
  ScriptedEntropy entropy;
  std::vector<PlacementCandidate> eligible = {
      Candidate(1, 0, 0, false), Candidate(2, 0, 0, false), Candidate(3, 0, 0, true),
      Candidate(4, 0, 0, true)};
  EXPECT_EQ(policy.ChooseDiversionTarget(eligible, all, entropy), std::optional<size_t>(2));
}

TEST(ResidualPerformanceTest, HotPrimaryShedsIntoLeafSet) {
  PlacementPolicy policy{PlacementKind::kResidualPerformance, 10};
  ScriptedEntropy entropy;
  EXPECT_TRUE(policy.ShouldStorePrimary(Candidate(1000, 0, 9), true));
  EXPECT_FALSE(policy.ShouldStorePrimary(Candidate(1000, 0, 10), true));
  // Shedding only tightens the threshold verdict, never overrides a reject.
  EXPECT_FALSE(policy.ShouldStorePrimary(Candidate(1000, 0, 0), false));
}

TEST(ResidualPerformanceTest, ZeroShedLoadDisablesShedding) {
  PlacementPolicy policy{PlacementKind::kResidualPerformance};
  ScriptedEntropy entropy;
  EXPECT_TRUE(policy.ShouldStorePrimary(Candidate(1000, 0, 1'000'000), true));
}

TEST(ResidualPerformanceTest, DiversionRanksFreeBytesPerUnitLoad) {
  PlacementPolicy policy{PlacementKind::kResidualPerformance};
  AllEligible all;
  ScriptedEntropy entropy;
  // A: 1000 free / (1+9) load = 100. B: 500 free / (1+0) = 500. B wins even
  // though A has more raw space — load discounts it.
  std::vector<PlacementCandidate> eligible = {Candidate(1000, 0, 9), Candidate(500, 0, 0)};
  EXPECT_EQ(policy.ChooseDiversionTarget(eligible, all, entropy), std::optional<size_t>(1));
  // Equal scores keep the earliest candidate (replay order stability).
  std::vector<PlacementCandidate> tied = {Candidate(400, 0, 0), Candidate(400, 0, 0)};
  EXPECT_EQ(policy.ChooseDiversionTarget(tied, all, entropy), std::optional<size_t>(0));
  EXPECT_EQ(entropy.calls(), 0u);
}

TEST(RandomizedCacheSizeTest, DrawsProportionalToCapacity) {
  PlacementPolicy policy{PlacementKind::kRandomizedCacheSize};
  AllEligible all;
  std::vector<PlacementCandidate> eligible = {Candidate(0, 10), Candidate(0, 30),
                                              Candidate(0, 60)};
  // Capacity prefix sums are [10, 40, 100]; a draw lands in the first bucket
  // whose prefix exceeds it.
  struct Case {
    uint64_t draw;
    size_t expect;
  };
  for (const Case& c : std::vector<Case>{{0, 0}, {9, 0}, {10, 1}, {39, 1}, {40, 2}, {99, 2}}) {
    ScriptedEntropy entropy({c.draw});
    std::optional<size_t> pick = policy.ChooseDiversionTarget(eligible, all, entropy);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, c.expect) << "draw " << c.draw;
    EXPECT_EQ(entropy.calls(), 1u);
  }
}

TEST(RandomizedCacheSizeTest, ZeroTotalCapacityFallsBackToUniform) {
  PlacementPolicy policy{PlacementKind::kRandomizedCacheSize};
  AllEligible all;
  std::vector<PlacementCandidate> eligible = {Candidate(0, 0), Candidate(0, 0),
                                              Candidate(0, 0)};
  ScriptedEntropy entropy({1});
  EXPECT_EQ(policy.ChooseDiversionTarget(eligible, all, entropy), std::optional<size_t>(1));
  EXPECT_EQ(entropy.calls(), 1u);
}

TEST(KClosestDiversionTest, MaxFreeSpaceSkipsHoldersInRankOrder) {
  PlacementPolicy policy{PlacementKind::kKClosestDiversion};
  ScriptedEntropy entropy;
  std::vector<PlacementCandidate> candidates = {Candidate(5), Candidate(9), Candidate(7),
                                                Candidate(9)};
  // Candidates 1 and 3 tie on the most free space and both hold the file, so
  // the pick falls to the next rank, candidate 2; candidate 0 is never asked.
  MaskEligibility holders({false, true, false, true});
  EXPECT_EQ(policy.ChooseDiversionTarget(candidates, holders, entropy),
            std::optional<size_t>(2));
  EXPECT_EQ(holders.probes(), (std::vector<int>{0, 1, 1, 1}));
}

TEST(KClosestDiversionTest, NoEligibleCandidateDeclinesWithoutDrawing) {
  for (PlacementKind kind : {PlacementKind::kKClosestDiversion, PlacementKind::kKClosestRandom,
                             PlacementKind::kKClosestFirstFit}) {
    PlacementPolicy policy{kind};
    ScriptedEntropy entropy;
    MaskEligibility holders({true, true, true});
    std::vector<PlacementCandidate> candidates = {Candidate(1), Candidate(2), Candidate(3)};
    EXPECT_EQ(policy.ChooseDiversionTarget(candidates, holders, entropy), std::nullopt);
    EXPECT_EQ(holders.probes(), (std::vector<int>{1, 1, 1}));
    EXPECT_EQ(entropy.calls(), 0u);
  }
}

// --- differential check against the filter-then-pick reference ---

struct PolicyCase {
  const char* name;
  PlacementKind kind;
  bool ranked;
};

const PolicyCase kPolicyCases[] = {
    {"kclosest/max-free", PlacementKind::kKClosestDiversion, true},
    {"kclosest/random", PlacementKind::kKClosestRandom, false},
    {"kclosest/first-fit", PlacementKind::kKClosestFirstFit, true},
    {"residual", PlacementKind::kResidualPerformance, true},
    {"random", PlacementKind::kRandomizedCacheSize, false},
};

double ResidualScore(const PlacementCandidate& c) {
  return static_cast<double>(c.free_bytes) / (1.0 + static_cast<double>(c.recent_load));
}

// The rank score a ranked policy orders candidates by (descending).
double RankScore(const PolicyCase& pc, const PlacementCandidate& c) {
  if (pc.kind == PlacementKind::kResidualPerformance) {
    return ResidualScore(c);
  }
  if (pc.kind == PlacementKind::kKClosestFirstFit) {
    return c.accepts_diverted ? 1.0 : 0.0;
  }
  return static_cast<double>(c.free_bytes);
}

// The reference model: the filter-then-pick selection the policies made
// before they probed in rank order. It drops every holder first, then picks
// among the remaining `eligible` exactly as that code did. Returns an index
// into `eligible`.
std::optional<size_t> FilterThenPick(const PolicyCase& pc,
                                     const std::vector<PlacementCandidate>& eligible,
                                     PlacementEntropy& entropy) {
  if (eligible.empty()) {
    return std::nullopt;
  }
  switch (pc.kind) {
    case PlacementKind::kKClosestDiversion: {
      size_t best = 0;
      for (size_t i = 1; i < eligible.size(); ++i) {
        if (eligible[best].free_bytes < eligible[i].free_bytes) {
          best = i;
        }
      }
      return best;
    }
    case PlacementKind::kKClosestRandom:
      return static_cast<size_t>(entropy.NextBelow(eligible.size()));
    case PlacementKind::kKClosestFirstFit:
      for (size_t i = 0; i < eligible.size(); ++i) {
        if (eligible[i].accepts_diverted) {
          return i;
        }
      }
      return 0;
    case PlacementKind::kResidualPerformance: {
      size_t best = 0;
      double best_score = ResidualScore(eligible[0]);
      for (size_t i = 1; i < eligible.size(); ++i) {
        double score = ResidualScore(eligible[i]);
        if (score > best_score) {
          best = i;
          best_score = score;
        }
      }
      return best;
    }
    case PlacementKind::kRandomizedCacheSize: {
      uint64_t total = 0;
      for (const PlacementCandidate& c : eligible) {
        total += c.capacity_bytes;
      }
      if (total == 0) {
        return static_cast<size_t>(entropy.NextBelow(eligible.size()));
      }
      uint64_t draw = entropy.NextBelow(total);
      uint64_t prefix = 0;
      for (size_t i = 0; i < eligible.size(); ++i) {
        prefix += eligible[i].capacity_bytes;
        if (draw < prefix) {
          return i;
        }
      }
      return eligible.size() - 1;
    }
  }
  return std::nullopt;
}

// Seeded entropy that records every draw as (bound, value), so two runs
// can be compared draw for draw.
class RecordingEntropy : public PlacementEntropy {
 public:
  explicit RecordingEntropy(uint64_t seed) : gen_(seed) {}

  uint64_t NextBelow(uint64_t bound) override {
    uint64_t value = gen_() % bound;
    draws_.emplace_back(bound, value);
    return value;
  }

  const std::vector<std::pair<uint64_t, uint64_t>>& draws() const { return draws_; }

 private:
  std::mt19937_64 gen_;
  std::vector<std::pair<uint64_t, uint64_t>> draws_;
};

// Random candidate sets of 0..32 members. Free bytes, loads and capacities
// come from small value sets so free-space, residual-score and first-fit
// ties are common; zero capacities exercise the uniform fallback.
std::vector<PlacementCandidate> RandomCandidates(std::mt19937_64& gen) {
  static const uint64_t kFree[] = {0, 100, 200, 300, 600};
  static const uint64_t kLoad[] = {0, 1, 2, 5};
  static const uint64_t kCapacity[] = {0, 0, 500, 1000, 3000};
  size_t n = gen() % 33;
  bool zero_capacity = gen() % 5 == 0;
  std::vector<PlacementCandidate> candidates;
  for (size_t i = 0; i < n; ++i) {
    PlacementCandidate c;
    c.free_bytes = kFree[gen() % std::size(kFree)];
    c.recent_load = kLoad[gen() % std::size(kLoad)];
    c.capacity_bytes = zero_capacity ? 0 : kCapacity[gen() % std::size(kCapacity)];
    c.accepts_diverted = gen() % 2 == 0;
    candidates.push_back(c);
  }
  return candidates;
}

// Holder masks: none hold, all hold, or each holds with p in {1/4, 1/2, 3/4}.
std::vector<bool> RandomHolders(std::mt19937_64& gen, size_t n) {
  int mode = static_cast<int>(gen() % 5);
  std::vector<bool> holds(n);
  for (size_t i = 0; i < n; ++i) {
    holds[i] = mode == 1 || (mode >= 2 && gen() % 4 < static_cast<uint64_t>(mode - 1));
  }
  return holds;
}

TEST(DiversionProbeTest, MatchesFilterThenPickAndProbesOnlyWhatTheRankNeeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 gen(seed);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<PlacementCandidate> candidates = RandomCandidates(gen);
      std::vector<bool> holds = RandomHolders(gen, candidates.size());
      for (const PolicyCase& pc : kPolicyCases) {
        char where[96];
        std::snprintf(where, sizeof(where), "seed %llu trial %d %s",
                      static_cast<unsigned long long>(seed), trial, pc.name);
        SCOPED_TRACE(where);
        PlacementPolicy policy{pc.kind};

        std::vector<PlacementCandidate> eligible;
        std::vector<size_t> eligible_at;
        for (size_t i = 0; i < candidates.size(); ++i) {
          if (!holds[i]) {
            eligible.push_back(candidates[i]);
            eligible_at.push_back(i);
          }
        }
        RecordingEntropy reference_entropy(seed * 1000 + static_cast<uint64_t>(trial));
        std::optional<size_t> expected = FilterThenPick(pc, eligible, reference_entropy);
        if (expected) {
          expected = eligible_at[*expected];
        }

        RecordingEntropy entropy(seed * 1000 + static_cast<uint64_t>(trial));
        MaskEligibility probe(holds);
        std::optional<size_t> pick =
            policy.ChooseDiversionTarget(candidates, probe, entropy);
        ASSERT_EQ(pick, expected);
        EXPECT_EQ(entropy.draws(), reference_entropy.draws());

        const std::vector<int>& probes = probe.probes();
        for (size_t i = 0; i < candidates.size(); ++i) {
          EXPECT_LE(probes[i], 1) << "candidate " << i << " probed twice";
        }
        if (!pc.ranked) {
          EXPECT_EQ(probe.total(), candidates.size());
          continue;
        }
        // A ranked policy asks about the pick and every holder ranked above
        // it (higher score, or an equal score earlier in caller order).
        size_t holders_above = 0;
        for (size_t i = 0; i < candidates.size(); ++i) {
          bool above = !pick || RankScore(pc, candidates[i]) > RankScore(pc, candidates[*pick]) ||
                       (RankScore(pc, candidates[i]) == RankScore(pc, candidates[*pick]) &&
                        i < *pick);
          if (above && holds[i]) {
            ++holders_above;
            EXPECT_EQ(probes[i], 1) << "holder " << i << " ranked above the pick";
          } else if (!pick || i != *pick) {
            EXPECT_EQ(probes[i], 0) << "candidate " << i << " ranked below the pick";
          }
        }
        EXPECT_EQ(probe.total(), (pick ? 1 : 0) + holders_above);
      }
    }
  }
}

}  // namespace
}  // namespace past
