#include "src/past/config.h"

namespace past {

std::vector<std::string> ValidatePastConfig(const PastConfig& past, const PastryConfig& pastry) {
  std::vector<std::string> errors;
  auto fail = [&](const std::string& message) { errors.push_back(message); };

  const int l = pastry.leaf_set_size;
  if (l < 2 || l % 2 != 0) {
    fail("leaf_set_size must be a positive even number (got " + std::to_string(l) + ")");
  }
  if (pastry.b < 1 || pastry.b > 8) {
    fail("b must be in [1, 8] (got " + std::to_string(pastry.b) + ")");
  }
  if (past.k == 0) {
    fail("k must be positive");
  } else if (static_cast<int64_t>(past.k) > l / 2 + 1) {
    // The insert protocol computes the k closest from one leaf set, which is
    // only sound when k <= l/2 + 1 (paper section 2.2).
    fail("k must satisfy k <= leaf_set_size/2 + 1 (got k=" + std::to_string(past.k) +
         ", leaf_set_size=" + std::to_string(l) + ")");
  }
  const double t_pri = past.policy.t_pri;
  const double t_div = past.policy.t_div;
  if (t_pri <= 0.0 || t_pri > 1.0) {
    fail("t_pri must be in (0, 1]");
  }
  if (t_div < 0.0 || t_div > 1.0) {
    fail("t_div must be in [0, 1]");
  }
  if (past.enable_replica_diversion && t_div > t_pri) {
    // t_div is the threshold applied to diverted replicas, meant to be at
    // most as permissive as t_pri (paper section 3.3.1; Table 4's most
    // permissive setting is t_div == t_pri). A larger t_div would accept
    // diverted replicas that the primary itself would have refused.
    fail("t_div must not exceed t_pri when replica diversion is on (got t_div=" +
         std::to_string(t_div) + " > t_pri=" + std::to_string(t_pri) + ")");
  }
  const double c = past.cache_fraction_c;
  if (past.cache_mode != CacheMode::kNone && (c <= 0.0 || c > 1.0)) {
    fail("cache_fraction_c must be in (0, 1]");
  }
  const double cap = past.cache_insertion_cost_cap;
  if (!(cap >= 0.0 && cap <= 1.0)) {
    // FileCache reads any cap <= 0 as "no cap": a negative value would turn
    // the flash-crowd guard off without a word.
    fail("cache_insertion_cost_cap must be in [0, 1] (got " + std::to_string(cap) + ")");
  }
  return errors;
}

}  // namespace past
