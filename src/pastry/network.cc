#include "src/pastry/network.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"

namespace past {
namespace {

// 64x64 seed-grid cells => ~24 nodes per cell at 100k nodes; NearestLiveTo
// usually terminates after inspecting the first ring or two.
constexpr int kSeedGridDim = 64;

int SeedCellCoord(double v) {
  int c = static_cast<int>(v * kSeedGridDim);
  if (c < 0) {
    c = 0;
  }
  if (c >= kSeedGridDim) {
    c = kSeedGridDim - 1;  // v == 1.0 after wrap rounding
  }
  return c;
}

// Row-major index of seed-grid cell (cx, cy).
size_t SeedCell(int cx, int cy) { return static_cast<size_t>(cx * kSeedGridDim + cy); }

// Index of the seed-grid cell holding coordinates like `c`.
size_t SeedCellOf(const Coordinate& c) {
  return SeedCell(SeedCellCoord(c.x), SeedCellCoord(c.y));
}

}  // namespace

PastryNetwork::PastryNetwork(const PastryConfig& config, uint64_t seed)
    : config_(config),
      rng_(seed),
      seed_grid_(static_cast<size_t>(kSeedGridDim) * kSeedGridDim) {
  // The draw that once seeded a since-removed placement RNG; kept so every
  // seed's node-id stream stays unchanged.
  rng_.NextU64();
  dir_.ctx = this;
  dir_.intern = &PastryNetwork::DirIntern;
  dir_.find = &PastryNetwork::DirFind;
  dir_.resolve = &PastryNetwork::DirResolve;
  dir_.alive = &PastryNetwork::DirAlive;
  dir_.distance = &PastryNetwork::DirDistance;
}

PastryNetwork::~PastryNetwork() {
  // Nodes live in the arena; destroy them while the arena (a later-destroyed
  // member would be UB here — it is declared first) is still alive so the
  // routing rows they free land back in its lists.
  for (PastryNode* n : slots_) {
    if (n != nullptr) {
      arena_.Destroy(n);
    }
  }
}

uint32_t PastryNetwork::DirIntern(void* ctx, const NodeId& id) {
  return static_cast<PastryNetwork*>(ctx)->Intern(id);
}

uint32_t PastryNetwork::DirFind(void* ctx, const NodeId& id) {
  return static_cast<PastryNetwork*>(ctx)->IndexOf(id);
}

const NodeId& PastryNetwork::DirResolve(void* ctx, uint32_t index) {
  return static_cast<PastryNetwork*>(ctx)->ids_by_index_[index];
}

bool PastryNetwork::DirAlive(void* ctx, uint32_t index) {
  return static_cast<PastryNetwork*>(ctx)->alive_bits_[index] != 0;
}

double PastryNetwork::DirDistance(void* ctx, uint32_t a, uint32_t b) {
  // Dead endpoints are maximally far, so proximity comparisons never prefer
  // them.
  return static_cast<const PastryNetwork*>(ctx)->DistanceAt(a, b, 1e9);
}

double PastryNetwork::DistanceAt(NodeIndex a, NodeIndex b, double fallback) const {
  if (alive_bits_[a] == 0 || alive_bits_[b] == 0) {
    return fallback;
  }
  return TorusDistance(locations_[a], locations_[b]);
}

double PastryNetwork::DistanceOr(const NodeId& a, const NodeId& b, double fallback) const {
  const NodeIndex ia = IndexOf(a);
  const NodeIndex ib = IndexOf(b);
  if (ia == kInvalidIndex || ib == kInvalidIndex) {
    return fallback;
  }
  return DistanceAt(ia, ib, fallback);
}

NodeId PastryNetwork::RandomNodeId() {
  for (;;) {
    NodeId id(rng_.NextU64(), rng_.NextU64());
    if (!index_.Contains(id)) {
      return id;
    }
  }
}

PastryNetwork::NodeIndex PastryNetwork::Intern(const NodeId& id) {
  // Known ids are the common case (each node's routing state interns its
  // owner, Learn(NodeId) its argument), and answering them from Find keeps
  // Intern non-mutating:
  // TryEmplace may rehash even when the key exists (growth is checked before
  // the probe), which would invalidate index_ pointers held by callers up
  // the stack — node() during a batched-join flush, for one.
  if (const NodeIndex* existing = index_.Find(id)) {
    return *existing;
  }
  auto [slot, inserted] = index_.TryEmplace(id, static_cast<NodeIndex>(slots_.size()));
  if (inserted) {
    slots_.push_back(nullptr);
    alive_bits_.push_back(0);
    locations_.push_back(Coordinate{});
    ids_by_index_.push_back(id);
    if (join_batch_active_) {
      pending_head_.push_back(kInvalidIndex);
      pending_tail_.push_back(kInvalidIndex);
    }
  }
  return *slot;
}

PastryNetwork::NodeIndex PastryNetwork::InstallNode(const NodeId& id,
                                                    const Coordinate& location) {
  NodeIndex idx = Intern(id);
  if (slots_[idx] != nullptr) {
    arena_.Destroy(slots_[idx]);
  }
  slots_[idx] = arena_.Create<PastryNode>(id, config_, &dir_, &arena_);
  alive_bits_[idx] = 1;
  locations_[idx] = location;
  return idx;
}

NodeId PastryNetwork::CreateNode() {
  NodeId id = RandomNodeId();
  Coordinate location{rng_.NextDouble(), rng_.NextDouble()};
  Join(id, location);
  return id;
}

bool PastryNetwork::Join(const NodeId& id, const Coordinate& location) {
  if (IsAlive(id)) {
    return false;
  }

  // Find the proximally nearest live node to bootstrap from, before the new
  // node occupies its own place in the seed grid.
  const Coordinate wrapped = WrapToTorus(location);
  const bool have_seed = !ring_.empty();
  const NodeId seed = NearestLiveTo(wrapped);

  // Route the special join message from the seed toward the new id; the
  // path supplies routing rows, its terminus Z supplies the leaf set, and
  // the seed supplies the neighborhood set (paper section 2.1). It is routed
  // while the id is still dead: a returning id is still in other nodes'
  // routing tables, and once live again those stale entries could steer the
  // route to the joining node, which would copy its own empty leaf set.
  RouteResult route;
  if (have_seed) {
    route = Route(seed, id);
  }

  const NodeIndex x_index = InstallNode(id, wrapped);
  seed_grid_[SeedCellOf(wrapped)].push_back(x_index);
  PastryNode* x = slots_[x_index];

  if (have_seed) {
    // The copies walk each donor's interned indices and the alive bits in
    // place.
    PastryNode* z = node(route.destination());

    auto copy_leaves = [&](std::span<const NodeId> ids, std::span<const uint32_t> idx) {
      for (size_t i = 0; i < ids.size(); ++i) {
        if (alive_bits_[idx[i]] != 0) {
          x->leaf_set().Insert(ids[i], idx[i]);
        }
      }
    };
    copy_leaves(z->leaf_set().larger(), z->leaf_set().larger_indices());
    copy_leaves(z->leaf_set().smaller(), z->leaf_set().smaller_indices());
    x->leaf_set().Insert(z->id());

    // Members on both leaf sides are offered twice; the second offer cannot
    // change the slot.
    RoutingTable& table = x->routing_table();
    auto offer = [&](uint32_t candidate) {
      if (alive_bits_[candidate] != 0) {
        table.ConsiderIndex(candidate);
      }
    };
    for (const NodeId& visited : route.path) {
      // Every node on the route is live, hence interned and installed.
      const NodeIndex visited_index = IndexOf(visited);
      const PastryNode* p = node_at(visited_index);
      x->LearnIndex(visited_index);
      p->routing_table().ForEachIndex(offer);
      for (uint32_t member : p->leaf_set().larger_indices()) {
        offer(member);
      }
      for (uint32_t member : p->leaf_set().smaller_indices()) {
        offer(member);
      }
    }

    const NodeIndex seed_index = IndexOf(seed);
    const NeighborhoodSet& seed_hood = node_at(seed_index)->neighborhood();
    x->neighborhood().ConsiderIndex(seed_index);
    for (size_t i = 0; i < seed_hood.size(); ++i) {
      uint32_t neighbor = seed_hood.member_index(i);
      if (alive_bits_[neighbor] != 0) {
        x->neighborhood().ConsiderIndex(neighbor);
      }
    }

    AnnounceNewNode(x_index);
  }

  ring_.Insert(id);
  NotifyJoined(id);
  return true;
}

void PastryNetwork::AnnounceNewNode(NodeIndex newcomer) {
  const PastryNode& node = *slots_[newcomer];
  // The arriving node transmits its state to every node it now references;
  // each of them folds the newcomer into its own state. In batch mode the
  // Learn is queued on the target instead of applied — same per-target
  // order, applied before the target's state is next read. Each target gets
  // one Learn that touches only its own state, so the order across targets
  // (here: index order) does not matter.
  std::vector<NodeIndex> targets(node.leaf_set().larger_indices().begin(),
                                 node.leaf_set().larger_indices().end());
  targets.insert(targets.end(), node.leaf_set().smaller_indices().begin(),
                 node.leaf_set().smaller_indices().end());
  node.routing_table().ForEachIndex([&](uint32_t entry) { targets.push_back(entry); });
  for (size_t i = 0; i < node.neighborhood().size(); ++i) {
    targets.push_back(node.neighborhood().member_index(i));
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (const NodeIndex ti : targets) {
    if (slots_[ti] == nullptr || alive_bits_[ti] == 0) {
      continue;
    }
    if (join_batch_active_) {
      uint32_t link = static_cast<uint32_t>(pending_pool_.size());
      pending_pool_.push_back(PendingLearn{kInvalidIndex, newcomer});
      if (pending_tail_[ti] == kInvalidIndex) {
        pending_head_[ti] = link;
      } else {
        pending_pool_[pending_tail_[ti]].next = link;
      }
      pending_tail_[ti] = link;
    } else {
      slots_[ti]->LearnIndex(newcomer);
    }
    stats_.RecordMessage(64);
  }
}

void PastryNetwork::BeginJoinBatch() {
  join_batch_active_ = true;
  pending_head_.assign(slots_.size(), kInvalidIndex);
  pending_tail_.assign(slots_.size(), kInvalidIndex);
  // Ring inserts batch too: sorted-vector insertion is an O(n) memmove, and
  // at bulk-build scale the moves (not the Learns) dominate wall time.
  ring_.BeginBulkLoad();
}

void PastryNetwork::FlushJoinBatch() {
  for (NodeIndex i = 0; i < pending_head_.size(); ++i) {
    FlushPending(i);
  }
  pending_pool_.clear();
}

void PastryNetwork::EndJoinBatch() {
  FlushJoinBatch();
  ring_.EndBulkLoad();
  join_batch_active_ = false;
  pending_head_.clear();
  pending_head_.shrink_to_fit();
  pending_tail_.clear();
  pending_tail_.shrink_to_fit();
  pending_pool_.shrink_to_fit();
}

void PastryNetwork::FlushPending(NodeIndex index) {
  uint32_t cur = pending_head_[index];
  if (cur == kInvalidIndex) {
    return;
  }
  pending_head_[index] = kInvalidIndex;
  pending_tail_[index] = kInvalidIndex;
  PastryNode* w = slots_[index];
  while (cur != kInvalidIndex) {
    PendingLearn entry = pending_pool_[cur];
    if (w != nullptr) {
      w->LearnIndex(entry.newcomer);
    }
    cur = entry.next;
  }
}

void PastryNetwork::BuildInitialNetwork(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    CreateNode();
  }
}

void PastryNetwork::FailNode(const NodeId& id) {
  FailNodeSilently(id);
  RepairAfterFailure(id);
  NotifyFailed(id);
}

void PastryNetwork::FailNodeSilently(const NodeId& id) {
  const NodeIndex* idx = index_.Find(id);
  if (idx == nullptr || alive_bits_[*idx] == 0) {
    return;
  }
  alive_bits_[*idx] = 0;
  ring_.Erase(id);
  std::vector<NodeIndex>& cell = seed_grid_[SeedCellOf(locations_[*idx])];
  *std::find(cell.begin(), cell.end(), *idx) = cell.back();
  cell.pop_back();
}

void PastryNetwork::RepairAfterFailure(const NodeId& failed) {
  // All members of the failed node's leaf set detect the failure, purge the
  // reference, and rebuild from the leaf sets of their remaining members —
  // overlap among adjacent leaf sets makes the replacement reachable.
  //
  // Leaf-set references to `failed` are confined to its former ring
  // neighborhood: a leaf set tracks the l/2 numerically closest live ids per
  // side, so only nodes within ~l live-ring positions can legitimately hold
  // it. Scanning a 2l window per side around the failed id's former position
  // (instead of the full ring) makes repair O(l) per failure instead of
  // O(n) — at 100k nodes the full scan made each crash a 100k-probe sweep
  // and dominated churn-heavy runs. Routing tables and neighborhood sets
  // elsewhere may keep a stale entry; every consumer filters through
  // IsAlive, routing Forgets dead entries on contact, and
  // RepairRoutingTables() batch-repairs lazily — the paper's keep-alive
  // model. Small rings (< 4l nodes) degenerate to the full scan.
  // An id never interned is referenced by no node.
  const NodeIndex failed_index = IndexOf(failed);
  if (ring_.empty() || failed_index == kInvalidIndex) {
    return;
  }
  const size_t n = ring_.size();
  const size_t window = static_cast<size_t>(config_.leaf_set_size) * 2;
  const size_t count = std::min(n, 2 * window);
  std::vector<NodeId> affected;
  auto consider = [&](const NodeId& id) {
    PastryNode* w = node(id);
    if (w != nullptr && (w->leaf_set().Contains(failed) ||
                         w->routing_table().RemoveIndex(failed_index) ||
                         w->neighborhood().ContainsIndex(failed_index))) {
      affected.push_back(id);
    }
  };
  if (count == n) {
    for (const NodeId& id : ring_) {
      consider(id);
    }
  } else {
    size_t start = ring_.LowerBound(failed.value());  // failed itself is erased
    size_t first = (start + n - window) % n;
    for (size_t i = 0; i < count; ++i) {
      consider(ring_.at((first + i) % n));
    }
  }
  for (const NodeId& id : affected) {
    node(id)->Forget(failed);
  }
  for (const NodeId& id : affected) {
    PastryNode* w = node(id);
    std::vector<NodeId> donors = w->leaf_set().All();
    for (const NodeId& donor : donors) {
      PastryNode* d = node(donor);
      if (d == nullptr || !IsAlive(donor)) {
        continue;
      }
      stats_.RecordRpc();
      for (const NodeId& candidate : d->leaf_set().All()) {
        if (IsAlive(candidate)) {
          w->leaf_set().Insert(candidate);
        }
      }
    }
  }
}

size_t PastryNetwork::DetectAndRepair() {
  // One keep-alive round: collect every dead node still referenced by a live
  // leaf set, then run the standard repair for each.
  std::vector<NodeId> detected;
  for (const NodeId& id : ring_) {
    PastryNode* w = node(id);
    for (const NodeId& member : w->leaf_set().All()) {
      stats_.RecordMessage(16);  // keep-alive probe
      if (!IsAlive(member) &&
          std::find(detected.begin(), detected.end(), member) == detected.end()) {
        detected.push_back(member);
      }
    }
  }
  for (const NodeId& dead : detected) {
    RepairAfterFailure(dead);
    NotifyFailed(dead);
  }
  return detected.size();
}

bool PastryNetwork::RecoverNode(const NodeId& id) {
  const NodeIndex* idx = index_.Find(id);
  if (idx == nullptr || alive_bits_[*idx] != 0) {
    return false;
  }
  // A recovering node contacts the nodes in its last known leaf set, obtains
  // their current leaf sets, and rebuilds. We reuse the join machinery with
  // the node's previous id; the index stays interned, and Join's InstallNode
  // replaces the stale state in its slot.
  Coordinate location{rng_.NextDouble(), rng_.NextDouble()};
  return Join(id, location);
}

size_t PastryNetwork::RepairRoutingTables() {
  size_t repaired = 0;
  for (const NodeId& id : ring_) {
    PastryNode* w = node(id);
    RoutingTable& table = w->routing_table();
    for (int row = 0; row < table.rows(); ++row) {
      // Candidates for this row come from the same row of our row-mates
      // (they share the same prefix with us up to `row` digits) and from our
      // leaf set. Only bother while the row has known members.
      std::vector<NodeId> row_mates = table.Row(row);
      if (row_mates.empty()) {
        continue;
      }
      for (const NodeId& mate : row_mates) {
        PastryNode* m = node(mate);
        if (m == nullptr || !IsAlive(mate)) {
          continue;
        }
        stats_.RecordRpc();
        for (const NodeId& candidate : m->routing_table().Row(row)) {
          if (IsAlive(candidate) && table.Consider(candidate)) {
            ++repaired;
          }
        }
      }
    }
    for (const NodeId& member : w->leaf_set().All()) {
      if (IsAlive(member) && table.Consider(member)) {
        ++repaired;
      }
    }
  }
  return repaired;
}

RouteResult PastryNetwork::Route(const NodeId& from, const NodeId& key, const StopFn& stop) {
  return Route(from, key, stop, RouteOptions{});
}

RouteResult PastryNetwork::Route(const NodeId& from, const NodeId& key, const StopFn& stop,
                                 const RouteOptions& options) {
  TransportStats& stats = options.stats != nullptr ? *options.stats : stats_;
  Rng* rng = options.rng != nullptr ? options.rng : &rng_;

  RouteResult result;
  NodeIndex current_index = IndexOf(from);
  if (current_index == kInvalidIndex || alive_bits_[current_index] == 0) {
    return result;
  }
  NodeId current = from;
  result.path.push_back(current);
  if (stop && stop(current)) {
    result.stopped_early = true;
    return result;
  }
  // Hop bound as a safety net; Pastry terminates in ~log_2^b(N) steps.
  const int max_hops = 8 * NodeId::NumDigits(config_.b);
  result.path.reserve(static_cast<size_t>(NodeId::NumDigits(config_.b)) / 2);
  // Hoisted out of the hop loop: almost every deployment has no malicious
  // nodes, and the per-hop probe is measurable at routing rates.
  const bool any_malicious = !malicious_.empty();
  // Stats accounting is batched: hops and distance accumulate in the result
  // and land in the collector exactly once per route (RecordRoute), keeping
  // per-hop work down to the forwarding decision itself. Each hop resolves
  // the next node's index once; its node slot and location are array reads.
  // Scratch for deferred-forget mode, reused across hops; each batch of dead
  // references is paired with the node that observed them.
  std::vector<NodeId> hop_dead;
  for (int hop = 0; hop < max_hops; ++hop) {
    PastryNode* n = node_at(current_index);
    std::optional<NodeId> next;
    if (options.deferred_forgets != nullptr) {
      hop_dead.clear();
      next = n->NextHop(key, rng, &hop_dead);
      for (const NodeId& dead : hop_dead) {
        options.deferred_forgets->push_back({current, dead});
      }
    } else {
      next = n->NextHop(key, rng, nullptr);
    }
    if (!next) {
      break;  // current node is the destination
    }
    // NextHop only returns live nodes, which are interned.
    const NodeIndex next_index = IndexOf(*next);
    result.distance += TorusDistance(locations_[current_index], locations_[next_index]);
    current_index = next_index;
    current = *next;
    result.path.push_back(current);
    // A malicious node accepts the message and silently drops it; the
    // message never reaches the application at this or any further node.
    if (any_malicious && IsMalicious(current)) {
      result.delivered = false;
      break;
    }
    if (stop && stop(current)) {
      result.stopped_early = true;
      break;
    }
    if (hop + 1 == max_hops) {
      PAST_LOG(kWarning) << "routing to " << key.ToHex() << " exceeded hop bound";
    }
  }
  stats.RecordRoute(static_cast<uint64_t>(result.hops()), result.distance);
  return result;
}

void PastryNetwork::SetMalicious(const NodeId& id, bool malicious) {
  malicious_.InsertOrAssign(id, malicious ? uint8_t{1} : uint8_t{0});
}

bool PastryNetwork::IsMalicious(const NodeId& id) const {
  const uint8_t* flag = malicious_.Find(id);
  return flag != nullptr && *flag != 0;
}

NodeId PastryNetwork::ClosestLive(const NodeId& key) const { return ring_.Closest(key); }

NodeId PastryNetwork::NearestLiveTo(const Coordinate& point) const {
  if (ring_.empty()) {
    return NodeId();
  }
  NodeIndex best = kInvalidIndex;  // none seen yet
  double best_distance = std::numeric_limits<double>::infinity();
  // Scans one cell, updating the running best under the (distance, id)
  // order.
  auto scan = [&](int x, int y) {
    for (const NodeIndex idx : seed_grid_[SeedCell(x, y)]) {
      double d = TorusDistance(point, locations_[idx]);
      if (d < best_distance || (best != kInvalidIndex && d == best_distance &&
                                ids_by_index_[idx] < ids_by_index_[best])) {
        best_distance = d;
        best = idx;
      }
    }
  };
  const int cx = SeedCellCoord(point.x);
  const int cy = SeedCellCoord(point.y);
  const double cell_size = 1.0 / kSeedGridDim;
  auto wrap = [](int c) { return ((c % kSeedGridDim) + kSeedGridDim) % kSeedGridDim; };

  for (int r = 0; r <= kSeedGridDim / 2 + 1; ++r) {
    // Any node in a cell at Chebyshev cell-distance r is at least
    // (r - 1) * cell_size away, so once the running best beats that bound no
    // farther ring can improve it.
    if (best != kInvalidIndex && best_distance < static_cast<double>(r - 1) * cell_size) {
      break;
    }
    if (2 * r + 1 >= kSeedGridDim) {
      // Ring would wrap onto itself; finish with a full sweep.
      for (int x = 0; x < kSeedGridDim; ++x) {
        for (int y = 0; y < kSeedGridDim; ++y) {
          scan(x, y);
        }
      }
      break;
    }
    if (r == 0) {
      scan(cx, cy);
      continue;
    }
    for (int dx = -r; dx <= r; ++dx) {
      scan(wrap(cx + dx), wrap(cy - r));
      scan(wrap(cx + dx), wrap(cy + r));
    }
    for (int dy = -r + 1; dy <= r - 1; ++dy) {
      scan(wrap(cx - r), wrap(cy + dy));
      scan(wrap(cx + r), wrap(cy + dy));
    }
  }
  return ids_by_index_[best];
}

void PastryNetwork::RemoveObserver(MembershipObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer), observers_.end());
}

void PastryNetwork::NotifyJoined(const NodeId& id) {
  for (MembershipObserver* o : observers_) {
    o->OnNodeJoined(id);
  }
}

void PastryNetwork::NotifyFailed(const NodeId& id) {
  for (MembershipObserver* o : observers_) {
    o->OnNodeFailed(id);
  }
}

size_t PastryNetwork::CountLeafSetViolations() const {
  size_t violations = 0;
  const size_t per_side = static_cast<size_t>(config_.leaf_set_size) / 2;
  const size_t n = ring_.size();
  for (size_t i = 0; i < n; ++i) {
    const NodeId& id = ring_.at(i);
    const PastryNode* node_ptr = node(id);
    // Ground truth: walk the ring in each direction by index.
    std::vector<NodeId> expect_larger;
    for (size_t step = 1; step <= per_side && expect_larger.size() < n - 1; ++step) {
      size_t j = (i + step) % n;
      if (j == i) {
        break;
      }
      expect_larger.push_back(ring_.at(j));
    }
    std::vector<NodeId> expect_smaller;
    for (size_t step = 1; step <= per_side && expect_smaller.size() < n - 1; ++step) {
      size_t j = (i + n - (step % n)) % n;
      if (j == i) {
        break;
      }
      expect_smaller.push_back(ring_.at(j));
    }
    for (const NodeId& e : expect_larger) {
      std::span<const NodeId> larger = node_ptr->leaf_set().larger();
      if (std::find(larger.begin(), larger.end(), e) == larger.end()) {
        ++violations;
      }
    }
    for (const NodeId& e : expect_smaller) {
      std::span<const NodeId> smaller = node_ptr->leaf_set().smaller();
      if (std::find(smaller.begin(), smaller.end(), e) == smaller.end()) {
        ++violations;
      }
    }
  }
  return violations;
}

}  // namespace past
