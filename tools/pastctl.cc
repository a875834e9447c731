// pastctl — a scriptable command-line driver for a simulated PAST network.
//
// Reads commands from stdin (one per line) and prints results, making the
// whole public API usable from shell scripts:
//
//   build 100 50000000           # network: 100 nodes x 50 MB, default seed
//   client alice 10000000        # client with a 10 MB quota
//   put alice notes.txt hello world
//   insert alice big.bin 250000  # size-only insert
//   lookup alice notes.txt
//   reclaim alice big.bin
//   join 5 50000000              # 5 more storage nodes
//   fail 3                       # fail 3 random storage nodes
//   stats
//   quit
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "src/common/rng.h"
#include "src/past/client.h"
#include "src/past/past_network.h"

namespace {

using namespace past;

struct Session {
  std::unique_ptr<PastNetwork> network;
  std::unique_ptr<Rng> rng;
  std::vector<NodeId> nodes;
  std::map<std::string, std::unique_ptr<PastClient>> clients;
  std::map<std::string, FileId> files;  // "client/filename" -> fileId
  uint64_t seed = 1;
};

std::string FileKey(const std::string& client, const std::string& name) {
  return client + "/" + name;
}

bool RequireNetwork(const Session& session) {
  if (session.network == nullptr) {
    std::printf("error: no network (use: build <nodes> <capacity> [seed])\n");
    return false;
  }
  return true;
}

void HandleLine(Session& session, const std::string& line) {
  std::istringstream in(line);
  std::string command;
  if (!(in >> command) || command.empty() || command[0] == '#') {
    return;
  }

  if (command == "build") {
    size_t nodes = 0;
    uint64_t capacity = 0;
    in >> nodes >> capacity;
    if (in >> session.seed) {
    }
    if (nodes == 0 || capacity == 0) {
      std::printf("usage: build <nodes> <capacity_bytes> [seed]\n");
      return;
    }
    PastConfig config;
    config.cache_mode = CacheMode::kGreedyDualSize;
    PastryConfig pastry_config;
    session.network = std::make_unique<PastNetwork>(config, pastry_config, session.seed);
    session.rng = std::make_unique<Rng>(session.seed ^ 0x5bd1e995);
    session.nodes.clear();
    session.clients.clear();
    session.files.clear();
    for (size_t i = 0; i < nodes; ++i) {
      session.nodes.push_back(session.network->AddStorageNode(capacity));
    }
    std::printf("ok: %zu nodes, %.1f MB total capacity\n", nodes,
                static_cast<double>(session.network->total_capacity()) / 1e6);
  } else if (command == "client") {
    std::string name;
    uint64_t quota = 0;
    in >> name >> quota;
    if (!RequireNetwork(session) || name.empty() || quota == 0) {
      return;
    }
    NodeId access = session.nodes[session.rng->NextBelow(session.nodes.size())];
    session.clients[name] = std::make_unique<PastClient>(*session.network, access, quota,
                                                         session.rng->NextU64());
    std::printf("ok: client %s at node %s, quota %llu\n", name.c_str(),
                access.ToHex().substr(0, 8).c_str(), static_cast<unsigned long long>(quota));
  } else if (command == "insert" || command == "put") {
    std::string client_name, file_name;
    in >> client_name >> file_name;
    if (!RequireNetwork(session)) {
      return;
    }
    auto it = session.clients.find(client_name);
    if (it == session.clients.end()) {
      std::printf("error: unknown client '%s'\n", client_name.c_str());
      return;
    }
    ClientInsertResult result;
    if (command == "insert") {
      uint64_t size = 0;
      in >> size;
      result = it->second->Insert(file_name, size);
    } else {
      std::string content;
      std::getline(in, content);
      if (!content.empty() && content[0] == ' ') {
        content.erase(0, 1);
      }
      result = it->second->InsertContent(file_name, content);
    }
    if (result.stored) {
      session.files[FileKey(client_name, file_name)] = result.file_id;
      std::printf("ok: %s -> %s (attempts %d, diversions %d)\n", file_name.c_str(),
                  result.file_id.ToHex().c_str(), result.attempts, result.diversions);
    } else if (result.quota_exceeded) {
      std::printf("fail: quota exceeded\n");
    } else {
      std::printf("fail: no space after %d attempts\n", result.attempts);
    }
  } else if (command == "lookup") {
    std::string client_name, file_name;
    in >> client_name >> file_name;
    if (!RequireNetwork(session)) {
      return;
    }
    auto it = session.clients.find(client_name);
    if (it == session.clients.end()) {
      std::printf("error: unknown client '%s'\n", client_name.c_str());
      return;
    }
    FileId file_id;
    auto known = session.files.find(FileKey(client_name, file_name));
    if (known != session.files.end()) {
      file_id = known->second;
    } else if (!FileId::FromHex(file_name, &file_id)) {
      std::printf("error: unknown file '%s' (pass a 40-hex fileId to fetch foreign files)\n",
                  file_name.c_str());
      return;
    }
    LookupResult r = it->second->Lookup(file_id);
    if (!r.found()) {
      std::printf("not found\n");
    } else {
      std::printf("ok: %llu bytes in %d hops from %s%s%s\n",
                  static_cast<unsigned long long>(r.file_size), r.hops,
                  r.served_by.ToHex().substr(0, 8).c_str(),
                  r.served_from_cache ? " (cache)" : "",
                  r.content != nullptr ? (" | " + *r.content).c_str() : "");
    }
  } else if (command == "reclaim") {
    std::string client_name, file_name;
    in >> client_name >> file_name;
    if (!RequireNetwork(session)) {
      return;
    }
    auto it = session.clients.find(client_name);
    if (it == session.clients.end()) {
      std::printf("error: unknown client '%s'\n", client_name.c_str());
      return;
    }
    auto known = session.files.find(FileKey(client_name, file_name));
    if (known == session.files.end()) {
      std::printf("error: unknown file '%s'\n", file_name.c_str());
      return;
    }
    ReclaimResult r = it->second->Reclaim(known->second);
    std::printf("%s: %u replicas, %llu bytes reclaimed\n", r.accepted() ? "ok" : "rejected",
                r.replicas_reclaimed, static_cast<unsigned long long>(r.bytes_reclaimed));
    session.files.erase(known);
  } else if (command == "join") {
    size_t count = 0;
    uint64_t capacity = 0;
    in >> count >> capacity;
    if (!RequireNetwork(session) || count == 0 || capacity == 0) {
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      session.nodes.push_back(session.network->AddStorageNode(capacity));
    }
    std::printf("ok: %zu nodes joined (%zu live)\n", count,
                session.network->overlay().live_count());
  } else if (command == "fail") {
    size_t count = 0;
    in >> count;
    if (!RequireNetwork(session) || count == 0) {
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      std::vector<NodeId> live = session.network->overlay().live_nodes();
      if (live.size() <= 2) {
        break;
      }
      session.network->FailStorageNode(live[session.rng->NextBelow(live.size())]);
    }
    std::printf("ok: %zu live nodes remain\n", session.network->overlay().live_count());
  } else if (command == "stats") {
    if (!RequireNetwork(session)) {
      return;
    }
    const obs::MetricsSnapshot m = session.network->metrics().Snapshot();
    PastNetwork::ReplicaCensus census = session.network->CountReplicas();
    std::printf("nodes=%zu utilization=%.2f%% replicas=%llu diverted=%llu lookups=%llu "
                "cache_hits=%llu recreated=%llu lost=%llu\n",
                session.network->overlay().live_count(),
                session.network->utilization() * 100.0,
                static_cast<unsigned long long>(census.replicas),
                static_cast<unsigned long long>(census.diverted),
                static_cast<unsigned long long>(m.CounterValue("past.lookup.requests")),
                static_cast<unsigned long long>(m.CounterValue("past.lookup.cache_hits")),
                static_cast<unsigned long long>(
                    m.CounterValue("past.maintenance.replicas_recreated")),
                static_cast<unsigned long long>(m.CounterValue("past.maintenance.files_lost")));
  } else if (command == "quit" || command == "exit") {
    std::exit(0);
  } else {
    std::printf("error: unknown command '%s'\n", command.c_str());
  }
}

}  // namespace

int main() {
  Session session;
  std::string line;
  while (std::getline(std::cin, line)) {
    HandleLine(session, line);
  }
  return 0;
}
