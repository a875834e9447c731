// Typed node-to-node messages: the PAST/Pastry wire protocol.
//
// Every protocol interaction that crosses a node boundary — storing a
// replica, diverting it into the leaf set, fetching a file, reclaiming,
// repair traffic, keep-alive probes — is expressed as a Message handed to a
// Transport. The payload bytes themselves never travel (all nodes share one
// process, exactly like the paper's network emulation); a Message carries
// the *accounting identity* of the exchange — type, endpoints, payload size,
// and the route shape (hops / proximity distance) — which is what the
// transport needs for stats, latency simulation, and fault injection. The
// application-level contents ride in the delivery continuation closure.
#ifndef SRC_NET_MESSAGE_H_
#define SRC_NET_MESSAGE_H_

#include <cstdint>

#include "src/common/file_id.h"
#include "src/common/node_id.h"

namespace past {

enum class MessageType : uint8_t {
  kInsertRequest,   // client/origin -> root, rides the Pastry route
  kStoreReplica,    // root -> one of the k closest, carries the file bytes
  kDivertRequest,   // declining node A -> leaf-set member B (section 3.3)
  kInstallPointer,  // diverter A -> witness C: shadow the diversion pointer
  kAck,             // any store/reclaim reply, positive or negative
  kLookupRequest,   // origin -> serving node, rides the route
  kFetchReply,      // serving node -> origin, carries the file bytes back
  kReclaimRequest,  // root -> replica holder (section 2.2 reclaim)
  kRepairStore,     // maintenance: holder -> new replica site (section 3.5)
  kRepairPointer,   // maintenance: install a replacement diversion pointer
  kKeepAliveProbe,  // leaf-set neighbor liveness probe (section 2.1)
  kKeepAliveAck,    // probe response
};

inline constexpr size_t kMessageTypeCount = 12;

const char* MessageTypeName(MessageType type);

struct Message {
  MessageType type = MessageType::kAck;
  NodeId from;
  NodeId to;
  FileId file;                 // zero for membership / keep-alive traffic
  uint64_t payload_bytes = 0;  // file bytes riding the message (latency input)
  int hops = 1;       // overlay hops this message takes (routed msgs > 1)
  double distance = 0.0;  // proximity distance covered over those hops
};

inline const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kInsertRequest:
      return "insert_request";
    case MessageType::kStoreReplica:
      return "store_replica";
    case MessageType::kDivertRequest:
      return "divert_request";
    case MessageType::kInstallPointer:
      return "install_pointer";
    case MessageType::kAck:
      return "ack";
    case MessageType::kLookupRequest:
      return "lookup_request";
    case MessageType::kFetchReply:
      return "fetch_reply";
    case MessageType::kReclaimRequest:
      return "reclaim_request";
    case MessageType::kRepairStore:
      return "repair_store";
    case MessageType::kRepairPointer:
      return "repair_pointer";
    case MessageType::kKeepAliveProbe:
      return "keepalive_probe";
    case MessageType::kKeepAliveAck:
      return "keepalive_ack";
  }
  return "unknown";
}

}  // namespace past

#endif  // SRC_NET_MESSAGE_H_
