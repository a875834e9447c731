#include "src/obs/trace.h"

#include <sstream>

namespace past {
namespace obs {

const char* TraceOpKindName(TraceOpKind kind) {
  switch (kind) {
    case TraceOpKind::kInsert:
      return "insert";
    case TraceOpKind::kLookup:
      return "lookup";
    case TraceOpKind::kReclaim:
      return "reclaim";
    case TraceOpKind::kMaintenance:
      return "maintenance";
  }
  return "unknown";
}

std::string OpTraceJson(const OpTrace& event) {
  std::ostringstream out;
  out << "{\"op\": \"" << TraceOpKindName(event.kind) << "\", \"seq\": " << event.seq
      << ", \"file_id\": \"" << event.file_id << "\", \"node\": \"" << event.node
      << "\", \"status\": \"" << event.status << "\", \"size\": " << event.size
      << ", \"hops\": " << event.hops << ", \"distance\": " << event.distance
      << ", \"from_cache\": " << (event.from_cache ? "true" : "false")
      << ", \"diverted\": " << (event.diverted ? "true" : "false")
      << ", \"messages\": " << event.messages << ", \"latency_ms\": " << event.latency_ms
      << "}";
  return out.str();
}

JsonlTraceSink::JsonlTraceSink(const std::string& path) : out_(path, std::ios::trunc) {}

void JsonlTraceSink::Record(const OpTrace& event) {
  // Render outside the lock; only the stream write is serialized so lines
  // from concurrent writers never interleave mid-record.
  std::string line = OpTraceJson(event);
  std::lock_guard<std::mutex> lock(mu_);
  if (out_) {
    out_ << line << '\n';
  }
}

void JsonlTraceSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_) {
    out_.flush();
  }
}

}  // namespace obs
}  // namespace past
