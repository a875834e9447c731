#include "src/harness/cli.h"

#include <cstdio>
#include <cstdlib>

namespace past {

CommandLine::CommandLine(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    args_.emplace_back(argv[i]);
  }
}

bool CommandLine::Has(const std::string& flag) const {
  queried_.insert(flag);
  for (const std::string& a : args_) {
    if (a == flag) {
      return true;
    }
  }
  return false;
}

const std::string* CommandLine::ValueOf(const std::string& flag) const {
  queried_.insert(flag);
  valued_.insert(flag);
  for (size_t i = 0; i + 1 < args_.size(); ++i) {
    if (args_[i] == flag) {
      return &args_[i + 1];
    }
  }
  return nullptr;
}

int64_t CommandLine::GetInt(const std::string& flag, int64_t default_value) const {
  const std::string* v = ValueOf(flag);
  return v == nullptr ? default_value : std::strtoll(v->c_str(), nullptr, 10);
}

double CommandLine::GetDouble(const std::string& flag, double default_value) const {
  const std::string* v = ValueOf(flag);
  return v == nullptr ? default_value : std::strtod(v->c_str(), nullptr);
}

std::string CommandLine::GetString(const std::string& flag,
                                   const std::string& default_value) const {
  const std::string* v = ValueOf(flag);
  return v == nullptr ? default_value : *v;
}

std::vector<std::string> CommandLine::UnknownFlags() const {
  std::vector<std::string> unknown;
  for (size_t i = 0; i < args_.size(); ++i) {
    const std::string& a = args_[i];
    if (a.rfind("--", 0) != 0) {
      continue;
    }
    if (queried_.count(a) == 0) {
      unknown.push_back(a);
    } else if (valued_.count(a) != 0) {
      ++i;  // skip the value
    }
  }
  return unknown;
}

void CommandLine::ExitOnUnknownFlags() const {
  std::vector<std::string> unknown = UnknownFlags();
  for (const std::string& flag : unknown) {
    std::fprintf(stderr, "error: unknown flag %s\n", flag.c_str());
  }
  if (!unknown.empty()) {
    std::exit(2);
  }
}

}  // namespace past
