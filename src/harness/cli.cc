#include "src/harness/cli.h"

#include <cerrno>
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
  for (size_t i = 0; i < args_.size(); ++i) {
    if (args_[i] != flag) {
      continue;
    }
    if (i + 1 == args_.size() || args_[i + 1].rfind("--", 0) == 0) {
      ExitOnBadValue(flag, "needs a value");
    }
    // A later occurrence would otherwise be ignored without a word. Values
    // never start with `--`, so any later match is the flag itself.
    for (size_t j = i + 2; j < args_.size(); ++j) {
      if (args_[j] == flag) {
        ExitOnBadValue(flag, "is given more than once");
      }
    }
    return &args_[i + 1];
  }
  return nullptr;
}

void CommandLine::ExitOnBadValue(const std::string& flag, const std::string& why) {
  std::fprintf(stderr, "error: %s %s\n", flag.c_str(), why.c_str());
  std::exit(2);
}

int64_t CommandLine::GetInt(const std::string& flag, int64_t default_value) const {
  const std::string* v = ValueOf(flag);
  if (v == nullptr) {
    return default_value;
  }
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
    ExitOnBadValue(flag, "needs an integer, got '" + *v + "'");
  }
  if (value < 0) {
    // Every caller casts the value to an unsigned count or seed, where -1
    // would read as 2^64 - 1.
    ExitOnBadValue(flag, "needs a non-negative integer, got '" + *v + "'");
  }
  return value;
}

double CommandLine::GetDouble(const std::string& flag, double default_value) const {
  const std::string* v = ValueOf(flag);
  if (v == nullptr) {
    return default_value;
  }
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE) {
    ExitOnBadValue(flag, "needs a number, got '" + *v + "'");
  }
  return value;
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
  // A word that is no flag must be the value of the flag before it: one read
  // as `--flag value`, or an unknown flag, already reported above.
  bool stray = false;
  for (size_t i = 0; i < args_.size(); ++i) {
    const std::string& a = args_[i];
    if (a.rfind("--", 0) == 0 || queried_.count(a) != 0) {
      continue;
    }
    const bool after_flag = i > 0 && args_[i - 1].rfind("--", 0) == 0;
    if (!after_flag || (queried_.count(args_[i - 1]) != 0 && valued_.count(args_[i - 1]) == 0)) {
      std::fprintf(stderr, "error: unexpected argument %s\n", a.c_str());
      stray = true;
    }
  }
  if (!unknown.empty() || stray) {
    std::exit(2);
  }
}

}  // namespace past
