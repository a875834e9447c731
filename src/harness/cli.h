// Minimal command-line flag parsing for the experiment bench binaries.
//
// A bench reads its `--flag value` / `--flag` options through the queries
// below, then calls ExitOnUnknownFlags(): a flag it never asked about (a
// typo, or a flag the bench no longer has) fails the run instead of leaving
// the default in place without a word. A valued flag with no value (the
// next word is missing or starts with `--`), a valued flag given more than
// once, a GetInt/GetDouble value that is not a number, or a negative GetInt
// value, exits 2 from the query itself. A bare run has no
// flags, so `for b in build/bench/*; do $b; done` always works. The
// google-benchmark binaries (bench_micro_*) parse their own flags and do not
// use this class.
#ifndef SRC_HARNESS_CLI_H_
#define SRC_HARNESS_CLI_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace past {

class CommandLine {
 public:
  CommandLine(int argc, char** argv);

  bool Has(const std::string& flag) const;
  // The value queries return `default_value` when the flag is absent; a bad
  // value prints `error: ...` naming the flag and exits with status 2.
  int64_t GetInt(const std::string& flag, int64_t default_value) const;
  double GetDouble(const std::string& flag, double default_value) const;
  std::string GetString(const std::string& flag, const std::string& default_value) const;

  // The `--` arguments no query has asked about, in command-line order. The
  // word after a flag read as `--flag value` is its value, never a flag.
  std::vector<std::string> UnknownFlags() const;

  // Prints `error: unknown flag --x` for each unknown flag and exits with
  // status 2 if there is any. Call once every flag has been read.
  void ExitOnUnknownFlags() const;

 private:
  const std::string* ValueOf(const std::string& flag) const;
  [[noreturn]] static void ExitOnBadValue(const std::string& flag, const std::string& why);

  std::vector<std::string> args_;
  // Flags asked about so far; the queries are const, so these record them.
  mutable std::set<std::string> queried_;
  mutable std::set<std::string> valued_;  // asked about as `--flag value`
};

}  // namespace past

#endif  // SRC_HARNESS_CLI_H_
