// Command-line flag parsing for benches and examples.
//
// Flags are "--key=value" or "--key value"; "--flag" alone sets a boolean.
// A program reads every flag it accepts, then calls reject_unread(): any
// flag left over is unknown and raises ConfigError, so typos in sweep
// scripts fail loudly instead of silently running the defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fedl {

class Flags {
 public:
  // Parses argv; throws ConfigError on malformed input.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  // Comma-separated list of doubles, e.g. --budgets=100,200,400.
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> fallback) const;

  // Keys that were parsed but never read; callers can warn on leftovers.
  std::vector<std::string> unread_keys() const;

  // Throws ConfigError naming every key that was parsed but never read.
  void reject_unread() const;

 private:
  std::optional<std::string> raw(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
};

}  // namespace fedl
