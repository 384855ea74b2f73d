// Tiny command-line flag parser for bench and example binaries.
//
// Supports "--name=value" and "--name value" syntax plus boolean
// "--name" / "--no-name". Flags nobody looks up are ignored silently.
// A flag that is looked up must parse completely: GetInt accepts only a
// whole number that fits an int, Seed a whole 64-bit one, GetDouble only a
// finite number, GetBool only true/false/1/0; anything else CHECK-fails
// naming the flag.

#ifndef CONTENDER_UTIL_FLAGS_H_
#define CONTENDER_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace contender {

/// Parses argv into a name->value map and serves typed lookups with defaults.
class Flags {
 public:
  Flags(int argc, char** argv);

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int GetInt(const std::string& name, int default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Common seed flag: --seed=N (default 42), parsed as a 64-bit integer
  /// (a negative value wraps).
  uint64_t Seed() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace contender

#endif  // CONTENDER_UTIL_FLAGS_H_
