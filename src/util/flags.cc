#include "util/flags.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>

#include "util/logging.h"

namespace contender {

namespace {

// Parses all of `text` as a T; false for an empty, partial ("42x",
// "1e4" as an integer) or out-of-range value.
template <typename T>
bool ParseWhole(const std::string& text, T* value) {
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, *value);
  return ec == std::errc() && ptr == last;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) continue;
    arg.remove_prefix(2);
    auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[std::string(arg)] = argv[++i];
    } else if (arg.rfind("no-", 0) == 0) {
      values_[std::string(arg.substr(3))] = "false";
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int Flags::GetInt(const std::string& name, int default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  int value = 0;
  CONTENDER_CHECK(ParseWhole(it->second, &value))
      << "--" << name << "=" << it->second << " is not an integer in ["
      << std::numeric_limits<int>::min() << ", "
      << std::numeric_limits<int>::max() << "]";
  return value;
}

uint64_t Flags::Seed() const {
  auto it = values_.find("seed");
  if (it == values_.end()) return 42;
  int64_t value = 0;
  CONTENDER_CHECK(ParseWhole(it->second, &value))
      << "--seed=" << it->second << " is not an integer";
  return static_cast<uint64_t>(value);
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  double value = 0.0;
  CONTENDER_CHECK(ParseWhole(it->second, &value) && std::isfinite(value))
      << "--" << name << "=" << it->second << " is not a finite number";
  return value;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& text = it->second;
  CONTENDER_CHECK(text == "true" || text == "false" || text == "1" ||
                  text == "0")
      << "--" << name << "=" << text << " is not true/false/1/0";
  return text == "true" || text == "1";
}

}  // namespace contender
