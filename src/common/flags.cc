#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace dssj {

StatusOr<Flags> Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string key, value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    } else {
      key = arg.substr(2);
      // `--flag` followed by a non-flag token is `--flag value`; a bare
      // trailing `--flag` is boolean true.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (key.empty()) return Status::InvalidArgument("empty flag name in '" + arg + "'");
    flags.values_[key] = value;
    flags.used_[key] = false;
  }
  return flags;
}

bool Flags::Has(const std::string& key) const {
  const auto it = values_.find(key);
  if (it != values_.end()) used_[key] = true;
  return it != values_.end();
}

std::string Flags::GetString(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  used_[key] = true;
  return it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  used_[key] = true;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0' || errno == ERANGE) {
    value_errors_.push_back("flag --" + key + " expects an integer, got '" + it->second + "'");
    return def;
  }
  return static_cast<int64_t>(v);
}

double Flags::GetDouble(const std::string& key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  used_[key] = true;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0' || errno == ERANGE || std::isnan(v)) {
    value_errors_.push_back("flag --" + key + " expects a number, got '" + it->second + "'");
    return def;
  }
  return v;
}

bool Flags::GetBool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  used_[key] = true;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  value_errors_.push_back("flag --" + key + " expects a boolean, got '" + v + "'");
  return def;
}

std::vector<std::string> Flags::UnusedKeys() const {
  std::vector<std::string> unused;
  for (const auto& [key, was_used] : used_) {
    if (!was_used) unused.push_back(key);
  }
  return unused;
}

}  // namespace dssj
