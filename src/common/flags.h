#ifndef DSSJ_COMMON_FLAGS_H_
#define DSSJ_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace dssj {

/// Minimal command-line flag parser for the example/tool binaries:
/// `--key=value` or `--key value`; everything else is a positional
/// argument. No registration step — callers query typed getters with
/// defaults, and unknown keys are reported so typos fail loudly.
class Flags {
 public:
  /// Parses argv (skipping argv[0]). Returns InvalidArgument on malformed
  /// input (e.g. `--key` at the end without a value, empty key).
  static StatusOr<Flags> Parse(int argc, const char* const* argv);

  bool Has(const std::string& key) const;

  /// Typed getters; return `def` when the flag is absent. A value that
  /// does not parse (or overflows) also yields `def` and is recorded as a
  /// usage error that names the flag — see ValueErrors().
  std::string GetString(const std::string& key, const std::string& def) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were provided but never queried — call after all getters to
  /// reject typos.
  std::vector<std::string> UnusedKeys() const;

  /// One message per malformed value a getter met, in query order — call
  /// after all getters and treat any as a usage error.
  const std::vector<std::string>& ValueErrors() const { return value_errors_; }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
  mutable std::vector<std::string> value_errors_;
  std::vector<std::string> positional_;
};

}  // namespace dssj

#endif  // DSSJ_COMMON_FLAGS_H_
