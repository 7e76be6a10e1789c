// Minimal JSON object writer for the benchmark binary's one-line reports.
#ifndef DSSJ_PERFBENCH_JSON_H_
#define DSSJ_PERFBENCH_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace dssj::perfbench {

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t v) { return Raw(key, std::to_string(v)); }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      // Control characters would need escapes; a space keeps the line valid.
      quoted += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& o) {
    return Raw(key, o.ToString());
  }

  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }

  std::string body_;
};

}  // namespace dssj::perfbench

#endif  // DSSJ_PERFBENCH_JSON_H_
