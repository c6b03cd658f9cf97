// A one-line JSON object builder for the driver's answers.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace fleetbench {

class Json {
 public:
  Json& add(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  Json& add(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Json& add(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(value) ? value : 0.0);
    return raw(key, buf);
  }
  Json& add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  Json& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  Json& add(const std::string& key, const Json& value) {
    return raw(key, value.str());
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }

  std::string body_;
};

}  // namespace fleetbench
