// Minimal streaming JSON writer for the generator's result object.  The
// orchestrator (perfbench/run.py) parses the single line it produces.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonOut {
 public:
  JsonOut& begin_object() { sep(); s_ += '{'; first_ = true; return *this; }
  JsonOut& end_object() { s_ += '}'; first_ = false; return *this; }
  JsonOut& begin_array() { sep(); s_ += '['; first_ = true; return *this; }
  JsonOut& end_array() { s_ += ']'; first_ = false; return *this; }

  JsonOut& key(std::string_view k) {
    sep();
    str_raw(k);
    s_ += ':';
    first_ = true;  // the value follows without a comma
    return *this;
  }

  JsonOut& value(uint64_t v) {
    sep();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    s_ += buf;
    return *this;
  }
  JsonOut& value(int64_t v) {
    sep();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    s_ += buf;
    return *this;
  }
  JsonOut& value(int v) { return value(static_cast<int64_t>(v)); }
  JsonOut& value(uint32_t v) { return value(static_cast<uint64_t>(v)); }
  JsonOut& value(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    s_ += buf;
    return *this;
  }
  JsonOut& value(bool v) {
    sep();
    s_ += v ? "true" : "false";
    return *this;
  }
  JsonOut& value(std::string_view v) {
    sep();
    str_raw(v);
    return *this;
  }
  JsonOut& value(const char* v) { return value(std::string_view(v)); }
  JsonOut& value(const std::string& v) { return value(std::string_view(v)); }

  template <typename T>
  JsonOut& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  template <typename T>
  JsonOut& array(std::string_view k, const std::vector<T>& v) {
    key(k);
    begin_array();
    for (const T& x : v) value(x);
    return end_array();
  }

  const std::string& str() const { return s_; }

 private:
  void sep() {
    if (!first_) s_ += ',';
    first_ = false;
  }
  void str_raw(std::string_view v) {
    s_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        s_ += '\\';
        s_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        s_ += buf;
      } else {
        s_ += c;
      }
    }
    s_ += '"';
  }

  std::string s_;
  bool first_ = true;
};

}  // namespace perfbench
