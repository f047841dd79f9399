#include "common/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace dooc::spec {

namespace {

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return {};
  return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

/// The number at the front of `text`. Without `rest` it must be all of
/// `text`; with `rest`, whatever follows it lands there.
template <class T>
std::optional<T> number(const std::string& text, std::string* rest = nullptr) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || (rest == nullptr && ptr != end)) return std::nullopt;
  if (rest != nullptr) *rest = std::string(ptr, end);
  return v;
}

}  // namespace

void Value::reject(const std::string& what) const {
  throw InvalidArgument(std::string(env) + ": " + key + " wants " + what + ", got '" + text +
                        "'");
}

int Value::integer(int lo, int hi) const {
  const auto v = number<int>(text);
  if (!v || *v < lo || *v > hi) {
    reject("an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return *v;
}

std::uint64_t Value::uint64(std::uint64_t lo, std::uint64_t hi) const {
  const auto v = number<std::uint64_t>(text);
  if (!v || *v < lo || *v > hi) {
    reject("an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return *v;
}

double Value::real(double lo, double hi) const {
  const auto v = number<double>(text);
  if (v && std::isfinite(*v) && *v >= lo && *v <= hi) return *v;
  char what[64];
  std::snprintf(what, sizeof what, "a finite number in [%g, %g]", lo, hi);
  reject(what);
}

bool Value::boolean() const { return choice({"0", "1", "false", "true"}) % 2 == 1; }

std::size_t Value::choice(std::initializer_list<const char*> names) const {
  std::string all;
  std::size_t i = 0;
  for (const char* name : names) {
    if (text == name) return i;
    all += (i++ == 0 ? "" : "|") + std::string(name);
  }
  reject("one of " + all);
}

double Value::duration_s() const {
  static constexpr std::pair<const char*, double> kUnits[] = {
      {"", 1e-3}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1.0}};
  std::string unit;
  const auto v = number<double>(text, &unit);
  for (const auto& [name, scale] : kUnits) {
    if (v && std::isfinite(*v) && *v >= 0.0 && unit == name) return *v * scale;
  }
  reject("a duration >= 0 (ns|us|ms|s, default ms)");
}

std::pair<Value, std::optional<Value>> Value::split(char sep) const {
  const std::size_t at = text.find(sep);
  if (at == std::string::npos) return {*this, std::nullopt};
  return {Value{env, key, text.substr(0, at)}, Value{env, key, text.substr(at + 1)}};
}

void parse(const char* env, const std::string& text, std::initializer_list<Key> keys,
           const Setter& mode) {
  bool first = true;
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string tok = trim(text.substr(pos, comma - pos));
    pos = comma + 1;
    if (tok.empty()) continue;
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      if (!first || !mode) Value{env, tok, tok}.reject("a value (key=value)");
      mode(Value{env, "mode", tok});
    } else {
      const Value v{env, trim(tok.substr(0, eq)), trim(tok.substr(eq + 1))};
      const auto k = std::find_if(keys.begin(), keys.end(),
                                  [&](const Key& key) { return v.key == key.name; });
      if (k == keys.end()) {
        std::string known;
        for (const Key& key : keys) known += (known.empty() ? "" : ", ") + std::string(key.name);
        throw InvalidArgument(std::string(env) + ": unknown key '" + v.key + "' (known: " +
                              known + ")");
      }
      k->set(v);
    }
    first = false;
  }
}

std::string env(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

}  // namespace dooc::spec
