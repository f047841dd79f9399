// common/spec — the one grammar behind every DOOC_* runtime spec
// (DOOC_FAULTS, DOOC_JOBS, DOOC_CODEC, DOOC_TELEMETRY, DOOC_REPLICATION).
//
// A spec is a comma-separated list of `key=value` tokens. Tokens, keys and
// values are trimmed of spaces and tabs; empty tokens are skipped. A grammar
// may accept one bare leading mode token (`on`, `off`, ...). A repeated key
// is applied again, so for plain settings the last one wins. Every typed
// reader must consume the whole value, and every error is an
// InvalidArgument worded one of two ways:
//
//   DOOC_X: <key> wants <what>, got '<val>'
//   DOOC_X: unknown key '<k>' (known: a, b, ...)
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>

namespace dooc::spec {

/// One value of a spec, with enough context to word its own error.
struct Value {
  const char* env;
  std::string key;
  std::string text;

  /// Throw "<env>: <key> wants <what>, got '<text>'".
  [[noreturn]] void reject(const std::string& what) const;

  /// Decimal integers in [lo, hi].
  [[nodiscard]] int integer(int lo, int hi) const;
  [[nodiscard]] std::uint64_t uint64(std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX) const;
  /// Finite double in [lo, hi].
  [[nodiscard]] double real(double lo, double hi) const;
  /// `0|1|true|false`.
  [[nodiscard]] bool boolean() const;
  /// Index of `text` among `names`.
  [[nodiscard]] std::size_t choice(std::initializer_list<const char*> names) const;
  /// `<number>[ns|us|ms|s]` (default ms) → seconds; finite and >= 0.
  [[nodiscard]] double duration_s() const;
  /// Split a compound value (`P:DUR`, `NODE@AFTER`) at the first `sep`;
  /// the tail is empty when `sep` is absent.
  [[nodiscard]] std::pair<Value, std::optional<Value>> split(char sep) const;
};

using Setter = std::function<void(const Value&)>;

struct Key {
  const char* name;
  Setter set;
};

/// Tokenize `text` and hand each `key=value` to its entry in `keys`. A bare
/// first token goes to `mode` (key "mode"); grammars without one pass none.
void parse(const char* env, const std::string& text, std::initializer_list<Key> keys,
           const Setter& mode = nullptr);

/// The variable's value, or "" when unset.
[[nodiscard]] std::string env(const char* name);

}  // namespace dooc::spec
