//===- support/JSON.h - Minimal JSON value, parser, writer -----*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo's one JSON layer: a streaming writer that every report, trace
/// and protocol message is rendered through, and a parser for the
/// compile-server protocol (docs/SERVER.md) and the tools that consume
/// srpc reports.
///
/// Writer owns everything about how JSON looks: string escaping, the
/// separators, two-space indentation and how empty containers print.
/// Each object or array is opened in one of three layouts (Layout), so a
/// document mixes them freely — a block report whose pass records are
/// inline rows, a compact protocol line — and nested sections need no
/// indent argument: renderers write into the caller's Writer at whatever
/// depth it is.
///
/// Scope is deliberately narrow: UTF-8 text, no comments, numbers kept
/// as int64 when they round-trip exactly (the protocol's ids and
/// counters) and double otherwise. Object member order is preserved so
/// serialisation is byte-stable.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_SUPPORT_JSON_H
#define SRP_SUPPORT_JSON_H

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace srp {
namespace json {

/// How an object or array lays out its members. Indentation counts only
/// the enclosing block containers, so a block array inside an inline
/// object indents one level, not two.
enum class Layout {
  Block,   ///< One member per line, two-space indented; `{}` when empty.
  Inline,  ///< One line with `", "` and `": "` separators.
  Compact, ///< One line without insignificant whitespace: `{"a":1}`.
};

/// The fixed formats a double is written in.
enum class Fmt {
  G,      ///< %g (six significant digits)
  Fixed2, ///< %.2f
  Fixed3, ///< %.3f
  Fixed6, ///< %.6f
  Fixed9, ///< %.9f
  Exact,  ///< %.17g (round-trips)
};

class Value;

/// Streaming JSON writer appending to one string. Calls nest like the
/// document: beginObject/key/value.../end. Misuse (a value where a key is
/// due, unbalanced ends) is the caller's bug and is not diagnosed.
class Writer {
  struct Frame {
    char Close; ///< '}' or ']'
    Layout L;
    bool Empty;
  };
  Layout Default;
  std::string Out;
  std::vector<Frame> Stack;
  unsigned BlockDepth = 0;
  bool AfterKey = false;

  void separate();
  Writer &open(char Bracket, std::optional<Layout> L);
  void string(std::string_view S);

public:
  /// \p Default is the layout of every container opened without one.
  explicit Writer(Layout Default = Layout::Block) : Default(Default) {}

  Writer &beginObject(std::optional<Layout> L = {}) { return open('{', L); }
  Writer &beginArray(std::optional<Layout> L = {}) { return open('[', L); }
  /// Closes the innermost open object or array.
  Writer &end();
  /// Starts an object member; the next call writes its value.
  Writer &key(std::string_view K);

  Writer &null() { return raw("null"); }
  Writer &value(bool V) { return raw(V ? "true" : "false"); }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer &value(T V) {
    separate();
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
    return *this;
  }
  Writer &value(double V, Fmt F = Fmt::G);
  Writer &value(std::string_view S);
  Writer &value(const char *S) { return value(std::string_view(S)); }
  /// Writes \p V in this writer's default layout, doubles as Fmt::Exact.
  Writer &value(const Value &V);
  /// Writes an already-rendered JSON document verbatim as one value.
  Writer &raw(std::string_view Json);

  /// key(K) then value(V...).
  template <typename... T> Writer &member(std::string_view K, T &&...V) {
    key(K);
    return value(std::forward<T>(V)...);
  }

  const std::string &str() const { return Out; }
  std::string take() { return std::move(Out); }
};

/// Renders one document through \p Render (a `fooToJson(Writer &, const
/// T &)` renderer) and returns its bytes.
template <typename T>
std::string render(void (*Render)(Writer &, const T &), const T &X) {
  Writer W;
  Render(W, X);
  return W.take();
}

/// One JSON value. Objects keep insertion order (vector of pairs) so a
/// decode -> encode round trip is byte-stable.
class Value {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

private:
  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;

public:
  Value() = default;
  static Value null() { return Value(); }
  static Value boolean(bool V) {
    Value R;
    R.K = Kind::Bool;
    R.B = V;
    return R;
  }
  static Value integer(int64_t V) {
    Value R;
    R.K = Kind::Int;
    R.I = V;
    return R;
  }
  static Value number(double V) {
    Value R;
    R.K = Kind::Double;
    R.D = V;
    return R;
  }
  static Value string(std::string V) {
    Value R;
    R.K = Kind::String;
    R.S = std::move(V);
    return R;
  }
  static Value array() {
    Value R;
    R.K = Kind::Array;
    return R;
  }
  static Value object() {
    Value R;
    R.K = Kind::Object;
    return R;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool(bool Default = false) const {
    return K == Kind::Bool ? B : Default;
  }
  /// A double converts (truncating) only when int64 can hold it; a
  /// protocol field such as `"id": 1e300` reads as \p Default.
  int64_t asInt(int64_t Default = 0) const {
    if (K == Kind::Int)
      return I;
    if (K == Kind::Double && D >= -0x1p63 && D < 0x1p63)
      return static_cast<int64_t>(D);
    return Default;
  }
  double asDouble(double Default = 0) const {
    if (K == Kind::Double)
      return D;
    if (K == Kind::Int)
      return static_cast<double>(I);
    return Default;
  }
  const std::string &asString() const { return S; }
  std::string asString(const std::string &Default) const {
    return K == Kind::String ? S : Default;
  }

  // Array access.
  const std::vector<Value> &items() const { return Arr; }
  void push(Value V) { Arr.push_back(std::move(V)); }
  size_t size() const {
    return K == Kind::Array ? Arr.size() : Obj.size();
  }

  // Object access. get() returns null for missing keys; has() tests.
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }
  const Value *find(const std::string &Key) const {
    for (const auto &[Name, V] : Obj)
      if (Name == Key)
        return &V;
    return nullptr;
  }
  bool has(const std::string &Key) const { return find(Key) != nullptr; }
  const Value &get(const std::string &Key) const {
    static const Value Null;
    const Value *V = find(Key);
    return V ? *V : Null;
  }
  /// Appends (or replaces) a member, preserving first-set order.
  void set(const std::string &Key, Value V);

  /// Serialises compactly (Layout::Compact, doubles as Fmt::Exact) — one
  /// line, since escaping leaves no raw newline in a string.
  std::string dump() const;
};

/// Parses \p Text into \p Out. On failure returns false and sets \p Err
/// to "offset N: message". Trailing whitespace is allowed; trailing
/// garbage is an error.
bool parse(const std::string &Text, Value &Out, std::string &Err);

} // namespace json
} // namespace srp

#endif // SRP_SUPPORT_JSON_H
