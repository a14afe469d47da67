//===- support/JSON.cpp - Minimal JSON value, parser, writer -------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "support/JSON.h"
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace srp;
using namespace srp::json;

void Value::set(const std::string &Key, Value V) {
  K = Kind::Object;
  for (auto &[Name, Existing] : Obj)
    if (Name == Key) {
      Existing = std::move(V);
      return;
    }
  Obj.emplace_back(Key, std::move(V));
}

//===----------------------------------------------------------------------===
// Writer
//===----------------------------------------------------------------------===

void Writer::separate() {
  if (AfterKey) {
    AfterKey = false;
    return;
  }
  if (Stack.empty())
    return;
  Frame &F = Stack.back();
  if (F.L == Layout::Block) {
    Out += F.Empty ? "\n" : ",\n";
    Out.append(2 * BlockDepth, ' ');
  } else if (!F.Empty) {
    Out += F.L == Layout::Inline ? ", " : ",";
  }
  F.Empty = false;
}

Writer &Writer::open(char Bracket, std::optional<Layout> L) {
  separate();
  Out += Bracket;
  Stack.push_back({Bracket == '{' ? '}' : ']', L.value_or(Default), true});
  if (Stack.back().L == Layout::Block)
    ++BlockDepth;
  return *this;
}

Writer &Writer::end() {
  Frame F = Stack.back();
  Stack.pop_back();
  if (F.L == Layout::Block) {
    --BlockDepth;
    if (!F.Empty) {
      Out += '\n';
      Out.append(2 * BlockDepth, ' ');
    }
  }
  Out += F.Close;
  return *this;
}

void Writer::string(std::string_view S) {
  Out += '"';
  size_t Run = 0; // start of the pending unescaped run
  for (size_t I = 0; I != S.size(); ++I) {
    const unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S, Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    }
    }
  }
  Out.append(S, Run, S.size() - Run);
  Out += '"';
}

Writer &Writer::key(std::string_view K) {
  separate();
  string(K);
  Out += Stack.back().L == Layout::Compact ? ":" : ": ";
  AfterKey = true;
  return *this;
}

Writer &Writer::value(double V, Fmt F) {
  static const char *const Formats[] = {"%g",   "%.2f", "%.3f",
                                        "%.6f", "%.9f", "%.17g"};
  separate();
  // Wide enough for %.9f of DBL_MAX (309 integer digits).
  char Buf[352];
  Out.append(Buf, std::snprintf(Buf, sizeof(Buf),
                                Formats[static_cast<int>(F)], V));
  return *this;
}

Writer &Writer::value(std::string_view S) {
  separate();
  string(S);
  return *this;
}

Writer &Writer::raw(std::string_view Json) {
  separate();
  Out += Json;
  return *this;
}

Writer &Writer::value(const Value &V) {
  switch (V.kind()) {
  case Value::Kind::Null:
    return null();
  case Value::Kind::Bool:
    return value(V.asBool());
  case Value::Kind::Int:
    return value(V.asInt());
  case Value::Kind::Double:
    return value(V.asDouble(), Fmt::Exact);
  case Value::Kind::String:
    return value(V.asString());
  case Value::Kind::Array:
    beginArray();
    for (const Value &E : V.items())
      value(E);
    return end();
  case Value::Kind::Object:
    beginObject();
    for (const auto &[Name, E] : V.members())
      member(Name, E);
    return end();
  }
  return null();
}

std::string Value::dump() const {
  Writer W(Layout::Compact);
  W.value(*this);
  return W.take();
}

namespace {

/// Recursive-descent parser over a byte range. Depth-limited so hostile
/// protocol input cannot blow the stack.
class Parser {
  const char *P;
  const char *End;
  const char *Begin;
  std::string &Err;
  static constexpr unsigned MaxDepth = 64;

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = "offset " + std::to_string(P - Begin) + ": " + Msg;
    return false;
  }

  void skipWs() {
    while (P != End &&
           (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  bool literal(const char *Lit) {
    const char *Q = P;
    while (*Lit) {
      if (Q == End || *Q != *Lit)
        return fail("invalid literal");
      ++Q;
      ++Lit;
    }
    P = Q;
    return true;
  }

  bool parseString(std::string &Out) {
    // Caller consumed the opening quote check; *P == '"'.
    ++P;
    while (P != End && *P != '"') {
      char C = *P;
      if (C != '\\') {
        Out += C;
        ++P;
        continue;
      }
      ++P;
      if (P == End)
        return fail("unterminated escape");
      switch (*P) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (End - P < 5)
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int H = 1; H <= 4; ++H) {
          char X = P[H];
          Code <<= 4;
          if (X >= '0' && X <= '9')
            Code |= unsigned(X - '0');
          else if (X >= 'a' && X <= 'f')
            Code |= unsigned(X - 'a' + 10);
          else if (X >= 'A' && X <= 'F')
            Code |= unsigned(X - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // Encode as UTF-8 (no surrogate-pair handling; the protocol
        // only escapes control characters this way).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        P += 4;
        break;
      }
      default:
        return fail("unknown escape");
      }
      ++P;
    }
    if (P == End)
      return fail("unterminated string");
    ++P; // closing quote
    return true;
  }

  bool digits() {
    const char *Start = P;
    while (P != End && *P >= '0' && *P <= '9')
      ++P;
    return P != Start;
  }

  /// The JSON number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  /// The whole token must convert; integers that overflow int64 are kept
  /// as doubles.
  bool parseNumber(Value &Out) {
    const char *Start = P;
    if (P != End && *P == '-')
      ++P;
    if (P != End && *P == '0')
      ++P;
    else if (!digits())
      return fail("invalid number");
    bool IsDouble = false;
    if (P != End && *P == '.') {
      ++P;
      IsDouble = true;
      if (!digits())
        return fail("invalid number");
    }
    if (P != End && (*P == 'e' || *P == 'E')) {
      ++P;
      IsDouble = true;
      if (P != End && (*P == '+' || *P == '-'))
        ++P;
      if (!digits())
        return fail("invalid number");
    }
    const std::string Num(Start, P);
    char *NumEnd = nullptr;
    if (!IsDouble) {
      errno = 0;
      long long V = std::strtoll(Num.c_str(), &NumEnd, 10);
      if (errno == 0 && NumEnd == Num.c_str() + Num.size()) {
        Out = Value::integer(V);
        return true;
      }
    }
    double D = std::strtod(Num.c_str(), &NumEnd);
    if (NumEnd != Num.c_str() + Num.size())
      return fail("invalid number");
    Out = Value::number(D);
    return true;
  }

public:
  Parser(const std::string &Text, std::string &Err)
      : P(Text.data()), End(Text.data() + Text.size()), Begin(Text.data()),
        Err(Err) {}

  bool parseValue(Value &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (P == End)
      return fail("unexpected end of input");
    switch (*P) {
    case 'n':
      Out = Value::null();
      return literal("null");
    case 't':
      Out = Value::boolean(true);
      return literal("true");
    case 'f':
      Out = Value::boolean(false);
      return literal("false");
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value::string(std::move(S));
      return true;
    }
    case '[': {
      ++P;
      Out = Value::array();
      skipWs();
      if (P != End && *P == ']') {
        ++P;
        return true;
      }
      while (true) {
        Value Elem;
        if (!parseValue(Elem, Depth + 1))
          return false;
        Out.push(std::move(Elem));
        skipWs();
        if (P == End)
          return fail("unterminated array");
        if (*P == ',') {
          ++P;
          continue;
        }
        if (*P == ']') {
          ++P;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    case '{': {
      ++P;
      Out = Value::object();
      skipWs();
      if (P != End && *P == '}') {
        ++P;
        return true;
      }
      while (true) {
        skipWs();
        if (P == End || *P != '"')
          return fail("expected member name");
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (P == End || *P != ':')
          return fail("expected ':'");
        ++P;
        Value Member;
        if (!parseValue(Member, Depth + 1))
          return false;
        Out.set(Key, std::move(Member));
        skipWs();
        if (P == End)
          return fail("unterminated object");
        if (*P == ',') {
          ++P;
          continue;
        }
        if (*P == '}') {
          ++P;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    default:
      return parseNumber(Out);
    }
  }

  bool atEnd() {
    skipWs();
    return P == End;
  }
};

} // namespace

bool srp::json::parse(const std::string &Text, Value &Out,
                      std::string &Err) {
  Err.clear();
  Parser P(Text, Err);
  if (!P.parseValue(Out, 0))
    return false;
  if (!P.atEnd()) {
    Err = "trailing garbage after value";
    return false;
  }
  return true;
}
