//===- server/Client.cpp - Compile-server client --------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace srp;
using namespace srp::server;

bool Client::connect(const std::string &SocketPath, std::string &Err) {
  disconnect();
  sockaddr_un Addr{};
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + SocketPath;
    return false;
  }
  FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (FD < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = "connect " + SocketPath + ": " + std::strerror(errno);
    ::close(FD);
    FD = -1;
    return false;
  }
  return true;
}

void Client::disconnect() {
  if (FD >= 0) {
    ::close(FD);
    FD = -1;
  }
  Buf.clear();
}

bool Client::sendLine(const std::string &Line, std::string &Err) {
  std::string Out = Line + "\n";
  size_t Sent = 0;
  while (Sent < Out.size()) {
    ssize_t N =
        ::send(FD, Out.data() + Sent, Out.size() - Sent, MSG_NOSIGNAL);
    if (N <= 0) {
      Err = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}

bool Client::recvLine(std::string &Line, std::string &Err) {
  char Chunk[4096];
  for (;;) {
    size_t NL = Buf.find('\n');
    if (NL != std::string::npos) {
      Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      return true;
    }
    ssize_t Got = ::recv(FD, Chunk, sizeof(Chunk), 0);
    if (Got <= 0) {
      Err = Got == 0 ? "server closed the connection"
                     : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    Buf.append(Chunk, static_cast<size_t>(Got));
  }
}

bool Client::roundTrip(const std::string &RequestLine,
                       std::string &ResponseLine, std::string &Err) {
  if (FD < 0) {
    Err = "not connected";
    return false;
  }
  if (!sendLine(RequestLine, Err))
    return false;
  return recvLine(ResponseLine, Err);
}

namespace {
/// A bare `{"op":...}` request.
std::string opRequest(const char *Op) {
  json::Writer W;
  W.beginObject(json::Layout::Compact).member("op", Op).end();
  return W.take();
}
} // namespace

bool Client::compile(const CompileJob &Job, CompileResponse &Out,
                     std::string &Err) {
  std::string Resp;
  if (!roundTrip(encodeCompileRequest(Job, NextId++), Resp, Err))
    return false;
  json::Value V;
  if (!json::parse(Resp, V, Err)) {
    Err = "bad response: " + Err;
    return false;
  }
  return decodeCompileResponse(V, Out, Err);
}

bool Client::ping(std::string &Err) {
  std::string Resp;
  if (!roundTrip(opRequest("ping"), Resp, Err))
    return false;
  json::Value V;
  if (!json::parse(Resp, V, Err))
    return false;
  if (!V.get("ok").asBool(false)) {
    Err = "server refused ping";
    return false;
  }
  return true;
}

bool Client::requestStats(std::string &StatsJson, std::string &Err) {
  std::string Resp;
  if (!roundTrip(opRequest("stats"), Resp, Err))
    return false;
  json::Value V;
  if (!json::parse(Resp, V, Err))
    return false;
  const json::Value *S = V.find("stats");
  if (!V.get("ok").asBool(false) || !S) {
    Err = "server refused stats request";
    return false;
  }
  StatsJson = S->dump();
  return true;
}

bool Client::requestMetrics(std::string &PrometheusText, std::string &Err) {
  std::string Resp;
  if (!roundTrip(opRequest("metrics"), Resp, Err))
    return false;
  json::Value V;
  if (!json::parse(Resp, V, Err))
    return false;
  const json::Value *P = V.find("prometheus");
  if (!V.get("ok").asBool(false) || !P || !P->isString()) {
    Err = "server refused metrics request";
    return false;
  }
  PrometheusText = P->asString();
  return true;
}

bool Client::requestShutdown(std::string &Err) {
  std::string Resp;
  if (!roundTrip(opRequest("shutdown"), Resp, Err))
    return false;
  json::Value V;
  if (!json::parse(Resp, V, Err))
    return false;
  if (!V.get("ok").asBool(false)) {
    Err = "server refused shutdown";
    return false;
  }
  return true;
}
