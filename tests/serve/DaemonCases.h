//===- tests/serve/DaemonCases.h - Connection cases for both daemons -----===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test bodies for the connection behavior serve::Server and front::Front
/// share through serve::Daemon: the connection limit, bad frames, the
/// short-read fault and the stale-socket rule. Each case is a template
/// over the daemon type and its options struct (both have SocketPath,
/// MaxConns, MaxFrameBytes and Faults, and both daemons expose start(),
/// requestDrain(), run() and stats()), so ServerTest.cpp and FrontTest.cpp
/// run the same body with their own daemon as the input.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_TESTS_SERVE_DAEMONCASES_H
#define IRLT_TESTS_SERVE_DAEMONCASES_H

#include "serve/Client.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace daemoncases {

using irlt::serve::ClientConn;
using irlt::serve::connectUnix;

constexpr uint64_t CaseRecvMs = 60000;

/// Pipelines all of \p Requests, then collects one response each.
inline std::vector<std::string>
roundTrip(ClientConn &C, const std::vector<std::string> &Requests) {
  for (const std::string &R : Requests)
    EXPECT_TRUE(C.sendFrame(R));
  std::vector<std::string> Out;
  for (size_t I = 0; I < Requests.size(); ++I) {
    auto P = C.recvFrame(CaseRecvMs);
    EXPECT_TRUE(static_cast<bool>(P)) << P.message();
    Out.push_back(P ? *P : std::string());
  }
  return Out;
}

/// Serves \p Requests on \p Repeats fresh connections of a fresh daemon
/// built from \p O, drains, and returns the responses.
template <class Daemon, class Options>
std::vector<std::string> serveOnce(const Options &O,
                                   const std::vector<std::string> &Requests,
                                   size_t Repeats = 1) {
  Daemon D(O);
  auto St = D.start();
  EXPECT_TRUE(static_cast<bool>(St)) << St.message();
  std::vector<std::string> Out;
  for (size_t R = 0; R < Repeats; ++R) {
    auto C = connectUnix(O.SocketPath);
    EXPECT_TRUE(static_cast<bool>(C)) << C.message();
    if (!C)
      break;
    std::vector<std::string> Got = roundTrip(*C, Requests);
    Out.insert(Out.end(), Got.begin(), Got.end());
  }
  D.requestDrain();
  EXPECT_TRUE(D.run());
  return Out;
}

/// One healthz round trip on a fresh connection; the response, or "".
inline std::string healthz(const std::string &SocketPath) {
  auto C = connectUnix(SocketPath);
  if (!C || !C->sendFrame(R"({"op":"healthz","id":"h"})"))
    return "";
  auto P = C->recvFrame(CaseRecvMs);
  return P ? *P : "";
}

/// MaxConns live connections are served; the next one gets exactly one
/// "overloaded" record and a close, and counts as one ConnsRejected.
template <class Daemon, class Options> void checkConnectionLimit(Options O) {
  O.MaxConns = 2;
  Daemon D(O);
  auto St = D.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    std::vector<ClientConn> Held;
    for (unsigned I = 0; I < O.MaxConns; ++I) {
      auto C = connectUnix(O.SocketPath);
      ASSERT_TRUE(static_cast<bool>(C)) << C.message();
      // A round trip proves the daemon accepted the connection, rather
      // than leaving it in the listen backlog.
      ASSERT_TRUE(C->sendFrame(R"({"op":"healthz","id":"held"})"));
      auto P = C->recvFrame(CaseRecvMs);
      ASSERT_TRUE(static_cast<bool>(P)) << P.message();
      Held.push_back(std::move(*C));
    }
    auto Extra = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(Extra)) << Extra.message();
    auto P = Extra->recvFrame(CaseRecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"kind\":\"overloaded\""), std::string::npos) << *P;
    EXPECT_NE(P->find("connection limit reached (2)"), std::string::npos)
        << *P;
    auto After = Extra->recvFrame(CaseRecvMs);
    EXPECT_FALSE(static_cast<bool>(After)) << "connection must be closed";
  }
  D.requestDrain();
  EXPECT_TRUE(D.run());
  EXPECT_EQ(D.stats().ConnsRejected.load(), 1u);
  EXPECT_EQ(D.stats().ConnsAccepted.load(), 2u);
}

/// A valid header declaring 64 bytes, 5 bytes of payload, then EOF: one
/// "truncated" bad_frame record.
template <class Daemon, class Options>
void checkTruncatedFrameAtEof(const Options &O) {
  Daemon D(O);
  auto St = D.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::string Raw(irlt::serve::FrameMagic, 4);
    Raw += std::string(1, '\x40') + std::string(3, '\0');
    Raw += "hello";
    ASSERT_TRUE(C->sendRaw(Raw));
    C->finishWrites();
    auto P = C->recvFrame(CaseRecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"kind\":\"bad_frame\""), std::string::npos) << *P;
    EXPECT_NE(P->find("truncated"), std::string::npos);
  }
  D.requestDrain();
  EXPECT_TRUE(D.run());
}

/// A header declaring ~4 GiB against a 1 KiB bound is rejected from the
/// header alone with an "oversized_frame" bad_frame record.
template <class Daemon, class Options>
void checkOversizedDeclaredLength(Options O) {
  O.MaxFrameBytes = 1024;
  Daemon D(O);
  auto St = D.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::string Raw(irlt::serve::FrameMagic, 4);
    Raw += std::string(4, '\xff');
    ASSERT_TRUE(C->sendRaw(Raw));
    auto P = C->recvFrame(CaseRecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"kind\":\"bad_frame\""), std::string::npos) << *P;
    EXPECT_NE(P->find("oversized_frame"), std::string::npos);
  }
  D.requestDrain();
  EXPECT_TRUE(D.run());
}

/// 1-byte socket reads exercise reassembly on maximally fragmented input
/// without changing a single response byte.
template <class Daemon, class Options>
void checkShortReadServesIdentically(Options Plain, Options Frag,
                                     const std::vector<std::string> &Reqs) {
  std::vector<std::string> Baseline = serveOnce<Daemon>(Plain, Reqs);
  Frag.Faults.ShortRead = true;
  EXPECT_EQ(serveOnce<Daemon>(Frag, Reqs), Baseline);
}

inline std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// --socket naming a regular file: start fails with the "not a socket"
/// diagnostic and the file survives, byte for byte.
template <class Daemon, class Options>
void checkRegularFileAtSocketPathIsKept(const Options &O) {
  const std::string Content = "not a socket\n";
  ::unlink(O.SocketPath.c_str());
  std::ofstream(O.SocketPath) << Content;
  {
    Daemon D(O);
    auto St = D.start();
    ASSERT_FALSE(static_cast<bool>(St));
    EXPECT_NE(St.message().find("is not a socket"), std::string::npos)
        << St.message();
  }
  EXPECT_EQ(readFile(O.SocketPath), Content);
  ::unlink(O.SocketPath.c_str());
}

/// A second daemon on a live daemon's socket path: start fails with the
/// "already in use" diagnostic, and the first daemon still answers on the
/// path after the second is gone.
template <class Daemon, class Options>
void checkLiveSocketIsNotStolen(const Options &O) {
  Daemon First(O);
  auto St = First.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    Daemon Second(O);
    auto St2 = Second.start();
    ASSERT_FALSE(static_cast<bool>(St2));
    EXPECT_NE(St2.message().find("already in use"), std::string::npos)
        << St2.message();
  }
  std::string H = healthz(O.SocketPath);
  EXPECT_NE(H.find("\"ok\":true"), std::string::npos) << H;
  First.requestDrain();
  EXPECT_TRUE(First.run());
}

} // namespace daemoncases

#endif // IRLT_TESTS_SERVE_DAEMONCASES_H
