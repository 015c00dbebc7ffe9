//===- tests/front/FrontTest.cpp - In-process sharded front tests ---------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a Front instance in-process over real sockets, with real
/// irlt-serve worker subprocesses (IRLT_SERVE_PATH from the build): the
/// byte-identity anchor against a direct single-process server, inline-op
/// fan-out, window shedding, worker-crash and worker-hang recovery, drain
/// aggregation, and structured bad-frame rejects. Every recv carries a
/// timeout so a supervision regression fails instead of hanging the
/// suite.
///
//===----------------------------------------------------------------------===//

#include "front/Front.h"

#include "../serve/DaemonCases.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace irlt;
using namespace irlt::front;
using namespace irlt::serve;

namespace {

#ifndef IRLT_FRONT_PATH
#define IRLT_FRONT_PATH "irlt-front"
#endif
#ifndef IRLT_SERVE_PATH
#define IRLT_SERVE_PATH "irlt-serve"
#endif

constexpr uint64_t RecvMs = 60000;

const char *MatmulEscaped =
    "arrays B, C\\ndo i = 1, n\\n  do j = 1, n\\n    do k = 1, n\\n"
    "      A(i, j) += B(i, k) * C(k, j)\\n    enddo\\n  enddo\\nenddo\\n";

const char *TriangularEscaped =
    "do i = 1, n\\n  do j = 1, i\\n    a(i, j) = a(i, j) + 1\\n"
    "  enddo\\nenddo\\n";

std::string sockPath(const std::string &Name) {
  return std::string(::testing::TempDir()) + "irlt_front_" + Name + ".sock";
}

FrontOptions frontOpts(const std::string &Tag, unsigned Shards) {
  FrontOptions O;
  O.SocketPath = sockPath(Tag);
  O.Shards = Shards;
  O.ServeBinary = IRLT_SERVE_PATH;
  return O;
}

/// The mixed corpus the byte-identity anchor replays: ok requests, an
/// illegal transform, a missing nest, a default (positional) id, an
/// unparseable line, and an unknown op. The last three are the envelope
/// stress: their responses embed the request line number, so they only
/// match a direct run if the front's line_no forwarding is exact.
std::vector<std::string> corpus() {
  return {
      std::string(R"({"id":"r-block","nest":")") + MatmulEscaped +
          R"(","script":"block 1 3 8 8 8","emit":"loop"})",
      std::string(R"({"id":"r-auto","nest":")") + MatmulEscaped +
          R"(","auto":"locality","beam":2,"depth":1})",
      std::string(R"({"id":"r-illegal","nest":")") + TriangularEscaped +
          R"(","script":"interchange 1 2"})",
      R"({"id":"r-bad","script":"x"})",
      std::string(R"({"nest":")") + TriangularEscaped +
          R"(","script":"reverse 1"})", // no id: positional default
      "this is not json",               // parse error names the line
      R"({"op":"no-such-op","id":"u1"})",
  };
}

using daemoncases::roundTrip;

/// Serves \p Requests through a fresh direct (single-process, in-process)
/// server and returns the responses - the byte-identity baseline.
std::vector<std::string> directServe(const std::string &Tag,
                                     const std::vector<std::string> &Reqs) {
  ServeOptions O;
  O.SocketPath = sockPath(Tag);
  Server S(O);
  auto St = S.start();
  EXPECT_TRUE(static_cast<bool>(St)) << St.message();
  std::vector<std::string> Out;
  {
    auto C = connectUnix(O.SocketPath);
    EXPECT_TRUE(static_cast<bool>(C)) << C.message();
    Out = roundTrip(*C, Reqs);
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
  return Out;
}

/// Polls the front's aggregated healthz until ok:true (all shards up) or
/// \p Millis elapse.
bool waitHealthy(const std::string &Sock, int Millis) {
  for (int I = 0; I < Millis / 50; ++I) {
    auto C = connectUnix(Sock);
    if (C && C->sendFrame(R"({"op":"healthz","id":"w"})")) {
      auto P = C->recvFrame(5000);
      if (P && P->find("\"ok\":true") != std::string::npos)
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

/// The pid listening on Unix socket \p Path, or -1 if nothing answers.
pid_t listenerPid(const std::string &Path) {
  auto C = connectUnix(Path);
  if (!C)
    return -1;
  ucred Cred{};
  socklen_t Len = sizeof(Cred);
  if (::getsockopt(C->fd(), SOL_SOCKET, SO_PEERCRED, &Cred, &Len) != 0)
    return -1;
  return Cred.pid;
}

} // namespace

TEST(Front, ResponsesByteIdenticalToDirectServe) {
  std::vector<std::string> Reqs = corpus();
  // Per-connection line numbers keep counting across passes (a direct
  // server behaves the same way), so the baseline replays the corpus
  // twice on ONE connection and the comparison is pass-by-pass.
  std::vector<std::string> TwoPasses = Reqs;
  TwoPasses.insert(TwoPasses.end(), Reqs.begin(), Reqs.end());
  std::vector<std::string> Baseline = directServe("ident_direct", TwoPasses);
  ASSERT_EQ(Baseline.size(), TwoPasses.size());

  FrontOptions O = frontOpts("ident", 3);
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::vector<std::string> Got = roundTrip(*C, Reqs);
    // A second pass hits the workers' warm caches: still identical.
    std::vector<std::string> Warm = roundTrip(*C, Reqs);
    Got.insert(Got.end(), Warm.begin(), Warm.end());
    ASSERT_EQ(Got.size(), Baseline.size());
    for (size_t I = 0; I < Baseline.size(); ++I)
      EXPECT_EQ(Got[I], Baseline[I]) << "response " << I << " diverged";
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  const FrontStats &T = F.stats();
  EXPECT_EQ(T.FramesIn.load(),
            T.InlineOps.load() + T.Routed.load() + T.DrainRejects.load());
  EXPECT_EQ(T.Routed.load(), T.Served.load() + T.WindowShed.load() +
                                 T.ShardDownRejects.load());
}

TEST(Front, InlineOpsAggregateAcrossShards) {
  FrontOptions O = frontOpts("inline", 3);
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  EXPECT_EQ(F.shardCount(), 3u);
  EXPECT_EQ(F.shardPids().size(), 3u);
  for (pid_t P : F.shardPids())
    EXPECT_GT(P, 0);
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();

    ASSERT_TRUE(C->sendFrame(R"({"op":"healthz","id":"h1"})"));
    auto H = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();
    EXPECT_NE(H->find("\"tool\":\"irlt-front\""), std::string::npos) << *H;
    EXPECT_NE(H->find("\"id\":\"h1\""), std::string::npos);
    EXPECT_NE(H->find("\"ok\":true"), std::string::npos);
    EXPECT_NE(H->find("\"shards\":3"), std::string::npos);
    EXPECT_NE(H->find("\"shards_up\":3"), std::string::npos);

    ASSERT_TRUE(C->sendFrame(R"({"op":"statz","id":"s1"})"));
    auto Z = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(Z)) << Z.message();
    EXPECT_NE(Z->find("\"record\":\"statz\""), std::string::npos);
    EXPECT_NE(Z->find("\"shard_status\""), std::string::npos);
    EXPECT_NE(Z->find("\"routed\""), std::string::npos);

    // persist without a --persist base is a structured error, not a
    // crash - mirroring the single-process server's behavior.
    ASSERT_TRUE(C->sendFrame(R"({"op":"persist","id":"p1"})"));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"ok\":false"), std::string::npos) << *P;
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_EQ(F.stats().InlineOps.load(), 3u);
}

TEST(Front, WindowBoundShedsWithStructuredOverloaded) {
  FrontOptions O = frontOpts("shed", 1);
  O.WindowCapacity = 1;
  O.WorkerJobs = 1;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  size_t Sent = 24;
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::string Req = std::string(R"({"id":"burst","nest":")") +
                      MatmulEscaped + R"(","auto":"locality","beam":2})";
    for (size_t I = 0; I < Sent; ++I)
      ASSERT_TRUE(C->sendFrame(Req));
    size_t Overloaded = 0, Results = 0;
    for (size_t I = 0; I < Sent; ++I) {
      auto P = C->recvFrame(RecvMs);
      ASSERT_TRUE(static_cast<bool>(P)) << P.message();
      if (P->find("\"kind\":\"overloaded\"") != std::string::npos)
        ++Overloaded;
      else
        ++Results;
    }
    EXPECT_EQ(Overloaded + Results, Sent) << "every frame gets a response";
    EXPECT_GT(Overloaded, 0u) << "window bound 1 under a 24-burst must shed";
    EXPECT_GT(Results, 0u) << "shedding must not starve admitted work";
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_EQ(F.stats().WindowShed.load() + F.stats().Served.load(),
            F.stats().Routed.load());
  EXPECT_GT(F.stats().WindowShed.load(), 0u);
}

TEST(Front, WorkerCrashAnswersInFlightStructuredAndRestarts) {
  FrontOptions O = frontOpts("crash", 1);
  O.WorkerJobs = 1;
  O.Faults.WorkerKill = true;
  O.RestartBackoffMillis = 50;
  O.ProbeIntervalMillis = 100;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    // The marker request crashes the worker right after its response is
    // delivered; the stranded pipelined requests behind it must each get
    // a structured retryable shard_down record - never a hang.
    std::vector<std::string> Reqs;
    Reqs.push_back(std::string(R"({"id":"kill-1","nest":")") + MatmulEscaped +
                   R"(","script":"block 1 3 8 8 8"})");
    for (int I = 0; I < 4; ++I)
      Reqs.push_back(std::string(R"({"id":"stranded-)") + std::to_string(I) +
                     R"(","nest":")" + MatmulEscaped +
                     R"(","script":"interchange 1 2"})");
    std::vector<std::string> Got = roundTrip(*C, Reqs);
    ASSERT_EQ(Got.size(), Reqs.size());
    EXPECT_NE(Got[0].find("\"ok\":true"), std::string::npos)
        << "the crash fires after the marker response: " << Got[0];
    size_t ShardDown = 0;
    for (size_t I = 1; I < Got.size(); ++I) {
      EXPECT_TRUE(Got[I].find("\"ok\":true") != std::string::npos ||
                  Got[I].find("\"kind\":\"shard_down\"") != std::string::npos)
          << Got[I];
      if (Got[I].find("\"kind\":\"shard_down\"") != std::string::npos)
        ++ShardDown;
    }
    EXPECT_GT(ShardDown, 0u) << "a crash mid-pipeline must strand requests";
  }
  // The supervisor restarts the worker; the front then serves again.
  ASSERT_TRUE(waitHealthy(O.SocketPath, 15000)) << "worker never restarted";
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::string Req = std::string(R"({"id":"after","nest":")") +
                      MatmulEscaped + R"(","script":"block 1 3 8 8 8"})";
    ASSERT_TRUE(C->sendFrame(Req));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"ok\":true"), std::string::npos) << *P;
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_GE(F.stats().Restarts.load(), 1u);
  EXPECT_GE(F.stats().ShardDownRejects.load(), 1u);
}

TEST(Front, HealthzDoesNotCountARespawnedWorkerBeforeAdoption) {
  // A respawned worker answers healthz on its path before the supervisor
  // adopts it, and until then routing still answers shard_down. The
  // aggregated healthz must not count it either: whenever healthz reports
  // every shard up, a routed request right behind it is served.
  FrontOptions O = frontOpts("respawn-healthz", 1);
  O.WorkerJobs = 1;
  O.Faults.WorkerKill = true;
  O.RestartBackoffMillis = 50;
  O.ProbeIntervalMillis = 100;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    auto call = [&](const std::string &Req) {
      EXPECT_TRUE(C->sendFrame(Req));
      auto P = C->recvFrame(RecvMs);
      EXPECT_TRUE(static_cast<bool>(P)) << P.message();
      return P ? *P : std::string();
    };
    auto allUp = [&] {
      return call(R"({"op":"healthz","id":"h"})").find("\"shards_up\":1") !=
             std::string::npos;
    };
    const std::string Routed = std::string(R"({"id":"probe","nest":")") +
                               MatmulEscaped +
                               R"(","script":"interchange 1 2"})";
    // The worker dies right after answering the marker request.
    std::string Killed = call(std::string(R"({"id":"kill-1","nest":")") +
                              MatmulEscaped +
                              R"(","script":"interchange 1 2"})");
    ASSERT_NE(Killed.find("\"ok\":true"), std::string::npos) << Killed;
    // Wait until the front has seen the shard go down, so a later all-up
    // report can only come from the respawned worker.
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (allUp() && std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Sample the respawn window back to back, no sleeps, until healthz
    // reports the shard up and routing serves.
    bool UpAndServed = false;
    while (!UpAndServed && std::chrono::steady_clock::now() < Deadline) {
      bool Up = allUp();
      std::string R = call(Routed);
      bool ShardDown = R.find("\"kind\":\"shard_down\"") != std::string::npos;
      ASSERT_FALSE(Up && ShardDown)
          << "healthz reported every shard up, routing answered " << R;
      UpAndServed = Up && R.find("\"ok\":true") != std::string::npos;
    }
    EXPECT_TRUE(UpAndServed) << "worker never restarted";
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_GE(F.stats().Restarts.load(), 1u);
}

TEST(Front, WedgedWorkerIsKilledByPendingAgeWatchdog) {
  FrontOptions O = frontOpts("hang", 1);
  O.WorkerJobs = 1;
  O.Faults.WorkerHang = true;
  O.PendingTimeoutMillis = 400; // the hang is 1h; only the watchdog saves us
  O.ProbeIntervalMillis = 100;
  O.RestartBackoffMillis = 50;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    // The wedged worker still answers healthz probes (its reader thread
    // is fine), so liveness probing alone would never catch this.
    std::vector<std::string> Reqs = {
        std::string(R"({"id":"hang-1","nest":")") + MatmulEscaped +
            R"(","script":"block 1 3 8 8 8"})",
        std::string(R"({"id":"behind","nest":")") + MatmulEscaped +
            R"(","script":"interchange 1 2"})",
    };
    std::vector<std::string> Got = roundTrip(*C, Reqs);
    ASSERT_EQ(Got.size(), 2u);
    for (const std::string &G : Got)
      EXPECT_NE(G.find("\"kind\":\"shard_down\""), std::string::npos) << G;
  }
  ASSERT_TRUE(waitHealthy(O.SocketPath, 15000)) << "worker never restarted";
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::string Req = std::string(R"({"id":"after","nest":")") +
                      MatmulEscaped + R"(","script":"block 1 3 8 8 8"})";
    ASSERT_TRUE(C->sendFrame(Req));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"ok\":true"), std::string::npos) << *P;
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_GE(F.stats().HangKills.load(), 1u);
  EXPECT_GE(F.stats().Restarts.load(), 1u);
}

TEST(Front, GarbageBytesGetBadFrameRecordThenClose) {
  FrontOptions O = frontOpts("garbage", 2);
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    ASSERT_TRUE(C->sendRaw("GET / HTTP/1.1\r\n\r\n"));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"kind\":\"bad_frame\""), std::string::npos) << *P;
    EXPECT_NE(P->find("\"tool\":\"irlt-front\""), std::string::npos) << *P;
    auto After = C->recvFrame(RecvMs);
    EXPECT_FALSE(static_cast<bool>(After)) << "connection must be closed";
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_EQ(F.stats().BadFrames.load(), 1u);
}

TEST(Front, DrainAggregatesWorkerRecords) {
  FrontOptions O = frontOpts("drain", 2);
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  std::vector<std::string> Reqs = corpus();
  // Drop the unknown-op line: the worker answers it from its dispatch
  // path, outside its served counter, which would blur the accounting
  // this test pins down exactly.
  Reqs.pop_back();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    ASSERT_EQ(roundTrip(*C, Reqs).size(), Reqs.size());
  }
  F.requestDrain();
  EXPECT_TRUE(F.run()) << "no response write may fail";

  const FrontStats &T = F.stats();
  EXPECT_EQ(T.Routed.load(), static_cast<uint64_t>(Reqs.size()));
  EXPECT_EQ(T.Served.load(), T.Routed.load())
      << "zero routed requests lost on drain";
  EXPECT_EQ(T.WriteFailures.load(), 0u);

  const FrontDrainSummary &D = F.drainSummary();
  EXPECT_EQ(D.ShardCount, 2u);
  EXPECT_EQ(D.CleanExits, 2u) << "every worker must drain to exit 0";
  EXPECT_EQ(D.WorkerServed, static_cast<uint64_t>(Reqs.size()))
      << "worker drained records must account for every routed request";
  EXPECT_EQ(D.WorkerWriteFailures, 0u);

  // The socket is gone: a post-drain connect must fail, not hang.
  auto C2 = connectUnix(O.SocketPath);
  EXPECT_FALSE(static_cast<bool>(C2));
}

TEST(Front, TcpLoopbackModeWorks) {
  FrontOptions O;
  O.TcpPort = 0; // kernel-assigned
  O.Shards = 2;
  O.ServeBinary = IRLT_SERVE_PATH;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  ASSERT_GT(F.boundPort(), 0);
  {
    auto C = connectTcp(F.boundPort());
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    ASSERT_TRUE(C->sendFrame(R"({"op":"healthz","id":"t"})"));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"ok\":true"), std::string::npos);
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
}

// The connection cases ServerTest.cpp runs against a Server, here run
// against a Front (tests/serve/DaemonCases.h).

TEST(Front, TruncatedFrameAtEofGetsBadFrameRecord) {
  daemoncases::checkTruncatedFrameAtEof<Front>(frontOpts("trunc", 2));
}

TEST(Front, OversizedDeclaredLengthRejectedStructurally) {
  daemoncases::checkOversizedDeclaredLength<Front>(frontOpts("oversized", 2));
}

TEST(Front, ShortReadFaultStillServesCorrectly) {
  daemoncases::checkShortReadServesIdentically<Front>(
      frontOpts("shortread_base", 2), frontOpts("shortread", 2), corpus());
}

TEST(Front, ConnectionLimitRejectsExcessWithOneOverloadedRecord) {
  daemoncases::checkConnectionLimit<Front>(frontOpts("maxconns", 2));
}

TEST(Front, RegularFileAtSocketPathIsRefusedAndKept) {
  daemoncases::checkRegularFileAtSocketPathIsKept<Front>(
      frontOpts("regular_file", 2));
}

TEST(Front, LiveDaemonSocketIsNotStolen) {
  daemoncases::checkLiveSocketIsNotStolen<Front>(frontOpts("live", 2));
}

TEST(Front, RestartAfterSigkillReusesShardPathsWithoutRestarts) {
  // A front killed outright takes its workers with it, so the next front
  // on the same socket (and so the same shard base) starts its own
  // workers there and keeps them: no restarts, no shard_down.
  FrontOptions O = frontOpts("sigkill", 2);
  std::vector<std::string> Args = {IRLT_FRONT_PATH, "--socket", O.SocketPath,
                                   "--shards", "2", "--serve-bin",
                                   IRLT_SERVE_PATH};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  pid_t Old = ::fork();
  ASSERT_GE(Old, 0);
  if (Old == 0) {
    int Null = ::open("/dev/null", O_WRONLY);
    ::dup2(Null, STDOUT_FILENO);
    ::dup2(Null, STDERR_FILENO);
    ::execv(Argv[0], Argv.data());
    _exit(127);
  }
  ASSERT_TRUE(waitHealthy(O.SocketPath, 15000)) << "first front never came up";
  ASSERT_EQ(::kill(Old, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Old, &Status, 0), Old);

  // Both shard sockets go stale once the killed front's workers die.
  for (unsigned I = 0; I < O.Shards; ++I) {
    std::string W = O.SocketPath + ".w" + std::to_string(I);
    pid_t Orphan = listenerPid(W);
    for (int T = 0; T < 200 && Orphan > 0; ++T) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      Orphan = listenerPid(W);
    }
    EXPECT_LE(Orphan, 0) << W << " still answers after its front died";
    if (Orphan > 0)
      ::kill(Orphan, SIGKILL);
  }

  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    for (const std::string &R : roundTrip(*C, corpus()))
      EXPECT_EQ(R.find("shard_down"), std::string::npos) << R;
  }
  // Several supervision ticks: an adopted stranger would churn here.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_EQ(F.stats().Restarts.load(), 0u);
  EXPECT_EQ(F.stats().ShardDownRejects.load(), 0u);
}

TEST(Front, StrangerOnWorkerPathIsNotAdopted) {
  // A live daemon already on <base>.w0 answers healthz just as a worker
  // would. The front's own worker refuses that path, and the front fails
  // to start instead of routing to a daemon it did not spawn.
  FrontOptions O = frontOpts("stranger", 1);
  O.StartupTimeoutMillis = 5000;
  ServeOptions SO;
  SO.SocketPath = O.SocketPath + ".w0";
  Server Stranger(SO);
  auto SSt = Stranger.start();
  ASSERT_TRUE(static_cast<bool>(SSt)) << SSt.message();
  {
    Front F(O);
    auto St = F.start();
    EXPECT_FALSE(static_cast<bool>(St)) << "adopted a daemon it did not spawn";
  }
  auto C = connectUnix(SO.SocketPath);
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  ASSERT_TRUE(C->sendFrame(R"({"op":"healthz","id":"h"})"));
  auto P = C->recvFrame(RecvMs);
  ASSERT_TRUE(static_cast<bool>(P)) << P.message();
  EXPECT_NE(P->find("\"ok\":true"), std::string::npos) << *P;
  Stranger.requestDrain();
  EXPECT_TRUE(Stranger.run());
}
