//===- tests/serve/DaemonTest.cpp - The shared connection core -----------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives serve::Daemon on its own, with a test dispatch callback instead
/// of a server behind it: out-of-order completion through the reorder
/// buffer, replacing a stale socket, and teardown leaving alone a path
/// another daemon has bound since. The connection limit, bad frames and
/// the refusals of the stale-socket rule run against both serve::Server
/// and front::Front (DaemonCases.h).
///
//===----------------------------------------------------------------------===//

#include "serve/Daemon.h"

#include "serve/Client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include <cstring>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace irlt;
using namespace irlt::serve;

namespace {

constexpr uint64_t RecvMs = 30000;

std::string sockPath(const std::string &Name) {
  return std::string(::testing::TempDir()) + "irlt_daemon_" + Name + ".sock";
}

DaemonConfig config(const std::string &Path) {
  DaemonConfig Cfg;
  Cfg.Name = "test";
  Cfg.SocketPath = Path;
  return Cfg;
}

/// A daemon that answers every frame with its own payload. With Hold set,
/// frames are parked instead, for the test to deliver in any order.
struct EchoDaemon {
  ConnStats Stats;
  bool Hold = false;
  std::mutex Mu;
  std::condition_variable Cv;
  struct Parked {
    ConnPtr C;
    uint64_t Seq;
    std::string Payload;
  };
  std::vector<Parked> Held;
  Daemon D;

  explicit EchoDaemon(DaemonConfig Cfg, bool Hold = false)
      : Hold(Hold),
        D(std::move(Cfg), Stats,
          [this](const ConnPtr &C, uint64_t Seq, std::string Payload) {
            if (!this->Hold) {
              D.deliver(C, Seq, Payload);
              return;
            }
            std::lock_guard<std::mutex> Lock(Mu);
            Held.push_back({C, Seq, std::move(Payload)});
            Cv.notify_all();
          }) {}

  ErrorOr<bool> start() {
    ErrorOr<bool> L = D.openListener();
    if (L)
      D.startAccepting();
    return L;
  }
  void stop() {
    D.requestDrain();
    D.drainConnections();
  }
};

/// Echo round trip on a fresh connection; the response, or "".
std::string echo(const std::string &Path, const std::string &Payload) {
  auto C = connectUnix(Path);
  if (!C || !C->sendFrame(Payload))
    return "";
  auto P = C->recvFrame(RecvMs);
  return P ? *P : "";
}

/// Leaves a socket file at \p Path that nothing listens on - what a
/// crashed daemon leaves behind.
void makeStaleSocket(const std::string &Path) {
  ::unlink(Path.c_str());
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
  ::close(Fd);
}

bool exists(const std::string &Path) {
  struct stat St;
  return ::lstat(Path.c_str(), &St) == 0;
}

} // namespace

TEST(Daemon, ResponsesAreWrittenInSequenceOrder) {
  std::string Path = sockPath("order");
  ::unlink(Path.c_str());
  EchoDaemon E(config(Path), /*Hold=*/true);
  auto St = E.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(Path);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    for (const char *P : {"a", "b", "c"})
      ASSERT_TRUE(C->sendFrame(P));
    std::vector<EchoDaemon::Parked> Got;
    {
      std::unique_lock<std::mutex> Lock(E.Mu);
      ASSERT_TRUE(E.Cv.wait_for(Lock, std::chrono::milliseconds(RecvMs),
                                [&] { return E.Held.size() == 3; }));
      Got.swap(E.Held);
    }
    // Completing the later requests first writes nothing: they wait for
    // sequence 0.
    E.D.deliver(Got[2].C, Got[2].Seq, Got[2].Payload);
    E.D.deliver(Got[1].C, Got[1].Seq, Got[1].Payload);
    EXPECT_FALSE(static_cast<bool>(C->recvFrame(200)));
    E.D.deliver(Got[0].C, Got[0].Seq, Got[0].Payload);
    for (const char *Want : {"a", "b", "c"}) {
      auto P = C->recvFrame(RecvMs);
      ASSERT_TRUE(static_cast<bool>(P)) << P.message();
      EXPECT_EQ(*P, Want);
    }
  }
  E.stop();
  EXPECT_EQ(E.Stats.FramesIn.load(), 3u);
  EXPECT_EQ(E.Stats.WriteFailures.load(), 0u);
}

TEST(Daemon, StaleSocketIsReplaced) {
  std::string Path = sockPath("stale");
  makeStaleSocket(Path);
  EchoDaemon E(config(Path));
  auto St = E.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  EXPECT_EQ(echo(Path, "hi"), "hi");
  E.stop();
}

TEST(Daemon, TeardownUnlinksOnlyThePathItBound) {
  std::string Path = sockPath("handover");
  ::unlink(Path.c_str());
  auto First = std::make_unique<EchoDaemon>(config(Path));
  auto St = First->start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  // A drained daemon has closed its listener: its path is now stale, and
  // a successor may claim it while the first is still being torn down.
  First->stop();
  EXPECT_TRUE(First->D.draining());
  EXPECT_FALSE(static_cast<bool>(connectUnix(Path)));

  EchoDaemon Second(config(Path));
  auto St2 = Second.start();
  ASSERT_TRUE(static_cast<bool>(St2)) << St2.message();
  First.reset();
  EXPECT_EQ(echo(Path, "successor"), "successor");
  Second.stop();
  Second.D.closeListener();
  EXPECT_FALSE(exists(Path));
}
