//===- serve/Daemon.cpp - Connection core shared by serve and front ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "serve/Daemon.h"

#include "engine/Engine.h"

#include <cerrno>
#include <cstring>
#include <map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace irlt;
using namespace irlt::serve;

void serve::setCloexec(int Fd) {
  int Flags = fcntl(Fd, F_GETFD);
  if (Flags >= 0)
    fcntl(Fd, F_SETFD, Flags | FD_CLOEXEC);
}

bool serve::writeAll(int Fd, std::string_view Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

void serve::setSendTimeout(int Fd, uint64_t Millis) {
  timeval Tv{};
  Tv.tv_sec = static_cast<time_t>(Millis / 1000);
  Tv.tv_usec = static_cast<suseconds_t>((Millis % 1000) * 1000);
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
}

struct serve::Conn {
  int Fd = -1;
  /// Next sequence number to assign (reader thread only).
  uint64_t NextSeq = 0;

  /// Reorder buffer: responses are written strictly in request order.
  std::mutex WriteMu;
  std::map<uint64_t, std::string> Pending;
  uint64_t NextWrite = 0;
  bool Dead = false;

  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

namespace {

/// What is at a Unix socket path: nothing, something that is not a
/// socket, a socket a daemon listens on, or a socket nobody listens on
/// (connect() refused: a crashed or drained daemon's leftover).
enum class PathState { Absent, NotSocket, Live, Stale, Unknown };

PathState probePath(const std::string &Path) {
  struct stat St;
  if (::lstat(Path.c_str(), &St) != 0)
    return PathState::Absent;
  if (!S_ISSOCK(St.st_mode))
    return PathState::NotSocket;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  // Nonblocking, so a listener with a full backlog reads as live (EAGAIN)
  // instead of blocking.
  int Probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Probe < 0)
    return PathState::Unknown;
  int R = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  int E = errno;
  ::close(Probe);
  if (R == 0 || E == EAGAIN || E == EINPROGRESS)
    return PathState::Live;
  return E == ECONNREFUSED ? PathState::Stale : PathState::Unknown;
}

} // namespace

/// Reader-thread bookkeeping: joined opportunistically by the accept
/// loop (Done) and finally at drain.
struct Daemon::ReaderSlot {
  std::thread T;
  std::atomic<bool> Done{false};
};

Daemon::Daemon(DaemonConfig C, ConnStats &S, DispatchFn D)
    : Cfg(std::move(C)), Tool("irlt-" + Cfg.Name), Stats(S),
      Dispatch(std::move(D)) {}

Failure Daemon::fail(const std::string &Msg) const {
  return Failure(Diag::error(Cfg.Name + ": " + Msg));
}

//===----------------------------------------------------------------------===//
// Listen
//===----------------------------------------------------------------------===//

ErrorOr<bool> Daemon::openListener() {
  if (!Cfg.SocketPath.empty() && Cfg.TcpPort >= 0)
    return fail("--socket and --port are exclusive");
  if (Cfg.SocketPath.empty() && Cfg.TcpPort < 0)
    return fail("need --socket PATH or --port N");

  union {
    sockaddr_un Un;
    sockaddr_in In;
  } Addr{};
  socklen_t AddrLen = 0;
  std::string Where;
  bool Unix = !Cfg.SocketPath.empty();
  if (Unix) {
    Addr.Un.sun_family = AF_UNIX;
    if (Cfg.SocketPath.size() >= sizeof(Addr.Un.sun_path))
      return fail("socket path too long: '" + Cfg.SocketPath + "'");
    std::memcpy(Addr.Un.sun_path, Cfg.SocketPath.c_str(),
                Cfg.SocketPath.size() + 1);
    AddrLen = sizeof(Addr.Un);
    Where = "'" + Cfg.SocketPath + "'";
    // The stale-socket rule: only a socket nobody listens on is replaced.
    // Anything else is left exactly as it is; an Unknown probe result
    // falls through to bind(), which reports it.
    switch (probePath(Cfg.SocketPath)) {
    case PathState::NotSocket:
      return fail("refusing to replace '" + Cfg.SocketPath +
                     "': it exists and is not a socket");
    case PathState::Live:
      return fail("socket '" + Cfg.SocketPath +
                     "' is already in use by a live daemon");
    case PathState::Stale:
      ::unlink(Cfg.SocketPath.c_str());
      break;
    case PathState::Absent:
    case PathState::Unknown:
      break;
    }
  } else {
    Addr.In.sin_family = AF_INET;
    Addr.In.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.In.sin_port = htons(static_cast<uint16_t>(Cfg.TcpPort));
    AddrLen = sizeof(Addr.In);
    Where = "127.0.0.1:" + std::to_string(Cfg.TcpPort);
  }

  ListenFd = ::socket(Unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return fail(Unix ? "socket(AF_UNIX) failed" : "socket(AF_INET) failed");
  setCloexec(ListenFd);
  if (!Unix) {
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), AddrLen) < 0)
    return fail("cannot bind " + Where + ": " + std::strerror(errno));
  if (Unix) {
    BoundPath = true;
  } else {
    sockaddr_in Bound{};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound),
                      &Len) == 0)
      BoundPort = ntohs(Bound.sin_port);
  }
  if (::listen(ListenFd, 64) < 0)
    return fail(std::string("listen failed: ") + std::strerror(errno));

  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return fail("pipe() failed");
  PipeR = Pipe[0];
  PipeW = Pipe[1];
  setCloexec(PipeR);
  setCloexec(PipeW);
  return true;
}

//===----------------------------------------------------------------------===//
// Response delivery (per-connection completed-prefix reorder buffer)
//===----------------------------------------------------------------------===//

void Daemon::deliver(const ConnPtr &C, uint64_t Seq,
                     const std::string &Record) {
  std::lock_guard<std::mutex> Lock(C->WriteMu);
  C->Pending.emplace(Seq, Record);
  while (!C->Pending.empty() && C->Pending.begin()->first == C->NextWrite) {
    if (!C->Dead) {
      if (!writeAll(C->Fd, encodeFrame(C->Pending.begin()->second))) {
        C->Dead = true;
        ++Stats.WriteFailures;
      }
    }
    C->Pending.erase(C->Pending.begin());
    ++C->NextWrite;
  }
}

//===----------------------------------------------------------------------===//
// Reader thread: socket -> FrameReader -> dispatch
//===----------------------------------------------------------------------===//

/// One structured reject in the stream's next slot; the caller closes.
void Daemon::badFrame(const ConnPtr &C, const std::string &Message) {
  ++Stats.BadFrames;
  deliver(C, C->NextSeq++,
          engine::makeErrorRecord(Tool, "-", engine::errkind::BadFrame,
                                  Message));
}

void Daemon::readerLoop(ConnPtr C) {
  FrameReader FR(Cfg.MaxFrameBytes);
  char Buf[4096];
  // The short-read fault degrades the transport to one byte per read;
  // the frame parser must produce identical results (it is a pure
  // incremental state machine), which the fault-matrix test pins.
  size_t ReadLen = Cfg.ShortRead ? 1 : sizeof(Buf);

  for (;;) {
    ssize_t N = ::read(C->Fd, Buf, ReadLen);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break; // connection error: drop
    }
    if (N == 0) {
      // EOF. Mid-frame, that is the "truncated frame" case: report it
      // on the (possibly still open) write side, then close.
      if (FR.midFrame())
        badFrame(C, "truncated frame: connection closed with " +
                        std::to_string(FR.bufferedBytes()) +
                        " bytes of an incomplete frame");
      break;
    }
    FR.feed(Buf, static_cast<size_t>(N));
    std::string Payload;
    FrameReader::Status S;
    while ((S = FR.next(Payload)) == FrameReader::Status::Frame) {
      ++Stats.FramesIn;
      uint64_t Seq = C->NextSeq++;
      Dispatch(C, Seq, std::move(Payload));
      Payload.clear();
    }
    if (S == FrameReader::Status::Error) {
      // The byte stream cannot be resynchronized after a framing
      // error: one structured reject, then close.
      badFrame(C, std::string("framing error: ") +
                      FrameReader::errorName(FR.error()));
      break;
    }
  }

  std::lock_guard<std::mutex> Lock(ConnMu);
  LiveFds.erase(C->Fd);
}

//===----------------------------------------------------------------------===//
// Accept loop
//===----------------------------------------------------------------------===//

void Daemon::acceptLoop() {
  for (;;) {
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {PipeR, POLLIN, 0}};
    if (::poll(Fds, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Fds[1].revents) {
      Draining.store(true);
      break;
    }
    if (!(Fds[0].revents & POLLIN))
      continue;

    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    setCloexec(Fd);

    // Reap finished readers so MaxConns gates *live* connections.
    for (size_t I = 0; I < Readers.size();) {
      if (Readers[I]->Done.load()) {
        Readers[I]->T.join();
        Readers.erase(Readers.begin() + static_cast<ptrdiff_t>(I));
      } else {
        ++I;
      }
    }

    if (Cfg.WriteTimeoutMillis)
      setSendTimeout(Fd, Cfg.WriteTimeoutMillis);

    if (Readers.size() >= Cfg.MaxConns) {
      ++Stats.ConnsRejected;
      writeAll(Fd, encodeFrame(engine::makeErrorRecord(
                       Tool, "-", engine::errkind::Overloaded,
                       "connection limit reached (" +
                           std::to_string(Cfg.MaxConns) + ")")));
      ::close(Fd);
      continue;
    }

    ++Stats.ConnsAccepted;
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      LiveFds.insert(Fd);
    }
    auto Slot = std::make_unique<ReaderSlot>();
    ReaderSlot *Raw = Slot.get();
    Raw->T = std::thread([this, C, Raw]() mutable {
      readerLoop(std::move(C));
      Raw->Done.store(true);
    });
    Readers.push_back(std::move(Slot));
  }

  // New connections are refused from here on; the path stays until
  // teardown.
  ::close(ListenFd);
  ListenFd = -1;
}

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

Daemon::~Daemon() {
  if (accepting()) {
    requestDrain();
    drainConnections();
  }
  closeListener();
  if (PipeR >= 0)
    ::close(PipeR);
  if (PipeW >= 0)
    ::close(PipeW);
}

void Daemon::startAccepting() {
  AcceptThread = std::thread([this] { acceptLoop(); });
}

void Daemon::requestDrain() {
  // write() is async-signal-safe; this is the whole point of the pipe.
  if (PipeW >= 0) {
    char B = 1;
    [[maybe_unused]] ssize_t N = ::write(PipeW, &B, 1);
  }
}

void Daemon::drainConnections() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  // Wake every blocked reader; buffered complete frames still dispatch
  // (the daemon rejects them as "draining"), then the readers exit.
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (int Fd : LiveFds)
      ::shutdown(Fd, SHUT_RD);
  }
  for (auto &Slot : Readers)
    Slot->T.join();
  Readers.clear();
}

void Daemon::closeListener() {
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  // A successor may have claimed the path once this listener closed; its
  // socket answers the probe and is left alone.
  if (BoundPath && probePath(Cfg.SocketPath) == PathState::Stale)
    ::unlink(Cfg.SocketPath.c_str());
  BoundPath = false;
}

