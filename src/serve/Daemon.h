//===- serve/Daemon.h - Connection core shared by serve and front --------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The connection lifecycle both daemons run: serve::Server
/// (tools/irlt-serve) and front::Front (tools/irlt-front) differ only in
/// what they do with a request frame, so everything between the listening
/// socket and that decision lives here, once (docs/SERVE.md,
/// "Connections"):
///
///   listen      a Unix-domain socket or 127.0.0.1:port. An existing
///               path is replaced only when it is a stale socket (a
///               connect() probe is refused); a regular file or a live
///               daemon's socket makes openListener() fail instead.
///               Teardown unlinks the path only if this instance bound
///               it and no successor has bound it since.
///   accept      one thread polls the listener and a self-pipe; each
///               connection gets SO_SNDTIMEO and a reader thread, and
///               past MaxConns live connections a new one gets one
///               "overloaded" record and a close
///   read        a FrameReader per connection; every complete frame is
///               handed to the daemon's dispatch callback with its
///               per-connection sequence number; a framing error or a
///               mid-frame EOF gets one "bad_frame" record and ends the
///               connection
///   deliver     a per-connection reorder buffer writes responses
///               strictly in sequence order, whichever thread completes
///               them
///   drain       requestDrain() (async-signal-safe) stops the accept
///               loop; drainConnections() then shuts the read side of
///               every live connection and joins the readers, so every
///               frame already received has been dispatched when it
///               returns
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SERVE_DAEMON_H
#define IRLT_SERVE_DAEMON_H

#include "serve/Frame.h"
#include "support/ErrorOr.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace irlt {
namespace serve {

/// Sets FD_CLOEXEC. Every socket and pipe end a daemon or client opens
/// gets it: irlt-front forks workers, and an inherited fd would hold a
/// dead peer's connection open and mask the EOF that detects it.
void setCloexec(int Fd);

/// Writes all of \p Data, riding out partial writes and EINTR (never
/// SIGPIPE). A socket with SO_SNDTIMEO surfaces a stalled peer as a
/// false return here instead of a wedged thread.
bool writeAll(int Fd, std::string_view Data);

/// Arms SO_SNDTIMEO on \p Fd (0 = no timeout).
void setSendTimeout(int Fd, uint64_t Millis);

/// The counters the core maintains; ServerStats and FrontStats extend it
/// with their own.
struct ConnStats {
  std::atomic<uint64_t> ConnsAccepted{0};
  std::atomic<uint64_t> ConnsRejected{0}; ///< over MaxConns
  std::atomic<uint64_t> FramesIn{0};
  std::atomic<uint64_t> BadFrames{0}; ///< framing errors
  std::atomic<uint64_t> WriteFailures{0};
};

/// Connection policy; the fields mirror ServeOptions / FrontOptions.
struct DaemonConfig {
  /// "serve" or "front": prefixes startup diagnostics; the core's own
  /// error records carry tool "irlt-<Name>".
  std::string Name;
  std::string SocketPath;
  int TcpPort = -1;
  unsigned MaxConns = 64;
  size_t MaxFrameBytes = DefaultMaxPayloadBytes;
  uint64_t WriteTimeoutMillis = 5000;
  /// The short-read fault: 1-byte socket reads.
  bool ShortRead = false;
};

/// One accepted client connection. Opaque outside the core: the reader
/// thread and every request still in flight share it, and the last
/// reference closes the socket.
struct Conn;
using ConnPtr = std::shared_ptr<Conn>;

/// Lifecycle: construct, openListener(), startAccepting(), then
/// requestDrain() from any thread or signal handler and
/// drainConnections() from the thread that owns the daemon.
class Daemon {
public:
  /// Called on the connection's reader thread for each complete frame.
  /// Exactly one deliver() must follow for every \p Seq, from any thread;
  /// later responses wait in the reorder buffer until it does.
  using DispatchFn =
      std::function<void(const ConnPtr &C, uint64_t Seq, std::string Payload)>;

  Daemon(DaemonConfig Cfg, ConnStats &Stats, DispatchFn Dispatch);
  /// Drains if still accepting, then closeListener() and the self-pipe.
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds and listens, and opens the self-pipe. A structured diagnostic
  /// on failure; an existing path is left untouched unless it is a stale
  /// socket.
  ErrorOr<bool> openListener();
  /// Spawns the accept thread (after a successful openListener()).
  void startAccepting();
  /// True from startAccepting() until drainConnections() returns.
  bool accepting() const { return AcceptThread.joinable(); }

  /// Async-signal-safe drain trigger (writes one byte to a self-pipe).
  void requestDrain();
  /// Set once the accept loop has seen the drain trigger.
  bool draining() const { return Draining.load(); }
  /// Drain phase 1: waits for the accept loop to stop (requestDrain()
  /// must have been called), shuts the read side of every live
  /// connection, and joins every reader.
  void drainConnections();
  /// Closes the listener and unlinks the socket path if this instance
  /// bound it and nothing listens on it now (idempotent; the destructor
  /// calls it too). Only call it while the accept loop is not running.
  void closeListener();

  /// Records \p Record as response \p Seq of \p C and writes every
  /// response that is now next in order. A failed write marks the
  /// connection dead (later responses are dropped) and counts a
  /// WriteFailure.
  void deliver(const ConnPtr &C, uint64_t Seq, const std::string &Record);

  /// The bound TCP port (after openListener(), TCP mode only; else 0).
  int boundPort() const { return BoundPort; }

private:
  /// A reader thread and its done flag (Daemon.cpp).
  struct ReaderSlot;

  Failure fail(const std::string &Msg) const;
  void acceptLoop();
  void readerLoop(ConnPtr C);
  void badFrame(const ConnPtr &C, const std::string &Message);

  DaemonConfig Cfg;
  std::string Tool; ///< "irlt-<Name>", the core's error records
  ConnStats &Stats;
  DispatchFn Dispatch;

  int ListenFd = -1;
  int BoundPort = 0;
  int PipeR = -1, PipeW = -1;
  std::atomic<bool> Draining{false};
  /// This instance bound Cfg.SocketPath (Unix mode).
  bool BoundPath = false;

  // Live reader-side sockets, so drain can wake blocked reads.
  std::mutex ConnMu;
  std::set<int> LiveFds;

  std::thread AcceptThread;
  std::vector<std::unique_ptr<ReaderSlot>> Readers; // accept thread only
};

} // namespace serve
} // namespace irlt

#endif // IRLT_SERVE_DAEMON_H
