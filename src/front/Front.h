//===- front/Front.h - Sharded multi-process serve front -----------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded front behind tools/irlt-front (docs/FRONT.md): a
/// supervisor that spawns N irlt-serve worker processes (each with its
/// own Unix socket and cache journal), speaks the unchanged IRL1 framed
/// protocol on its own socket, and routes every request frame to the
/// shard owning its canonicalNestKey hash - so each worker's memoization
/// caches stay hot on a disjoint keyspace, and one crashed or wedged
/// worker never takes the whole service down.
///
/// Routing: the nest source of each request is parsed (through a bounded
/// route cache) and FNV-1a(canonicalNestKey) % shards picks the worker;
/// requests without a parseable nest route by a hash of the raw payload -
/// still deterministic, and any shard renders the identical error record.
/// Each routed frame is wrapped in the serve layer's forwarding envelope
/// ({"op":"fwd","line_no":N,"req":...}) carrying the front-side line
/// number, which keeps default ids and parse-error messages - and
/// therefore whole response streams - byte-identical to a direct
/// single-process irlt-serve run.
///
/// Robustness structure (the supervisor thread):
///
///   probes      every ProbeIntervalMillis each worker answers healthz
///               on a dedicated ops connection within ProbeTimeoutMillis,
///               or it is SIGKILLed and restarted
///   crashes     a worker exit (waitpid) or a dropped data connection
///               fails the shard: every in-flight request on it is
///               answered with a structured, retryable "shard_down"
///               record - never a hang, never a torn frame
///   hangs       a wedged worker thread answers probes (the serve reader
///               thread is what answers them), so the watchdog also
///               bounds the *oldest pending request age*
///               (PendingTimeoutMillis) and SIGKILLs past it
///   restarts    capped exponential backoff (RestartBackoffMillis
///               doubling up to RestartBackoffMaxMillis); a restarted
///               worker replays its own cache journal, so it comes back
///               warm; requests routed to a down shard are rejected
///               "shard_down" immediately while it restarts
///   windows     per-shard outstanding requests are bounded
///               (WindowCapacity); past it the front sheds with the
///               same structured "overloaded" taxonomy as the workers
///   drain       requestDrain() (async-signal-safe) stops accepting,
///               lets every in-flight request finish (or fail
///               structured), SIGTERMs every worker so each persists
///               its journal, and aggregates their drained records
///
/// Inline ops fan out: healthz / statz / persist are answered by
/// querying every live worker and aggregating one "irlt-front" record.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_FRONT_FRONT_H
#define IRLT_FRONT_FRONT_H

#include "serve/Daemon.h"
#include "serve/Frame.h"
#include "support/ErrorOr.h"
#include "support/FaultInject.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace irlt {
namespace front {

/// Front configuration.
struct FrontOptions {
  /// Front Unix-domain socket path; exclusive with TcpPort.
  std::string SocketPath;
  /// >= 0: listen on 127.0.0.1:TcpPort instead (0 = kernel-assigned).
  int TcpPort = -1;
  /// Worker processes to shard across (>= 1).
  unsigned Shards = 2;
  /// Path to the irlt-serve binary to spawn.
  std::string ServeBinary;
  /// Base for per-shard worker socket (and default journal) paths;
  /// shard i listens on <base>.w<i>. Defaults to SocketPath, or a
  /// /tmp/irlt-front.<pid> base in TCP mode.
  std::string ShardPathBase;

  /// Per-worker knobs, passed through on the worker command line.
  unsigned WorkerJobs = 1;
  bool EnableCache = true;
  size_t CacheCapacity = 0;
  size_t QueueCapacity = 64;
  uint64_t DefaultDeadlineMillis = 0;
  /// Cache-journal base path; empty disables persistence. Shard i
  /// journals to <PersistPath>.shard<i>.
  std::string PersistPath;
  size_t JournalCapacity = 0;

  /// Front-side bounds (same meaning as ServeOptions).
  unsigned MaxConns = 64;
  size_t MaxFrameBytes = serve::DefaultMaxPayloadBytes;
  uint64_t WriteTimeoutMillis = 5000;
  /// Per-shard outstanding-request window; past it the front sheds with
  /// a structured "overloaded" record.
  size_t WindowCapacity = 128;
  /// Bounded route cache (nest source -> shard index); 0 = unbounded.
  size_t RouteCacheCapacity = 4096;

  /// Supervision cadence.
  uint64_t ProbeIntervalMillis = 500;
  uint64_t ProbeTimeoutMillis = 2000;
  /// Oldest-pending-request age past which a shard counts as wedged and
  /// is SIGKILLed (0 disables the watchdog).
  uint64_t PendingTimeoutMillis = 30000;
  uint64_t RestartBackoffMillis = 100;
  uint64_t RestartBackoffMaxMillis = 5000;
  /// Bound on one worker start (spawn to healthy probe).
  uint64_t StartupTimeoutMillis = 15000;

  /// Deterministic fault injection. Forwarded verbatim to every worker
  /// command line (renderFaultSpec); the front itself honors ShortRead
  /// on its own socket reads.
  FaultConfig Faults;
};

/// Monotonic counters (statz / the tool's exit record); the connection
/// counters come from the core (serve/Daemon.h). Reconciliation:
///   FramesIn == InlineOps + Routed + DrainRejects
///   Routed   == Served + WindowShed + ShardDownRejects   (after drain)
struct FrontStats : serve::ConnStats {
  std::atomic<uint64_t> InlineOps{0};
  std::atomic<uint64_t> Routed{0};
  std::atomic<uint64_t> WindowShed{0};       ///< "overloaded" rejects
  std::atomic<uint64_t> DrainRejects{0};     ///< "draining" rejects
  std::atomic<uint64_t> ShardDownRejects{0}; ///< "shard_down" rejects
  std::atomic<uint64_t> Served{0};           ///< worker responses relayed
  std::atomic<uint64_t> Restarts{0};      ///< worker restarts performed
  std::atomic<uint64_t> ProbeFailures{0}; ///< failed/timed-out probes
  std::atomic<uint64_t> HangKills{0};     ///< pending-age SIGKILLs
};

/// Aggregated from every worker's drained record (plus exit statuses)
/// when the front drains.
struct FrontDrainSummary {
  uint64_t ShardCount = 0;
  uint64_t CleanExits = 0; ///< workers that drained to exit 0
  uint64_t WorkerServed = 0;
  uint64_t WorkerShed = 0;
  uint64_t WorkerErrors = 0;
  uint64_t WorkerBadFrames = 0;
  uint64_t WorkerWriteFailures = 0;
  uint64_t PersistedEntries = 0;
};

/// The front. Lifecycle mirrors serve::Server: construct, start()
/// (spawns workers, binds, spawns threads), run() (blocks until a drain
/// completes), requestDrain() from any thread or signal handler.
class Front {
public:
  explicit Front(FrontOptions Opts);
  ~Front();

  Front(const Front &) = delete;
  Front &operator=(const Front &) = delete;

  /// Spawns and health-probes every worker, binds the front socket,
  /// starts the accept loop and the supervisor.
  ErrorOr<bool> start();

  /// Blocks until a drain completes. Returns false if any client-side
  /// response write failed.
  bool run();

  /// Async-signal-safe drain trigger.
  void requestDrain();

  /// The bound TCP port (after start(), TCP mode only; else 0).
  int boundPort() const;

  unsigned shardCount() const;
  /// Current worker pids, -1 for a shard that is down (after start()).
  std::vector<pid_t> shardPids() const;

  const FrontStats &stats() const;
  /// Valid after run() returns.
  const FrontDrainSummary &drainSummary() const;

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

} // namespace front
} // namespace irlt

#endif // IRLT_FRONT_FRONT_H
