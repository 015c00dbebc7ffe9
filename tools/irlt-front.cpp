//===- tools/irlt-front.cpp - Sharded multi-process serve front -----------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// irlt-front: the sharded multi-process front over irlt-serve
/// (docs/FRONT.md). Spawns N worker processes, routes every request
/// frame to the shard owning its canonical nest fingerprint, supervises
/// the workers (health probes, crash/hang detection, backed-off warm
/// restarts), and speaks the unchanged IRL1 framed protocol on its own
/// socket - irlt-servectl and any irlt-batch corpus work against it
/// as-is, byte-identical to a direct single-process run.
///
///   irlt-front (--socket PATH | --port N) --shards N [options]
///     --shards N           worker processes (default 2)
///     --serve-bin PATH     irlt-serve binary (default: next to argv[0])
///     --shard-base PATH    worker socket base; shard i gets <base>.w<i>
///                          (default: the front socket path)
///     --jobs N             worker threads *per worker process*
///     --no-cache / --cache-cap N / --queue-cap N / --deadline-ms N
///                          per-worker engine knobs (as irlt-serve)
///     --persist PATH       shard i journals to PATH.shard<i>; restarts
///                          replay it, so a respawned worker comes back
///                          warm
///     --journal-cap N      per-shard journal entry bound
///     --max-conns N        front connection bound
///     --max-frame-bytes N  client-visible frame bound (workers get
///                          headroom for the forwarding envelope)
///     --write-timeout-ms N response/forward write timeout
///     --window-cap N       per-shard outstanding-request window;
///                          past it the front sheds "overloaded"
///     --probe-interval-ms N / --probe-timeout-ms N
///                          worker health-probe cadence and bound
///     --pending-timeout-ms N  oldest in-flight request age past which
///                          a worker counts as hung and is SIGKILLed
///     --backoff-ms N / --backoff-max-ms N
///                          restart backoff (doubling, capped)
///     --startup-timeout-ms N  bound on one worker start
///     --fault SPEC         deterministic fault injection, forwarded to
///                          every worker ("list" prints kinds, exits 0)
///
/// SIGTERM/SIGINT drain: stop accepting, resolve every in-flight
/// request (completed or structured "shard_down"), SIGTERM every worker
/// so each persists its journal, and print one aggregated "drained"
/// record.
///
/// Exit status: 0 clean drain, 1 startup/usage errors, 2 when any
/// response write failed during the run.
///
//===----------------------------------------------------------------------===//

#include "front/Front.h"
#include "support/Bindings.h"
#include "support/Json.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace irlt;
using namespace irlt::front;

namespace {

Front *GFront = nullptr;

void onSignal(int) {
  if (GFront)
    GFront->requestDrain(); // one async-signal-safe pipe write
}

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --port N) [--shards N] [--serve-bin PATH]\n"
      "       [--shard-base PATH] [--jobs N] [--no-cache] [--cache-cap N]\n"
      "       [--queue-cap N] [--deadline-ms N] [--persist PATH]\n"
      "       [--journal-cap N] [--max-conns N] [--max-frame-bytes N]\n"
      "       [--write-timeout-ms N] [--window-cap N]\n"
      "       [--probe-interval-ms N] [--probe-timeout-ms N]\n"
      "       [--pending-timeout-ms N] [--backoff-ms N] [--backoff-max-ms N]\n"
      "       [--startup-timeout-ms N] [--fault SPEC]\n"
      "       (--fault list prints the supported fault kinds)\n"
      "sharded multi-process front over irlt-serve (docs/FRONT.md)\n"
      "exit status: 0 clean drain, 2 response-write failures, 1 tool "
      "error\n",
      Argv0);
}

int printFaultKinds() {
  for (const std::string &N : faultKindNames())
    std::fprintf(stdout, "%s\n", N.c_str());
  return 0;
}

/// The worker binary ships next to this one; derive the default from
/// argv[0] so test trees and install trees both work unconfigured.
std::string defaultServeBinary(const char *Argv0) {
  std::string Self = Argv0;
  size_t Slash = Self.rfind('/');
  if (Slash == std::string::npos)
    return "./irlt-serve";
  return Self.substr(0, Slash + 1) + "irlt-serve";
}

} // namespace

int main(int argc, char **argv) {
  FrontOptions Opts;

  const char *FaultEnv = std::getenv("IRLT_FAULT");
  if (FaultEnv && std::strcmp(FaultEnv, "list") == 0)
    return printFaultKinds();
  std::string FaultErr;
  Opts.Faults = faultsFromEnv(&FaultErr);
  if (!FaultErr.empty()) {
    std::fprintf(stderr, "error: IRLT_FAULT: %s\n", FaultErr.c_str());
    return 1;
  }

  auto needArg = [&](int &I, const std::string &A) -> const char * {
    if (I + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs an argument\n", A.c_str());
      return nullptr;
    }
    return argv[++I];
  };
  auto needU64 = [&](int &I, const std::string &A, uint64_t &Out) {
    const char *V = needArg(I, A);
    if (!V)
      return false;
    if (!parseU64(V, Out)) {
      std::fprintf(stderr, "error: %s expects a non-negative integer\n",
                   A.c_str());
      return false;
    }
    return true;
  };

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    uint64_t N = 0;
    if (A == "--socket") {
      const char *V = needArg(I, A);
      if (!V)
        return 1;
      Opts.SocketPath = V;
    } else if (A == "--port") {
      if (!needU64(I, A, N) || N > 65535) {
        std::fprintf(stderr, "error: --port expects 0..65535\n");
        return 1;
      }
      Opts.TcpPort = static_cast<int>(N);
    } else if (A == "--shards") {
      if (!needU64(I, A, N) || !N || N > 64) {
        std::fprintf(stderr, "error: --shards expects 1..64\n");
        return 1;
      }
      Opts.Shards = static_cast<unsigned>(N);
    } else if (A == "--serve-bin") {
      const char *V = needArg(I, A);
      if (!V)
        return 1;
      Opts.ServeBinary = V;
    } else if (A == "--shard-base") {
      const char *V = needArg(I, A);
      if (!V)
        return 1;
      Opts.ShardPathBase = V;
    } else if (A == "--jobs") {
      if (!needU64(I, A, N) || !N || N > 1024) {
        std::fprintf(stderr, "error: --jobs expects 1..1024\n");
        return 1;
      }
      Opts.WorkerJobs = static_cast<unsigned>(N);
    } else if (A == "--no-cache") {
      Opts.EnableCache = false;
    } else if (A == "--cache-cap") {
      if (!needU64(I, A, N))
        return 1;
      Opts.CacheCapacity = static_cast<size_t>(N);
    } else if (A == "--queue-cap") {
      if (!needU64(I, A, N) || !N)
        return 1;
      Opts.QueueCapacity = static_cast<size_t>(N);
    } else if (A == "--deadline-ms") {
      if (!needU64(I, A, N))
        return 1;
      Opts.DefaultDeadlineMillis = N;
    } else if (A == "--persist") {
      const char *V = needArg(I, A);
      if (!V)
        return 1;
      Opts.PersistPath = V;
    } else if (A == "--journal-cap") {
      if (!needU64(I, A, N))
        return 1;
      Opts.JournalCapacity = static_cast<size_t>(N);
    } else if (A == "--max-conns") {
      if (!needU64(I, A, N) || !N)
        return 1;
      Opts.MaxConns = static_cast<unsigned>(N);
    } else if (A == "--max-frame-bytes") {
      if (!needU64(I, A, N) || !N)
        return 1;
      Opts.MaxFrameBytes = static_cast<size_t>(N);
    } else if (A == "--write-timeout-ms") {
      if (!needU64(I, A, N))
        return 1;
      Opts.WriteTimeoutMillis = N;
    } else if (A == "--window-cap") {
      if (!needU64(I, A, N) || !N)
        return 1;
      Opts.WindowCapacity = static_cast<size_t>(N);
    } else if (A == "--probe-interval-ms") {
      if (!needU64(I, A, N))
        return 1;
      Opts.ProbeIntervalMillis = N;
    } else if (A == "--probe-timeout-ms") {
      if (!needU64(I, A, N))
        return 1;
      Opts.ProbeTimeoutMillis = N;
    } else if (A == "--pending-timeout-ms") {
      if (!needU64(I, A, N))
        return 1;
      Opts.PendingTimeoutMillis = N;
    } else if (A == "--backoff-ms") {
      if (!needU64(I, A, N) || !N)
        return 1;
      Opts.RestartBackoffMillis = N;
    } else if (A == "--backoff-max-ms") {
      if (!needU64(I, A, N) || !N)
        return 1;
      Opts.RestartBackoffMaxMillis = N;
    } else if (A == "--startup-timeout-ms") {
      if (!needU64(I, A, N) || !N)
        return 1;
      Opts.StartupTimeoutMillis = N;
    } else if (A == "--fault") {
      const char *V = needArg(I, A);
      if (!V)
        return 1;
      if (std::strcmp(V, "list") == 0)
        return printFaultKinds();
      ErrorOr<FaultConfig> FC = parseFaultSpec(V);
      if (!FC) {
        std::fprintf(stderr, "error: --fault: %s\n", FC.message().c_str());
        return 1;
      }
      Opts.Faults = *FC;
    } else if (A == "--help" || A == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage(argv[0]);
      return 1;
    }
  }
  if (Opts.ServeBinary.empty())
    Opts.ServeBinary = defaultServeBinary(argv[0]);

  Front F(Opts);
  ErrorOr<bool> Started = F.start();
  if (!Started) {
    std::fprintf(stderr, "error: %s\n", Started.message().c_str());
    return 1;
  }

  GFront = &F;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  {
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-front");
    W.field("record", "serving");
    if (!Opts.SocketPath.empty())
      W.field("socket", Opts.SocketPath);
    else
      W.field("port", static_cast<uint64_t>(F.boundPort()));
    W.field("shards", static_cast<uint64_t>(F.shardCount()));
    W.field("jobs", static_cast<uint64_t>(Opts.WorkerJobs));
    W.endObject();
    std::fprintf(stdout, "%s\n", W.str().c_str());
    std::fflush(stdout);
  }

  bool Clean = F.run();
  GFront = nullptr;

  {
    const FrontStats &St = F.stats();
    const FrontDrainSummary &D = F.drainSummary();
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-front");
    W.field("record", "drained");
    W.field("shards", D.ShardCount);
    W.field("clean_worker_exits", D.CleanExits);
    W.field("served", St.Served.load());
    W.field("window_shed", St.WindowShed.load());
    W.field("shard_down_rejects", St.ShardDownRejects.load());
    W.field("drain_rejects", St.DrainRejects.load());
    W.field("bad_frames", St.BadFrames.load());
    W.field("write_failures", St.WriteFailures.load());
    W.field("restarts", St.Restarts.load());
    W.field("probe_failures", St.ProbeFailures.load());
    W.field("hang_kills", St.HangKills.load());
    W.field("worker_served", D.WorkerServed);
    W.field("worker_errors", D.WorkerErrors);
    W.field("persisted_entries", D.PersistedEntries);
    W.endObject();
    std::fprintf(stdout, "%s\n", W.str().c_str());
    std::fflush(stdout);
  }

  return Clean ? 0 : 2;
}
