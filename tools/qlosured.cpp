//===- tools/qlosured.cpp - The persistent mapping daemon ----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The qlosured daemon: serves the newline-delimited JSON mapping protocol
/// (docs/PROTOCOL.md) over a Unix-domain or TCP socket, amortizing
/// per-(circuit, backend) precomputation and routed results across
/// requests via the sharded service caches.
///
///   qlosured --listen ADDR [options]
///     --listen ADDR        unix:/path, tcp:host:port (port 0 = ephemeral),
///                          or a bare socket path (required)
///     --socket PATH        backward-compatible alias for --listen unix:PATH
///     --workers N          scheduler worker threads (default: cores)
///     --queue N            bounded queue capacity (default 256)
///     --cache-mb N         context cache byte budget in MiB (default 256)
///     --result-cache-mb N  result cache byte budget in MiB (default 64)
///     --shards N           cache shard count (default 8)
///     --timeout SECONDS    default per-request deadline (default 60; 0
///                          disables)
///     --log-level LEVEL    structured JSON logging threshold: debug,
///                          info, warn, error, off (default off)
///     --log-file PATH      log sink (appended); default stderr
///     --slow-ms N          warn-level "slow_request" log line for any
///                          request at or over N milliseconds (includes
///                          the trace when the request opted in); 0
///                          disables (default)
///     --store PATH         durable result store: append-only log of
///                          routed results backing the in-memory result
///                          cache; recovered (torn tails truncated,
///                          corrupt records skipped) on startup
///     --store-read-only    open the store read-only (share another
///                          daemon's store; never writes or compacts)
///     --store-fsync-kb N   fsync after N KiB of appended records
///                          (default 1024; 0 = fsync every append)
///
/// Prints "qlosured: listening on ADDR" once ready (the resolved address —
/// for tcp port 0, the kernel-assigned port). SIGINT/SIGTERM (or a client
/// `shutdown` request) shut down gracefully: in-flight requests finish,
/// every connection gets its response, a unix socket file is unlinked.
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "support/Allocator.h"
#include "support/Log.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace qlosure;
using namespace qlosure::service;

namespace {

volatile std::sig_atomic_t SignalStop = 0;

void onSignal(int) { SignalStop = 1; }

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --listen ADDR [--workers N] [--queue N] "
               "[--cache-mb N] [--result-cache-mb N] [--shards N] "
               "[--timeout SECONDS] [--log-level LEVEL] [--log-file PATH] "
               "[--slow-ms N] [--store PATH] [--store-read-only] "
               "[--store-fsync-kb N]\n"
               "  ADDR is unix:/path, tcp:host:port, or a bare socket path\n"
               "  (--socket PATH remains as an alias for --listen unix:PATH)\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  pinMallocThresholds();
  ServerOptions Opts;
  log::Level LogLevel = log::Level::Off;
  std::string LogFile;
  for (int I = 1; I < Argc; ++I) {
    if ((!std::strcmp(Argv[I], "--listen") ||
         !std::strcmp(Argv[I], "--socket")) &&
        I + 1 < Argc) {
      Opts.Listen = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--workers") && I + 1 < Argc) {
      Opts.Workers = static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else if (!std::strcmp(Argv[I], "--queue") && I + 1 < Argc) {
      Opts.QueueCapacity = std::strtoull(Argv[++I], nullptr, 10);
    } else if (!std::strcmp(Argv[I], "--cache-mb") && I + 1 < Argc) {
      Opts.ContextCacheBytes =
          std::strtoull(Argv[++I], nullptr, 10) << 20;
    } else if (!std::strcmp(Argv[I], "--result-cache-mb") && I + 1 < Argc) {
      Opts.ResultCacheBytes = std::strtoull(Argv[++I], nullptr, 10) << 20;
    } else if (!std::strcmp(Argv[I], "--shards") && I + 1 < Argc) {
      Opts.CacheShards = std::strtoull(Argv[++I], nullptr, 10);
    } else if (!std::strcmp(Argv[I], "--timeout") && I + 1 < Argc) {
      Opts.DefaultTimeoutSeconds = std::strtod(Argv[++I], nullptr);
    } else if (!std::strcmp(Argv[I], "--log-level") && I + 1 < Argc) {
      if (!log::parseLevel(Argv[++I], LogLevel)) {
        std::fprintf(stderr, "qlosured: unknown log level \"%s\"\n", Argv[I]);
        return usage(Argv[0]);
      }
    } else if (!std::strcmp(Argv[I], "--log-file") && I + 1 < Argc) {
      LogFile = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--slow-ms") && I + 1 < Argc) {
      Opts.SlowRequestMs = std::strtod(Argv[++I], nullptr);
    } else if (!std::strcmp(Argv[I], "--store") && I + 1 < Argc) {
      Opts.StorePath = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--store-read-only")) {
      Opts.StoreReadOnly = true;
    } else if (!std::strcmp(Argv[I], "--store-fsync-kb") && I + 1 < Argc) {
      Opts.StoreFsyncBytes = std::strtoull(Argv[++I], nullptr, 10) << 10;
    } else {
      return usage(Argv[0]);
    }
  }
  if (Opts.Listen.empty())
    return usage(Argv[0]);
  if (!log::configure(LogLevel, LogFile)) {
    std::fprintf(stderr, "qlosured: cannot open log file %s\n",
                 LogFile.c_str());
    return 1;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  Server Daemon(Opts);
  Status Started = Daemon.start();
  if (!Started.ok()) {
    std::fprintf(stderr, "qlosured: error: %s\n",
                 Started.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "qlosured: listening on %s\n",
               Daemon.boundAddress().c_str());
  std::fflush(stderr);

  Daemon.wait([] { return SignalStop != 0; });
  std::fprintf(stderr, "qlosured: shut down cleanly\n");
  return 0;
}
