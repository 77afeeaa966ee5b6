//===- tools/qlosure-router.cpp - Consistent-hash fleet router -----------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet front daemon: speaks protocol v2 to clients on --listen and
/// consistent-hash shards route/batch requests by circuit fingerprint
/// across the qlosured daemons named by --shard (service/ShardRouter.h
/// has the full semantics).
///
///   qlosure-router --listen ADDR --shard ADDR [--shard ADDR ...]
///     --listen ADDR            client-facing address: unix:/path,
///                              tcp:host:port (port 0 = ephemeral), or a
///                              bare socket path (required)
///     --shard ADDR             one backend qlosured address per use
///                              (at least one required)
///     --metrics ADDR           optional plain-HTTP listener serving
///                              GET /metrics (Prometheus text)
///     --virtual-nodes N        ring points per shard (default 64)
///     --health-interval-ms N   live-shard ping cadence (default 500)
///     --retries N              queue_full retries per request (default 8)
///     --log-level LEVEL        structured JSON logging threshold: debug,
///                              info, warn, error, off (default off)
///     --log-file PATH          log sink (appended); default stderr
///     --slow-ms N              warn-level "slow_request" line for any
///                              id-tracked forward at or over N ms of
///                              arrival-to-final latency; 0 disables
///
/// Prints "qlosure-router: listening on ADDR" (and the metrics address
/// when enabled) once ready. SIGINT/SIGTERM or a client `shutdown` stop
/// the router; the shard daemons are never owned and keep running.
///
//===----------------------------------------------------------------------===//

#include "service/ShardRouter.h"
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
               "usage: %s --listen ADDR --shard ADDR [--shard ADDR ...]\n"
               "          [--metrics ADDR] [--virtual-nodes N]\n"
               "          [--health-interval-ms N] [--retries N]\n"
               "          [--log-level LEVEL] [--log-file PATH] [--slow-ms N]\n"
               "  every ADDR is unix:/path, tcp:host:port, or a bare path\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  pinMallocThresholds();
  RouterOptions Opts;
  log::Level LogLevel = log::Level::Off;
  std::string LogFile;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--listen") && I + 1 < Argc) {
      Opts.Listen = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--shard") && I + 1 < Argc) {
      Opts.Shards.push_back(Argv[++I]);
    } else if (!std::strcmp(Argv[I], "--metrics") && I + 1 < Argc) {
      Opts.MetricsListen = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--virtual-nodes") && I + 1 < Argc) {
      Opts.VirtualNodes =
          static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else if (!std::strcmp(Argv[I], "--health-interval-ms") && I + 1 < Argc) {
      Opts.HealthIntervalMs =
          static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else if (!std::strcmp(Argv[I], "--retries") && I + 1 < Argc) {
      Opts.MaxRetries =
          static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    } else if (!std::strcmp(Argv[I], "--log-level") && I + 1 < Argc) {
      if (!log::parseLevel(Argv[++I], LogLevel)) {
        std::fprintf(stderr, "qlosure-router: unknown log level \"%s\"\n",
                     Argv[I]);
        return usage(Argv[0]);
      }
    } else if (!std::strcmp(Argv[I], "--log-file") && I + 1 < Argc) {
      LogFile = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--slow-ms") && I + 1 < Argc) {
      Opts.SlowRequestMs = std::strtod(Argv[++I], nullptr);
    } else {
      return usage(Argv[0]);
    }
  }
  if (Opts.Listen.empty() || Opts.Shards.empty())
    return usage(Argv[0]);
  if (!log::configure(LogLevel, LogFile)) {
    std::fprintf(stderr, "qlosure-router: cannot open log file %s\n",
                 LogFile.c_str());
    return 1;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  RouterServer Router(Opts);
  Status Started = Router.start();
  if (!Started.ok()) {
    std::fprintf(stderr, "qlosure-router: error: %s\n",
                 Started.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "qlosure-router: listening on %s (%zu shards)\n",
               Router.boundAddress().c_str(), Opts.Shards.size());
  if (!Router.metricsBoundAddress().empty())
    std::fprintf(stderr, "qlosure-router: metrics on %s\n",
                 Router.metricsBoundAddress().c_str());
  std::fflush(stderr);

  Router.wait([] { return SignalStop != 0; });
  std::fprintf(stderr, "qlosure-router: shut down cleanly\n");
  return 0;
}
