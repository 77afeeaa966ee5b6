//===- perfbench/src/Daemon.h - A real qlosured child process -------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Launches the qlosured binary as a child process on a Unix socket in the
/// current directory, with a fresh durable store, and owns it until it has
/// exited. The child dies with the benchmark (PR_SET_PDEATHSIG), so a
/// crashed benchmark never leaves a daemon behind.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PERFBENCH_DAEMON_H
#define QLOSURE_PERFBENCH_DAEMON_H

#include "support/Error.h"
#include "support/Json.h"

#include <memory>
#include <string>
#include <sys/types.h>

namespace perfbench {

class Daemon {
public:
  /// Starts `Exe --listen unix:<Name>.sock --workers <Workers> --store
  /// <Name>.store` and waits until it answers a ping. The time from launch
  /// to that answer, store open and recovery included, is setupSeconds().
  static std::unique_ptr<Daemon> launch(const std::string &Exe,
                                        const std::string &Name,
                                        unsigned Workers,
                                        qlosure::Status &Err);

  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  const std::string &address() const { return Address; }
  double setupSeconds() const { return SetupSeconds; }

  /// The daemon's `stats` document (null on failure).
  qlosure::json::Value stats() const;

  /// Peak resident set (VmHWM) of the live daemon, in MiB.
  double peakRssMb() const;

  /// SIGTERM, then wait for exit (SIGKILL after 20 s). Returns whether the
  /// daemon exited cleanly with status 0.
  bool stop();

private:
  Daemon() = default;

  pid_t Pid = -1;
  std::string Address;
  double SetupSeconds = 0;
};

} // namespace perfbench

#endif // QLOSURE_PERFBENCH_DAEMON_H
