//===- perfbench/src/Load.h - Closed-loop clients of qlosured --------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timed phase of each workload: closed-loop clients (each sends its
/// next request only after the previous one is answered) on their own
/// connections, recording the client-observed latency of every route or
/// batch item and what each response said, for the output check.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PERFBENCH_LOAD_H
#define QLOSURE_PERFBENCH_LOAD_H

#include "Common.h"
#include "Workloads.h"


#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What one response (route answer or batch_item frame) reported.
struct Outcome {
  bool Received = false;
  bool Ok = false;
  std::string Error;
  uint64_t QasmFingerprint = 0;
  size_t LogicalGates = 0;
  size_t RoutedGates = 0;
  size_t Swaps = 0;
  size_t DepthBefore = 0;
  size_t DepthAfter = 0;
  bool CacheHit = false;
  bool ResultCacheHit = false;
  /// Traced responses only: the daemon computed omega (a ctx_weights span).
  bool ComputedOmega = false;
};

/// Whether \p Got is the answer \p Want describes, with the expected
/// cache flag. Fills \p Why on mismatch.
bool matches(const Outcome &Got, const Expected &Want, bool WantCacheHit,
             std::string &Why);

struct Sample {
  double SentS = 0;       ///< Send time, seconds since the phase began.
  double LatencyMs = 0;   ///< Send to response line (batch: item frame).
  bool Traced = false;
};

/// One span, of the daemon (from a traced response) or of the
/// benchmark's own library replay, tagged with the request it belongs to.
struct SpanRecord {
  std::string RequestId;
  std::string Name;
  std::string Source;   ///< "daemon" or "replay".
  double StartUs = 0;
  double DurUs = 0;
  int Depth = 0;
};

struct LoadResult {
  std::vector<Sample> Samples;
  /// Indexed by Request::Index; Received is false for requests not sent.
  std::vector<Outcome> Outcomes;
  size_t Attempted = 0;
  size_t Failed = 0;
  std::vector<std::string> Errors;
  double ElapsedS = 0;
  bool PoolExhausted = false;
  std::vector<SpanRecord> DaemonSpans;
};

struct LoadOptions {
  std::string Address;
  double Seconds = 1;
  /// Traced run: half the requests carry "trace":true, spread evenly over
  /// the workload's request mix.
  bool TraceMode = false;
  uint64_t Seed = 1;
};

/// The request line of a `route` op for \p R.
std::string routeLine(const Request &R, const std::string &Id, bool Traced);

/// The request line of a `batch` op over Items[0..Count).
std::string batchLine(const Request *Items, size_t Count,
                      const std::string &Id, bool Traced);

/// The warm-hits priming pass: routes every pair once, on the workload's
/// client count. Outcomes are indexed by Request::Index; ElapsedS is the
/// time from the first send to the last answer.
LoadResult primePairs(const Workload &W, const LoadOptions &Opts);

/// The timed phase. For warm-hits, \p Primed holds the checked reference
/// answer of every pair; every response is checked inline against it.
/// For the other workloads the caller checks Outcomes afterwards.
LoadResult runTimedPhase(const Workload &W, const LoadOptions &Opts,
                         const std::vector<Expected> &Primed);

} // namespace perfbench

#endif // QLOSURE_PERFBENCH_LOAD_H
