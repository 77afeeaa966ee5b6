//===- perfbench/src/Load.cpp - Closed-loop clients of qlosured ------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Load.h"

#include "service/Client.h"
#include "support/Fingerprint.h"
#include "support/Random.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>

using namespace qlosure;
using namespace perfbench;

namespace {

/// Generous per-receive bound: a stuck daemon fails the run instead of
/// hanging it.
constexpr double IoTimeoutSeconds = 60;

json::Value routeFields(const Request &R, bool Traced) {
  json::Value Obj = json::Value::object();
  Obj.set("mapper", R.Mapper);
  Obj.set("backend", BackendName);
  Obj.set("affine", R.Affine);
  Obj.set("include_qasm", true);
  if (Traced)
    Obj.set("trace", true);
  return Obj;
}

} // namespace

std::string perfbench::routeLine(const Request &R, const std::string &Id,
                                 bool Traced) {
  json::Value Obj = json::Value::object();
  Obj.set("op", "route");
  Obj.set("id", Id);
  json::Value Fields = routeFields(R, Traced);
  for (const auto &Member : Fields.members())
    Obj.set(Member.first, Member.second);
  Obj.set("qasm", R.qasm());
  return Obj.dump();
}

std::string perfbench::batchLine(const Request *Items, size_t Count,
                                 const std::string &Id, bool Traced) {
  json::Value Obj = json::Value::object();
  Obj.set("op", "batch");
  Obj.set("id", Id);
  json::Value Fields = routeFields(Items[0], Traced);
  for (const auto &Member : Fields.members())
    Obj.set(Member.first, Member.second);
  json::Value List = json::Value::array();
  for (size_t I = 0; I < Count; ++I) {
    json::Value Item = json::Value::object();
    Item.set("name", "i" + std::to_string(Items[I].Index));
    Item.set("qasm", Items[I].qasm());
    List.push(std::move(Item));
  }
  Obj.set("items", std::move(List));
  return Obj.dump();
}

namespace {

/// In the traced run, cold-queko traces whole periods of the six-request
/// mapper cycle in turn, so traced and untraced requests see the same mix.
bool tracedRoute(const LoadOptions &Opts, size_t I) {
  return Opts.TraceMode && (I / 6) % 2 == 1;
}

/// omega-crossover traces batches 1, 2, 5, 6, ...: both affine settings
/// (which alternate per batch) get traced and untraced batches.
bool tracedBatch(const LoadOptions &Opts, size_t K) {
  return Opts.TraceMode && ((K + 1) / 2) % 2 == 1;
}

/// Builds Lines[I] = Make(I) on up to four threads.
template <typename Fn>
std::vector<std::string> buildLines(size_t Count, Fn Make) {
  std::vector<std::string> Lines(Count);
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Count;)
      Lines[I] = Make(I);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < 4; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
  return Lines;
}

size_t sizeField(const json::Value &Obj, const char *Key) {
  const json::Value *V = Obj.get(Key);
  return V ? static_cast<size_t>(V->asNumber()) : 0;
}

/// Reads a route response or batch_item frame; appends the daemon's spans
/// of a traced one to \p Spans.
Outcome readOutcome(const json::Value &V, const std::string &RequestId,
                    std::vector<SpanRecord> &Spans) {
  Outcome O;
  O.Received = true;
  if (const json::Value *Err = V.get("error")) {
    const json::Value *Code = Err->get("code");
    O.Error = Code ? Code->asString() : "error";
    return O;
  }
  const json::Value *Stats = V.get("stats");
  const json::Value *Qasm = V.get("qasm");
  if (!Stats || !Qasm || !Qasm->isString()) {
    O.Error = "response without stats or qasm";
    return O;
  }
  O.Ok = true;
  O.QasmFingerprint = fingerprintString(Qasm->asString());
  O.LogicalGates = sizeField(*Stats, "logical_gates");
  O.RoutedGates = sizeField(*Stats, "routed_gates");
  O.Swaps = sizeField(*Stats, "swaps");
  O.DepthBefore = sizeField(*Stats, "depth_before");
  O.DepthAfter = sizeField(*Stats, "depth_after");
  const json::Value *Verified = Stats->get("verified");
  if (!Verified || !Verified->asBool()) {
    O.Ok = false;
    O.Error = "response not verified";
  }
  const json::Value *Hit = V.get("cache_hit");
  const json::Value *ResultHit = V.get("result_cache_hit");
  O.CacheHit = Hit && Hit->asBool();
  O.ResultCacheHit = ResultHit && ResultHit->asBool();
  if (const json::Value *Trace = V.get("trace")) {
    if (const json::Value *List = Trace->get("spans")) {
      for (const json::Value &S : List->items()) {
        SpanRecord R;
        R.RequestId = RequestId;
        R.Source = "daemon";
        if (const json::Value *Name = S.get("name"))
          R.Name = Name->asString();
        if (const json::Value *Start = S.get("start_us"))
          R.StartUs = Start->asNumber();
        if (const json::Value *Dur = S.get("dur_us"))
          R.DurUs = Dur->asNumber();
        if (const json::Value *Depth = S.get("depth"))
          R.Depth = static_cast<int>(Depth->asNumber());
        O.ComputedOmega |= R.Name == "ctx_weights";
        Spans.push_back(std::move(R));
      }
    }
  }
  return O;
}

Outcome parseOutcome(const std::string &Line, const std::string &RequestId,
                     std::vector<SpanRecord> &Spans) {
  json::ParseResult P = json::parse(Line);
  if (!P.Ok || !P.V.isObject()) {
    Outcome O;
    O.Received = true;
    O.Error = "unparsable response";
    return O;
  }
  return readOutcome(P.V, RequestId, Spans);
}

bool isEvent(const std::string &Line) {
  return Line.find("\"event\":") != std::string::npos &&
         Line.find("\"ok\":") == std::string::npos;
}

/// One closed-loop client connection.
class Conn {
public:
  Status open(const std::string &Address) {
    if (Status S = C.connect(Address, 5.0); !S.ok())
      return S;
    return C.setIoTimeout(IoTimeoutSeconds);
  }

  /// Sends \p Line and returns the next final response (route ops; no
  /// events are requested).
  Status roundTrip(const std::string &Line, std::string &Response) {
    if (Status S = C.sendLine(Line); !S.ok())
      return S;
    do {
      if (Status S = C.recvLine(Response); !S.ok())
        return S;
    } while (isEvent(Response));
    return Status::success();
  }

  service::Client C;
};

/// Per-thread results merged into the LoadResult when the thread ends.
struct ThreadLog {
  std::vector<Sample> Samples;
  std::vector<SpanRecord> Spans;
  std::vector<std::string> Errors;
  size_t Attempted = 0;
  size_t Failed = 0;
  double LastDoneS = 0;

  void fail(std::string Why) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(std::move(Why));
  }
};

class Merger {
public:
  explicit Merger(LoadResult &Out) : Out(Out) {}

  void merge(ThreadLog &Log) {
    std::lock_guard<std::mutex> Lock(Mu);
    Out.Samples.insert(Out.Samples.end(), Log.Samples.begin(),
                       Log.Samples.end());
    Out.DaemonSpans.insert(Out.DaemonSpans.end(), Log.Spans.begin(),
                           Log.Spans.end());
    for (std::string &E : Log.Errors)
      if (Out.Errors.size() < 8)
        Out.Errors.push_back(std::move(E));
    Out.Attempted += Log.Attempted;
    Out.Failed += Log.Failed;
    Out.ElapsedS = std::max(Out.ElapsedS, Log.LastDoneS);
  }

private:
  LoadResult &Out;
  std::mutex Mu;
};

/// Runs \p Body(ClientIndex, Conn&, ThreadLog&) on \p Clients threads.
template <typename Fn>
void runClients(unsigned Clients, const std::string &Address, LoadResult &Out,
                Fn Body) {
  Merger M(Out);
  std::vector<std::thread> Threads;
  for (unsigned K = 0; K < Clients; ++K) {
    Threads.emplace_back([&, K] {
      ThreadLog Log;
      Conn C;
      if (Status S = C.open(Address); !S.ok())
        Log.fail("connect: " + S.message());
      else
        Body(K, C, Log);
      M.merge(Log);
    });
  }
  for (std::thread &T : Threads)
    T.join();
}

/// cold-queko and the warm-hits priming pass: each request of \p Lines is
/// sent once, in order, by whichever client is free.
LoadResult runPool(const Workload &W, const LoadOptions &Opts,
                   const std::vector<std::string> &Lines, double Seconds) {
  LoadResult Out;
  Out.Outcomes.resize(W.Requests.size());
  std::atomic<size_t> Next{0};
  std::atomic<bool> Exhausted{false};
  const auto Start = Clock::now();
  const auto Deadline = Start + std::chrono::duration<double>(Seconds);
  runClients(W.Clients, Opts.Address, Out,
             [&](unsigned, Conn &C, ThreadLog &Log) {
    std::string Response;
    while (Clock::now() < Deadline) {
      size_t I = Next.fetch_add(1);
      if (I >= Lines.size()) {
        Exhausted = true;
        break;
      }
      bool Traced = tracedRoute(Opts, I);
      ++Log.Attempted;
      const auto Sent = Clock::now();
      if (Status S = C.roundTrip(Lines[I], Response); !S.ok()) {
        Log.fail("request " + std::to_string(I) + ": " + S.message());
        break;
      }
      const auto Done = Clock::now();
      Log.Samples.push_back({secondsBetween(Start, Sent),
                             msBetween(Sent, Done), Traced});
      Log.LastDoneS = secondsBetween(Start, Done);
      Out.Outcomes[I] = parseOutcome(
          Response, (W.TheKind == Kind::WarmHits ? "p" : "r") + std::to_string(I),
          Log.Spans);
    }
  });
  Out.PoolExhausted = Exhausted;
  return Out;
}

/// warm-hits: each client repeats uniformly drawn pairs. A pair's id is
/// fixed, so every untraced hit on it is byte-identical to the first one
/// checked in full; later ones are checked by hashing the line.
LoadResult runHits(const Workload &W, const LoadOptions &Opts,
                   const std::vector<Expected> &Primed) {
  size_t Pairs = W.Requests.size();
  std::vector<std::string> Plain = buildLines(Pairs, [&](size_t I) {
    return routeLine(W.Requests[I], "p" + std::to_string(I), false);
  });
  std::vector<std::string> Traced;
  if (Opts.TraceMode)
    Traced = buildLines(Pairs, [&](size_t I) {
      return routeLine(W.Requests[I], "p" + std::to_string(I), true);
    });

  LoadResult Out;
  Out.Outcomes.resize(Pairs);
  const auto Start = Clock::now();
  const auto Deadline = Start + std::chrono::duration<double>(Opts.Seconds);
  runClients(W.Clients, Opts.Address, Out,
             [&](unsigned K, Conn &C, ThreadLog &Log) {
    Rng R(hashCombine(Opts.Seed, 0x68697473ULL + K));
    std::unordered_map<size_t, uint64_t> GoodLine;
    std::string Response;
    for (size_t N = 0; Clock::now() < Deadline; ++N) {
      size_t I = static_cast<size_t>(R.nextBounded(Pairs));
      bool IsTraced = Opts.TraceMode && N % 2 == 1;
      ++Log.Attempted;
      const auto Sent = Clock::now();
      if (Status S = C.roundTrip(IsTraced ? Traced[I] : Plain[I], Response);
          !S.ok()) {
        Log.fail("pair " + std::to_string(I) + ": " + S.message());
        break;
      }
      const auto Done = Clock::now();
      Log.Samples.push_back({secondsBetween(Start, Sent),
                             msBetween(Sent, Done), IsTraced});
      Log.LastDoneS = secondsBetween(Start, Done);
      uint64_t LineHash = 0;
      if (!IsTraced) {
        LineHash = hashBytes(Response.data(), Response.size());
        auto It = GoodLine.find(I);
        if (It != GoodLine.end() && It->second == LineHash)
          continue;
      }
      Outcome O = parseOutcome(Response, "p" + std::to_string(I) + "-" +
                                             std::to_string(K) + "-" +
                                             std::to_string(N),
                               Log.Spans);
      std::string Why;
      if (!matches(O, Primed[I], /*WantCacheHit=*/true, Why) ||
          !O.ResultCacheHit) {
        Log.fail("pair " + std::to_string(I) + ": " +
                 (Why.empty() ? "not a result-cache hit" : Why));
        continue;
      }
      if (!IsTraced)
        GoodLine[I] = LineHash;
    }
  });
  return Out;
}

/// omega-crossover: one connection, one batch outstanding at a time.
LoadResult runBatches(const Workload &W, const LoadOptions &Opts) {
  size_t B = W.BatchSize;
  size_t Batches = W.Requests.size() / B;
  std::vector<std::string> Lines = buildLines(Batches, [&](size_t K) {
    return batchLine(&W.Requests[K * B], B, "b" + std::to_string(K),
                     tracedBatch(Opts, K));
  });

  LoadResult Out;
  Out.Outcomes.resize(W.Requests.size());
  const auto Start = Clock::now();
  const auto Deadline = Start + std::chrono::duration<double>(Opts.Seconds);
  runClients(1, Opts.Address, Out, [&](unsigned, Conn &C, ThreadLog &Log) {
    std::string Line;
    size_t K = 0;
    for (; K < Batches && Clock::now() < Deadline; ++K) {
      std::string Id = "b" + std::to_string(K);
      Log.Attempted += B;
      const auto Sent = Clock::now();
      if (Status S = C.C.sendLine(Lines[K]); !S.ok()) {
        Log.fail(Id + ": " + S.message());
        return;
      }
      size_t Frames = 0;
      while (true) {
        if (Status S = C.C.recvLine(Line); !S.ok()) {
          Log.fail(Id + ": " + S.message());
          return;
        }
        const auto Done = Clock::now();
        json::ParseResult P = json::parse(Line);
        if (!P.Ok || !P.V.isObject()) {
          Log.fail(Id + ": unparsable frame");
          continue;
        }
        if (!P.V.get("event")) {
          // The summary comes last and closes the batch.
          const json::Value *Ok = P.V.get("ok");
          if (!Ok || !Ok->asBool() || sizeField(P.V, "succeeded") != B)
            Log.fail(Id + ": batch summary reports failures");
          Log.LastDoneS = secondsBetween(Start, Done);
          break;
        }
        const json::Value *Index = P.V.get("index");
        size_t Item = Index ? static_cast<size_t>(Index->asNumber()) : B;
        if (Item >= B) {
          Log.fail(Id + ": frame without a valid index");
          continue;
        }
        size_t Req = K * B + Item;
        ++Frames;
        Log.Samples.push_back({secondsBetween(Start, Sent),
                               msBetween(Sent, Done), tracedBatch(Opts, K)});
        Out.Outcomes[Req] = readOutcome(
            P.V, Id + "-" + std::to_string(Item), Log.Spans);
      }
      if (Frames != B)
        Log.fail(Id + ": " + std::to_string(Frames) + " item frames of " +
                 std::to_string(B));
    }
    if (K == Batches)
      Out.PoolExhausted = true;
  });
  return Out;
}

} // namespace

bool perfbench::matches(const Outcome &Got, const Expected &Want,
                        bool WantCacheHit, std::string &Why) {
  if (!Want.Ok) {
    Why = "no reference answer: " + Want.Error;
    return false;
  }
  if (!Got.Received) {
    Why = "no response";
    return false;
  }
  if (!Got.Ok) {
    Why = "daemon error: " + Got.Error;
    return false;
  }
  if (Got.QasmFingerprint != Want.QasmFingerprint) {
    Why = "routed QASM differs from the direct library call";
    return false;
  }
  if (Got.Swaps != Want.Swaps || Got.LogicalGates != Want.LogicalGates ||
      Got.RoutedGates != Want.RoutedGates ||
      Got.DepthBefore != Want.DepthBefore ||
      Got.DepthAfter != Want.DepthAfter) {
    Why = "stats differ from the direct library call";
    return false;
  }
  if (Got.CacheHit != WantCacheHit) {
    Why = WantCacheHit ? "expected a cache hit" : "unexpected cache hit";
    return false;
  }
  return true;
}

LoadResult perfbench::primePairs(const Workload &W, const LoadOptions &Opts) {
  std::vector<std::string> Lines = buildLines(W.Requests.size(), [&](size_t I) {
    return routeLine(W.Requests[I], "p" + std::to_string(I), Opts.TraceMode);
  });
  // No deadline: priming ends when every pair is routed. In the traced
  // run every priming request is traced (the lines above), so the
  // daemon's omega work is visible; runPool's trace parity is off.
  LoadOptions Prime = Opts;
  Prime.TraceMode = false;
  return runPool(W, Prime, Lines, 1e9);
}

LoadResult perfbench::runTimedPhase(const Workload &W,
                                    const LoadOptions &Opts,
                                    const std::vector<Expected> &Primed) {
  switch (W.TheKind) {
  case Kind::ColdQueko: {
    std::vector<std::string> Lines =
        buildLines(W.Requests.size(), [&](size_t I) {
          return routeLine(W.Requests[I], "r" + std::to_string(I),
                           tracedRoute(Opts, I));
        });
    return runPool(W, Opts, Lines, Opts.Seconds);
  }
  case Kind::WarmHits:
    return runHits(W, Opts, Primed);
  case Kind::OmegaCrossover:
    return runBatches(W, Opts);
  }
  return LoadResult();
}
