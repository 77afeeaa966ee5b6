//===- service/Server.cpp - qlosured Unix-socket server ------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "baselines/RouterRegistry.h"
#include "core/Qlosure.h"
#include "qasm/Importer.h"
#include "qasm/Printer.h"
#include "route/Fidelity.h"
#include "route/InitialMapping.h"
#include "route/Verify.h"
#include "service/Metrics.h"
#include "support/Log.h"
#include "support/StringUtils.h"
#include "topology/Backends.h"

#include <algorithm>
#include <tuple>

using namespace qlosure;
using namespace qlosure::service;

namespace {

const char *const KnownBackends[] = {
    "sherbrooke", "ankaa3",  "sherbrooke2x", "kings9x9",
    "kings16x16", "aspen16", "sycamore54"};

const char *const KnownMappers[] = {"qlosure", "sabre", "qmap", "cirq",
                                    "tket"};

bool isKnown(const char *const *Names, size_t Count,
             const std::string &Name) {
  for (size_t I = 0; I < Count; ++I)
    if (Name == Names[I])
      return true;
  return false;
}

std::unique_ptr<Router> makeServiceRouter(const std::string &Name,
                                          bool ErrorAware, bool Affine) {
  if (Name == "qlosure") {
    QlosureOptions Opts;
    Opts.ErrorAware = ErrorAware;
    Opts.AffineReplay = Affine;
    // Replay is only exact under the unweighted scoring profile (omega
    // is aperiodic even on periodic traces, so weighted anchors rarely
    // recur); requesting affine selects that profile.
    if (Affine)
      Opts.UseDependencyWeights = false;
    return std::make_unique<QlosureRouter>(Opts);
  }
  // Baselines have no error-aware or affine mode; they route on the
  // calibrated graph with plain distances (mirrors tools/qlosure-route).
  return makeRouterByName(Name);
}

json::Value cacheStatsJson(const CacheStats &S, size_t ByteBudget) {
  json::Value Obj = json::Value::object();
  Obj.set("hits", S.Hits);
  Obj.set("misses", S.Misses);
  Obj.set("evictions", S.Evictions);
  Obj.set("entries", S.Entries);
  Obj.set("bytes", S.Bytes);
  Obj.set("byte_budget", ByteBudget);
  return Obj;
}

/// The RouteStats block a cached (memory or store) result replays.
RouteStats statsFromCached(const CachedResult &Cached) {
  RouteStats Stats;
  Stats.LogicalGates = Cached.LogicalGates;
  Stats.RoutedGates = Cached.RoutedGates;
  Stats.Swaps = Cached.Swaps;
  Stats.DepthBefore = Cached.DepthBefore;
  Stats.DepthAfter = Cached.DepthAfter;
  Stats.MappingSeconds = Cached.MappingSeconds;
  Stats.TimedOut = Cached.TimedOut;
  Stats.Verified = Cached.Verified;
  Stats.SuccessProbability = Cached.SuccessProbability;
  return Stats;
}

/// A leader-failure outcome for the followers coalesced onto it: the
/// leader's own error code, with the message marking that the failure
/// was inherited (docs/PROTOCOL.md documents the semantics).
InflightTable::Outcome coalescedFailure(const char *Code,
                                        const std::string &Message) {
  InflightTable::Outcome O;
  O.ErrorCode = Code;
  O.ErrorMessage = formatString("coalesced leader failed: %s",
                                Message.c_str());
  return O;
}

/// Maps a fired token to its protocol error (code, message).
std::pair<const char *, const char *>
cancellationError(const CancellationToken &Token) {
  if (Token.reason() == CancellationToken::Reason::DeadlineExceeded)
    return {errc::DeadlineExceeded, "deadline expired mid-route"};
  return {errc::Cancelled, "request cancelled"};
}

/// Absolute deadline for a request that asked for \p TimeoutMs (<= 0 =
/// server default). Clamped before converting: an absurd client-supplied
/// timeout must not overflow the chrono arithmetic (which would wrap the
/// deadline into the past) or make the double->int64 cast undefined. A
/// week is effectively "no deadline" for a mapping request.
std::chrono::steady_clock::time_point
requestDeadline(double TimeoutMs, double DefaultTimeoutSeconds) {
  auto Deadline = std::chrono::steady_clock::time_point::max();
  double EffectiveMs =
      TimeoutMs > 0 ? TimeoutMs : DefaultTimeoutSeconds * 1000.0;
  constexpr double MaxTimeoutMs = 7.0 * 24 * 3600 * 1000;
  EffectiveMs = std::min(EffectiveMs, MaxTimeoutMs);
  if (TimeoutMs > 0 || DefaultTimeoutSeconds > 0)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(
                   static_cast<int64_t>(EffectiveMs * 1000.0));
  return Deadline;
}

/// Nanoseconds between two trace-clock points.
int64_t spanNs(Trace::Clock::time_point From, Trace::Clock::time_point To) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
      .count();
}

/// One warn-level "slow_request" line for a request that crossed the
/// configured threshold, carrying the per-phase trace when one was
/// recorded.
void logSlowRequest(const char *Op, const std::string &Id,
                    const RouteRequest &Params, double TotalMs,
                    double ThresholdMs, Trace *T,
                    Trace::Clock::time_point Now) {
  if (!log::enabled(log::Level::Warn))
    return;
  log::Event E(log::Level::Warn, "slow_request");
  E.str("op", Op);
  if (!Id.empty())
    E.str("id", Id);
  E.str("mapper", Params.Mapper);
  E.str("backend", Params.Backend);
  E.num("total_ms", TotalMs);
  E.num("threshold_ms", ThresholdMs);
  if (T) {
    E.str("trace_id", T->traceId());
    E.json("trace", T->toJson(Now));
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Connection: the host's writer + the in-flight session table
//===----------------------------------------------------------------------===//

/// The host's socket and writer (shared with any workers running this
/// connection's jobs, which write their responses through it) plus the
/// in-flight session table.
struct Server::Connection : HostedConnection {
  using HostedConnection::HostedConnection;

  /// In-flight sessions (routes and batches) by id. Only the owning
  /// connection thread inserts (ids are connection-scoped and requests
  /// on one connection are read serially); completions erase, so the
  /// mutex arbitrates insert/lookup against that erase.
  std::mutex JobsMu;
  std::map<std::string, std::shared_ptr<Server::Session>> InFlight;

  /// The single release point of the in-flight table: every session's
  /// last completion frees the id here, *before* its final frame is
  /// written, so a client that has read the final response may
  /// immediately reuse the id.
  void release(const std::string &Id) {
    if (Id.empty())
      return;
    std::lock_guard<std::mutex> Lock(JobsMu);
    InFlight.erase(Id);
  }

  bool idInFlight(const std::string &Id) {
    std::lock_guard<std::mutex> Lock(JobsMu);
    return InFlight.count(Id) != 0;
  }
};

//===----------------------------------------------------------------------===//
// Session: one in-flight route or batch
//===----------------------------------------------------------------------===//

/// A `route` is a session of one item; a `batch` one of N. Shared by the
/// connection thread (inline hits/failures, cancels) and the workers
/// running the session's scheduled items. Per-item slots are written by
/// exactly one thread each (whoever completes that item), and the
/// Remaining countdown sequences those writes before the final frame's
/// reads — no per-item locking needed.
struct Server::Session {
  std::shared_ptr<Connection> Conn;
  bool IsBatch = false;
  std::string Id;
  /// Routing parameters shared by every item.
  RouteRequest Params;
  /// Request arrival: the epoch of every trace and of the `route`
  /// latency, and the queue-wait anchor of batch items.
  Trace::Clock::time_point Arrival;
  /// A traced route's span recorder, opened at arrival (null otherwise;
  /// batch items open theirs at pickup).
  std::shared_ptr<Trace> RouteTrace;
  /// Items still unfinished; the decrement that reaches zero owns
  /// releasing the id and sending the final frame.
  std::atomic<size_t> Remaining{0};
  /// Parallel per-item arrays, indexed in submission order: the client
  /// label echoed in frames, and the terse outcome ("ok" or error code)
  /// the batch summary reports.
  std::vector<std::string> Names;
  std::vector<std::string> Status;
  /// (ticket, item index) for every item that reached the scheduler or a
  /// flight — the cancellation handles. Written by the connection thread
  /// right after admission; only that same thread reads them (cancel and
  /// the disconnect sweep both run on it), so unsynchronized.
  std::vector<std::pair<std::shared_ptr<JobTicket>, size_t>> Tickets;

  const char *op() const { return IsBatch ? "batch" : "route"; }
  /// How error messages name the unit that failed.
  const char *noun() const { return IsBatch ? "item" : "request"; }
};

/// Outcome of the shared worker-side routing core.
struct Server::RouteOutcome {
  /// nullptr = success. When Cancelled is set the caller derives the
  /// code from the token (cancelled vs. deadline_exceeded) instead.
  const char *ErrorCode = nullptr;
  std::string ErrorMessage;
  bool Cancelled = false;
  bool ContextHit = false;
  RouteStats Stats;
  std::shared_ptr<const CachedResult> Cached; ///< Set on success.
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions Options)
    : Options(std::move(Options)),
      Contexts(CacheOptions{this->Options.CacheShards,
                            this->Options.ContextCacheBytes}),
      Results(CacheOptions{this->Options.CacheShards,
                           this->Options.ResultCacheBytes}) {}

Server::~Server() { stop(); }

Status Server::start() {
  if (Host.started())
    return Status::error("server already started");
  if (Options.Listen.empty())
    return Status::error("listen address must not be empty");

  if (!Options.StorePath.empty()) {
    ResultStoreOptions StoreOpts;
    StoreOpts.Path = Options.StorePath;
    StoreOpts.ReadOnly = Options.StoreReadOnly;
    StoreOpts.FsyncBytes = Options.StoreFsyncBytes;
    Status StoreErr;
    Store = ResultStore::open(StoreOpts, StoreErr);
    if (!Store)
      return StoreErr;
  } else if (Options.StoreReadOnly) {
    return Status::error("--store-read-only requires a store path");
  }

  Endpoint Ep;
  if (Status S = parseEndpoint(Options.Listen, Ep); !S.ok())
    return S;

  Inflight = std::make_unique<InflightTable>();
  SchedulerOptions SchedOpts;
  SchedOpts.Workers = Options.Workers;
  SchedOpts.QueueCapacity = Options.QueueCapacity;
  Workers = std::make_unique<Scheduler>(SchedOpts);

  Uptime.reset();
  ConnectionHooks Hooks;
  Hooks.Open = [](int Fd) { return std::make_shared<Connection>(Fd); };
  Hooks.Line = [this](const std::shared_ptr<HostedConnection> &Conn,
                      const std::string &Line) {
    handleLine(std::static_pointer_cast<Connection>(Conn), Line);
  };
  Hooks.Closed = [this](const std::shared_ptr<HostedConnection> &Conn) {
    onConnectionClosed(static_cast<Connection &>(*Conn));
  };
  return Host.start(Ep, std::move(Hooks));
}

void Server::requestStop() { Host.requestStop(); }

void Server::wait(const std::function<bool()> &ExternalStop) {
  Host.wait(ExternalStop, [this] { drain(); });
}

void Server::stop() {
  requestStop();
  wait();
}

void Server::drain() {
  // Drain the scheduler FIRST, while every connection's write side is
  // still intact: each pending route reaches its completion path and its
  // final response actually reaches the client — the exactly-one-final-
  // response guarantee holds across shutdown. New submissions are
  // already rejected (the host is stopping, which answers
  // shutting_down). The host severs the connections afterwards.
  if (Workers)
    Workers->shutdown();
  // Every leader has now completed (drained jobs complete their flights
  // on the way out), so the coalescing table is normally empty; drain
  // the stragglers with a structured error while the writers still work
  // — no follower is ever left without its final response.
  if (Inflight) {
    InflightTable::Outcome Shutdown;
    Shutdown.ErrorCode = errc::ShuttingDown;
    Shutdown.ErrorMessage = "server is shutting down";
    Inflight->drain(Shutdown);
  }
  if (Store)
    Store->flush();
}

void Server::onConnectionClosed(Connection &Conn) {
  // Nothing can read this connection's outcomes anymore, so abort its
  // queued and in-flight jobs instead of letting workers spend minutes
  // routing into a latched-closed writer (a dropped pipelined connection
  // could otherwise pin the whole pool on dead work). Frames of the
  // queued items claimed here degrade to no-ops; followers on *other*
  // connections still get their final response, naming the cause.
  std::vector<std::shared_ptr<Session>> Orphans;
  {
    std::lock_guard<std::mutex> Lock(Conn.JobsMu);
    for (const auto &Entry : Conn.InFlight)
      Orphans.push_back(Entry.second);
  }
  for (const std::shared_ptr<Session> &S : Orphans)
    cancelSession(*S, "leader connection dropped");
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

void Server::sendError(Connection &Conn, const char *Op,
                       const std::string &Id, const char *Code,
                       const std::string &Message) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Errors;
  }
  Conn.send(formatErrorResponse(Op, Id, Code, Message));
}

void Server::handleLine(const std::shared_ptr<Connection> &Conn,
                        const std::string &Line) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Requests;
  }
  RequestParse Parsed = parseRequest(Line);
  if (!Parsed.Ok) {
    // Rejections stay correlatable: whatever (op, id) the request
    // carried was captured before validation failed.
    sendError(*Conn,
              Parsed.OpName.empty() ? "unknown" : Parsed.OpName.c_str(),
              Parsed.Req.Id, Parsed.ErrorCode.c_str(),
              Parsed.ErrorMessage);
    return;
  }
  const Request &Req = Parsed.Req;
  switch (Req.TheOp) {
  case Op::Ping:
    Conn->send(formatPingResponse(Req.Id));
    return;
  case Op::Stats:
    Conn->send(formatStatsResponse(Req.Id, statsJson()));
    return;
  case Op::Metrics:
    Conn->send(
        formatMetricsResponse(Req.Id, prometheusText(statsJson(), "qlosure")));
    return;
  case Op::Shutdown:
    Conn->send(formatShutdownResponse(Req.Id));
    requestStop();
    return;
  case Op::Cancel:
    handleCancel(Conn, Req);
    return;
  case Op::Route:
  case Op::Batch:
    handleSession(Conn, Req);
    return;
  }
  sendError(*Conn, "unknown", Req.Id, errc::BadRequest, "unhandled op");
}

void Server::handleCancel(const std::shared_ptr<Connection> &Conn,
                          const Request &Req) {
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.CancelRequests;
  }
  std::shared_ptr<Session> S;
  {
    std::lock_guard<std::mutex> Lock(Conn->JobsMu);
    auto It = Conn->InFlight.find(Req.Id);
    if (It != Conn->InFlight.end())
      S = It->second;
  }
  // Unknown or already finished: idempotent no-op ack. Otherwise every
  // still-live item dies; a batch summary still arrives (last) through
  // the normal countdown, tallying completed and cancelled items.
  bool Delivered =
      S && cancelSession(*S, formatString("%s cancelled while queued",
                                          S->noun()));
  Conn->send(formatCancelResponse(Req.Id, Delivered));
}

std::shared_ptr<const CachedResult>
Server::lookupResult(const CacheKey &Key) {
  if (auto Cached = Results.lookup(Key))
    return Cached;
  if (!Store)
    return nullptr;
  auto FromStore = Store->get(Key);
  if (!FromStore)
    return nullptr;
  // Promote the durable record into the memory cache so the next hit
  // skips the disk read (insertValue keeps a racing incumbent).
  return Results.insertValue(Key, std::move(FromStore));
}

std::shared_ptr<const Server::PooledBackend>
Server::lookupBackend(const std::string &Name, bool ErrorAware,
                      uint64_t CalibrationSeed) {
  if (!isKnown(KnownBackends,
               sizeof(KnownBackends) / sizeof(KnownBackends[0]), Name))
    return nullptr;
  std::string VariantKey =
      ErrorAware ? formatString("%s|ea%llu", Name.c_str(),
                                static_cast<unsigned long long>(
                                    CalibrationSeed))
                 : Name + "|plain";
  std::lock_guard<std::mutex> Lock(BackendMu);
  auto It = Backends.find(VariantKey);
  if (It != Backends.end())
    return It->second;
  // The calibration-seed dimension is client-controlled: bound the pool
  // by dropping the error-aware variants when it fills up (in-flight
  // requests hold shared ownership of theirs; plain variants — at most
  // one per known backend — are retained).
  if (Backends.size() >= MaxBackendVariants) {
    for (auto Victim = Backends.begin(); Victim != Backends.end();) {
      if (Victim->first.find("|ea") != std::string::npos)
        Victim = Backends.erase(Victim);
      else
        ++Victim;
    }
  }
  auto Graph = std::make_shared<CouplingGraph>(makeBackendByName(Name));
  if (ErrorAware)
    applySyntheticErrorModel(*Graph, CalibrationSeed);
  auto Pooled = std::make_shared<PooledBackend>();
  Pooled->Fingerprint = fingerprint(*Graph);
  Pooled->Graph = std::move(Graph);
  Backends.emplace(VariantKey, Pooled);
  return Pooled;
}

Server::RouteOutcome
Server::executeRoute(const std::shared_ptr<const Circuit> &Logical,
                     const std::shared_ptr<const PooledBackend> &Backend,
                     const RouteRequest &Params, uint64_t CircuitFp,
                     const CacheKey &ResultKey, RoutingScratch &Scratch,
                     CancellationToken &Cancel,
                     const std::function<void()> &BeforeRoute, Trace *T) {
  RouteOutcome Out;
  if (Cancel.cancelled()) {
    Out.Cancelled = true;
    return Out;
  }
  std::unique_ptr<Router> Mapper =
      makeServiceRouter(Params.Mapper, Params.ErrorAware, Params.Affine);
  RoutingContextOptions CtxOptions = Mapper->contextOptions();
  CacheKey ContextKey{CircuitFp, Backend->Fingerprint,
                      fingerprint(CtxOptions)};
  const auto CtxStart = Trace::Clock::now();
  int CtxSpan = T ? T->begin("context_build") : -1;
  // The entry keeps its circuit for as long as it is cached, so it gets a
  // copy made here on the worker. The request's own circuit was allocated
  // on the connection thread: parking long-lived blocks in the heap that
  // thread allocates from made every later QASM import on it ~25% slower
  // (perfbench warm-hits p50).
  auto Bundle = Contexts.getOrBuild(
      ContextKey,
      [&] {
        return CachedContext::build(std::make_shared<const Circuit>(*Logical),
                                    Backend->Graph, CtxOptions, T);
      },
      &Out.ContextHit);
  if (T)
    T->end(CtxSpan);
  Histos.ContextBuild.recordNs(spanNs(CtxStart, Trace::Clock::now()));
  const RoutingContext &Ctx = Bundle->context();
  if (!Ctx.valid()) {
    Out.ErrorCode = errc::InvalidCircuit;
    Out.ErrorMessage = Ctx.status().message();
    return Out;
  }
  // The sink rides the pooled scratch through the virtual route() calls,
  // the bidirectional derive's included, so whichever pass first reads
  // omega records its ctx_weights span. It is cleared before the scratch
  // returns to the pool.
  Scratch.TraceSink = T;
  const auto InitStart = Trace::Clock::now();
  int InitSpan = T ? T->begin("initial_mapping") : -1;
  QubitMapping Initial =
      Params.Bidirectional
          ? deriveBidirectionalMapping(*Mapper, Ctx, 1, &Scratch, &Cancel)
          : Ctx.identityMapping();
  if (T)
    T->end(InitSpan);
  Histos.InitialMapping.recordNs(spanNs(InitStart, Trace::Clock::now()));
  if (Cancel.cancelled()) {
    Scratch.TraceSink = nullptr;
    Out.Cancelled = true;
    return Out;
  }
  if (BeforeRoute)
    BeforeRoute();
  const auto RouteStart = Trace::Clock::now();
  int RouteSpan = T ? T->begin("routing_loop") : -1;
  RoutingResult Result = Mapper->route(Ctx, Initial, Scratch, &Cancel);
  Scratch.TraceSink = nullptr;
  if (T)
    T->end(RouteSpan);
  Histos.RoutingLoop.recordNs(spanNs(RouteStart, Trace::Clock::now()));
  if (Result.Cancelled) {
    Out.Cancelled = true;
    return Out;
  }
  if (Result.AffineReplayedPeriods || Result.AffineFallbackPeriods) {
    std::lock_guard<std::mutex> Lock(CounterMu);
    Counters.AffineReplays += Result.AffineReplayedPeriods;
    Counters.AffineFallbacks += Result.AffineFallbackPeriods;
  }
  const auto VerifyStart = Trace::Clock::now();
  int VerifySpan = T ? T->begin("verify") : -1;
  VerifyResult Check = verifyRouting(Ctx.circuit(), Ctx.hardware(), Result);
  if (T)
    T->end(VerifySpan);
  Histos.Verify.recordNs(spanNs(VerifyStart, Trace::Clock::now()));
  if (!Check.Ok) {
    Out.ErrorCode = errc::VerifyFailed;
    Out.ErrorMessage = formatString("routing failed verification: %s",
                                    Check.Message.c_str());
    return Out;
  }
  auto Cached = std::make_shared<CachedResult>();
  {
    ScopedSpan PrintSpan(T, "print_qasm");
    Cached->RoutedQasm = qasm::printQasm(Result.Routed);
  }
  Cached->LogicalGates = Logical->size();
  Cached->RoutedGates = Result.Routed.size();
  Cached->Swaps = Result.NumSwaps;
  Cached->DepthBefore = Logical->depth();
  Cached->DepthAfter = Result.Routed.depth();
  Cached->MappingSeconds = Result.MappingSeconds;
  Cached->TimedOut = Result.TimedOut;
  Cached->Verified = true;
  if (Ctx.hardware().hasErrorModel())
    Cached->SuccessProbability =
        estimateSuccessProbability(Result.Routed, Ctx.hardware());

  Out.Stats.LogicalGates = Cached->LogicalGates;
  Out.Stats.RoutedGates = Cached->RoutedGates;
  Out.Stats.Swaps = Cached->Swaps;
  Out.Stats.DepthBefore = Cached->DepthBefore;
  Out.Stats.DepthAfter = Cached->DepthAfter;
  Out.Stats.MappingSeconds = Cached->MappingSeconds;
  Out.Stats.TimedOut = Cached->TimedOut;
  Out.Stats.Verified = true;
  Out.Stats.SuccessProbability = Cached->SuccessProbability;
  Out.Cached = Results.insertValue(ResultKey, std::move(Cached));
  // Persist the routed result. Failures are counted in the store's own
  // stats and never fail the request — durability is an optimization,
  // not a correctness requirement.
  if (Store)
    Store->put(ResultKey, *Out.Cached);
  return Out;
}

//===----------------------------------------------------------------------===//
// Route and batch: one request path
//===----------------------------------------------------------------------===//

void Server::handleSession(const std::shared_ptr<Connection> &Conn,
                           const Request &Req) {
  const RouteRequest &Route = Req.Route;
  auto S = std::make_shared<Session>();
  S->Conn = Conn;
  S->IsBatch = Req.TheOp == Op::Batch;
  S->Id = Req.Id;
  S->Params = Route;
  S->Arrival = Trace::Clock::now();
  // A traced route carries one span recorder from arrival to its final
  // frame; untraced requests never allocate one.
  if (!S->IsBatch && Route.Trace) {
    S->RouteTrace = std::make_shared<Trace>();
    S->RouteTrace->reset(
        Route.TraceId.empty() ? generateTraceId() : Route.TraceId, S->Arrival);
  }
  Trace *T = S->RouteTrace.get();
  const size_t Total = Req.Items.size();
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    if (S->IsBatch) {
      ++Counters.BatchRequests;
      Counters.BatchItems += Total;
    } else {
      ++Counters.RouteRequests;
    }
  }
  if (Host.stopping()) {
    sendError(*Conn, S->op(), Req.Id, errc::ShuttingDown,
              "server is shutting down");
    return;
  }
  if (!Req.Id.empty() && Conn->idInFlight(Req.Id)) {
    sendError(*Conn, S->op(), Req.Id, errc::BadRequest,
              formatString("id \"%s\" is already in flight on this "
                           "connection",
                           Req.Id.c_str()));
    return;
  }
  if (!isKnown(KnownMappers, sizeof(KnownMappers) / sizeof(KnownMappers[0]),
               Route.Mapper)) {
    sendError(*Conn, S->op(), Req.Id, errc::UnknownMapper,
              formatString("unknown mapper \"%s\"", Route.Mapper.c_str()));
    return;
  }
  std::shared_ptr<const PooledBackend> Backend =
      lookupBackend(Route.Backend, Route.ErrorAware, Route.CalibrationSeed);
  if (!Backend) {
    sendError(*Conn, S->op(), Req.Id, errc::UnknownBackend,
              formatString("unknown backend \"%s\"", Route.Backend.c_str()));
    return;
  }

  S->Remaining.store(Total);
  S->Status.assign(Total, std::string());
  S->Names.resize(Total);
  for (size_t I = 0; I < Total; ++I)
    S->Names[I] = Req.Items[I].Name;
  auto Deadline =
      requestDeadline(Route.TimeoutMs, Options.DefaultTimeoutSeconds);
  uint64_t MapperConfigFp = hashCombine(
      fingerprintString(Route.Mapper),
      (Route.Affine ? 4u : 0u) | (Route.Bidirectional ? 2u : 0u) |
          (Route.ErrorAware ? 1u : 0u));

  // Triage every item before anything is enqueued or any frame is sent:
  // admission below is all-or-nothing, and a rejected request emits no
  // item frames at all.
  struct InlineOutcome {
    size_t Index;
    std::shared_ptr<const CachedResult> Cached; ///< Set: a cache hit.
    const char *Code;                           ///< Else: a failure.
    std::string Message;
  };
  // An item whose key matches a flight already in the air (a foreign
  // request's route, or an earlier identical item of this same batch).
  // It must not route again — but it also must not attach yet: a foreign
  // flight could complete (and deliver this item's frame) before the
  // admission decision, and a rejected request emits no item frames.
  // Candidates are resolved only after admission.
  struct CoalesceCandidate {
    size_t Index;
    std::shared_ptr<const Circuit> Logical;
    uint64_t CircuitFp;
    CacheKey ResultKey;
    std::shared_ptr<JobTicket> Ticket;
  };
  std::vector<InlineOutcome> Inline;
  std::vector<CoalesceCandidate> Candidates;
  std::vector<SchedulerJob> Jobs;
  std::vector<size_t> JobIndex; // Jobs[J] routes item JobIndex[J].
  std::vector<std::shared_ptr<JobTicket>> LeaderTickets; // Parallels Jobs.

  for (size_t I = 0; I < Total; ++I) {
    int ImportSpan = T ? T->begin("import_qasm") : -1;
    qasm::ImportResult Imported =
        qasm::importQasm(Req.Items[I].Qasm, "request");
    if (!Imported.succeeded()) {
      if (T)
        T->end(ImportSpan);
      Inline.push_back({I, nullptr,
                        Imported.OverBudget ? errc::TooLarge : errc::BadQasm,
                        Imported.Error});
      continue;
    }
    auto Logical = std::make_shared<const Circuit>(
        Imported.Circ->withoutNonUnitaries().decomposeThreeQubitGates());
    if (T)
      T->end(ImportSpan);
    if (Logical->numQubits() > Backend->Graph->numQubits()) {
      Inline.push_back(
          {I, nullptr, errc::TooLarge,
           formatString("circuit has %u qubits but %s only has %u",
                        Logical->numQubits(), Route.Backend.c_str(),
                        Backend->Graph->numQubits())});
      continue;
    }
    uint64_t CircuitFp = fingerprint(*Logical);
    CacheKey ResultKey{CircuitFp, Backend->Fingerprint, MapperConfigFp};
    if (auto Cached = lookupResult(ResultKey)) {
      Inline.push_back({I, std::move(Cached), nullptr, {}});
      continue;
    }
    // Leading is claimed *now*, with a fresh pre-made ticket, so that a
    // duplicate triaged later sees the flight and coalesces instead of
    // routing twice. The flights are unwound (completeByLeader) if
    // admission is rejected.
    auto Ticket = std::make_shared<JobTicket>();
    if (Inflight->lead(ResultKey, Ticket)) {
      Jobs.push_back(makeLeaderJob(S, I, Logical, Backend, CircuitFp,
                                   ResultKey, Deadline));
      JobIndex.push_back(I);
      LeaderTickets.push_back(std::move(Ticket));
    } else {
      Candidates.push_back(
          {I, std::move(Logical), CircuitFp, ResultKey, std::move(Ticket)});
    }
  }

  // Register before admission so a completion's release() always finds
  // the entry; requests on this connection are read serially, so no
  // cancel can slip in between.
  if (!Req.Id.empty()) {
    std::lock_guard<std::mutex> Lock(Conn->JobsMu);
    Conn->InFlight[Req.Id] = S;
  }
  if (!Jobs.empty()) {
    std::vector<std::shared_ptr<JobTicket>> Tickets =
        Workers->trySubmitBatch(std::move(Jobs), LeaderTickets);
    if (Tickets.empty()) {
      // All-or-nothing rejection: nothing ran, nothing was sent — one
      // error response covers the whole request. The flights claimed at
      // triage die with it: any *foreign* follower that coalesced onto
      // them meanwhile gets the rejection as a structured error (this
      // request's own candidates have not attached yet, so no item frame
      // escapes).
      const char *Code =
          Host.stopping() ? errc::ShuttingDown : errc::QueueFull;
      std::string Message =
          Host.stopping() ? "server is shutting down"
          : S->IsBatch    ? formatString("scheduler queue lacks capacity for "
                                         "%zu batch items, retry later",
                                         JobIndex.size())
                          : "scheduler queue is full, retry later";
      for (const std::shared_ptr<JobTicket> &Ticket : LeaderTickets)
        Inflight->completeByLeader(Ticket, coalescedFailure(Code, Message));
      Conn->release(Req.Id);
      sendError(*Conn, S->op(), Req.Id, Code, Message);
      return;
    }
    for (size_t J = 0; J < Tickets.size(); ++J)
      S->Tickets.emplace_back(std::move(Tickets[J]), JobIndex[J]);
  }

  // Admitted: coalesce candidates may attach now. A candidate whose
  // flight resolved in the window since triage is served from the result
  // cache, or — when the flight failed and left no result — routed
  // individually after all.
  for (CoalesceCandidate &C : Candidates) {
    for (;;) {
      InflightTable::Follower F;
      F.Ticket = C.Ticket;
      F.Deadline = Deadline;
      F.Deliver = [this, S, I = C.Index](const InflightTable::Outcome &O) {
        recordRouteLatency(*S);
        if (!O.Ok) {
          replyError(*S, I, O.ErrorCode, O.ErrorMessage);
          return;
        }
        replyResult(*S, I, O.Stats, O.ContextHit, /*ResultCacheHit=*/false,
                    O.Cached->RoutedQasm, /*TraceJson=*/nullptr,
                    /*Coalesced=*/true);
      };
      if (Inflight->tryAttach(C.ResultKey, std::move(F))) {
        {
          std::lock_guard<std::mutex> Lock(CounterMu);
          ++Counters.Coalesced;
        }
        S->Tickets.emplace_back(C.Ticket, C.Index);
        break;
      }
      if (auto Cached = lookupResult(C.ResultKey)) {
        replyCached(*S, C.Index, *Cached);
        break;
      }
      if (Inflight->lead(C.ResultKey, C.Ticket)) {
        if (!Workers->trySubmit(makeLeaderJob(S, C.Index, C.Logical, Backend,
                                              C.CircuitFp, C.ResultKey,
                                              Deadline),
                                C.Ticket)) {
          const char *Code =
              Host.stopping() ? errc::ShuttingDown : errc::QueueFull;
          const char *Message = Host.stopping()
                                    ? "server is shutting down"
                                    : "scheduler queue is full, retry later";
          Inflight->completeByLeader(C.Ticket,
                                     coalescedFailure(Code, Message));
          replyError(*S, C.Index, Code, Message);
        } else {
          S->Tickets.emplace_back(C.Ticket, C.Index);
        }
        break;
      }
      // Another identical request took the lead in the window between
      // the failed attach and the failed lead; retry the attach.
    }
  }

  // Inline outcomes go out only now, after the admission decision.
  // Workers may already be streaming their items — fine; the final frame
  // still waits for these, because their countdown slots are ours.
  for (const InlineOutcome &Out : Inline) {
    if (Out.Cached)
      replyCached(*S, Out.Index, *Out.Cached);
    else
      replyError(*S, Out.Index, Out.Code, Out.Message);
  }
}

SchedulerJob Server::makeLeaderJob(
    const std::shared_ptr<Session> &S, size_t I,
    std::shared_ptr<const Circuit> Logical,
    std::shared_ptr<const PooledBackend> Backend, uint64_t CircuitFp,
    const CacheKey &ResultKey,
    std::chrono::steady_clock::time_point Deadline) {
  SchedulerJob Job;
  Job.Deadline = Deadline;
  Job.OnExpired = [this, S, I, ResultKey] {
    std::string Message = formatString(
        "deadline passed before a worker picked the %s up", S->noun());
    Inflight->complete(ResultKey,
                       coalescedFailure(errc::DeadlineExceeded, Message));
    replyError(*S, I, errc::DeadlineExceeded, Message);
  };
  // A route's queue wait runs from submission (its triage is its own
  // import); batch items genuinely wait while earlier ones are triaged,
  // so theirs runs from arrival.
  const auto QueuedAt = S->IsBatch ? S->Arrival : Trace::Clock::now();
  Job.Run = [this, S, I, Logical = std::move(Logical),
             Backend = std::move(Backend), CircuitFp, ResultKey,
             QueuedAt](RoutingScratch &Scratch, CancellationToken &Cancel) {
    const auto Pickup = Trace::Clock::now();
    Histos.QueueWait.recordNs(spanNs(QueuedAt, Pickup));
    std::shared_ptr<Trace> T = S->RouteTrace;
    if (S->IsBatch && S->Params.Trace) {
      // Item traces correlate as "<trace id or batch id>-<index>".
      const std::string &Base =
          S->Params.TraceId.empty() ? S->Id : S->Params.TraceId;
      T = std::make_shared<Trace>();
      T->reset(formatString("%s-%zu", Base.c_str(), I), S->Arrival);
    }
    if (T)
      T->add("queue_wait", QueuedAt, Pickup);
    std::function<void()> BeforeRoute;
    if (!S->IsBatch && S->Params.Progress && !S->Id.empty()) {
      // Stream ~20 progress events per route, floored so small circuits
      // do not flood the connection. Installed only right before the
      // main routing pass — after the bidirectional derive passes, which
      // route the circuit internally and would otherwise exhaust the
      // throttle (and mislead the client) before the real route begins.
      size_t Step = std::max<size_t>(Logical->size() / 20, 256);
      BeforeRoute = [&Cancel, Conn = S->Conn, Id = S->Id, Step] {
        Cancel.enableProgress(
            [Conn, Id](size_t Done, size_t Total) {
              Conn->send(formatProgressEvent(Id, Done, Total));
            },
            Step);
      };
    }
    RouteOutcome Out = executeRoute(Logical, Backend, S->Params, CircuitFp,
                                    ResultKey, Scratch, Cancel, BeforeRoute,
                                    T.get());
    const auto Done = Trace::Clock::now();
    if (S->IsBatch)
      Histos.BatchItem.recordNs(spanNs(Pickup, Done));
    else
      Histos.Route.recordNs(spanNs(S->Arrival, Done));
    double TotalMs = spanNs(S->Arrival, Done) / 1e6;
    if (Options.SlowRequestMs > 0 && TotalMs >= Options.SlowRequestMs)
      logSlowRequest(S->IsBatch ? "batch_item" : "route", S->Id, S->Params,
                     TotalMs, Options.SlowRequestMs, T.get(), Done);
    if (Out.Cancelled)
      std::tie(Out.ErrorCode, Out.ErrorMessage) = cancellationError(Cancel);
    if (Out.ErrorCode) {
      // Followers are delivered first: the leader's possibly-slow writer
      // must not delay their (other connections') responses.
      Inflight->complete(ResultKey,
                         coalescedFailure(Out.ErrorCode, Out.ErrorMessage));
      replyError(*S, I, Out.ErrorCode, Out.ErrorMessage);
      return;
    }
    InflightTable::Outcome FlightOut;
    FlightOut.Ok = true;
    FlightOut.ContextHit = Out.ContextHit;
    FlightOut.Stats = Out.Stats;
    FlightOut.Cached = Out.Cached;
    Inflight->complete(ResultKey, FlightOut);
    json::Value TraceJson;
    if (T)
      TraceJson = T->toJson(Done);
    replyResult(*S, I, Out.Stats, Out.ContextHit, /*ResultCacheHit=*/false,
                Out.Cached->RoutedQasm, T ? &TraceJson : nullptr);
  };
  return Job;
}

bool Server::cancelSession(Session &S, const std::string &Reason) {
  bool AnyLive = false;
  for (const auto &[Ticket, Index] : S.Tickets) {
    switch (Workers->cancel(Ticket)) {
    case JobTicket::State::Queued:
      // Claimed away from the workers unrun (or, for a follower, off its
      // flight): this thread owns reporting. An item leading a flight
      // takes its followers' answers with it (as a structured error); a
      // follower leads nothing, so the call is a no-op for it.
      Inflight->completeByLeader(Ticket,
                                 coalescedFailure(errc::Cancelled, Reason));
      AnyLive = true;
      replyError(S, Index, errc::Cancelled, Reason);
      break;
    case JobTicket::State::Running:
      // Token signalled; the item aborts at its next poll and reports
      // through its own completion path.
      AnyLive = true;
      break;
    case JobTicket::State::CancelledWhileQueued:
    case JobTicket::State::Done:
      break;
    }
  }
  return AnyLive;
}

//===----------------------------------------------------------------------===//
// Reply sink: the per-op frame formats
//===----------------------------------------------------------------------===//

void Server::finishItem(Session &S, size_t Index, const char *Status,
                        const std::string &Frame) {
  // A batch item's frame is an event sent before its decrement; the
  // fetch_sub sequences it (and the Status write) before the final
  // sender's reads, and the writer mutex orders the frames themselves —
  // so the summary is always last. A route's one frame is its final
  // response, sent by the same last-decrement path.
  if (S.IsBatch)
    S.Conn->send(Frame);
  S.Status[Index] = Status;
  if (S.Remaining.fetch_sub(1) != 1)
    return;
  S.Conn->release(S.Id);
  if (S.IsBatch)
    S.Conn->send(formatBatchSummaryResponse(
        S.Id, S.Params.Mapper, S.Params.Backend, S.Names, S.Status));
  else
    S.Conn->send(Frame);
}

void Server::replyError(Session &S, size_t Index, const char *Code,
                        const std::string &Message) {
  if (S.IsBatch) {
    finishItem(S, Index, Code,
               formatBatchItemError(S.Id, Index, S.Names[Index], Code,
                                    Message));
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ++Counters.Errors;
  }
  finishItem(S, Index, Code, formatErrorResponse("route", S.Id, Code, Message));
}

void Server::replyResult(Session &S, size_t Index, const RouteStats &Stats,
                         bool ContextCacheHit, bool ResultCacheHit,
                         const std::string &Qasm, const json::Value *TraceJson,
                         bool Coalesced) {
  const RouteRequest &P = S.Params;
  finishItem(S, Index, "ok",
             S.IsBatch
                 ? formatBatchItemResult(S.Id, Index, S.Names[Index], P.Mapper,
                                         P.Backend, Stats, ContextCacheHit,
                                         ResultCacheHit, Qasm, P.IncludeQasm,
                                         TraceJson, Coalesced)
                 : formatRouteResponse(S.Id, P.Mapper, P.Backend, Stats,
                                       ContextCacheHit, ResultCacheHit, Qasm,
                                       P.IncludeQasm, TraceJson, Coalesced));
}

void Server::replyCached(Session &S, size_t Index,
                         const CachedResult &Cached) {
  // A traced route marks the hit in its trace; batch hits carry none.
  json::Value TraceJson;
  if (Trace *T = S.RouteTrace.get()) {
    const auto Now = Trace::Clock::now();
    T->addNs("result_cache_hit", T->sinceEpochNs(Now), 0);
    TraceJson = T->toJson(Now);
  }
  recordRouteLatency(S);
  replyResult(S, Index, statsFromCached(Cached), /*ContextCacheHit=*/false,
              /*ResultCacheHit=*/true, Cached.RoutedQasm,
              S.RouteTrace ? &TraceJson : nullptr);
}

void Server::recordRouteLatency(const Session &S) {
  if (!S.IsBatch)
    Histos.Route.recordNs(spanNs(S.Arrival, Trace::Clock::now()));
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

json::Value Server::statsJson() const {
  json::Value Doc = json::Value::object();

  json::Value ServerObj = json::Value::object();
  {
    std::lock_guard<std::mutex> Lock(CounterMu);
    ServerObj.set("connections", Host.connections());
    ServerObj.set("requests", Counters.Requests);
    ServerObj.set("route_requests", Counters.RouteRequests);
    ServerObj.set("cancel_requests", Counters.CancelRequests);
    ServerObj.set("batch_requests", Counters.BatchRequests);
    ServerObj.set("batch_items", Counters.BatchItems);
    ServerObj.set("errors", Counters.Errors + Host.rejectedLines());
    ServerObj.set("affine_replays", Counters.AffineReplays);
    ServerObj.set("affine_fallbacks", Counters.AffineFallbacks);
    ServerObj.set("coalesced", Counters.Coalesced);
  }
  ServerObj.set("uptime_seconds", Uptime.elapsedSeconds());
  ServerObj.set("endpoint", boundAddress());
  ServerObj.set("protocol", ProtocolVersion);
  Doc.set("server", std::move(ServerObj));

  if (Workers) {
    SchedulerStats S = Workers->stats();
    json::Value Sched = json::Value::object();
    Sched.set("workers", S.Workers);
    Sched.set("queue_depth", S.QueueDepth);
    Sched.set("queue_capacity", Options.QueueCapacity);
    Sched.set("submitted", S.Submitted);
    Sched.set("completed", S.Completed);
    Sched.set("expired", S.Expired);
    Sched.set("rejected", S.Rejected);
    Sched.set("cancelled", S.Cancelled);
    Doc.set("scheduler", std::move(Sched));
  }

  Doc.set("context_cache",
          cacheStatsJson(Contexts.stats(), Options.ContextCacheBytes));
  Doc.set("result_cache",
          cacheStatsJson(Results.stats(), Options.ResultCacheBytes));
  if (Store) {
    StoreStats SS = Store->stats();
    json::Value St = json::Value::object();
    St.set("read_only", Store->readOnly());
    St.set("records", SS.Records);
    St.set("appended_records", SS.AppendedRecords);
    St.set("bytes", SS.Bytes);
    St.set("live_bytes", SS.LiveBytes);
    St.set("hits", SS.Hits);
    St.set("misses", SS.Misses);
    St.set("corrupt_skipped", SS.CorruptSkipped);
    St.set("truncated_bytes", SS.TruncatedBytes);
    St.set("compactions", SS.Compactions);
    St.set("write_errors", SS.WriteErrors);
    Doc.set("store", std::move(St));
  }
  Doc.set("latency", Histos.toJson());
  return Doc;
}

json::Value ServiceHistograms::toJson() const {
  json::Value Obj = json::Value::object();
  Obj.set("route", Route.toJson());
  Obj.set("batch_item", BatchItem.toJson());
  Obj.set("queue_wait", QueueWait.toJson());
  Obj.set("context_build", ContextBuild.toJson());
  Obj.set("initial_mapping", InitialMapping.toJson());
  Obj.set("routing_loop", RoutingLoop.toJson());
  Obj.set("verify", Verify.toJson());
  return Obj;
}

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> Lock(CounterMu);
  return Counters;
}
