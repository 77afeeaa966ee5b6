//===- service/Server.h - qlosured Unix-socket server ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived mapping service: a stream-socket server — unix-domain
/// or TCP, per the parsed listen address (service/Transport.h) — speaking
/// the newline-delimited JSON protocol v2 (service/Protocol.h), backed by
/// the sharded context/result caches (service/ContextCache.h) and the
/// bounded worker-pool scheduler (service/Scheduler.h).
///
/// Since protocol v2 each connection is **fully asynchronous**: the
/// connection thread only reads and triages; every response is written
/// through the connection's mutex-serialized writer, by whichever thread
/// finishes first. Cheap requests (ping/stats/cache hits/validation
/// errors) answer inline from the connection thread; scheduled routes
/// answer from the worker that ran them — so a pipelined connection gets
/// responses out of order and one slow route never head-of-line-blocks
/// the rest of the stream.
///
/// Request path — one for `route` and `batch`: a route is a batch of
/// one item, and both run as a Session.
///
///   connection thread: decode line -> validate mapper/backend -> per
///   item: raw key (fingerprint of the item's QASM bytes x backend x
///   mapper config) -> alias lookup (memory, then store) -> result lookup
///   under the canonical key it names (a hit is answered after admission,
///   never imported) -> lead the raw key's flight, or — when identical
///   bytes are already in flight — become a coalesce candidate ->
///   register the session under its id -> all-or-nothing trySubmitBatch
///   of the leaders (full queue: one `queue_full` error, no item frames)
///   -> attach the candidates as followers -> send the inline hits ->
///   **keep reading** (no wait). Triage never imports QASM.
///
///   worker thread, under the request's CancellationToken (deadline and
///   `cancel`): import QASM (the importer polls the token) -> `bad_qasm`
///   / `too_large` (import budget, qubit count) -> canonical key ->
///   result lookup again (the same circuit sent as different text) ->
///   context-cache getOrBuild (shared RoutingContext; omega is computed
///   on the first read, so only a mapper that scores with it pays for
///   it) -> route with the worker's pooled RoutingScratch, polling the
///   token once per front-layer step -> verify -> print -> record the
///   result under the canonical key and the alias under the raw key
///   (memory and store) -> complete the flight (its followers are
///   answered first) -> reply, or the `cancelled` / `deadline_exceeded`
///   error when the token fired. Two different texts of one circuit in
///   flight together may both route: results are deterministic and the
///   caches keep the first insert.
///
///   reply sink (the only per-op code): a route answers with one `route`
///   response, streaming `progress` events while it routes; a batch
///   answers with one `batch_item` frame per item and the summary after
///   the last. The session's countdown decides which thread sends the
///   final frame, and that thread releases the id first.
///
///   `cancel` (connection thread): look up the session by id; each queued
///   item is unqueued and answered `cancelled` immediately, each running
///   one has its token signalled and answers through its own completion
///   path.
///
/// Flow control: responses are written with a per-send timeout
/// (SO_SNDTIMEO, 10 s) *and* a 30 s cumulative per-frame bound, so a
/// peer that stops reading — or drips bytes to reset per-call timers —
/// while responses are owed is declared dead and its connection latched
/// closed. A wedged client delays a worker by tens of seconds at most,
/// never pins it.
///
/// Threading/ownership contract: the Server's ConnectionHost
/// (service/Transport.h) owns the accept thread and one connection
/// thread per live connection; the Server owns the scheduler's workers.
/// Each Connection object (the host's socket + writer, plus the in-flight
/// session table) is shared between its connection thread and the
/// workers running its jobs via shared_ptr; the fd closes when the last
/// holder drops, so a worker can never write into a recycled fd. Caches
/// are internally synchronized; counters take CounterMu; nothing here may
/// be touched after wait() returns except the destructor.
///
/// Every request is answered: malformed input yields structured error
/// responses, expired deadlines yield `deadline_exceeded` (checked both
/// at pickup and during routing), cancelled requests yield `cancelled`,
/// and shutdown yields `shutting_down` — a connection is never wedged and
/// the daemon never crashes on bad bytes.
///
/// Lifecycle: start() binds and spawns the accept thread; wait() blocks
/// until a `shutdown` request, requestStop(), or the optional external
/// predicate (the daemon's signal flag) fires, then tears everything down
/// gracefully: the host stops accepting, drain() finishes in-flight jobs
/// while their connections can still be written, and the host severs
/// and joins the connections (unlinking the socket). One Server per
/// process lifetime stage; not restartable.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_SERVER_H
#define QLOSURE_SERVICE_SERVER_H

#include "service/ContextCache.h"
#include "service/Histogram.h"
#include "service/InflightTable.h"
#include "service/Protocol.h"
#include "service/ResultStore.h"
#include "service/Scheduler.h"
#include "service/Transport.h"
#include "support/Error.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "topology/CouplingGraph.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qlosure {
namespace service {

/// Server configuration.
struct ServerOptions {
  /// Listen address (required): "unix:/path", "tcp:host:port", or a bare
  /// filesystem path (unix). A stale unix socket file is replaced; a tcp
  /// port of 0 binds ephemerally (boundAddress() reports the real port).
  std::string Listen;
  /// Scheduler worker threads (0 = hardware concurrency).
  unsigned Workers = 0;
  /// Bounded scheduler queue; overflow answers `queue_full`.
  size_t QueueCapacity = 256;
  /// Byte budgets and stripe count of the two caches.
  size_t ContextCacheBytes = 256ull << 20;
  size_t ResultCacheBytes = 64ull << 20;
  size_t CacheShards = 8;
  /// Default per-request deadline when the request carries no timeout_ms
  /// (<= 0 disables the default deadline entirely).
  double DefaultTimeoutSeconds = 60.0;
  /// Slow-request threshold in milliseconds for the structured log
  /// (support/Log.h): a routed request whose total latency (queue wait
  /// included) reaches it emits one warn-level "slow_request" line with
  /// its per-phase trace. 0 disables the slow log entirely.
  double SlowRequestMs = 0;
  /// Durable result store path (service/ResultStore.h); empty disables
  /// the durable tier entirely. When set, result-cache misses consult
  /// the store before routing and routed results are appended to it, so
  /// warm results survive restarts. start() fails when the file cannot
  /// be opened or is not a result store.
  std::string StorePath;
  /// Open the store read-only: serve from it (following another
  /// daemon's appends) but never write. Requires StorePath.
  bool StoreReadOnly = false;
  /// Store fsync batching threshold in bytes (0 = sync every record).
  size_t StoreFsyncBytes = 1 << 20;
};

/// Always-on per-op and per-phase latency histograms, surfaced in the
/// `stats` document under "latency" and rendered by service/Metrics.h as
/// Prometheus `_bucket`/`_sum`/`_count` series. Recording costs a few
/// steady-clock reads per *request* (never per routing step), so these
/// stay on even when tracing is off.
struct ServiceHistograms {
  LatencyHistogram Decode;         ///< parseRequest of one request line.
  LatencyHistogram Route;          ///< route op, total (queue wait included).
  LatencyHistogram BatchItem;      ///< one batch item, worker time.
  LatencyHistogram QueueWait;      ///< submit -> worker pickup.
  LatencyHistogram ImportQasm;     ///< QASM import of a scheduled item.
  LatencyHistogram ContextBuild;   ///< context-cache getOrBuild.
  LatencyHistogram InitialMapping; ///< identity / bidirectional derive.
  LatencyHistogram RoutingLoop;    ///< the mapper's route() call.
  LatencyHistogram Verify;         ///< gate-for-gate verification.
  LatencyHistogram PrintQasm;      ///< printing the routed program.
  /// Format + send of a routed answer (a route response or batch item).
  LatencyHistogram EncodeWrite;

  /// The stats subtree: {"route": {histogram...}, ...}.
  json::Value toJson() const;
};

/// Top-level request counters (cache and scheduler counters live in their
/// components; statsJson() aggregates all of them).
struct ServerCounters {
  uint64_t Requests = 0;
  uint64_t RouteRequests = 0;
  uint64_t CancelRequests = 0;
  /// Batch sessions accepted for parsing and the items they carried
  /// (counted at arrival; rejected batches still count — they were
  /// requested).
  uint64_t BatchRequests = 0;
  uint64_t BatchItems = 0;
  uint64_t Errors = 0;
  /// Requests answered by attaching to another identical request's
  /// in-flight route instead of routing again (service/InflightTable.h).
  uint64_t Coalesced = 0;
  /// Items answered at triage through a raw-text alias: never imported.
  uint64_t AliasHits = 0;
  /// Affine fast-path outcomes, summed over every completed route: loop
  /// periods covered by replaying a recorded swap schedule vs. periods
  /// routed gate-by-gate (recording or post-divergence fallback).
  uint64_t AffineReplays = 0;
  uint64_t AffineFallbacks = 0;
};

/// The service.
class Server {
public:
  explicit Server(ServerOptions Options);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket, starts the scheduler and the accept thread.
  Status start();

  /// Blocks until stop is requested (shutdown op, requestStop(), or
  /// \p ExternalStop returning true — polled a few times per second so a
  /// signal handler only needs to flip a flag), then tears down: stops
  /// accepting, unblocks and joins connection threads, drains the
  /// scheduler, unlinks the socket.
  void wait(const std::function<bool()> &ExternalStop = nullptr);

  /// Requests asynchronous stop; wait() performs the actual teardown.
  void requestStop();

  /// Convenience for embedders (tests, the bench): requestStop() + the
  /// teardown wait() would do. Safe to call from any thread except a
  /// connection handler (those must use the shutdown op instead).
  void stop();

  const std::string &listenAddress() const { return Options.Listen; }

  /// The canonical bound address ("unix:/path" / "tcp:host:port" with the
  /// resolved port) — what clients should connect to. Valid after a
  /// successful start().
  std::string boundAddress() const { return Host.endpoint().str(); }

  /// The full stats document served by the `stats` op.
  json::Value statsJson() const;

  ServerCounters counters() const;
  CacheStats contextCacheStats() const { return Contexts.stats(); }
  CacheStats resultCacheStats() const { return Results.stats(); }

private:
  struct PooledBackend {
    std::shared_ptr<const CouplingGraph> Graph;
    uint64_t Fingerprint = 0;
  };

  /// Per-connection shared state: the host's socket and writer, plus the
  /// in-flight session table. Defined in Server.cpp.
  struct Connection;

  /// Shared state of one in-flight `route` (one item) or `batch` (N
  /// items): per-item outcome slots, the remaining-item countdown whose
  /// final decrement sends the final frame (which is how "summary always
  /// last" is enforced), and the per-item tickets for cancellation.
  /// Defined in Server.cpp.
  struct Session;

  /// Outcome of the worker-side routing core. Defined in Server.cpp.
  struct RouteOutcome;

  /// The teardown step between "stop accepting" and "sever connections":
  /// drains the scheduler, the coalescing table and the store.
  void drain();
  /// The reader's exit: cancels the connection's orphaned sessions.
  void onConnectionClosed(Connection &Conn);

  /// Handles one request line. All responses go out through \p Conn's
  /// writer — inline for cheap ops, from a worker for scheduled routes.
  /// The shutdown op writes its ack *before* requesting the stop, or
  /// teardown could sever the connection ahead of it.
  void handleLine(const std::shared_ptr<Connection> &Conn,
                  const std::string &Line);
  /// The one request path of `route` and `batch`: validation, per-item
  /// triage (raw key, alias and result lookup, flight lead), all-or-
  /// nothing admission, coalesce-candidate attach, then the inline hits.
  /// The items' QASM moves into their jobs. \p Arrival and \p Decoded
  /// bracket the line's decode.
  void handleSession(const std::shared_ptr<Connection> &Conn, Request &Req,
                     Trace::Clock::time_point Arrival,
                     Trace::Clock::time_point Decoded);
  void handleCancel(const std::shared_ptr<Connection> &Conn,
                    const Request &Req);

  /// The scheduler job of item \p I (QASM text \p Qasm), which leads
  /// the flight of raw key \p RawKey. Every terminal path completes the
  /// flight (delivering any followers) before replying through the
  /// session.
  SchedulerJob makeLeaderJob(const std::shared_ptr<Session> &S, size_t I,
                             std::string Qasm,
                             std::shared_ptr<const PooledBackend> Backend,
                             const CacheKey &RawKey,
                             std::chrono::steady_clock::time_point Deadline);

  /// The import/key/lookup/context/route/verify/cache core every
  /// scheduled item runs on a worker thread, under \p Cancel: imports
  /// \p Qasm, answers from the result cache when the circuit is already
  /// known under its canonical key, and otherwise routes it; either way
  /// the alias \p RawKey -> canonical key is recorded. \p BeforeRoute,
  /// when set, runs right before the main routing pass (after the
  /// bidirectional derive) with the circuit's gate count — the hook
  /// `route` uses to install its progress sink.
  /// \p T, when non-null, receives the per-phase spans of this request
  /// (import_qasm, context_build, initial_mapping, routing_loop, verify,
  /// print_qasm) and is installed as the scratch's trace sink around the
  /// mapper calls (the bidirectional derive's too).
  /// Phase latencies are recorded into Histos regardless of tracing.
  RouteOutcome executeRoute(const std::string &Qasm,
                            const std::shared_ptr<const PooledBackend> &Backend,
                            const RouteRequest &Params, const CacheKey &RawKey,
                            RoutingScratch &Scratch, CancellationToken &Cancel,
                            const std::function<void(size_t)> &BeforeRoute,
                            Trace *T = nullptr);

  /// Cancels every item of \p S: queued items (and followers) are
  /// claimed and answered `cancelled` with \p Reason — which their
  /// flight's followers inherit — right here; running items get their
  /// tokens signalled and report through their own completion paths.
  /// Returns whether any item was still live.
  bool cancelSession(Session &S, const std::string &Reason);

  /// The reply sink — the only per-op code on the request path. A route
  /// answers with one `route` response (or error response); a batch with
  /// one `batch_item` frame per item and the summary after the last.
  /// finishItem records item \p Index's terse outcome and runs the
  /// countdown: the thread whose decrement empties the session releases
  /// the id and writes the final frame.
  void finishItem(Session &S, size_t Index, const char *Status,
                  const std::string &Frame);
  void replyError(Session &S, size_t Index, const char *Code,
                  const std::string &Message);
  /// \p T, when non-null, is the item's trace: it gains an
  /// `encode_write` span for the frame's encode and rides the frame as
  /// its last member.
  void replyResult(Session &S, size_t Index, const RouteStats &Stats,
                   bool ContextCacheHit, bool ResultCacheHit,
                   const std::string &Qasm, Trace *T, bool Coalesced = false);
  /// A result-cache (or store) hit; a traced route marks it in its trace.
  void replyCached(Session &S, size_t Index, const CachedResult &Cached);
  /// Records the `route` histogram (arrival to now) for a route's inline
  /// or coalesced answer; batch items record worker time instead.
  void recordRouteLatency(const Session &S);

  /// Writes an error response through \p Conn and bumps the error
  /// counter (callable from any thread).
  void sendError(Connection &Conn, const char *Op, const std::string &Id,
                 const char *Code, const std::string &Message);

  /// Returns the pooled (lazily built) backend variant, or nullptr when
  /// the name is unknown. Shared ownership: in-flight requests keep their
  /// variant alive even if the pool evicts it.
  std::shared_ptr<const PooledBackend>
  lookupBackend(const std::string &Name, bool ErrorAware,
                uint64_t CalibrationSeed);

  /// Serves \p Key from the in-memory result cache, falling back to the
  /// durable store (a store hit is promoted into the memory cache).
  /// Returns nullptr on a full miss.
  std::shared_ptr<const CachedResult> lookupResult(const CacheKey &Key);
  /// Triage's lookup: the result whose canonical key raw key \p RawKey
  /// aliases (memory alias cache, then the store's), or nullptr.
  std::shared_ptr<const CachedResult> lookupAliased(const CacheKey &RawKey);
  /// Records \p RawKey -> \p ResultKey in the alias cache and the store.
  void recordAlias(const CacheKey &RawKey, const CacheKey &ResultKey);

  ServerOptions Options;
  std::unique_ptr<Scheduler> Workers;
  ContextCache Contexts;
  ResultCache Results;
  /// Raw-text keys -> canonical result keys, on a sixteenth of the
  /// result-cache budget.
  AliasCache Aliases;
  /// The durable tier behind Results (nullptr when StorePath is empty).
  std::unique_ptr<ResultStore> Store;
  /// Single-flight coalescing of requests with identical raw keys.
  std::unique_ptr<InflightTable> Inflight;
  Timer Uptime;

  mutable std::mutex BackendMu;
  /// Keyed by variant id ("name|plain" / "name|ea<seed>"). The
  /// calibration-seed dimension is client-controlled, so the pool is
  /// bounded: past MaxBackendVariants the error-aware variants are
  /// dropped (plain variants are at most one per known backend).
  std::map<std::string, std::shared_ptr<const PooledBackend>> Backends;
  static constexpr size_t MaxBackendVariants = 32;

  mutable std::mutex CounterMu;
  ServerCounters Counters;

  /// Lock-free latency recording (see ServiceHistograms).
  ServiceHistograms Histos;

  /// Accepts, reads and writes the client connections, and sequences
  /// teardown around drain().
  ConnectionHost Host;
};

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_SERVER_H
