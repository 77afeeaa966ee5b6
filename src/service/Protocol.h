//===- service/Protocol.h - qlosured wire protocol ---------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol (v2) spoken over the qlosured Unix
/// socket: one JSON object per line in each direction. See
/// docs/PROTOCOL.md for the normative schema; the short form:
///
///   -> {"op":"ping"}
///   -> {"op":"stats"}
///   -> {"op":"shutdown"}
///   -> {"op":"route","qasm":"...","mapper":"qlosure","backend":
///       "sherbrooke","bidirectional":false,"error_aware":false,
///       "affine":false,"calibration":1,"include_qasm":true,
///       "timeout_ms":30000,
///       "progress":false,"id":"r1"}
///   -> {"op":"cancel","id":"r1"}
///   -> {"op":"batch","id":"b1","mapper":"qlosure","backend":"sherbrooke",
///       "items":[{"name":"a","qasm":"..."},{"qasm":"..."}]}
///   <- {"event":"batch_item","op":"batch","id":"b1","index":0,"name":"a",
///       "stats":{...},"cache_hit":false,...}
///   <- {"ok":true,"op":"batch","id":"b1","total":2,"succeeded":2,
///       "failed":0,"cancelled":0,"items":[...]}
///   <- {"ok":true,"op":"route","id":"r1","stats":{...},"cache_hit":true,
///       "context_cache_hit":true,"result_cache_hit":false,"qasm":"..."}
///   <- {"ok":false,"op":"route","id":"r1","error":{"code":"cancelled",
///       "message":"..."}}
///   <- {"ok":true,"op":"cancel","id":"r1","cancelled":true}
///   <- {"event":"progress","op":"route","id":"r1","done":512,
///       "total":38469}
///
/// Since v2 the stream is **asynchronous**: responses on one connection
/// may arrive in any order (correlate by the (op, id) pair) and event
/// frames — objects carrying "event" instead of "ok" — may interleave
/// anywhere. Every request still gets exactly one final response.
///
/// Every malformed input maps to a structured error response with a
/// stable machine-readable code; the daemon never crashes or drops a
/// connection over bad input.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_PROTOCOL_H
#define QLOSURE_SERVICE_PROTOCOL_H

#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace qlosure {
namespace service {

/// Stable machine-readable error codes (docs/PROTOCOL.md documents each).
namespace errc {
inline constexpr const char *BadJson = "bad_json";
inline constexpr const char *BadRequest = "bad_request";
inline constexpr const char *BadQasm = "bad_qasm";
inline constexpr const char *UnknownMapper = "unknown_mapper";
inline constexpr const char *UnknownBackend = "unknown_backend";
inline constexpr const char *TooLarge = "too_large";
inline constexpr const char *InvalidCircuit = "invalid_circuit";
inline constexpr const char *VerifyFailed = "verify_failed";
inline constexpr const char *QueueFull = "queue_full";
inline constexpr const char *DeadlineExceeded = "deadline_exceeded";
inline constexpr const char *Cancelled = "cancelled";
inline constexpr const char *ShuttingDown = "shutting_down";
/// Fleet tier: the router could not reach any live shard for the
/// request (all backends down, or the owning shard died mid-request
/// with no live successor).
inline constexpr const char *Unavailable = "unavailable";
} // namespace errc

/// The protocol revision reported by `ping` responses. v2 added
/// out-of-order responses, the `cancel` op, and `progress` events; the
/// `batch` op is a later additive v2 extension (old clients that never
/// send it observe no difference).
inline constexpr int ProtocolVersion = 2;

/// Request operation. `metrics` is an additive v2 extension: the same
/// counters `stats` reports, rendered as Prometheus text exposition for
/// scrapers (and served over plain HTTP by the router's /metrics
/// endpoint).
enum class Op : uint8_t { Ping, Stats, Shutdown, Route, Cancel, Batch, Metrics };

/// The routing parameters of a `route` or `batch` request (the circuits
/// themselves are Request::Items).
struct RouteRequest {
  std::string Mapper = "qlosure";
  std::string Backend = "sherbrooke";
  bool Bidirectional = false;
  bool ErrorAware = false;
  /// Route with the affine replay fast path (periodic circuits reuse the
  /// first iteration's swap schedule; exact-fallback otherwise). Implies
  /// the unweighted scoring profile for the qlosure mapper.
  bool Affine = false;
  uint64_t CalibrationSeed = 1;
  /// Echo the routed program in the response (stats-only callers save the
  /// bytes by setting this false).
  bool IncludeQasm = true;
  /// Per-request deadline in milliseconds from arrival; <= 0 means the
  /// server default applies.
  double TimeoutMs = 0;
  /// Stream `progress` events while this request routes (requires an
  /// `id`; ignored otherwise).
  bool Progress = false;
  /// Opt into request tracing: the response carries a "trace" section
  /// with per-phase spans (docs/PROTOCOL.md). Off by default — an
  /// untraced request's routing path is byte-identical to pre-trace
  /// builds.
  bool Trace = false;
  /// Client- or router-assigned correlation id echoed in the trace
  /// section and in slow-request log lines. Generated server-side when
  /// tracing is on and none was supplied.
  std::string TraceId;
};

/// One circuit of a `route` or `batch` request.
struct BatchItem {
  /// Client-chosen label echoed in the item's frames (may be empty; the
  /// zero-based item index is always echoed and is the stable key).
  std::string Name;
  std::string Qasm;
};

/// A parsed request of any op.
struct Request {
  Op TheOp = Op::Ping;
  /// Client-chosen correlation id, echoed verbatim in the response
  /// (empty = omitted). Required for `cancel`, where it names the target
  /// request, and for `batch`, whose per-item frames demultiplex by it;
  /// a `route` needs one to be cancellable or to stream progress.
  std::string Id;
  /// Shared routing parameters. For `batch` these apply to every item
  /// (one mapper × one backend per batch).
  RouteRequest Route;
  /// The circuits: a `route`'s one circuit (unnamed) or a `batch`'s
  /// items, in request order (empty for every other op).
  std::vector<BatchItem> Items;
};

/// Outcome of parseRequest: Ok, or a protocol error (code + message) the
/// caller turns into an error response. On errors, whatever correlation
/// material was already parsed survives — Req.Id and OpName — so the
/// rejection frame stays demultiplexable by (op, id) whenever the
/// request carried them (a line that fails JSON parsing has neither).
struct RequestParse {
  bool Ok = false;
  Request Req;
  /// The request's raw "op" string when one was readable (even an
  /// unknown one); empty means the caller should respond with op
  /// "unknown".
  std::string OpName;
  std::string ErrorCode;
  std::string ErrorMessage;
};

/// Parses one request line. Never aborts; any malformed input yields
/// ErrorCode = bad_json / bad_request.
RequestParse parseRequest(const std::string &Line);

/// The statistics block of a `route` response — also the schema
/// `qlosure-route --json` prints, so scripts can consume either source
/// uniformly.
struct RouteStats {
  size_t LogicalGates = 0;
  size_t RoutedGates = 0;
  size_t Swaps = 0;
  size_t DepthBefore = 0;
  size_t DepthAfter = 0;
  double MappingSeconds = 0;
  bool TimedOut = false;
  bool Verified = false;
  /// Estimated success probability; negative = no error model, omitted.
  double SuccessProbability = -1.0;
};

/// Serializes \p Stats as the shared JSON stats object.
json::Value routeStatsToJson(const RouteStats &Stats);

/// Response builders. Each returns one complete line *without* the
/// trailing newline; the transport appends it.
std::string formatPingResponse(const std::string &Id);
std::string formatErrorResponse(const char *Op, const std::string &Id,
                                const std::string &Code,
                                const std::string &Message);
/// \p Coalesced marks a response answered from another identical
/// request's in-flight route (the response then carries
/// "coalesced":true; absent otherwise). A traced answer gets its "trace"
/// member from appendTraceMember afterwards.
std::string formatRouteResponse(const std::string &Id,
                                const std::string &Mapper,
                                const std::string &Backend,
                                const RouteStats &Stats, bool ContextCacheHit,
                                bool ResultCacheHit, const std::string &Qasm,
                                bool IncludeQasm, bool Coalesced = false);
/// Appends \p TraceJson (a Trace::toJson document) to the JSON object
/// line \p Frame as its last member, "trace". The trace is serialized
/// after the rest of the frame, so it can carry the span that encoded it.
void appendTraceMember(std::string &Frame, const json::Value &TraceJson);
/// `stats` responses carry an arbitrary server-assembled object.
std::string formatStatsResponse(const std::string &Id,
                                const json::Value &Body);
std::string formatShutdownResponse(const std::string &Id);
/// A `metrics` response: \p Text is the full Prometheus text exposition
/// body (newlines and all), carried as one JSON string member.
std::string formatMetricsResponse(const std::string &Id,
                                  const std::string &Text);
/// Ack of a `cancel` op: \p Delivered reports whether the cancellation
/// reached a still-live job (queued or running). The target request's own
/// final response (the `cancelled` error, or a success that won the race)
/// arrives separately.
std::string formatCancelResponse(const std::string &Id, bool Delivered);
/// A `progress` event frame (not a response: carries "event", no "ok").
std::string formatProgressEvent(const std::string &Id, size_t Done,
                                size_t Total);

/// A `batch_item` event frame for a successfully routed item. Like every
/// event frame it carries "event" and no "ok"; success and failure are
/// distinguished by which of "stats" / "error" is present.
std::string formatBatchItemResult(const std::string &Id, size_t Index,
                                  const std::string &Name,
                                  const std::string &Mapper,
                                  const std::string &Backend,
                                  const RouteStats &Stats,
                                  bool ContextCacheHit, bool ResultCacheHit,
                                  const std::string &Qasm, bool IncludeQasm,
                                  bool Coalesced = false);

/// A `batch_item` event frame for an item that failed (or was cancelled /
/// expired): carries an "error" object with the same stable codes as
/// error responses.
std::string formatBatchItemError(const std::string &Id, size_t Index,
                                 const std::string &Name,
                                 const std::string &Code,
                                 const std::string &Message);

/// The final `batch` response — always the **last** frame of its batch:
/// per-item terse outcomes ("ok" or the item's error code, indexed in
/// submission order) plus the success/failure/cancellation tallies.
/// \p ItemNames and \p ItemStatus are parallel, one entry per item.
std::string
formatBatchSummaryResponse(const std::string &Id, const std::string &Mapper,
                           const std::string &Backend,
                           const std::vector<std::string> &ItemNames,
                           const std::vector<std::string> &ItemStatus);

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_PROTOCOL_H
