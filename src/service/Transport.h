//===- service/Transport.h - Transport-agnostic endpoints --------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport seam of the service layer: one address scheme, one
/// listener, one connect path — shared by the daemon (Server), the
/// blocking Client, the shard router, and the benches, so "which socket
/// family" is a parsed string, never a compile-time assumption.
///
/// Addresses:
///
///   unix:/path/to.sock     Unix-domain stream socket
///   tcp:host:port          TCP (host resolved via getaddrinfo; port 0
///                          binds an ephemeral port, readable back from
///                          Listener::endpoint() after listen())
///   /bare/path             backward-compatible shorthand for unix:
///
/// Both transports speak the identical newline-delimited protocol v2
/// through the stream primitives below (sendAll / recvSome /
/// LineReader), which own the EINTR, partial-I/O and framing discipline
/// in one place. TCP sockets get TCP_NODELAY on both ends — the protocol
/// is request/response lines, and Nagle would add 40 ms stalls to every
/// small frame.
///
/// ConnectionHost is the client-facing half both daemons (Server and
/// RouterServer) share; a daemon supplies only what it does with a
/// connection: open, one line, closed.
///
/// Threading: a Listener is driven by one accept thread; wake() may be
/// called from another thread to unblock a blocked acceptConnection(),
/// and close() only once that thread is joined (ConnectionHost does
/// both).
/// connectEndpoint() and BackoffPolicy are stateless/thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_TRANSPORT_H
#define QLOSURE_SERVICE_TRANSPORT_H

#include "support/Error.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

namespace qlosure {
namespace service {

/// A parsed service address.
struct Endpoint {
  enum class Kind : uint8_t { Unix, Tcp };
  Kind Transport = Kind::Unix;
  /// Unix: the socket filesystem path.
  std::string Path;
  /// TCP: host name or numeric address, and port (0 = ephemeral).
  std::string Host;
  uint16_t Port = 0;

  /// Canonical spelling: "unix:/path" or "tcp:host:port".
  std::string str() const;
};

/// Parses "unix:/path", "tcp:host:port", or a bare filesystem path
/// (treated as unix: for backward compatibility with pre-fleet tooling).
Status parseEndpoint(const std::string &Spec, Endpoint &Out);

/// Bounded exponential backoff with jitter, shared by Client's
/// connect-retry and the router's health-check reconnects. delayMs() is
/// pure: attempt 0 waits ~InitialMs, each further attempt doubles (by
/// Factor) up to MaxMs, and the result is scattered uniformly within
/// +-JitterFraction so a fleet of retrying clients never thunders in
/// lockstep. \p JitterSeed picks the point in the jitter window
/// deterministically (hash it from anything per-caller-unique).
struct BackoffPolicy {
  double InitialMs = 10.0;
  double MaxMs = 500.0;
  double Factor = 2.0;
  double JitterFraction = 0.5;

  double delayMs(unsigned Attempt, uint64_t JitterSeed) const;
};

/// A listening socket over either transport.
class Listener {
public:
  Listener() = default;
  ~Listener() { close(); }

  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;

  /// Binds and listens on \p Ep. For unix endpoints a stale socket file
  /// is replaced (a live daemon on the same path loses its clients —
  /// the operator's call, as before). For tcp, SO_REUSEADDR is set and
  /// port 0 resolves to the kernel-assigned port, visible in
  /// endpoint().
  Status listen(const Endpoint &Ep, int Backlog = 64);

  /// Blocking accept with EINTR retry; applies TCP_NODELAY to accepted
  /// TCP sockets. Returns -1 once the listener is closed (or on a fatal
  /// accept error).
  int acceptConnection();

  /// Wakes a thread blocked in acceptConnection() (which then returns
  /// -1) without releasing the descriptor, so it is safe to call while
  /// that thread runs. Shutdown is two steps: wake(), join the accepting
  /// thread, then close().
  void wake();

  /// Closes the listening socket and unlinks a unix socket file this
  /// listener created. Must not race acceptConnection(): join the
  /// accepting thread first (after wake()).
  void close();

  bool listening() const { return Fd >= 0; }

  /// The bound address — for tcp with port 0, the resolved port.
  const Endpoint &endpoint() const { return Bound; }

private:
  int Fd = -1;
  Endpoint Bound;
};

/// Connects one stream socket to \p Ep (blocking, one attempt — retry
/// policy belongs to the caller; Client layers BackoffPolicy on top).
/// EINTR during connect() is completed via poll + SO_ERROR instead of
/// surfacing as a spurious failure. On success \p Fd holds the
/// connected socket (TCP_NODELAY set for tcp).
Status connectEndpoint(const Endpoint &Ep, int &Fd);

/// Writes all of \p Text to \p Fd, retrying on EINTR, with MSG_NOSIGNAL
/// so a vanished peer yields EPIPE instead of killing the process.
/// Returns false when the peer is gone. \p MaxSeconds > 0 bounds the
/// *cumulative* write time — a peer draining one byte per SO_SNDTIMEO
/// window makes per-call timeouts useless, so slow overall progress also
/// fails the send (the caller treats the peer as gone).
bool sendAll(int Fd, const std::string &Text, double MaxSeconds = 0);

/// Reads up to \p Cap bytes from \p Fd into \p Buf, retrying on EINTR so
/// a signal during a blocking read never surfaces as a spurious
/// connection error. Returns the byte count, 0 at orderly EOF, or -1 on
/// a real socket error (errno preserved).
ssize_t recvSome(int Fd, char *Buf, size_t Cap);

/// Splits a byte stream into lines. A line ends at '\n'; the newline and
/// a trailing '\r' are removed, and empty lines are skipped. The reader
/// remembers how far it has searched, so every byte is scanned for a
/// newline once, however many reads a long line takes to arrive.
///
/// With a bound, a line whose content exceeds it is rejected: an
/// unterminated one as soon as its bytes exceed the bound, so the buffer
/// never holds more than the bound plus one read. The caller cannot
/// resynchronize the stream after that and should drop it.
class LineReader {
public:
  enum class Result {
    Line,     ///< A line was taken.
    NeedMore, ///< pop(): no complete line buffered yet.
    TooLong,  ///< The line in front exceeds the bound.
    Eof,      ///< read(): the peer closed (a partial line is dropped).
    Error,    ///< read(): recv failed (errno preserved).
  };

  /// \p MaxLineBytes == 0 reads unbounded lines (trusted peers).
  explicit LineReader(size_t MaxLineBytes = 0) : MaxLineBytes(MaxLineBytes) {}

  /// Appends bytes received from the peer.
  void feed(const char *Data, size_t Size);

  /// Takes the next buffered line into \p Line: Line, NeedMore or
  /// TooLong.
  Result pop(std::string &Line);

  /// Blocks on \p Fd until the next line: Line, TooLong, Eof or Error.
  Result read(int Fd, std::string &Line);

private:
  std::string Buf;
  size_t Start = 0;   ///< Offset of the first unconsumed byte.
  size_t Scanned = 0; ///< [Start, Scanned) holds no newline.
  size_t MaxLineBytes;
};

/// The longest request line either daemon accepts. A longer line gets
/// one `bad_request` frame and the connection is closed: the stream
/// cannot be trusted to resynchronize.
inline constexpr size_t MaxRequestLineBytes = size_t(64) << 20;

/// One accepted client connection as the host sees it: the socket and
/// its writer. Daemons derive their per-connection state from it. The
/// fd closes with the last reference, so a worker finishing after the
/// reader exited can never write into a recycled descriptor.
class HostedConnection {
public:
  explicit HostedConnection(int Fd) : Fd(Fd) {}
  virtual ~HostedConnection();

  const int Fd;

  /// Writes one frame (newline appended) from any thread; frames never
  /// interleave. Returns false once the peer is gone or the connection
  /// was marked closed; a failure latches, so late writers degrade to
  /// no-ops. A 30 s cumulative bound (on top of the 10 s SO_SNDTIMEO)
  /// keeps a slow-dripping reader from pinning the writing thread.
  bool send(const std::string &Line);

  /// False once a send failed or the connection was marked closed.
  bool alive();

  /// No further frames go out (set when the reader exits).
  void markClosed();

private:
  std::mutex WriteMu;
  bool Closed = false;
};

/// What a daemon does with its connections. Open runs on the accept
/// thread, Line and Closed on the connection's reader thread.
struct ConnectionHooks {
  /// Wraps an accepted socket in the daemon's connection type.
  std::function<std::shared_ptr<HostedConnection>(int Fd)> Open;
  /// Handles one request line. Reading stops once the connection is no
  /// longer alive().
  std::function<void(const std::shared_ptr<HostedConnection> &,
                     const std::string &Line)>
      Line;
  /// The reader exited (EOF, error, oversized line or teardown); the
  /// connection is already marked closed.
  std::function<void(const std::shared_ptr<HostedConnection> &)> Closed;
};

/// Accepts connections on one listener and serves each on its own
/// reader thread, framing requests at MaxRequestLineBytes. Reader
/// threads sit in recycled slots: a finished connection's thread is
/// joined at the next accept, so a long-lived daemon serving many
/// short-lived connections holds O(max concurrent), not O(total),
/// thread stacks.
///
/// Lifecycle: start() listens and spawns the accept thread; wait()
/// blocks until requestStop() (or the external predicate) fires, then
/// tears down exactly once: stop accepting, run the daemon's drain step
/// (connections can still be written to), then sever every connection
/// and join its reader. Concurrent wait()ers all block until teardown
/// completed. Not restartable.
class ConnectionHost {
public:
  ~ConnectionHost() { teardown(nullptr); }

  Status start(const Endpoint &Ep, ConnectionHooks Hooks);
  bool started() const { return Started; }

  /// Asks wait() to tear down; callable from any thread, including a
  /// connection's own line hook (after it wrote its last frame).
  void requestStop();

  /// Blocks until requestStop() or \p ExternalStop returns true (polled
  /// a few times per second, so a signal handler only needs to flip a
  /// flag), then tears down, running \p Drain between "stop accepting"
  /// and "sever connections". Returns at once when never started.
  void wait(const std::function<bool()> &ExternalStop,
            const std::function<void()> &Drain);

  /// True from the start of teardown on.
  bool stopping() const { return Stopping.load(); }

  /// Connections accepted so far.
  uint64_t connections() const { return Connections.load(); }

  /// Request lines rejected as too large, each answered with one
  /// `bad_request` frame; the daemons count them among their errors.
  uint64_t rejectedLines() const { return RejectedLines.load(); }

  /// The bound address — for tcp with port 0, the resolved port.
  const Endpoint &endpoint() const { return Acceptor.endpoint(); }

private:
  struct Slot {
    std::thread Reader;
    /// Null once the reader vacated the slot. The connection itself may
    /// live on: workers with in-flight jobs hold their own references.
    std::shared_ptr<HostedConnection> Conn;
  };

  void acceptLoop();
  void serve(const std::shared_ptr<HostedConnection> &Conn, size_t Index);
  /// Runs once: stopAccepting(), \p Drain, closeConnections().
  void teardown(const std::function<void()> &Drain);
  void stopAccepting();
  void closeConnections();

  ConnectionHooks Hooks;
  Listener Acceptor;
  std::thread AcceptThread;
  std::atomic<uint64_t> Connections{0};
  std::atomic<uint64_t> RejectedLines{0};

  std::mutex SlotMu;
  std::vector<Slot> Slots;
  /// Slots whose reader finished: joined at the next accept, then
  /// reused.
  std::vector<size_t> FinishedSlots;

  std::mutex StopMu;
  std::condition_variable StopCv;
  bool StopRequested = false;
  std::atomic<bool> Stopping{false};
  bool Started = false;
  std::mutex TeardownMu;
  bool TornDown = false;
};

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_TRANSPORT_H
