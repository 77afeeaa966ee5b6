//===- tests/TransportTest.cpp - Transport seam and framing tests ---------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the transport seam (service/Transport.h) and the stream
/// framing discipline it owns: endpoint-address parsing, the
/// bounded-exponential BackoffPolicy, listener/connect round trips over
/// both transports, EINTR resilience of the recv/send loops under a
/// deliberate signal storm, partial-write completion under a tiny
/// SO_SNDBUF, the LineReader's framing, and the request-line size
/// boundary of the connection host (exactly-at-limit accepted,
/// one-over rejected) on both unix: and tcp: endpoints.
///
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Server.h"
#include "service/Transport.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

namespace {

std::string tempSocketPath() {
  static std::atomic<unsigned> Counter{0};
  return formatString("/tmp/qlt-%d-%u.sock", static_cast<int>(getpid()),
                      Counter.fetch_add(1));
}

//===----------------------------------------------------------------------===//
// Endpoint parsing
//===----------------------------------------------------------------------===//

TEST(TransportTest, ParsesAddressSchemes) {
  Endpoint Ep;

  ASSERT_TRUE(parseEndpoint("unix:/tmp/a.sock", Ep).ok());
  EXPECT_EQ(Ep.Transport, Endpoint::Kind::Unix);
  EXPECT_EQ(Ep.Path, "/tmp/a.sock");
  EXPECT_EQ(Ep.str(), "unix:/tmp/a.sock");

  // A bare path is backward-compatible shorthand for unix:.
  ASSERT_TRUE(parseEndpoint("/tmp/bare.sock", Ep).ok());
  EXPECT_EQ(Ep.Transport, Endpoint::Kind::Unix);
  EXPECT_EQ(Ep.Path, "/tmp/bare.sock");

  ASSERT_TRUE(parseEndpoint("tcp:127.0.0.1:9000", Ep).ok());
  EXPECT_EQ(Ep.Transport, Endpoint::Kind::Tcp);
  EXPECT_EQ(Ep.Host, "127.0.0.1");
  EXPECT_EQ(Ep.Port, 9000);
  EXPECT_EQ(Ep.str(), "tcp:127.0.0.1:9000");

  // Port 0 parses (ephemeral; the listener resolves the real port).
  ASSERT_TRUE(parseEndpoint("tcp:localhost:0", Ep).ok());
  EXPECT_EQ(Ep.Port, 0);

  EXPECT_FALSE(parseEndpoint("", Ep).ok());
  EXPECT_FALSE(parseEndpoint("unix:", Ep).ok());
  EXPECT_FALSE(parseEndpoint("tcp:hostonly", Ep).ok());
  EXPECT_FALSE(parseEndpoint("tcp::9000", Ep).ok());
  EXPECT_FALSE(parseEndpoint("tcp:host:", Ep).ok());
  EXPECT_FALSE(parseEndpoint("tcp:host:notaport", Ep).ok());
  EXPECT_FALSE(parseEndpoint("tcp:host:99999", Ep).ok());
  EXPECT_FALSE(parseEndpoint("udp:host:9000", Ep).ok());
  EXPECT_FALSE(parseEndpoint("http://example.com", Ep).ok());
}

//===----------------------------------------------------------------------===//
// BackoffPolicy
//===----------------------------------------------------------------------===//

TEST(TransportTest, BackoffDelaysAreBoundedAndDeterministic) {
  BackoffPolicy Policy; // InitialMs=10, MaxMs=500, Factor=2, Jitter=0.5

  for (unsigned Attempt = 0; Attempt < 16; ++Attempt) {
    double D = Policy.delayMs(Attempt, /*JitterSeed=*/42);
    EXPECT_GE(D, 0.0);
    // Never beyond the cap plus its jitter window.
    EXPECT_LE(D, Policy.MaxMs * (1.0 + Policy.JitterFraction));
    // Pure function: same (attempt, seed) -> same delay.
    EXPECT_EQ(D, Policy.delayMs(Attempt, 42));
  }

  // Attempt 0 stays within the initial window; late attempts reach the
  // cap's neighborhood (>= MaxMs lower jitter bound).
  EXPECT_LE(Policy.delayMs(0, 7),
            Policy.InitialMs * (1.0 + Policy.JitterFraction));
  EXPECT_GE(Policy.delayMs(15, 7),
            Policy.MaxMs * (1.0 - Policy.JitterFraction));

  // Different seeds scatter: among a handful of seeds at the same
  // attempt, at least two distinct delays must appear (the anti-
  // thundering-herd property).
  bool Scattered = false;
  double First = Policy.delayMs(3, 1);
  for (uint64_t Seed = 2; Seed < 8; ++Seed)
    if (Policy.delayMs(3, Seed) != First)
      Scattered = true;
  EXPECT_TRUE(Scattered);

  // Jitter disabled -> exact exponential, capped.
  BackoffPolicy Plain;
  Plain.JitterFraction = 0;
  EXPECT_EQ(Plain.delayMs(0, 1), 10.0);
  EXPECT_EQ(Plain.delayMs(1, 1), 20.0);
  EXPECT_EQ(Plain.delayMs(2, 1), 40.0);
  EXPECT_EQ(Plain.delayMs(20, 1), 500.0);
}

//===----------------------------------------------------------------------===//
// Listener / connect round trips (both transports)
//===----------------------------------------------------------------------===//

void roundTripOver(const Endpoint &Ep) {
  Listener Acceptor;
  ASSERT_TRUE(Acceptor.listen(Ep).ok());
  if (Ep.Transport == Endpoint::Kind::Tcp && Ep.Port == 0)
    EXPECT_NE(Acceptor.endpoint().Port, 0)
        << "ephemeral port must resolve after listen()";

  std::thread Echo([&] {
    int Fd = Acceptor.acceptConnection();
    ASSERT_GE(Fd, 0);
    std::string Line;
    ASSERT_EQ(LineReader().read(Fd, Line), LineReader::Result::Line);
    EXPECT_TRUE(sendAll(Fd, "echo:" + Line + "\n"));
    ::close(Fd);
  });

  int Fd = -1;
  ASSERT_TRUE(connectEndpoint(Acceptor.endpoint(), Fd).ok());
  ASSERT_TRUE(sendAll(Fd, "hello over " + Acceptor.endpoint().str() + "\n"));
  std::string Line;
  ASSERT_EQ(LineReader().read(Fd, Line), LineReader::Result::Line);
  EXPECT_EQ(Line, "echo:hello over " + Acceptor.endpoint().str());
  ::close(Fd);
  Echo.join();
  Acceptor.close();
  if (Ep.Transport == Endpoint::Kind::Unix)
    EXPECT_NE(::access(Ep.Path.c_str(), F_OK), 0)
        << "close() must unlink the unix socket file";
}

TEST(TransportTest, UnixListenerRoundTrip) {
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint(tempSocketPath(), Ep).ok());
  roundTripOver(Ep);
}

TEST(TransportTest, TcpListenerRoundTripWithEphemeralPort) {
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint("tcp:127.0.0.1:0", Ep).ok());
  roundTripOver(Ep);
}

TEST(TransportTest, ConnectToMissingEndpointFailsCleanly) {
  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint(tempSocketPath(), Ep).ok());
  int Fd = -1;
  EXPECT_FALSE(connectEndpoint(Ep, Fd).ok());
  EXPECT_LT(Fd, 0);
}

//===----------------------------------------------------------------------===//
// EINTR and partial-write discipline
//===----------------------------------------------------------------------===//

void noopHandler(int) {}

/// Installs \p Handler for SIGUSR1 *without* SA_RESTART, so blocking
/// syscalls genuinely return EINTR (std::signal would mask the bug the
/// suite exists to catch). Restores the old action on destruction.
struct InterruptingSignal {
  struct sigaction Old;
  InterruptingSignal() {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = noopHandler;
    sigemptyset(&SA.sa_mask);
    SA.sa_flags = 0; // No SA_RESTART: interrupted calls fail with EINTR.
    sigaction(SIGUSR1, &SA, &Old);
  }
  ~InterruptingSignal() { sigaction(SIGUSR1, &Old, nullptr); }
};

TEST(TransportTest, RecvSomeRetriesAcrossEintr) {
  InterruptingSignal Guard;
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);

  std::atomic<bool> Blocked{false};
  std::atomic<ssize_t> Got{-2};
  std::string Received;
  std::thread Reader([&] {
    char Buffer[256];
    Blocked.store(true);
    // One blocking recv; signals during the block must be invisible.
    ssize_t N = recvSome(Pair[0], Buffer, sizeof(Buffer));
    Got.store(N);
    if (N > 0)
      Received.assign(Buffer, static_cast<size_t>(N));
  });

  while (!Blocked.load())
    std::this_thread::yield();
  // Storm the reader while it blocks in recv().
  for (int I = 0; I < 50; ++I) {
    pthread_kill(Reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(Got.load(), -2) << "reader must still be blocked, not EINTR'd";
  ASSERT_TRUE(sendAll(Pair[1], "payload"));
  Reader.join();
  EXPECT_EQ(Got.load(), 7);
  EXPECT_EQ(Received, "payload");
  ::close(Pair[0]);
  ::close(Pair[1]);
}

TEST(TransportTest, SendAllCompletesPartialWritesUnderTinySndbuf) {
  InterruptingSignal Guard;
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  // A minimal send buffer forces send() to accept the payload in many
  // partial writes (the kernel clamps to its floor, still far below the
  // payload).
  int Tiny = 1;
  ASSERT_EQ(::setsockopt(Pair[1], SOL_SOCKET, SO_SNDBUF, &Tiny,
                         sizeof(Tiny)),
            0);

  std::string Payload(4 << 20, '\0');
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<char>('a' + I % 26);

  std::atomic<bool> SendOk{false};
  std::thread Sender([&] { SendOk.store(sendAll(Pair[1], Payload)); });

  // Harass the sender mid-transfer, then drain everything.
  for (int I = 0; I < 50; ++I) {
    pthread_kill(Sender.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string Received;
  char Buffer[65536];
  while (Received.size() < Payload.size()) {
    ssize_t N = recvSome(Pair[0], Buffer, sizeof(Buffer));
    ASSERT_GT(N, 0);
    Received.append(Buffer, static_cast<size_t>(N));
  }
  Sender.join();
  EXPECT_TRUE(SendOk.load());
  EXPECT_EQ(Received, Payload) << "partial writes must not reorder or "
                                  "drop bytes";
  ::close(Pair[0]);
  ::close(Pair[1]);
}

//===----------------------------------------------------------------------===//
// LineReader
//===----------------------------------------------------------------------===//

/// Every line \p Reader yields until it needs more bytes.
std::vector<std::string> popAll(LineReader &Reader) {
  std::vector<std::string> Lines;
  std::string Line;
  while (Reader.pop(Line) == LineReader::Result::Line)
    Lines.push_back(Line);
  return Lines;
}

TEST(TransportTest, LineReaderJoinsALineSplitAcrossManyChunks) {
  LineReader Reader;
  const std::string Text = "{\"op\":\"ping\",\"id\":\"split\"}";
  for (char C : Text) {
    Reader.feed(&C, 1);
    EXPECT_TRUE(popAll(Reader).empty());
  }
  Reader.feed("\n", 1);
  EXPECT_EQ(popAll(Reader), std::vector<std::string>{Text});
}

TEST(TransportTest, LineReaderStripsCrLfAndSkipsEmptyLines) {
  LineReader Reader;
  const std::string Text = "first\r\n\n\r\n\nsecond\n\n";
  Reader.feed(Text.data(), Text.size());
  EXPECT_EQ(popAll(Reader), (std::vector<std::string>{"first", "second"}));
  std::string Line;
  EXPECT_EQ(Reader.pop(Line), LineReader::Result::NeedMore);
}

TEST(TransportTest, LineReaderYieldsSeveralLinesFromOneChunk) {
  LineReader Reader;
  const std::string Text = "a\nbb\nccc\ndd";
  Reader.feed(Text.data(), Text.size());
  EXPECT_EQ(popAll(Reader), (std::vector<std::string>{"a", "bb", "ccc"}));
  // The unterminated tail waits for the rest of its line.
  Reader.feed("d\n", 2);
  EXPECT_EQ(popAll(Reader), std::vector<std::string>{"ddd"});
}

TEST(TransportTest, LineReaderBoundAcceptsExactlyTheBoundAndRejectsEarly) {
  const size_t Bound = 16;
  {
    LineReader Reader(Bound);
    std::string AtBound(Bound, 'x');
    Reader.feed(AtBound.data(), AtBound.size());
    std::string Line;
    EXPECT_EQ(Reader.pop(Line), LineReader::Result::NeedMore);
    // A "\r\n" ending split between reads does not count against it.
    Reader.feed("\r", 1);
    EXPECT_EQ(Reader.pop(Line), LineReader::Result::NeedMore);
    Reader.feed("\n", 1);
    ASSERT_EQ(Reader.pop(Line), LineReader::Result::Line);
    EXPECT_EQ(Line, AtBound);
  }
  {
    // One byte over, and no newline yet: rejected without waiting for
    // one, so the buffer stays bounded.
    LineReader Reader(Bound);
    std::string Over(Bound + 1, 'x');
    Reader.feed(Over.data(), Over.size());
    std::string Line;
    EXPECT_EQ(Reader.pop(Line), LineReader::Result::TooLong);
  }
  {
    // The bound is per line: a full line before an over-long one is
    // still delivered.
    LineReader Reader(Bound);
    std::string Text = "ping\n" + std::string(Bound + 1, 'x') + "\n";
    Reader.feed(Text.data(), Text.size());
    std::string Line;
    ASSERT_EQ(Reader.pop(Line), LineReader::Result::Line);
    EXPECT_EQ(Line, "ping");
    EXPECT_EQ(Reader.pop(Line), LineReader::Result::TooLong);
  }
}

TEST(TransportTest, LineReaderDropsAnOverlongLinesTailButNotANewline) {
  const size_t Bound = 16;
  std::string Line;
  {
    // A chunk far past the bound, with a '\r' right after the bound:
    // the dropped tail never turns the line into an accepted one.
    LineReader Reader(Bound);
    std::string Chunk = std::string(Bound, 'x') + "\r" +
                        std::string(1000, 'y');
    Reader.feed(Chunk.data(), Chunk.size());
    EXPECT_EQ(Reader.pop(Line), LineReader::Result::TooLong);
  }
  {
    // After a partial line, a chunk whose newline ends that line at the
    // bound delivers it; only the unterminated rest is over the bound.
    LineReader Reader(Bound);
    std::string Head(10, 'a');
    Reader.feed(Head.data(), Head.size());
    EXPECT_EQ(Reader.pop(Line), LineReader::Result::NeedMore);
    std::string Chunk = std::string(Bound - 10, 'b') + "\n" +
                        std::string(1000, 'c');
    Reader.feed(Chunk.data(), Chunk.size());
    ASSERT_EQ(Reader.pop(Line), LineReader::Result::Line);
    EXPECT_EQ(Line, Head + std::string(Bound - 10, 'b'));
    EXPECT_EQ(Reader.pop(Line), LineReader::Result::TooLong);
  }
}

TEST(TransportTest, LineReaderReadsFromASocketUntilEof) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  ASSERT_TRUE(sendAll(Pair[1], "one\r\ntwo\npartial"));
  ::shutdown(Pair[1], SHUT_WR);
  LineReader Reader;
  std::string Line;
  ASSERT_EQ(Reader.read(Pair[0], Line), LineReader::Result::Line);
  EXPECT_EQ(Line, "one");
  ASSERT_EQ(Reader.read(Pair[0], Line), LineReader::Result::Line);
  EXPECT_EQ(Line, "two");
  // A partial line at EOF is dropped.
  EXPECT_EQ(Reader.read(Pair[0], Line), LineReader::Result::Eof);
  ::close(Pair[0]);
  ::close(Pair[1]);
}

//===----------------------------------------------------------------------===//
// Connection-host framing boundary (both transports)
//===----------------------------------------------------------------------===//

/// A ping request padded with an ignored member to exactly \p Bytes
/// (without the trailing newline).
std::string paddedPing(size_t Bytes) {
  const std::string Head = "{\"op\":\"ping\",\"pad\":\"";
  const std::string Tail = "\"}";
  EXPECT_GT(Bytes, Head.size() + Tail.size());
  return Head + std::string(Bytes - Head.size() - Tail.size(), 'x') + Tail;
}

void framingBoundaryOver(const std::string &ListenSpec) {
  ServerOptions Opts;
  Opts.Listen = ListenSpec;
  Opts.Workers = 1;
  Server Daemon(Opts);
  ASSERT_TRUE(Daemon.start().ok());
  std::thread Waiter([&] { Daemon.wait(); });

  Endpoint Ep;
  ASSERT_TRUE(parseEndpoint(Daemon.boundAddress(), Ep).ok());

  {
    // Exactly at the limit: the line is accepted and answered.
    int Fd = -1;
    ASSERT_TRUE(connectEndpoint(Ep, Fd).ok());
    ASSERT_TRUE(sendAll(Fd, paddedPing(MaxRequestLineBytes) + "\n"));
    std::string Line;
    ASSERT_EQ(LineReader().read(Fd, Line), LineReader::Result::Line);
    json::ParseResult Parsed = json::parse(Line);
    ASSERT_TRUE(Parsed.Ok) << Line;
    const json::Value *Ok = Parsed.V.get("ok");
    EXPECT_TRUE(Ok && Ok->asBool()) << Line;
    ::close(Fd);
  }
  {
    // One byte over, newline deliberately withheld: the framing layer
    // must reject with a structured error once the body alone exceeds
    // the limit, then close (the stream cannot resynchronize).
    int Fd = -1;
    ASSERT_TRUE(connectEndpoint(Ep, Fd).ok());
    ASSERT_TRUE(sendAll(Fd, paddedPing(MaxRequestLineBytes + 1)));
    LineReader Reader;
    std::string Line;
    ASSERT_EQ(Reader.read(Fd, Line), LineReader::Result::Line);
    json::ParseResult Parsed = json::parse(Line);
    ASSERT_TRUE(Parsed.Ok) << Line;
    const json::Value *Ok = Parsed.V.get("ok");
    ASSERT_TRUE(Ok && !Ok->asBool()) << Line;
    const json::Value *Error = Parsed.V.get("error");
    ASSERT_TRUE(Error && Error->isObject()) << Line;
    EXPECT_EQ(Error->get("code")->asString(), "bad_request");
    // EOF follows: the connection is closed after the rejection.
    std::string Rest;
    EXPECT_EQ(Reader.read(Fd, Rest), LineReader::Result::Eof);
    ::close(Fd);
    json::Value Stats = Daemon.statsJson();
    EXPECT_EQ(Stats.get("server")->get("errors")->asNumber(), 1);
  }

  Daemon.requestStop();
  Waiter.join();
}

TEST(TransportTest, FramingSizeBoundaryUnix) {
  framingBoundaryOver(tempSocketPath());
}

TEST(TransportTest, FramingSizeBoundaryTcp) {
  framingBoundaryOver("tcp:127.0.0.1:0");
}

//===----------------------------------------------------------------------===//
// Client connect retry (BackoffPolicy integration)
//===----------------------------------------------------------------------===//

TEST(TransportTest, ClientRetriesUntilLateDaemonBinds) {
  std::string Path = tempSocketPath();
  // Bind the listener ~150 ms after the client starts retrying.
  std::thread LateBinder([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    Endpoint Ep;
    ASSERT_TRUE(parseEndpoint(Path, Ep).ok());
    Listener Acceptor;
    ASSERT_TRUE(Acceptor.listen(Ep).ok());
    int Fd = Acceptor.acceptConnection();
    EXPECT_GE(Fd, 0);
    if (Fd >= 0)
      ::close(Fd);
    Acceptor.close();
  });

  Client Conn;
  Status S = Conn.connect(Path, /*RetrySeconds=*/5.0);
  EXPECT_TRUE(S.ok()) << S.message();
  Conn.close();
  LateBinder.join();

  // Without a retry budget, the missing endpoint fails immediately.
  Client NoRetry;
  EXPECT_FALSE(NoRetry.connect(tempSocketPath()).ok());
}

} // namespace
