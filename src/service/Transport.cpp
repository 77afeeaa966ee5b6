//===- service/Transport.cpp - Transport-agnostic endpoints --------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Transport.h"

#include "service/Protocol.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

std::string Endpoint::str() const {
  if (Transport == Kind::Unix)
    return "unix:" + Path;
  return formatString("tcp:%s:%u", Host.c_str(), static_cast<unsigned>(Port));
}

Status service::parseEndpoint(const std::string &Spec, Endpoint &Out) {
  if (Spec.empty())
    return Status::error("empty endpoint address");
  if (Spec.rfind("unix:", 0) == 0) {
    std::string Path = Spec.substr(5);
    if (Path.empty())
      return Status::error("unix endpoint needs a socket path");
    Out.Transport = Endpoint::Kind::Unix;
    Out.Path = std::move(Path);
    Out.Host.clear();
    Out.Port = 0;
    return Status::success();
  }
  if (Spec.rfind("tcp:", 0) == 0) {
    std::string Rest = Spec.substr(4);
    size_t Colon = Rest.rfind(':');
    if (Colon == std::string::npos || Colon == 0 ||
        Colon + 1 == Rest.size())
      return Status::error(
          formatString("tcp endpoint '%s' must be tcp:host:port",
                       Spec.c_str()));
    std::string Host = Rest.substr(0, Colon);
    std::string PortText = Rest.substr(Colon + 1);
    char *End = nullptr;
    unsigned long Port = std::strtoul(PortText.c_str(), &End, 10);
    if (End == PortText.c_str() || *End != '\0' || Port > 65535)
      return Status::error(
          formatString("bad tcp port '%s'", PortText.c_str()));
    Out.Transport = Endpoint::Kind::Tcp;
    Out.Path.clear();
    Out.Host = std::move(Host);
    Out.Port = static_cast<uint16_t>(Port);
    return Status::success();
  }
  // A scheme we don't know (a word followed by ':' with no '/' before
  // it) is an error; anything else is a bare unix socket path.
  size_t Colon = Spec.find(':');
  if (Colon != std::string::npos && Spec.find('/') > Colon)
    return Status::error(formatString(
        "unknown endpoint scheme in '%s' (want unix:/path or tcp:host:port)",
        Spec.c_str()));
  Out.Transport = Endpoint::Kind::Unix;
  Out.Path = Spec;
  Out.Host.clear();
  Out.Port = 0;
  return Status::success();
}

double BackoffPolicy::delayMs(unsigned Attempt, uint64_t JitterSeed) const {
  double Base = InitialMs;
  for (unsigned I = 0; I < Attempt && Base < MaxMs; ++I)
    Base *= Factor;
  Base = std::min(Base, MaxMs);
  if (JitterFraction <= 0)
    return Base;
  // splitmix64 of (seed, attempt) -> uniform point in [-J, +J].
  uint64_t Z = JitterSeed + 0x9e3779b97f4a7c15ULL * (Attempt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  Z ^= Z >> 31;
  double Unit = static_cast<double>(Z >> 11) / 9007199254740992.0; // [0,1)
  double Jitter = (2.0 * Unit - 1.0) * JitterFraction;
  return std::max(0.0, Base * (1.0 + Jitter));
}

namespace {

Status makeUnixAddr(const std::string &Path, sockaddr_un &Addr) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return Status::error(
        formatString("socket path too long: %s", Path.c_str()));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return Status::success();
}

void setNoDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

/// Resolves host:port for bind or connect. Returns the first usable
/// address via getaddrinfo (numeric or named, IPv4/IPv6).
Status resolveTcp(const std::string &Host, uint16_t Port, bool ForBind,
                  struct addrinfo **Out) {
  struct addrinfo Hints;
  std::memset(&Hints, 0, sizeof(Hints));
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  if (ForBind)
    Hints.ai_flags = AI_PASSIVE;
  std::string PortText = std::to_string(Port);
  int Rc = ::getaddrinfo(Host.empty() ? nullptr : Host.c_str(),
                         PortText.c_str(), &Hints, Out);
  if (Rc != 0)
    return Status::error(formatString("resolve %s:%u: %s", Host.c_str(),
                                      static_cast<unsigned>(Port),
                                      ::gai_strerror(Rc)));
  return Status::success();
}

} // namespace

Status Listener::listen(const Endpoint &Ep, int Backlog) {
  close();
  if (Ep.Transport == Endpoint::Kind::Unix) {
    sockaddr_un Addr;
    if (Status S = makeUnixAddr(Ep.Path, Addr); !S.ok())
      return S;
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return Status::error(
          formatString("socket(): %s", std::strerror(errno)));
    ::unlink(Ep.Path.c_str()); // Replace a stale socket file.
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      Status S = Status::error(formatString(
          "bind(%s): %s", Ep.Path.c_str(), std::strerror(errno)));
      ::close(Fd);
      Fd = -1;
      return S;
    }
    if (::listen(Fd, Backlog) != 0) {
      Status S = Status::error(
          formatString("listen(): %s", std::strerror(errno)));
      ::close(Fd);
      Fd = -1;
      ::unlink(Ep.Path.c_str());
      return S;
    }
    Bound = Ep;
    return Status::success();
  }

  struct addrinfo *Infos = nullptr;
  if (Status S = resolveTcp(Ep.Host, Ep.Port, /*ForBind=*/true, &Infos);
      !S.ok())
    return S;
  Status LastErr = Status::error("no usable address");
  for (struct addrinfo *AI = Infos; AI; AI = AI->ai_next) {
    Fd = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0) {
      LastErr = Status::error(
          formatString("socket(): %s", std::strerror(errno)));
      continue;
    }
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (::bind(Fd, AI->ai_addr, AI->ai_addrlen) != 0 ||
        ::listen(Fd, Backlog) != 0) {
      LastErr = Status::error(formatString(
          "bind/listen(tcp:%s:%u): %s", Ep.Host.c_str(),
          static_cast<unsigned>(Ep.Port), std::strerror(errno)));
      ::close(Fd);
      Fd = -1;
      continue;
    }
    break;
  }
  ::freeaddrinfo(Infos);
  if (Fd < 0)
    return LastErr;

  Bound = Ep;
  if (Ep.Port == 0) {
    // Read back the kernel-assigned ephemeral port.
    sockaddr_storage SS;
    socklen_t Len = sizeof(SS);
    if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&SS), &Len) == 0) {
      if (SS.ss_family == AF_INET)
        Bound.Port =
            ntohs(reinterpret_cast<sockaddr_in *>(&SS)->sin_port);
      else if (SS.ss_family == AF_INET6)
        Bound.Port =
            ntohs(reinterpret_cast<sockaddr_in6 *>(&SS)->sin6_port);
    }
  }
  return Status::success();
}

int Listener::acceptConnection() {
  while (true) {
    int ListenFd = Fd;
    if (ListenFd < 0)
      return -1;
    int ClientFd = ::accept(ListenFd, nullptr, nullptr);
    if (ClientFd >= 0) {
      if (Bound.Transport == Endpoint::Kind::Tcp)
        setNoDelay(ClientFd);
      return ClientFd;
    }
    if (errno == EINTR)
      continue;
    return -1; // Listener closed under us, or a fatal accept error.
  }
}

void Listener::wake() {
  // shutdown() wakes a thread blocked in accept() on Linux (and fails
  // every later accept()); close() alone does not.
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

void Listener::close() {
  if (Fd < 0)
    return;
  wake();
  ::close(Fd);
  Fd = -1;
  if (Bound.Transport == Endpoint::Kind::Unix && !Bound.Path.empty())
    ::unlink(Bound.Path.c_str());
}

Status service::connectEndpoint(const Endpoint &Ep, int &Fd) {
  Fd = -1;
  int Sock = -1;
  int ConnectRc = -1;
  int ConnectErrno = 0;
  if (Ep.Transport == Endpoint::Kind::Unix) {
    sockaddr_un Addr;
    if (Status S = makeUnixAddr(Ep.Path, Addr); !S.ok())
      return S;
    Sock = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Sock < 0)
      return Status::error(
          formatString("socket(): %s", std::strerror(errno)));
    ConnectRc =
        ::connect(Sock, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
    ConnectErrno = errno;
  } else {
    struct addrinfo *Infos = nullptr;
    if (Status S = resolveTcp(Ep.Host, Ep.Port, /*ForBind=*/false, &Infos);
        !S.ok())
      return S;
    for (struct addrinfo *AI = Infos; AI; AI = AI->ai_next) {
      Sock = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
      if (Sock < 0) {
        ConnectErrno = errno;
        continue;
      }
      ConnectRc = ::connect(Sock, AI->ai_addr, AI->ai_addrlen);
      ConnectErrno = errno;
      if (ConnectRc == 0 || ConnectErrno == EINTR)
        break;
      ::close(Sock);
      Sock = -1;
    }
    ::freeaddrinfo(Infos);
    if (Sock < 0)
      return Status::error(formatString(
          "connect(%s): %s", Ep.str().c_str(),
          std::strerror(ConnectErrno ? ConnectErrno : ECONNREFUSED)));
  }

  if (ConnectRc != 0 && ConnectErrno == EINTR) {
    // A signal interrupted connect(); the connection continues
    // asynchronously (POSIX). Failing here was the "spurious connection
    // error" bug — instead wait for writability and read the real
    // outcome from SO_ERROR.
    struct pollfd Pfd;
    Pfd.fd = Sock;
    Pfd.events = POLLOUT;
    int PollRc;
    do {
      PollRc = ::poll(&Pfd, 1, -1);
    } while (PollRc < 0 && errno == EINTR);
    int SoErr = 0;
    socklen_t Len = sizeof(SoErr);
    if (PollRc < 0 ||
        ::getsockopt(Sock, SOL_SOCKET, SO_ERROR, &SoErr, &Len) != 0)
      SoErr = errno;
    if (SoErr != 0) {
      ::close(Sock);
      return Status::error(formatString("connect(%s): %s",
                                        Ep.str().c_str(),
                                        std::strerror(SoErr)));
    }
    ConnectRc = 0;
  }

  if (ConnectRc != 0) {
    ::close(Sock);
    return Status::error(formatString("connect(%s): %s", Ep.str().c_str(),
                                      std::strerror(ConnectErrno)));
  }
  if (Ep.Transport == Endpoint::Kind::Tcp)
    setNoDelay(Sock);
  Fd = Sock;
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Stream I/O
//===----------------------------------------------------------------------===//

bool service::sendAll(int Fd, const std::string &Text, double MaxSeconds) {
  auto Deadline = std::chrono::steady_clock::time_point::max();
  if (MaxSeconds > 0)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(MaxSeconds));
  size_t Off = 0;
  while (Off < Text.size()) {
    ssize_t N =
        ::send(Fd, Text.data() + Off, Text.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
    if (Off < Text.size() && std::chrono::steady_clock::now() >= Deadline)
      return false; // Peer is draining too slowly; treat as gone.
  }
  return true;
}

ssize_t service::recvSome(int Fd, char *Buf, size_t Cap) {
  while (true) {
    ssize_t N = ::recv(Fd, Buf, Cap, 0);
    if (N < 0 && errno == EINTR)
      continue;
    return N;
  }
}

void LineReader::feed(const char *Data, size_t Size) {
  // Consumed lines leave the buffer before it grows, so each byte is
  // moved at most once.
  if (Start > 0) {
    Buf.erase(0, Start);
    Scanned -= Start;
    Start = 0;
  }
  if (MaxLineBytes > 0) {
    // pop() rejects a line once it holds more than MaxLineBytes bytes
    // besides a trailing '\r', so an unterminated line — the whole
    // buffer, when pop() scanned it all — never needs more than
    // MaxLineBytes + 2 of them; the rest of a chunk without a newline is
    // dropped.
    const size_t Keep = MaxLineBytes + 2;
    if (Scanned == Buf.size() && !std::memchr(Data, '\n', Size))
      Size = std::min(Size, Keep - std::min(Keep, Buf.size()));
    // Past a quarter of the bound, grow straight to it: a doubling past
    // the bound would briefly hold two copies of a line this long.
    const size_t Need = Buf.size() + Size;
    if (Need > Buf.capacity() && 4 * Need > Keep)
      Buf.reserve(std::max(Need, Keep));
  }
  Buf.append(Data, Size);
}

LineReader::Result LineReader::pop(std::string &Line) {
  while (true) {
    size_t Nl = Buf.find('\n', Scanned);
    if (Nl == std::string::npos) {
      Scanned = Buf.size();
      // A trailing '\r' may be the first half of a "\r\n" ending.
      size_t Len = Buf.size() - Start;
      if (Len > 0 && Buf.back() == '\r')
        --Len;
      if (MaxLineBytes > 0 && Len > MaxLineBytes)
        return Result::TooLong;
      return Result::NeedMore;
    }
    size_t Begin = Start;
    size_t Len = Nl - Begin;
    if (Len > 0 && Buf[Nl - 1] == '\r')
      --Len;
    if (MaxLineBytes > 0 && Len > MaxLineBytes)
      return Result::TooLong;
    Start = Scanned = Nl + 1;
    if (Len > 0) {
      Line.assign(Buf, Begin, Len);
      return Result::Line;
    }
  }
}

LineReader::Result LineReader::read(int Fd, std::string &Line) {
  char Chunk[65536];
  while (true) {
    Result R = pop(Line);
    if (R != Result::NeedMore)
      return R;
    ssize_t N = recvSome(Fd, Chunk, sizeof(Chunk));
    if (N < 0)
      return Result::Error;
    if (N == 0)
      return Result::Eof;
    feed(Chunk, static_cast<size_t>(N));
  }
}

//===----------------------------------------------------------------------===//
// HostedConnection
//===----------------------------------------------------------------------===//

HostedConnection::~HostedConnection() { ::close(Fd); }

bool HostedConnection::send(const std::string &Line) {
  std::lock_guard<std::mutex> Lock(WriteMu);
  if (Closed)
    return false;
  if (!sendAll(Fd, Line + "\n", /*MaxSeconds=*/30.0)) {
    Closed = true;
    return false;
  }
  return true;
}

bool HostedConnection::alive() {
  std::lock_guard<std::mutex> Lock(WriteMu);
  return !Closed;
}

void HostedConnection::markClosed() {
  std::lock_guard<std::mutex> Lock(WriteMu);
  Closed = true;
}

//===----------------------------------------------------------------------===//
// ConnectionHost
//===----------------------------------------------------------------------===//

Status ConnectionHost::start(const Endpoint &Ep, ConnectionHooks NewHooks) {
  if (Status S = Acceptor.listen(Ep, 64); !S.ok())
    return S;
  Hooks = std::move(NewHooks);
  Started = true;
  AcceptThread = std::thread([this] { acceptLoop(); });
  return Status::success();
}

void ConnectionHost::requestStop() {
  {
    std::lock_guard<std::mutex> Lock(StopMu);
    StopRequested = true;
  }
  StopCv.notify_all();
}

void ConnectionHost::wait(const std::function<bool()> &ExternalStop,
                          const std::function<void()> &Drain) {
  if (!Started)
    return;
  {
    std::unique_lock<std::mutex> Lock(StopMu);
    while (!StopRequested) {
      if (ExternalStop && ExternalStop())
        break;
      StopCv.wait_for(Lock, std::chrono::milliseconds(200));
    }
  }
  teardown(Drain);
}

void ConnectionHost::teardown(const std::function<void()> &Drain) {
  // Concurrent callers (a wait()er and the destructor) all block until
  // teardown completed, not return while another is still mid-teardown.
  std::lock_guard<std::mutex> TeardownLock(TeardownMu);
  if (TornDown)
    return;
  TornDown = true;
  stopAccepting();
  // The daemon's own step, while every connection can still be written.
  if (Drain)
    Drain();
  closeConnections();
}

void ConnectionHost::stopAccepting() {
  Stopping.store(true);
  // Unblock accept(), and only close the listener (unlinking a unix
  // socket file) once the accept thread no longer reads it.
  Acceptor.wake();
  if (AcceptThread.joinable())
    AcceptThread.join();
  Acceptor.close();
}

void ConnectionHost::closeConnections() {
  // Sever the connections to unblock their readers, then join them.
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(SlotMu);
    for (Slot &S : Slots) {
      if (S.Conn)
        ::shutdown(S.Conn->Fd, SHUT_RDWR);
      if (S.Reader.joinable())
        ToJoin.push_back(std::move(S.Reader));
    }
  }
  for (std::thread &T : ToJoin)
    T.join();
}

void ConnectionHost::acceptLoop() {
  while (!Stopping.load()) {
    int Fd = Acceptor.acceptConnection();
    if (Fd < 0)
      return; // Listener closed (teardown) or fatal; either way, stop.
    if (Stopping.load()) {
      ::close(Fd);
      return;
    }
    // Responses may be written by other threads: a peer that stops
    // reading while it is owed data must not pin them (or the writer
    // mutex) forever. Bound every blocking send; a timed-out send fails
    // and latches the connection closed — the peer is treated as gone.
    timeval SendTimeout{};
    SendTimeout.tv_sec = 10;
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                 sizeof(SendTimeout));
    std::shared_ptr<HostedConnection> Conn = Hooks.Open(Fd);
    std::lock_guard<std::mutex> Lock(SlotMu);
    // Reap readers that finished since the last accept: they have
    // already vacated their slot, so the join returns promptly.
    for (size_t Finished : FinishedSlots)
      if (Slots[Finished].Reader.joinable())
        Slots[Finished].Reader.join();
    size_t Index = Slots.size();
    if (!FinishedSlots.empty()) {
      Index = FinishedSlots.back();
      FinishedSlots.pop_back();
    } else {
      Slots.emplace_back();
    }
    Slots[Index].Conn = Conn;
    Slots[Index].Reader =
        std::thread([this, Conn, Index] { serve(Conn, Index); });
    Connections.fetch_add(1);
  }
}

void ConnectionHost::serve(const std::shared_ptr<HostedConnection> &Conn,
                           size_t Index) {
  LineReader Reader(MaxRequestLineBytes);
  std::string Line;
  LineReader::Result R;
  while ((R = Reader.read(Conn->Fd, Line)) == LineReader::Result::Line) {
    Hooks.Line(Conn, Line);
    if (!Conn->alive())
      break;
  }
  if (R == LineReader::Result::TooLong) {
    RejectedLines.fetch_add(1);
    Conn->send(formatErrorResponse("unknown", "", errc::BadRequest,
                                   "request line too large"));
  }
  Conn->markClosed();
  Hooks.Closed(Conn);
  // Vacate the slot under the lock teardown iterates under, then report
  // it finished so the accept loop joins this thread and recycles it.
  std::lock_guard<std::mutex> Lock(SlotMu);
  Slots[Index].Conn = nullptr;
  FinishedSlots.push_back(Index);
}
