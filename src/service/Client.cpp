//===- service/Client.cpp - Blocking qlosured client ---------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include "service/Transport.h"
#include "support/Fingerprint.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

Status Client::connect(const std::string &Address, double RetrySeconds) {
  close();
  Endpoint Ep;
  if (Status S = parseEndpoint(Address, Ep); !S.ok())
    return S;

  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(RetrySeconds);
  BackoffPolicy Backoff;
  // Jitter-scatter concurrent clients racing for the same fresh daemon.
  uint64_t JitterSeed = hashCombine(fingerprintString(Address),
                                    static_cast<uint64_t>(::getpid()));
  unsigned Attempt = 0;
  while (true) {
    Status S = connectEndpoint(Ep, Fd);
    if (S.ok())
      return S;
    if (RetrySeconds <= 0 || std::chrono::steady_clock::now() >= Deadline)
      return S;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        Backoff.delayMs(Attempt++, JitterSeed)));
  }
}

Status Client::setIoTimeout(double Seconds) {
  if (Fd < 0)
    return Status::error("not connected");
  timeval Tv{};
  if (Seconds > 0) {
    Tv.tv_sec = static_cast<time_t>(Seconds);
    Tv.tv_usec = static_cast<suseconds_t>((Seconds - Tv.tv_sec) * 1e6);
  }
  if (::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv)) != 0 ||
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv)) != 0)
    return Status::error(
        formatString("setsockopt(SO_RCVTIMEO): %s", std::strerror(errno)));
  return Status::success();
}

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Reader = LineReader();
  Stash.clear();
}

Status Client::sendLine(const std::string &Line) {
  if (Fd < 0)
    return Status::error("not connected");
  if (!sendAll(Fd, Line + "\n"))
    return Status::error(formatString("send(): %s", std::strerror(errno)));
  return Status::success();
}

Status Client::recvLine(std::string &Line) {
  if (Fd < 0)
    return Status::error("not connected");
  switch (Reader.read(Fd, Line)) {
  case LineReader::Result::Line:
    return Status::success();
  case LineReader::Result::Eof:
    return Status::error("connection closed by server");
  default:
    return Status::error(formatString("recv(): %s", std::strerror(errno)));
  }
}

namespace {

/// Frame triage: fills \p Id / \p Op from the frame and reports whether
/// it is an event (carries "event") rather than a final response.
bool classifyFrame(const std::string &Line, std::string &Id,
                   std::string &Op, bool &IsEvent) {
  json::ParseResult Parsed = json::parse(Line);
  if (!Parsed.Ok || !Parsed.V.isObject())
    return false;
  IsEvent = Parsed.V.get("event") != nullptr;
  if (const json::Value *IdField = Parsed.V.get("id");
      IdField && IdField->isString())
    Id = IdField->asString();
  if (const json::Value *OpField = Parsed.V.get("op");
      OpField && OpField->isString())
    Op = OpField->asString();
  return true;
}

} // namespace

Status Client::recvResponseFor(const std::string &Id, std::string &Response,
                               const EventFn &OnEvent,
                               const std::string &OpFilter) {
  auto Matches = [&](const std::string &FrameId, const std::string &FrameOp) {
    if (!Id.empty() && FrameId != Id)
      return false;
    return OpFilter.empty() || FrameOp == OpFilter;
  };
  for (auto It = Stash.begin(); It != Stash.end(); ++It) {
    if (Matches(It->Id, It->Op)) {
      Response = std::move(It->Line);
      Stash.erase(It);
      return Status::success();
    }
  }
  while (true) {
    std::string Line;
    if (Status S = recvLine(Line); !S.ok())
      return S;
    std::string FrameId, FrameOp;
    bool IsEvent = false;
    if (!classifyFrame(Line, FrameId, FrameOp, IsEvent))
      return Status::error(
          formatString("malformed frame from server: %s", Line.c_str()));
    if (IsEvent) {
      if (OnEvent)
        OnEvent(Line);
      continue;
    }
    if (Matches(FrameId, FrameOp)) {
      Response = std::move(Line);
      return Status::success();
    }
    Stash.push_back(StashedFinal{std::move(FrameId), std::move(FrameOp),
                                 std::move(Line)});
  }
}

Status Client::request(const std::string &Line, std::string &Response) {
  if (Status S = sendLine(Line); !S.ok())
    return S;
  return recvResponseFor("", Response);
}
