//===- perfbench/src/Daemon.cpp - A real qlosured child process -----------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"

#include "Common.h"
#include "service/Client.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace qlosure;
using namespace perfbench;

namespace {

/// Polls for the child's exit for up to \p Seconds. Returns true once it
/// has been reaped, storing its wait status.
bool reapWithin(pid_t Pid, double Seconds, int &WaitStatus) {
  const auto Deadline = Clock::now() + std::chrono::duration<double>(Seconds);
  while (true) {
    pid_t R = ::waitpid(Pid, &WaitStatus, WNOHANG);
    if (R == Pid || (R < 0 && errno == ECHILD))
      return true;
    if (Clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

} // namespace

std::unique_ptr<Daemon> Daemon::launch(const std::string &Exe,
                                       const std::string &Name,
                                       unsigned Workers, Status &Err) {
  std::string Socket = Name + ".sock";
  std::string Store = Name + ".store";
  std::string Log = Name + ".log";
  ::unlink(Store.c_str());
  std::string WorkersArg = std::to_string(Workers);
  std::string Listen = "unix:" + Socket;
  std::vector<const char *> Argv = {Exe.c_str(),        "--listen",
                                    Listen.c_str(),     "--workers",
                                    WorkersArg.c_str(), "--store",
                                    Store.c_str(),      nullptr};

  std::unique_ptr<Daemon> D(new Daemon());
  D->Address = Listen;
  const auto Launch = Clock::now();
  pid_t Pid = ::fork();
  if (Pid < 0) {
    Err = Status::error(std::string("fork(): ") + std::strerror(errno));
    return nullptr;
  }
  if (Pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int LogFd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (LogFd >= 0) {
      ::dup2(LogFd, STDOUT_FILENO);
      ::dup2(LogFd, STDERR_FILENO);
      ::close(LogFd);
    }
    ::execv(Exe.c_str(), const_cast<char *const *>(Argv.data()));
    ::_exit(127);
  }
  D->Pid = Pid;

  // Tight poll (not the client's backoff) so setup time is not quantized
  // by retry delays.
  const auto Deadline = Launch + std::chrono::seconds(30);
  service::Client C;
  std::string Response;
  while (true) {
    int WaitStatus = 0;
    if (::waitpid(Pid, &WaitStatus, WNOHANG) == Pid) {
      D->Pid = -1;
      Err = Status::error("qlosured exited during startup (see " + Log + ")");
      return nullptr;
    }
    if (C.connect(Listen).ok() &&
        C.request("{\"op\":\"ping\",\"id\":\"setup\"}", Response).ok() &&
        Response.find("\"ok\":true") != std::string::npos)
      break;
    if (Clock::now() >= Deadline) {
      Err = Status::error("qlosured did not answer a ping within 30 s");
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  D->SetupSeconds = secondsBetween(Launch, Clock::now());
  return D;
}

Daemon::~Daemon() {
  if (Pid > 0)
    stop();
}

json::Value Daemon::stats() const {
  service::Client C;
  std::string Response;
  if (!C.connect(Address).ok() ||
      !C.request("{\"op\":\"stats\",\"id\":\"stats\"}", Response).ok())
    return json::Value();
  json::ParseResult P = json::parse(Response);
  return P.Ok ? P.V : json::Value();
}

double Daemon::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool Daemon::stop() {
  if (Pid <= 0)
    return false;
  int WaitStatus = 0;
  ::kill(Pid, SIGTERM);
  bool Clean = reapWithin(Pid, 20.0, WaitStatus);
  if (!Clean) {
    ::kill(Pid, SIGKILL);
    reapWithin(Pid, 5.0, WaitStatus);
  }
  Pid = -1;
  return Clean && WIFEXITED(WaitStatus) && WEXITSTATUS(WaitStatus) == 0;
}
