//===- service/ResultStore.cpp - Durable routed-result store -------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ResultStore.h"

#include "support/Fingerprint.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace qlosure;
using namespace qlosure::service;

namespace {

constexpr uint32_t FileMagic = 0x52545351;  // "QSTR" little-endian.
constexpr uint32_t FileVersion = 1;
constexpr uint32_t FrameMagic = 0x43455251; // "QREC" little-endian.
constexpr uint32_t AliasMagic = 0x534C4151; // "QALS" little-endian.
constexpr size_t FileHeaderSize = 16;
constexpr size_t FrameHeaderSize = 16; // magic u32 + len u32 + checksum u64.
/// CacheKey (3 x u64) + five u64 counters + two double bit patterns +
/// one flags byte.
constexpr size_t PayloadHeadSize = 3 * 8 + 5 * 8 + 2 * 8 + 1;
/// An alias payload: the alias key and the canonical key (6 x u64).
constexpr size_t AliasPayloadSize = 6 * 8;
/// A declared payload larger than this is treated as corruption, not as
/// a record (the daemon caps request lines at 64 MiB; a frame cannot
/// legitimately be bigger than a request).
constexpr uint64_t MaxPayload = 1ull << 30;

template <typename T> void putRaw(std::string &Out, T Value) {
  char Buf[sizeof(T)];
  std::memcpy(Buf, &Value, sizeof(T));
  Out.append(Buf, sizeof(T));
}

template <typename T> T getRaw(const uint8_t *Data) {
  T Value;
  std::memcpy(&Value, Data, sizeof(T));
  return Value;
}

bool isFrameMagic(uint32_t Magic) {
  return Magic == FrameMagic || Magic == AliasMagic;
}

void putKey(std::string &Out, const CacheKey &Key) {
  putRaw<uint64_t>(Out, Key.CircuitFp);
  putRaw<uint64_t>(Out, Key.BackendFp);
  putRaw<uint64_t>(Out, Key.ConfigFp);
}

CacheKey getKey(const uint8_t *Data) {
  return CacheKey{getRaw<uint64_t>(Data), getRaw<uint64_t>(Data + 8),
                  getRaw<uint64_t>(Data + 16)};
}

/// Frame header + \p Payload.
std::string frameBytes(uint32_t Magic, const std::string &Payload) {
  std::string Frame;
  Frame.reserve(FrameHeaderSize + Payload.size());
  putRaw<uint32_t>(Frame, Magic);
  putRaw<uint32_t>(Frame, static_cast<uint32_t>(Payload.size()));
  putRaw<uint64_t>(Frame, hashBytes(Payload.data(), Payload.size()));
  Frame.append(Payload);
  return Frame;
}

uint64_t doubleBits(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}

double bitsDouble(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

/// Decodes a frame payload (the bytes after the frame header).
bool decodePayload(const uint8_t *Data, size_t Size, CacheKey &Key,
                   CachedResult &Value) {
  if (Size < PayloadHeadSize)
    return false;
  const uint8_t *P = Data;
  Key = getKey(P); P += 24;
  Value.LogicalGates = getRaw<uint64_t>(P); P += 8;
  Value.RoutedGates = getRaw<uint64_t>(P); P += 8;
  Value.Swaps = getRaw<uint64_t>(P); P += 8;
  Value.DepthBefore = getRaw<uint64_t>(P); P += 8;
  Value.DepthAfter = getRaw<uint64_t>(P); P += 8;
  Value.MappingSeconds = bitsDouble(getRaw<uint64_t>(P)); P += 8;
  Value.SuccessProbability = bitsDouble(getRaw<uint64_t>(P)); P += 8;
  uint8_t Flags = *P++;
  Value.TimedOut = (Flags & 1) != 0;
  Value.Verified = (Flags & 2) != 0;
  Value.RoutedQasm.assign(reinterpret_cast<const char *>(P),
                          Size - PayloadHeadSize);
  return true;
}

bool fullPread(int Fd, void *Buf, size_t Size, uint64_t Offset) {
  uint8_t *P = static_cast<uint8_t *>(Buf);
  while (Size) {
    ssize_t N = ::pread(Fd, P, Size, static_cast<off_t>(Offset));
    if (N <= 0)
      return false;
    P += N;
    Offset += static_cast<uint64_t>(N);
    Size -= static_cast<size_t>(N);
  }
  return true;
}

std::string fileHeaderBytes() {
  std::string Header;
  putRaw<uint32_t>(Header, FileMagic);
  putRaw<uint32_t>(Header, FileVersion);
  putRaw<uint64_t>(Header, 0);
  return Header;
}

/// fsyncs the directory containing \p Path so a rename/create survives a
/// crash. Best-effort: a store on a filesystem without dirsync still
/// works, it just re-routes a little after power loss.
void syncParentDir(const std::string &Path) {
  std::string Dir = ".";
  size_t Slash = Path.find_last_of('/');
  if (Slash != std::string::npos)
    Dir = Slash == 0 ? "/" : Path.substr(0, Slash);
  int DirFd = ::open(Dir.c_str(), O_RDONLY);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Frame codec
//===----------------------------------------------------------------------===//

std::string ResultStore::encodeFrame(const CacheKey &Key,
                                     const CachedResult &Value) {
  std::string Payload;
  Payload.reserve(PayloadHeadSize + Value.RoutedQasm.size());
  putKey(Payload, Key);
  putRaw<uint64_t>(Payload, Value.LogicalGates);
  putRaw<uint64_t>(Payload, Value.RoutedGates);
  putRaw<uint64_t>(Payload, Value.Swaps);
  putRaw<uint64_t>(Payload, Value.DepthBefore);
  putRaw<uint64_t>(Payload, Value.DepthAfter);
  putRaw<uint64_t>(Payload, doubleBits(Value.MappingSeconds));
  putRaw<uint64_t>(Payload, doubleBits(Value.SuccessProbability));
  Payload.push_back(static_cast<char>((Value.TimedOut ? 1 : 0) |
                                      (Value.Verified ? 2 : 0)));
  Payload.append(Value.RoutedQasm);
  return frameBytes(FrameMagic, Payload);
}

std::string ResultStore::encodeAliasFrame(const CacheKey &Alias,
                                          const CacheKey &Canonical) {
  std::string Payload;
  Payload.reserve(AliasPayloadSize);
  putKey(Payload, Alias);
  putKey(Payload, Canonical);
  return frameBytes(AliasMagic, Payload);
}

bool ResultStore::decodeFrame(const void *Data, size_t Size, CacheKey &Key,
                              CachedResult &Value, size_t &FrameSize) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  if (Size < FrameHeaderSize)
    return false;
  if (getRaw<uint32_t>(P) != FrameMagic)
    return false;
  uint64_t PayloadLen = getRaw<uint32_t>(P + 4);
  uint64_t Checksum = getRaw<uint64_t>(P + 8);
  if (PayloadLen > MaxPayload || FrameHeaderSize + PayloadLen > Size)
    return false;
  const uint8_t *Payload = P + FrameHeaderSize;
  if (hashBytes(Payload, PayloadLen) != Checksum)
    return false;
  if (!decodePayload(Payload, PayloadLen, Key, Value))
    return false;
  FrameSize = FrameHeaderSize + PayloadLen;
  return true;
}

//===----------------------------------------------------------------------===//
// Open + recovery
//===----------------------------------------------------------------------===//

std::unique_ptr<ResultStore> ResultStore::open(const ResultStoreOptions &Opts,
                                               Status &Err) {
  std::unique_ptr<ResultStore> Store(new ResultStore());
  Store->Options = Opts;
  int Flags = Opts.ReadOnly ? O_RDONLY : (O_RDWR | O_CREAT);
  Store->Fd = ::open(Opts.Path.c_str(), Flags, 0644);
  if (Store->Fd < 0) {
    Err = Status::error(formatString("cannot open result store %s: %s",
                                     Opts.Path.c_str(),
                                     std::strerror(errno)));
    return nullptr;
  }
  struct stat St;
  if (::fstat(Store->Fd, &St) != 0) {
    Err = Status::error(formatString("cannot stat result store %s: %s",
                                     Opts.Path.c_str(),
                                     std::strerror(errno)));
    return nullptr;
  }
  Store->FileSize = static_cast<uint64_t>(St.st_size);

  if (Store->FileSize < FileHeaderSize) {
    // Empty or torn mid-creation. A writer (re)initializes the header; a
    // reader cannot trust the file yet.
    if (Opts.ReadOnly) {
      Err = Status::error(formatString(
          "result store %s has no header (yet)", Opts.Path.c_str()));
      return nullptr;
    }
    std::string Header = fileHeaderBytes();
    if (::ftruncate(Store->Fd, 0) != 0 ||
        ::pwrite(Store->Fd, Header.data(), Header.size(), 0) !=
            static_cast<ssize_t>(Header.size()) ||
        ::fsync(Store->Fd) != 0) {
      Err = Status::error(formatString(
          "cannot initialize result store %s: %s", Opts.Path.c_str(),
          std::strerror(errno)));
      return nullptr;
    }
    syncParentDir(Opts.Path);
    Store->FileSize = FileHeaderSize;
    Store->ScanEnd = FileHeaderSize;
    Err = Status::success();
    return Store;
  }

  uint8_t Header[FileHeaderSize];
  if (!fullPread(Store->Fd, Header, FileHeaderSize, 0) ||
      getRaw<uint32_t>(Header) != FileMagic ||
      getRaw<uint32_t>(Header + 4) != FileVersion) {
    // Refuse to serve — or clobber — a file that is not ours.
    Err = Status::error(formatString(
        "%s is not a version-%u result store", Opts.Path.c_str(),
        FileVersion));
    return nullptr;
  }

  std::lock_guard<std::mutex> Lock(Store->Mu);
  Store->scanLocked(FileHeaderSize);
  if (!Opts.ReadOnly)
    Store->truncateTailLocked();
  Err = Status::success();
  return Store;
}

void ResultStore::scanLocked(uint64_t From) {
  uint64_t Offset = From;
  std::vector<uint8_t> Buf;
  while (Offset < FileSize) {
    uint64_t Remaining = FileSize - Offset;
    if (Remaining < FrameHeaderSize) {
      // Shorter than any frame: a torn append's prefix.
      Counters.TruncatedBytes += Remaining;
      break;
    }
    uint8_t Head[FrameHeaderSize];
    if (!fullPread(Fd, Head, FrameHeaderSize, Offset))
      break;
    const uint32_t Magic = getRaw<uint32_t>(Head);
    if (!isFrameMagic(Magic)) {
      // Not a frame boundary: an overwritten stretch. Resynchronize by
      // scanning forward for the next frame magic; everything skipped is
      // corruption, and a magic-less tail is indistinguishable from a
      // torn append (both are dropped).
      uint64_t Found = 0;
      bool HaveNext = false;
      std::vector<uint8_t> Window(64 * 1024 + 3);
      uint64_t Pos = Offset + 1;
      while (Pos + 4 <= FileSize && !HaveNext) {
        size_t N = static_cast<size_t>(
            std::min<uint64_t>(Window.size(), FileSize - Pos));
        if (!fullPread(Fd, Window.data(), N, Pos))
          break;
        for (size_t I = 0; I + 4 <= N; ++I) {
          if (isFrameMagic(getRaw<uint32_t>(Window.data() + I))) {
            Found = Pos + I;
            HaveNext = true;
            break;
          }
        }
        // Overlap 3 bytes so a magic spanning two windows is seen.
        Pos += N >= 3 ? N - 3 : N;
      }
      if (!HaveNext) {
        Counters.TruncatedBytes += Remaining;
        break;
      }
      ++Counters.CorruptSkipped;
      Offset = Found;
      ScanEnd = Offset;
      continue;
    }
    uint64_t PayloadLen = getRaw<uint32_t>(Head + 4);
    uint64_t Checksum = getRaw<uint64_t>(Head + 8);
    if (PayloadLen > MaxPayload) {
      // A length that cannot be real: corrupt header. Resync from the
      // next byte on the following iteration.
      ++Counters.CorruptSkipped;
      ++Offset;
      ScanEnd = Offset;
      continue;
    }
    if (Offset + FrameHeaderSize + PayloadLen > FileSize) {
      // The frame extends past end of file: a torn append.
      Counters.TruncatedBytes += Remaining;
      break;
    }
    Buf.resize(static_cast<size_t>(PayloadLen));
    if (!fullPread(Fd, Buf.data(), Buf.size(), Offset + FrameHeaderSize))
      break;
    uint64_t FrameSize = FrameHeaderSize + PayloadLen;
    CacheKey Key;
    CachedResult Value;
    bool Intact = hashBytes(Buf.data(), Buf.size()) == Checksum &&
                  (Magic == AliasMagic
                       ? Buf.size() == AliasPayloadSize
                       : decodePayload(Buf.data(), Buf.size(), Key, Value));
    if (!Intact) {
      // Bit rot inside an intact frame envelope: skip the whole frame.
      ++Counters.CorruptSkipped;
      Offset += FrameSize;
      ScanEnd = Offset;
      continue;
    }
    // A duplicate supersedes its predecessor.
    if (Magic == AliasMagic) {
      Key = getKey(Buf.data());
      auto It = Aliases.find(Key);
      if (It != Aliases.end())
        LiveBytes -= It->second.Where.Size;
      Aliases[Key] = AliasEntry{getKey(Buf.data() + 24),
                                IndexEntry{Offset, FrameSize}};
    } else {
      auto It = Index.find(Key);
      if (It != Index.end())
        LiveBytes -= It->second.Size;
      Index[Key] = IndexEntry{Offset, FrameSize};
    }
    LiveBytes += FrameSize;
    Offset += FrameSize;
    ScanEnd = Offset;
  }
  if (ScanEnd < From)
    ScanEnd = From;
}

void ResultStore::truncateTailLocked() {
  if (ScanEnd >= FileSize)
    return;
  if (::ftruncate(Fd, static_cast<off_t>(ScanEnd)) == 0)
    FileSize = ScanEnd;
  else
    ++Counters.WriteErrors;
}

//===----------------------------------------------------------------------===//
// Lookup / append
//===----------------------------------------------------------------------===//

std::shared_ptr<const CachedResult>
ResultStore::readFrameLocked(const CacheKey &Key, const IndexEntry &Entry) {
  std::vector<uint8_t> Buf(static_cast<size_t>(Entry.Size));
  CacheKey DecodedKey;
  auto Value = std::make_shared<CachedResult>();
  size_t FrameSize = 0;
  if (!fullPread(Fd, Buf.data(), Buf.size(), Entry.Offset) ||
      !decodeFrame(Buf.data(), Buf.size(), DecodedKey, *Value, FrameSize) ||
      !(DecodedKey == Key)) {
    // The record rotted (or the file changed) since it was indexed: drop
    // it — the caller re-routes, which is always a correct answer.
    ++Counters.CorruptSkipped;
    LiveBytes -= Entry.Size;
    Index.erase(Key);
    return nullptr;
  }
  return Value;
}

std::shared_ptr<const CachedResult> ResultStore::get(const CacheKey &Key) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      if (auto Value = readFrameLocked(Key, It->second)) {
        ++Counters.Hits;
        return Value;
      }
      ++Counters.Misses;
      return nullptr;
    }
    if (!Options.ReadOnly) {
      ++Counters.Misses;
      return nullptr;
    }
  }
  // Read-only miss: the writing daemon may have appended it since the
  // last scan. Refresh once, then settle the answer.
  refresh();
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    if (auto Value = readFrameLocked(Key, It->second)) {
      ++Counters.Hits;
      return Value;
    }
  }
  ++Counters.Misses;
  return nullptr;
}

std::optional<CacheKey> ResultStore::getAlias(const CacheKey &Alias) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Aliases.find(Alias);
    if (It != Aliases.end())
      return It->second.Canonical;
    if (!Options.ReadOnly)
      return std::nullopt;
  }
  // Read-only miss: refresh once, as get() does.
  refresh();
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Aliases.find(Alias);
  if (It != Aliases.end())
    return It->second.Canonical;
  return std::nullopt;
}

bool ResultStore::put(const CacheKey &Key, const CachedResult &Value) {
  if (Options.ReadOnly)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  if (Index.count(Key))
    return true; // Deterministic results: the incumbent is identical.
  std::optional<IndexEntry> Where = appendLocked(encodeFrame(Key, Value));
  if (!Where)
    return false;
  Index[Key] = *Where;
  compactIfWastefulLocked();
  return true;
}

bool ResultStore::putAlias(const CacheKey &Alias, const CacheKey &Canonical) {
  if (Options.ReadOnly)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  if (Aliases.count(Alias))
    return true; // An alias names one circuit: the incumbent is identical.
  std::optional<IndexEntry> Where =
      appendLocked(encodeAliasFrame(Alias, Canonical));
  if (!Where)
    return false;
  Aliases[Alias] = AliasEntry{Canonical, *Where};
  compactIfWastefulLocked();
  return true;
}

std::optional<ResultStore::IndexEntry>
ResultStore::appendLocked(const std::string &Frame) {
  ssize_t N = ::pwrite(Fd, Frame.data(), Frame.size(),
                       static_cast<off_t>(FileSize));
  if (N != static_cast<ssize_t>(Frame.size())) {
    // A partial append is a torn tail we created ourselves: cut it off
    // so the file stays parseable, and keep serving.
    ++Counters.WriteErrors;
    if (N > 0)
      ::ftruncate(Fd, static_cast<off_t>(FileSize));
    return std::nullopt;
  }
  IndexEntry Where{FileSize, Frame.size()};
  FileSize += Frame.size();
  ScanEnd = FileSize;
  LiveBytes += Frame.size();
  ++Counters.AppendedRecords;
  PendingSyncBytes += Frame.size();
  if (PendingSyncBytes >= std::max<size_t>(Options.FsyncBytes, 1)) {
    ::fsync(Fd);
    PendingSyncBytes = 0;
  }
  return Where;
}

void ResultStore::compactIfWastefulLocked() {
  // Compact when enough of the file is duplicate/corrupt garbage.
  uint64_t DataBytes = FileSize - FileHeaderSize;
  uint64_t Garbage = DataBytes > LiveBytes ? DataBytes - LiveBytes : 0;
  if (FileSize >= Options.CompactMinBytes && DataBytes &&
      static_cast<double>(Garbage) >
          Options.CompactGarbageRatio * static_cast<double>(DataBytes))
    compactLocked();
}

void ResultStore::flush() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd >= 0 && !Options.ReadOnly && PendingSyncBytes) {
    ::fsync(Fd);
    PendingSyncBytes = 0;
  }
}

//===----------------------------------------------------------------------===//
// Refresh (read-only sharing) + compaction
//===----------------------------------------------------------------------===//

bool ResultStore::refresh() {
  if (!Options.ReadOnly)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  struct stat OnDisk, Ours;
  if (::stat(Options.Path.c_str(), &OnDisk) != 0 ||
      ::fstat(Fd, &Ours) != 0)
    return false;
  if (OnDisk.st_ino != Ours.st_ino) {
    // The writer compacted: the path now names a fresh file. Reopen and
    // rescan from scratch (cumulative counters are kept).
    int NewFd = ::open(Options.Path.c_str(), O_RDONLY);
    if (NewFd < 0)
      return false;
    uint8_t Header[FileHeaderSize];
    struct stat St;
    if (::fstat(NewFd, &St) != 0 ||
        static_cast<uint64_t>(St.st_size) < FileHeaderSize ||
        !fullPread(NewFd, Header, FileHeaderSize, 0) ||
        getRaw<uint32_t>(Header) != FileMagic ||
        getRaw<uint32_t>(Header + 4) != FileVersion) {
      ::close(NewFd);
      return false;
    }
    ::close(Fd);
    Fd = NewFd;
    FileSize = static_cast<uint64_t>(St.st_size);
    ScanEnd = FileHeaderSize;
    LiveBytes = 0;
    Index.clear();
    Aliases.clear();
    scanLocked(FileHeaderSize);
    return true; // The whole view changed, not just new records.
  }
  uint64_t OnDiskSize = static_cast<uint64_t>(OnDisk.st_size);
  if (OnDiskSize <= FileSize && ScanEnd >= FileSize)
    return false;
  FileSize = OnDiskSize;
  size_t Before = Index.size() + Aliases.size();
  scanLocked(ScanEnd);
  return Index.size() + Aliases.size() != Before;
}

bool ResultStore::compactNow() {
  if (Options.ReadOnly)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  return compactLocked();
}

bool ResultStore::compactLocked() {
  std::string TmpPath = Options.Path + ".compact";
  int TmpFd = ::open(TmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (TmpFd < 0) {
    ++Counters.WriteErrors;
    return false;
  }
  // Live frames are copied in their original append order so the
  // compacted file replays the same history, minus the garbage. Each
  // entry points at the IndexEntry it updates once the copy lands.
  std::vector<IndexEntry *> Live;
  Live.reserve(Index.size() + Aliases.size());
  for (auto &Entry : Index)
    Live.push_back(&Entry.second);
  for (auto &Entry : Aliases)
    Live.push_back(&Entry.second.Where);
  std::sort(Live.begin(), Live.end(),
            [](const IndexEntry *A, const IndexEntry *B) {
              return A->Offset < B->Offset;
            });

  std::string Header = fileHeaderBytes();
  bool Ok = ::pwrite(TmpFd, Header.data(), Header.size(), 0) ==
            static_cast<ssize_t>(Header.size());
  uint64_t Out = FileHeaderSize;
  std::vector<uint8_t> Buf;
  std::vector<uint64_t> NewOffsets; // Parallels Live.
  NewOffsets.reserve(Live.size());
  for (const IndexEntry *Entry : Live) {
    if (!Ok)
      break;
    Buf.resize(static_cast<size_t>(Entry->Size));
    if (!fullPread(Fd, Buf.data(), Buf.size(), Entry->Offset) ||
        ::pwrite(TmpFd, Buf.data(), Buf.size(), static_cast<off_t>(Out)) !=
            static_cast<ssize_t>(Buf.size())) {
      Ok = false;
      break;
    }
    NewOffsets.push_back(Out);
    Out += Entry->Size;
  }
  if (!Ok || ::fsync(TmpFd) != 0) {
    ::close(TmpFd);
    ::unlink(TmpPath.c_str());
    ++Counters.WriteErrors;
    return false;
  }
  ::close(TmpFd);
  if (::rename(TmpPath.c_str(), Options.Path.c_str()) != 0) {
    ::unlink(TmpPath.c_str());
    ++Counters.WriteErrors;
    return false;
  }
  syncParentDir(Options.Path);
  int NewFd = ::open(Options.Path.c_str(), O_RDWR);
  if (NewFd < 0) {
    // The rename landed but we cannot reopen: keep serving from the old
    // (now anonymous) inode; a restart recovers the compacted file.
    ++Counters.WriteErrors;
    return false;
  }
  ::close(Fd);
  Fd = NewFd;
  for (size_t I = 0; I < Live.size(); ++I)
    Live[I]->Offset = NewOffsets[I];
  FileSize = Out;
  ScanEnd = Out;
  LiveBytes = Out - FileHeaderSize;
  PendingSyncBytes = 0;
  ++Counters.Compactions;
  return true;
}

//===----------------------------------------------------------------------===//
// Stats + teardown
//===----------------------------------------------------------------------===//

StoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  StoreStats S = Counters;
  S.Records = Index.size();
  S.Aliases = Aliases.size();
  S.Bytes = FileSize;
  S.LiveBytes = LiveBytes;
  return S;
}

ResultStore::~ResultStore() {
  flush();
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}
