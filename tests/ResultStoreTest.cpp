//===- tests/ResultStoreTest.cpp - Durable result store tests ------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The crash/corruption property suite for the append-only result store:
// round-trips, torn tails truncated at every byte offset of the last
// frame, bit flips skipped (and counted) without ever crashing or
// returning wrong bytes, compaction keeping every live record, and the
// single-writer / read-only-reader sharing protocol — for result frames
// and for the alias frames that map raw-text keys to result keys.
//
//===----------------------------------------------------------------------===//

#include "service/ResultStore.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace qlosure;
using namespace qlosure::service;

namespace {

std::string tempStorePath(const char *Tag) {
  static int Seq = 0;
  return "/tmp/qlosure-store-test-" + std::to_string(getpid()) + "-" + Tag +
         "-" + std::to_string(Seq++) + ".qstore";
}

/// RAII temp file cleanup (also removes a stray .compact sibling).
struct ScopedPath {
  std::string Path;
  explicit ScopedPath(std::string P) : Path(std::move(P)) {}
  ~ScopedPath() {
    std::remove(Path.c_str());
    std::remove((Path + ".compact").c_str());
  }
};

CacheKey key(uint64_t N) { return CacheKey{N, N * 31 + 7, N * 131 + 3}; }

/// The raw-text key that aliases key(N) in the alias tests.
CacheKey aliasKey(uint64_t N) {
  return CacheKey{~N, N * 31 + 7, N * 131 + 3};
}

CachedResult sampleResult(uint64_t N) {
  CachedResult R;
  R.RoutedQasm = "OPENQASM 2.0;\n// record " + std::to_string(N) + "\n" +
                 std::string(static_cast<size_t>(N % 97), 'x');
  R.LogicalGates = 10 + N;
  R.RoutedGates = 20 + N;
  R.Swaps = N % 13;
  R.DepthBefore = 4 + N % 7;
  R.DepthAfter = 9 + N % 11;
  R.MappingSeconds = 0.125 * static_cast<double>(N % 5);
  R.TimedOut = (N % 3) == 0;
  R.Verified = (N % 2) == 0;
  R.SuccessProbability = (N % 4) ? 0.5 + 1.0 / static_cast<double>(N + 2)
                                 : -1.0;
  return R;
}

void expectEqualResults(const CachedResult &A, const CachedResult &B) {
  EXPECT_EQ(A.RoutedQasm, B.RoutedQasm);
  EXPECT_EQ(A.LogicalGates, B.LogicalGates);
  EXPECT_EQ(A.RoutedGates, B.RoutedGates);
  EXPECT_EQ(A.Swaps, B.Swaps);
  EXPECT_EQ(A.DepthBefore, B.DepthBefore);
  EXPECT_EQ(A.DepthAfter, B.DepthAfter);
  EXPECT_DOUBLE_EQ(A.MappingSeconds, B.MappingSeconds);
  EXPECT_EQ(A.TimedOut, B.TimedOut);
  EXPECT_EQ(A.Verified, B.Verified);
  EXPECT_DOUBLE_EQ(A.SuccessProbability, B.SuccessProbability);
}

std::unique_ptr<ResultStore> openStore(const std::string &Path,
                                       bool ReadOnly = false,
                                       size_t FsyncBytes = 1 << 20) {
  ResultStoreOptions Options;
  Options.Path = Path;
  Options.ReadOnly = ReadOnly;
  Options.FsyncBytes = FsyncBytes;
  Status Err;
  auto Store = ResultStore::open(Options, Err);
  EXPECT_TRUE(Err.ok()) << Err.message();
  return Store;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

} // namespace

TEST(ResultStoreTest, FrameEncodeDecodeRoundTrip) {
  for (uint64_t N : {0ull, 1ull, 7ull, 42ull, 1000ull}) {
    CacheKey K = key(N);
    CachedResult V = sampleResult(N);
    std::string Frame = ResultStore::encodeFrame(K, V);
    CacheKey OutK;
    CachedResult OutV;
    size_t FrameSize = 0;
    ASSERT_TRUE(
        ResultStore::decodeFrame(Frame.data(), Frame.size(), OutK, OutV,
                                 FrameSize));
    EXPECT_EQ(FrameSize, Frame.size());
    EXPECT_TRUE(OutK == K);
    expectEqualResults(OutV, V);
  }
}

TEST(ResultStoreTest, DecodeRejectsEveryTruncation) {
  std::string Frame = ResultStore::encodeFrame(key(5), sampleResult(5));
  CacheKey K;
  CachedResult V;
  size_t FrameSize = 0;
  for (size_t Len = 0; Len < Frame.size(); ++Len)
    EXPECT_FALSE(ResultStore::decodeFrame(Frame.data(), Len, K, V, FrameSize))
        << "accepted a " << Len << "-byte prefix of a " << Frame.size()
        << "-byte frame";
  EXPECT_TRUE(
      ResultStore::decodeFrame(Frame.data(), Frame.size(), K, V, FrameSize));
}

TEST(ResultStoreTest, PutGetRoundTripAcrossReopen) {
  ScopedPath P(tempStorePath("roundtrip"));
  const uint64_t N = 25;
  {
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr);
    for (uint64_t I = 0; I < N; ++I)
      ASSERT_TRUE(Store->put(key(I), sampleResult(I)));
    StoreStats S = Store->stats();
    EXPECT_EQ(S.Records, N);
    EXPECT_EQ(S.AppendedRecords, N);
    EXPECT_EQ(S.CorruptSkipped, 0u);
    // Duplicate puts are deduplicated, not re-appended.
    EXPECT_TRUE(Store->put(key(3), sampleResult(3)));
    EXPECT_EQ(Store->stats().AppendedRecords, N);
  }
  auto Store = openStore(P.Path);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().Records, N);
  for (uint64_t I = 0; I < N; ++I) {
    auto Got = Store->get(key(I));
    ASSERT_NE(Got, nullptr) << "record " << I << " lost across reopen";
    expectEqualResults(*Got, sampleResult(I));
  }
  EXPECT_EQ(Store->get(CacheKey{999, 999, 999}), nullptr);
  StoreStats S = Store->stats();
  EXPECT_EQ(S.Hits, N);
  EXPECT_EQ(S.Misses, 1u);
}

TEST(ResultStoreTest, TornTailAtEveryByteOffsetRecoversPrefix) {
  ScopedPath P(tempStorePath("torntail"));
  {
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr);
    ASSERT_TRUE(Store->put(key(1), sampleResult(1)));
    ASSERT_TRUE(Store->put(key(2), sampleResult(2)));
  }
  std::string Full = readFileBytes(P.Path);
  std::string LastFrame = ResultStore::encodeFrame(key(3), sampleResult(3));
  // Tear the append of frame 3 at every byte offset: every recovery must
  // keep records 1 and 2 byte-identically and report the torn bytes.
  for (size_t Torn = 0; Torn <= LastFrame.size(); ++Torn) {
    writeFileBytes(P.Path, Full + LastFrame.substr(0, Torn));
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr) << "torn offset " << Torn;
    StoreStats S = Store->stats();
    bool Complete = Torn == LastFrame.size();
    EXPECT_EQ(S.Records, Complete ? 3u : 2u) << "torn offset " << Torn;
    if (!Complete && Torn > 0)
      EXPECT_GT(S.TruncatedBytes + S.CorruptSkipped, 0u)
          << "torn offset " << Torn;
    auto One = Store->get(key(1));
    auto Two = Store->get(key(2));
    ASSERT_NE(One, nullptr) << "torn offset " << Torn;
    ASSERT_NE(Two, nullptr) << "torn offset " << Torn;
    expectEqualResults(*One, sampleResult(1));
    expectEqualResults(*Two, sampleResult(2));
    EXPECT_EQ(Store->get(key(3)) != nullptr, Complete)
        << "torn offset " << Torn;
  }
}

TEST(ResultStoreTest, TornTailIsTruncatedByWriterReopen) {
  ScopedPath P(tempStorePath("truncate"));
  {
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr);
    ASSERT_TRUE(Store->put(key(1), sampleResult(1)));
  }
  std::string Full = readFileBytes(P.Path);
  std::string Tail = ResultStore::encodeFrame(key(2), sampleResult(2));
  writeFileBytes(P.Path, Full + Tail.substr(0, Tail.size() / 2));
  {
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr);
    EXPECT_GT(Store->stats().TruncatedBytes, 0u);
    // The writer physically truncated the torn bytes, and the next
    // append lands where they were.
    EXPECT_EQ(readFileBytes(P.Path).size(), Full.size());
    ASSERT_TRUE(Store->put(key(2), sampleResult(2)));
  }
  auto Store = openStore(P.Path);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().Records, 2u);
  ASSERT_NE(Store->get(key(2)), nullptr);
}

TEST(ResultStoreTest, BitFlipsAreSkippedCountedAndNeverCrash) {
  ScopedPath P(tempStorePath("bitflip"));
  {
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr);
    for (uint64_t I = 1; I <= 3; ++I)
      ASSERT_TRUE(Store->put(key(I), sampleResult(I)));
  }
  std::string Full = readFileBytes(P.Path);
  // Flip one byte at a time across the whole file (header included):
  // recovery must never crash, never return wrong bytes for a surviving
  // record, and count at least one corrupt/torn unit whenever a record
  // went missing. Striding keeps the loop fast while still covering
  // every frame region.
  for (size_t Pos = 0; Pos < Full.size(); Pos += 3) {
    std::string Damaged = Full;
    Damaged[Pos] = static_cast<char>(Damaged[Pos] ^ 0x5a);
    writeFileBytes(P.Path, Damaged);
    ResultStoreOptions Options;
    Options.Path = P.Path;
    Status Err;
    auto Store = ResultStore::open(Options, Err);
    if (!Store) {
      // Only damage inside the 16-byte file header may reject the file.
      EXPECT_LT(Pos, 16u) << Err.message();
      continue;
    }
    StoreStats S = Store->stats();
    uint64_t Found = 0;
    for (uint64_t I = 1; I <= 3; ++I) {
      auto Got = Store->get(key(I));
      if (!Got)
        continue;
      ++Found;
      // A surviving record is byte-correct — a flip may lose records
      // (a flipped length field can orphan everything behind it) but
      // must never corrupt what is returned.
      expectEqualResults(*Got, sampleResult(I));
    }
    if (Found < 3)
      EXPECT_GT(S.CorruptSkipped + S.TruncatedBytes, 0u)
          << "flip at " << Pos << " lost a record without counting it";
  }
}

TEST(ResultStoreTest, CompactionDropsGarbageAndKeepsEveryLiveRecord) {
  ScopedPath P(tempStorePath("compact"));
  auto Store = openStore(P.Path);
  ASSERT_NE(Store, nullptr);
  const uint64_t N = 10;
  for (uint64_t I = 0; I < N; ++I)
    ASSERT_TRUE(Store->put(key(I), sampleResult(I)));
  // Manufacture garbage: append a corrupt frame by hand, then reopen so
  // the scan skips it.
  std::string Frame = ResultStore::encodeFrame(key(99), sampleResult(99));
  Frame[Frame.size() - 1] ^= 0x1;
  std::string Full = readFileBytes(P.Path);
  Store.reset();
  writeFileBytes(P.Path, Full + Frame);
  Store = openStore(P.Path);
  ASSERT_NE(Store, nullptr);
  EXPECT_GT(Store->stats().CorruptSkipped + Store->stats().TruncatedBytes,
            0u);
  uint64_t BytesBefore = Store->stats().Bytes;
  ASSERT_TRUE(Store->compactNow());
  StoreStats S = Store->stats();
  EXPECT_EQ(S.Compactions, 1u);
  EXPECT_EQ(S.Records, N);
  EXPECT_LT(S.Bytes, BytesBefore);
  EXPECT_EQ(S.Bytes, S.LiveBytes + 16 /* file header */);
  for (uint64_t I = 0; I < N; ++I) {
    auto Got = Store->get(key(I));
    ASSERT_NE(Got, nullptr) << "compaction lost record " << I;
    expectEqualResults(*Got, sampleResult(I));
  }
  // The compacted file is a valid store on its own.
  Store.reset();
  Store = openStore(P.Path);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().Records, N);
  EXPECT_EQ(Store->stats().CorruptSkipped, 0u);
}

TEST(ResultStoreTest, ReadOnlyReaderFollowsWriterAppendsAndCompaction) {
  ScopedPath P(tempStorePath("shared"));
  auto Writer = openStore(P.Path, /*ReadOnly=*/false, /*FsyncBytes=*/0);
  ASSERT_NE(Writer, nullptr);
  ASSERT_TRUE(Writer->put(key(1), sampleResult(1)));
  auto Reader = openStore(P.Path, /*ReadOnly=*/true);
  ASSERT_NE(Reader, nullptr);
  EXPECT_TRUE(Reader->readOnly());
  ASSERT_NE(Reader->get(key(1)), nullptr);
  // put() is a no-op in read-only mode.
  EXPECT_FALSE(Reader->put(key(50), sampleResult(50)));
  // A record the writer appends after the reader opened becomes visible
  // through the miss-triggered refresh.
  ASSERT_TRUE(Writer->put(key(2), sampleResult(2)));
  auto Got = Reader->get(key(2));
  ASSERT_NE(Got, nullptr);
  expectEqualResults(*Got, sampleResult(2));
  // Compaction replaces the inode; the reader notices and rescans.
  ASSERT_TRUE(Writer->compactNow());
  ASSERT_TRUE(Writer->put(key(3), sampleResult(3)));
  Got = Reader->get(key(3));
  ASSERT_NE(Got, nullptr);
  expectEqualResults(*Got, sampleResult(3));
  ASSERT_NE(Reader->get(key(1)), nullptr);
}

TEST(ResultStoreTest, ConcurrentWritersAndReadersStayConsistent) {
  ScopedPath P(tempStorePath("threads"));
  auto Store = openStore(P.Path, /*ReadOnly=*/false, /*FsyncBytes=*/1 << 20);
  ASSERT_NE(Store, nullptr);
  const uint64_t PerThread = 64;
  const unsigned WriterThreads = 4;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < WriterThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (uint64_t I = 0; I < PerThread; ++I) {
        uint64_t N = T * PerThread + I;
        EXPECT_TRUE(Store->put(key(N), sampleResult(N)));
        // Read back a key some thread may be writing right now: either
        // absent or byte-correct, never garbage.
        uint64_t Probe = (N * 7) % (WriterThreads * PerThread);
        if (auto Got = Store->get(key(Probe)))
          EXPECT_EQ(Got->RoutedQasm, sampleResult(Probe).RoutedQasm);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  StoreStats S = Store->stats();
  EXPECT_EQ(S.Records, WriterThreads * PerThread);
  for (uint64_t N = 0; N < WriterThreads * PerThread; ++N) {
    auto Got = Store->get(key(N));
    ASSERT_NE(Got, nullptr) << "record " << N;
    expectEqualResults(*Got, sampleResult(N));
  }
}

TEST(ResultStoreTest, OpenRejectsNonStoreFiles) {
  ScopedPath P(tempStorePath("notastore"));
  writeFileBytes(P.Path, "this is definitely not a result store file");
  ResultStoreOptions Options;
  Options.Path = P.Path;
  Status Err;
  EXPECT_EQ(ResultStore::open(Options, Err), nullptr);
  EXPECT_FALSE(Err.ok());
  // Read-only open of a missing file fails instead of creating it.
  ResultStoreOptions Missing;
  Missing.Path = P.Path + ".missing";
  Missing.ReadOnly = true;
  Status MissingErr;
  EXPECT_EQ(ResultStore::open(Missing, MissingErr), nullptr);
  EXPECT_FALSE(MissingErr.ok());
}

//===----------------------------------------------------------------------===//
// Alias frames
//===----------------------------------------------------------------------===//

TEST(ResultStoreTest, AliasFramesRoundTripReopenAndCompaction) {
  ScopedPath P(tempStorePath("alias"));
  const uint64_t N = 6;
  {
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr);
    for (uint64_t I = 0; I < N; ++I) {
      ASSERT_TRUE(Store->put(key(I), sampleResult(I)));
      ASSERT_TRUE(Store->putAlias(aliasKey(I), key(I)));
    }
    // A duplicate alias is skipped, like a duplicate result.
    ASSERT_TRUE(Store->putAlias(aliasKey(0), key(0)));
    StoreStats S = Store->stats();
    EXPECT_EQ(S.Records, N);
    EXPECT_EQ(S.Aliases, N);
    EXPECT_EQ(S.AppendedRecords, 2 * N);
    auto Canonical = Store->getAlias(aliasKey(3));
    ASSERT_TRUE(Canonical.has_value());
    EXPECT_TRUE(*Canonical == key(3));
  }
  // Garbage for compaction: a corrupt alias frame appended by hand.
  std::string Bad = ResultStore::encodeAliasFrame(aliasKey(99), key(99));
  Bad[Bad.size() - 1] ^= 0x1;
  writeFileBytes(P.Path, readFileBytes(P.Path) + Bad);

  auto Store = openStore(P.Path);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().CorruptSkipped, 1u);
  EXPECT_FALSE(Store->getAlias(aliasKey(99)).has_value());
  ASSERT_TRUE(Store->compactNow());
  StoreStats S = Store->stats();
  EXPECT_EQ(S.Records, N);
  EXPECT_EQ(S.Aliases, N);
  EXPECT_EQ(S.Bytes, S.LiveBytes + 16 /* file header */);
  Store.reset();
  Store = openStore(P.Path);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().CorruptSkipped, 0u);
  for (uint64_t I = 0; I < N; ++I) {
    auto Canonical = Store->getAlias(aliasKey(I));
    ASSERT_TRUE(Canonical.has_value()) << "lost alias " << I;
    EXPECT_TRUE(*Canonical == key(I));
    auto Got = Store->get(*Canonical);
    ASSERT_NE(Got, nullptr) << "lost record " << I;
    expectEqualResults(*Got, sampleResult(I));
    // The two key spaces never mix: an alias key is no result key.
    EXPECT_EQ(Store->get(aliasKey(I)), nullptr);
  }
  EXPECT_FALSE(Store->getAlias(key(0)).has_value());
}

TEST(ResultStoreTest, TornAliasTailAtEveryByteOffsetRecoversPrefix) {
  ScopedPath P(tempStorePath("aliastorn"));
  {
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr);
    ASSERT_TRUE(Store->put(key(1), sampleResult(1)));
    ASSERT_TRUE(Store->putAlias(aliasKey(1), key(1)));
  }
  std::string Full = readFileBytes(P.Path);
  std::string Last = ResultStore::encodeAliasFrame(aliasKey(2), key(2));
  for (size_t Torn = 0; Torn <= Last.size(); ++Torn) {
    writeFileBytes(P.Path, Full + Last.substr(0, Torn));
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr) << "torn offset " << Torn;
    bool Complete = Torn == Last.size();
    StoreStats S = Store->stats();
    EXPECT_EQ(S.Aliases, Complete ? 2u : 1u) << "torn offset " << Torn;
    if (!Complete && Torn > 0) {
      EXPECT_GT(S.TruncatedBytes + S.CorruptSkipped, 0u)
          << "torn offset " << Torn;
    }
    // The writer cut the torn bytes off.
    EXPECT_EQ(readFileBytes(P.Path).size(),
              Full.size() + (Complete ? Last.size() : 0))
        << "torn offset " << Torn;
    auto One = Store->getAlias(aliasKey(1));
    ASSERT_TRUE(One.has_value()) << "torn offset " << Torn;
    EXPECT_TRUE(*One == key(1));
    ASSERT_NE(Store->get(key(1)), nullptr) << "torn offset " << Torn;
    EXPECT_EQ(Store->getAlias(aliasKey(2)).has_value(), Complete)
        << "torn offset " << Torn;
  }
}

TEST(ResultStoreTest, AliasBitFlipsAreSkippedCountedAndNeverMisdirect) {
  ScopedPath P(tempStorePath("aliasflip"));
  {
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr);
    for (uint64_t I = 1; I <= 3; ++I) {
      ASSERT_TRUE(Store->put(key(I), sampleResult(I)));
      ASSERT_TRUE(Store->putAlias(aliasKey(I), key(I)));
    }
  }
  std::string Full = readFileBytes(P.Path);
  // Every frame byte, at a stride of two (the header is covered above).
  for (size_t Pos = 16; Pos < Full.size(); Pos += 2) {
    std::string Damaged = Full;
    Damaged[Pos] = static_cast<char>(Damaged[Pos] ^ 0x5a);
    writeFileBytes(P.Path, Damaged);
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr) << "flip at " << Pos;
    StoreStats S = Store->stats();
    uint64_t Found = 0;
    for (uint64_t I = 1; I <= 3; ++I) {
      auto Canonical = Store->getAlias(aliasKey(I));
      if (Canonical) {
        ++Found;
        // A surviving alias names its own result, never another one.
        EXPECT_TRUE(*Canonical == key(I)) << "flip at " << Pos;
      }
      if (auto Got = Store->get(key(I))) {
        ++Found;
        expectEqualResults(*Got, sampleResult(I));
      }
    }
    if (Found < 6) {
      EXPECT_GT(S.CorruptSkipped + S.TruncatedBytes, 0u)
          << "flip at " << Pos << " lost a frame without counting it";
    }
  }
}

TEST(ResultStoreTest, StoreWrittenBeforeAliasFramesOpensAndServesEveryRecord) {
  // tests/data/result_store_v1.qstore was written by the store as it was
  // before alias frames existed: six result records key(0..5) ->
  // sampleResult(0..5), nothing else.
  ScopedPath P(tempStorePath("v1"));
  std::string Fixture =
      readFileBytes(QLOSURE_TEST_DATA_DIR "/result_store_v1.qstore");
  ASSERT_FALSE(Fixture.empty());
  writeFileBytes(P.Path, Fixture);
  for (bool ReadOnly : {true, false}) {
    auto Store = openStore(P.Path, ReadOnly);
    ASSERT_NE(Store, nullptr);
    StoreStats S = Store->stats();
    EXPECT_EQ(S.Records, 6u);
    EXPECT_EQ(S.Aliases, 0u);
    EXPECT_EQ(S.CorruptSkipped + S.TruncatedBytes, 0u);
    for (uint64_t I = 0; I < 6; ++I) {
      auto Got = Store->get(key(I));
      ASSERT_NE(Got, nullptr) << "record " << I;
      expectEqualResults(*Got, sampleResult(I));
    }
  }
  // A current writer extends it with aliases; every record survives.
  {
    auto Store = openStore(P.Path);
    ASSERT_NE(Store, nullptr);
    ASSERT_TRUE(Store->putAlias(aliasKey(2), key(2)));
  }
  auto Store = openStore(P.Path);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->stats().Records, 6u);
  EXPECT_EQ(Store->stats().Aliases, 1u);
  auto Canonical = Store->getAlias(aliasKey(2));
  ASSERT_TRUE(Canonical.has_value());
  EXPECT_TRUE(*Canonical == key(2));
  EXPECT_EQ(readFileBytes(P.Path).substr(0, Fixture.size()), Fixture)
      << "appending must leave the existing bytes untouched";
}
