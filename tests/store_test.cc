// Unit coverage of the tiered state store (docs/INTERNALS.md §13): the
// frame, the base+delta checkpoint chain (on disk and in memory), the spill
// segment tier, and the checkpoint service thread. The torn-write suites
// truncate and bit-flip files at swept or fuzzed offsets and assert
// recovery always degrades to a shorter consistent chain with a clean
// Status — never a crash, never a silently corrupt payload.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "store/checkpoint_service.h"
#include "store/format.h"
#include "store/spill.h"
#include "store/state_store.h"
#include "text/record.h"

namespace dssj::store {
namespace {

/// Unique per-test scratch directory, removed on destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string tmpl = ::testing::TempDir() + "dssj_store_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : tmpl;
  }
  ~ScopedTempDir() { RemoveTree(path_); }

  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok()) << path;
}

/// Every file in `dir`, sorted (none when the directory is missing).
std::vector<std::string> List(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// `n` reproducible pseudo-random bytes: a payload the size of a real
/// checkpoint or spill record, with no runs a checksum could lean on.
std::string PseudoRandomBytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng());
  return out;
}

// --- Frame format -------------------------------------------------------

TEST(SegmentFrameFormat, RejectsEveryFlipAndTruncationOf4KiBPayload) {
  const std::string payload = PseudoRandomBytes(4099, 2);
  std::string frame;
  AppendFrame(kSegmentMagic, payload, &frame);
  std::string_view out;
  size_t end = 0;
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(ReadFrame(kSegmentMagic, frame.data(), len, 0, &out, &end).ok())
        << "truncation to " << len << " bytes accepted";
  }
  for (size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      frame[i] = static_cast<char>(frame[i] ^ (1 << bit));
      EXPECT_FALSE(ReadFrame(kSegmentMagic, frame.data(), frame.size(), 0, &out, &end).ok())
          << "flip of byte " << i << " bit " << bit << " accepted";
      frame[i] = static_cast<char>(frame[i] ^ (1 << bit));
    }
  }
  ASSERT_TRUE(ReadFrame(kSegmentMagic, frame.data(), frame.size(), 0, &out, &end).ok());
  EXPECT_EQ(out, payload);
}

TEST(SegmentFrameFormat, SequentialScanAndTornTail) {
  std::string file;
  std::vector<size_t> offsets;
  for (int i = 0; i < 5; ++i) {
    offsets.push_back(file.size());
    AppendFrame(kSegmentMagic,
                std::string(static_cast<size_t>(10 + i * 7), static_cast<char>('a' + i)),
                &file);
  }
  size_t off = 0;
  for (int i = 0; i < 5; ++i) {
    std::string_view payload;
    size_t end = 0;
    ASSERT_TRUE(ReadFrame(kSegmentMagic, file.data(), file.size(), off, &payload, &end).ok());
    EXPECT_EQ(payload, std::string(static_cast<size_t>(10 + i * 7), static_cast<char>('a' + i)));
    off = end;
  }
  EXPECT_EQ(off, file.size());
  // A torn tail: every truncation point inside the last frame must reject
  // that frame but leave the earlier ones readable.
  for (size_t len = offsets.back(); len < file.size(); ++len) {
    std::string_view payload;
    size_t end = 0;
    EXPECT_FALSE(
        ReadFrame(kSegmentMagic, file.data(), len, offsets.back(), &payload, &end).ok());
    ASSERT_TRUE(ReadFrame(kSegmentMagic, file.data(), len, offsets[3], &payload, &end).ok());
  }
}

// The magic is the frame's type: a frame of one kind never reads as another.
TEST(FrameFormat, MagicSeparatesFrameKinds) {
  std::string frame;
  AppendFrame(kChainMagic, "payload", &frame);
  std::string_view out;
  EXPECT_FALSE(ReadFrame(kSegmentMagic, frame.data(), frame.size(), 0, &out, nullptr).ok());
  ASSERT_TRUE(ReadFrame(kChainMagic, frame.data(), frame.size(), 0, &out, nullptr).ok());
  EXPECT_EQ(out, "payload");
}

TEST(StoreFileNames, ParseRoundTrip) {
  StoreFileKind kind = StoreFileKind::kSegment;
  uint64_t id = 0;
  ASSERT_TRUE(ParseStoreFileName(ChainFileName(123), &kind, &id));
  EXPECT_EQ(kind, StoreFileKind::kChain);
  EXPECT_EQ(id, 123u);
  ASSERT_TRUE(ParseStoreFileName(SegmentFileName(9), &kind, &id));
  EXPECT_EQ(kind, StoreFileKind::kSegment);
  EXPECT_EQ(id, 9u);
  EXPECT_FALSE(ParseStoreFileName("README.md", &kind, &id));
  EXPECT_FALSE(ParseStoreFileName("chain_.ckpt", &kind, &id));
  EXPECT_FALSE(ParseStoreFileName(ChainFileName(4) + ".tmp", &kind, &id));
}

// --- StateStore chain composition ---------------------------------------

/// Chain composition on both kinds of chain: a directory (true) and an
/// in-memory chain (false, built with an empty directory). Cases that
/// damage or list files are directory-only and follow below.
class StateStoreChainTest : public ::testing::TestWithParam<bool> {
 protected:
  bool on_disk() const { return GetParam(); }
  std::string StoreDir() const { return on_disk() ? tmp_.Sub("task") : std::string(); }

 private:
  ScopedTempDir tmp_;
};

INSTANTIATE_TEST_SUITE_P(DiskAndMemory, StateStoreChainTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Disk" : "Memory");
                         });

TEST_P(StateStoreChainTest, ComposesNewestBasePlusContiguousDeltas) {
  StateStore store(StoreDir());
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.WriteDelta(2, "D2").ok());
  ASSERT_TRUE(store.WriteBase(3, "B3").ok());
  ASSERT_TRUE(store.WriteDelta(4, "D4").ok());
  ASSERT_TRUE(store.WriteDelta(5, "D5").ok());
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B3");
  EXPECT_EQ(chain.epoch, 5u);
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D4", "D5"}));
  if (!on_disk()) return;
  // WriteBase(3) must have removed the epoch-0 chain; its deltas were
  // appended to the one chain file.
  EXPECT_EQ(List(store.dir()), (std::vector<std::string>{ChainFileName(3)}));
}

// A delta must extend the current chain: one without a base, past a gap or
// rewriting an epoch fails (the service then wedges the task), and the
// chain through the last good epoch still recovers.
TEST_P(StateStoreChainTest, DeltaThatDoesNotExtendTheChainFails) {
  StateStore store(StoreDir());
  RecoveredChain chain;
  EXPECT_FALSE(store.WriteDelta(1, "D1").ok());  // no base
  ASSERT_TRUE(store.Recover(&chain).ok());
  EXPECT_FALSE(chain.valid);
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  EXPECT_FALSE(store.WriteDelta(3, "D3").ok());     // epoch 2 never landed
  EXPECT_FALSE(store.WriteDelta(1, "stale").ok());  // epoch 1 rewritten
  EXPECT_FALSE(store.WriteDelta(0, "D0").ok());     // the base's own epoch
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B0");
  EXPECT_EQ(chain.epoch, 1u);
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D1"}));
}

TEST_P(StateStoreChainTest, EmptyChainIsNotValid) {
  StateStore store(StoreDir());
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());  // on disk: missing dir
  EXPECT_FALSE(chain.valid);
}

TEST_P(StateStoreChainTest, TruncateDropsTheWholeChain) {
  StateStore store(StoreDir());
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.Truncate().ok());
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  EXPECT_FALSE(chain.valid);
  if (on_disk()) {
    EXPECT_TRUE(List(store.dir()).empty());
  }
  // A new incarnation reseeds the truncated chain from epoch 0.
  ASSERT_TRUE(store.WriteBase(0, "B0'").ok());
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B0'");
  EXPECT_TRUE(chain.deltas.empty());
}

TEST_P(StateStoreChainTest, ServiceDurableEpochAdvancesInOrder) {
  StateStore store(StoreDir());
  CheckpointService service;
  EXPECT_FALSE(service.DurableSet(0));
  for (uint64_t e = 0; e < 5; ++e) {
    CheckpointJob job;
    job.task_id = 0;
    job.epoch = e;
    job.is_base = e % 3 == 0;
    const std::string payload = "epoch-" + std::to_string(e);
    job.blob.is_delta = !job.is_base;
    job.blob.encode = [payload](std::string* out) { *out = payload; };
    job.store = &store;
    service.Submit(std::move(job));
  }
  service.Barrier(0);
  EXPECT_TRUE(service.DurableSet(0));
  EXPECT_EQ(service.DurableEpoch(0), 4u);
  EXPECT_FALSE(service.Wedged(0));
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "epoch-3");
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"epoch-4"}));
  service.Stop();
}

/// The frames of an intact chain image, in order: the epoch frame, the
/// base, then the deltas.
std::vector<Frame> ChainFrames(const std::string& image) {
  std::vector<Frame> frames;
  EXPECT_EQ(ReadFrames(kChainMagic, image, &frames), image.size());
  return frames;
}

/// The image of a chain whose base was written at `epoch`, built by hand.
std::string ChainImage(uint64_t epoch, const std::vector<std::string>& payloads) {
  std::string image;
  const std::string_view named(reinterpret_cast<const char*>(&epoch), sizeof(epoch));
  AppendFrame(kChainMagic, named, &image);
  for (const std::string& p : payloads) AppendFrame(kChainMagic, p, &image);
  return image;
}

TEST(StateStoreTest, HandBuiltImageMatchesTheWrittenChain) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(7, "B7").ok());
  ASSERT_TRUE(store.WriteDelta(8, "D8").ok());
  EXPECT_EQ(ReadAll(store.dir() + "/" + ChainFileName(7)), ChainImage(7, {"B7", "D8"}));
}

TEST(StateStoreTest, CorruptNewestDeltaTruncatesChain) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.WriteDelta(2, "D2").ok());
  const std::string path = store.dir() + "/" + ChainFileName(0);
  std::string bytes = ReadAll(path);
  const std::vector<Frame> frames = ChainFrames(bytes);
  ASSERT_EQ(frames.size(), 4u);
  bytes.resize(frames[3].offset + (bytes.size() - frames[3].offset) / 2);  // torn append
  WriteAll(path, bytes);
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B0");
  EXPECT_EQ(chain.epoch, 1u);
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D1"}));
}

TEST(StateStoreTest, CorruptMiddleDeltaStopsBeforeIt) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.WriteDelta(2, "D2").ok());
  ASSERT_TRUE(store.WriteDelta(3, "D3").ok());
  const std::string path = store.dir() + "/" + ChainFileName(0);
  std::string bytes = ReadAll(path);
  const std::vector<Frame> frames = ChainFrames(bytes);
  ASSERT_EQ(frames.size(), 5u);
  const size_t d2 = frames[3].offset + 13;  // inside D2's payload
  bytes[d2] = static_cast<char>(bytes[d2] ^ 0x10);
  WriteAll(path, bytes);
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  // D3 is intact but unreachable: deltas must be contiguous from the base.
  EXPECT_EQ(chain.epoch, 1u);
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D1"}));
}

TEST(StateStoreTest, CorruptBaseFallsBackToOlderBase) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  // Write the newer chain file by hand, so the older chain is still on disk
  // to fall back to — matching the real crash window between the new
  // chain's rename and the old chain's removal — and damage its base.
  std::string image = ChainImage(2, {"B2"});
  image[image.size() - 1] = static_cast<char>(image[image.size() - 1] ^ 0x01);
  WriteAll(store.dir() + "/" + ChainFileName(2), image);
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B0");
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D1"}));
}

// The epoch inside a chain file must match its name; a file that names
// another epoch is rejected like a corrupt one.
TEST(StateStoreTest, EpochThatDisagreesWithTheNameIsRejected) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(3, "B3").ok());
  WriteAll(store.dir() + "/" + ChainFileName(4), ChainImage(9, {"B9"}));
  RecoveredChain chain;
  ASSERT_TRUE(StateStore(store.dir()).Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B3");
  EXPECT_EQ(chain.epoch, 3u);
  ASSERT_TRUE(RemoveFile(store.dir() + "/" + ChainFileName(3)).ok());
  ASSERT_TRUE(StateStore(store.dir()).Recover(&chain).ok());
  EXPECT_FALSE(chain.valid);
}

TEST(StateStoreTest, CorruptOnlyBaseIsCleanNotFatal) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  WriteAll(store.dir() + "/" + ChainFileName(0), "garbage");
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  EXPECT_FALSE(chain.valid);
}

// Every prefix truncation and every single-bit flip of a base + 3-delta
// chain file recovers exactly the longest intact prefix of frames: nothing
// when the epoch or base frame is hit, else the base and the deltas before
// the damaged frame — never a payload that was not written.
TEST(StateStoreTest, EveryTruncationAndBitFlipRecoversTheIntactPrefix) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  const std::vector<std::string> payloads = {PseudoRandomBytes(300, 3), "delta-1",
                                             PseudoRandomBytes(40, 4), "delta-3"};
  ASSERT_TRUE(store.WriteBase(5, payloads[0]).ok());
  for (uint64_t e = 6; e <= 8; ++e) ASSERT_TRUE(store.WriteDelta(e, payloads[e - 5]).ok());
  const std::string path = store.dir() + "/" + ChainFileName(5);
  std::string image = ReadAll(path);
  const std::vector<Frame> frames = ChainFrames(image);
  ASSERT_EQ(frames.size(), 5u);
  // Recovers after damage to `path`; `intact` frames survive.
  const auto expect_prefix = [&](size_t intact, const std::string& what) {
    RecoveredChain chain;
    ASSERT_TRUE(store.Recover(&chain).ok()) << what;
    if (intact < 2) {
      EXPECT_FALSE(chain.valid) << what;
      return;
    }
    ASSERT_TRUE(chain.valid) << what;
    EXPECT_EQ(chain.epoch, 5 + intact - 2) << what;
    EXPECT_EQ(chain.base, payloads[0]) << what;
    EXPECT_EQ(chain.deltas,
              std::vector<std::string>(payloads.begin() + 1, payloads.begin() + (intact - 1)))
        << what;
  };
  // The number of frames that start before `offset`.
  const auto frames_before = [&](size_t offset) {
    size_t n = 0;
    while (n < frames.size() && frames[n].offset < offset) ++n;
    return n;
  };
  for (size_t len = 0; len < image.size(); ++len) {
    WriteAll(path, image.substr(0, len));
    // Frames wholly inside the prefix survive; the one it cuts does not.
    expect_prefix(frames_before(len + 1) - 1, "truncation to " + std::to_string(len));
  }
  for (size_t i = 0; i < image.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      image[i] = static_cast<char>(image[i] ^ (1 << bit));
      WriteAll(path, image);
      image[i] = static_cast<char>(image[i] ^ (1 << bit));
      expect_prefix(frames_before(i + 1) - 1,
                    "flip of byte " + std::to_string(i) + " bit " + std::to_string(bit));
    }
  }
  WriteAll(path, image);
  expect_prefix(frames.size(), "intact image");
}

/// Fuzz: a chain of several epochs, then truncate or bit-flip its file at
/// a random offset. Recovery must always return OK with either the full
/// chain (payload-epoch prefix intact) or a shorter consistent prefix —
/// and every recovered payload must be one of the originals, bit-exact.
TEST(StateStoreTest, TornWriteFuzz) {
  std::mt19937 rng(20260809);
  for (int iter = 0; iter < 60; ++iter) {
    ScopedTempDir tmp;
    StateStore store(tmp.Sub("task"));
    std::vector<std::string> payloads;
    ASSERT_TRUE(store.WriteBase(0, "base-payload-0").ok());
    payloads.push_back("base-payload-0");
    for (uint64_t e = 1; e <= 4; ++e) {
      std::string p = "delta-payload-" + std::to_string(e);
      p.append(static_cast<size_t>(rng() % 100), '#');
      ASSERT_TRUE(store.WriteDelta(e, p).ok());
      payloads.push_back(std::move(p));
    }
    // Damage the chain file.
    const std::vector<std::string> names = List(store.dir());
    ASSERT_EQ(names, (std::vector<std::string>{ChainFileName(0)}));
    const std::string victim = store.dir() + "/" + names[0];
    std::string bytes = ReadAll(victim);
    ASSERT_FALSE(bytes.empty());
    if (rng() % 2 == 0) {
      bytes.resize(rng() % bytes.size());  // torn write
    } else {
      const size_t i = rng() % bytes.size();
      bytes[i] = static_cast<char>(bytes[i] ^ (1u << (rng() % 8)));  // bit flip
    }
    WriteAll(victim, bytes);
    RecoveredChain chain;
    ASSERT_TRUE(store.Recover(&chain).ok()) << "iter " << iter;
    if (!chain.valid) continue;  // the epoch or base frame was the victim
    ASSERT_LE(chain.epoch, 4u);
    EXPECT_EQ(chain.base, payloads[0]);
    ASSERT_EQ(chain.deltas.size(), static_cast<size_t>(chain.epoch));
    for (size_t i = 0; i < chain.deltas.size(); ++i) {
      EXPECT_EQ(chain.deltas[i], payloads[i + 1]) << "iter " << iter;
    }
  }
}

// --- SpillStore ---------------------------------------------------------

TEST(SpillStoreTest, AppendReadReleaseRoundTrip) {
  ScopedTempDir tmp;
  std::unique_ptr<SpillStore> spill;
  ASSERT_TRUE(
      SpillStore::Open(tmp.Sub("spill"), 1 << 20, SpillStore::GcPolicy::kImmediate, &spill)
          .ok());
  std::vector<SpillHandle> handles;
  for (int i = 0; i < 20; ++i) {
    SpillHandle h;
    ASSERT_TRUE(spill->Append("payload-" + std::to_string(i), &h).ok());
    handles.push_back(h);
  }
  EXPECT_GT(spill->live_bytes(), 0u);
  for (int i = 0; i < 20; ++i) {
    std::string payload;
    ASSERT_TRUE(spill->Read(handles[static_cast<size_t>(i)], &payload).ok());
    EXPECT_EQ(payload, "payload-" + std::to_string(i));
  }
  for (const SpillHandle& h : handles) spill->Release(h);
  EXPECT_EQ(spill->live_bytes(), 0u);
}

TEST(SpillStoreTest, ImmediateGcDeletesRetiredSegments) {
  ScopedTempDir tmp;
  std::unique_ptr<SpillStore> spill;
  // Tiny segment limit: every few appends rotate to a new file.
  ASSERT_TRUE(SpillStore::Open(tmp.Sub("spill"), 64, SpillStore::GcPolicy::kImmediate, &spill)
                  .ok());
  std::vector<SpillHandle> handles;
  for (int i = 0; i < 30; ++i) {
    SpillHandle h;
    ASSERT_TRUE(spill->Append(std::string(40, static_cast<char>('a' + i % 26)), &h).ok());
    handles.push_back(h);
  }
  EXPECT_GT(List(spill->dir()).size(), 1u) << "segment rotation never happened";
  // Release everything except the last (the active segment never retires).
  for (size_t i = 0; i + 1 < handles.size(); ++i) spill->Release(handles[i]);
  EXPECT_LE(List(spill->dir()).size(), 2u) << "retired sealed segments not deleted";
}

TEST(SpillStoreTest, DeferredGcWaitsForRetireMark) {
  ScopedTempDir tmp;
  std::unique_ptr<SpillStore> spill;
  ASSERT_TRUE(
      SpillStore::Open(tmp.Sub("spill"), 64, SpillStore::GcPolicy::kDeferred, &spill).ok());
  std::vector<SpillHandle> handles;
  for (int i = 0; i < 30; ++i) {
    SpillHandle h;
    ASSERT_TRUE(spill->Append(std::string(40, 'z'), &h).ok());
    handles.push_back(h);
  }
  const size_t files_before = List(spill->dir()).size();
  for (size_t i = 0; i + 1 < handles.size(); ++i) spill->Release(handles[i]);
  // Deferred: retired segments stay on disk until the owner confirms a
  // base checkpoint past the retirement.
  EXPECT_EQ(List(spill->dir()).size(), files_before);
  const uint64_t mark = spill->TakeRetireMark();
  ASSERT_TRUE(spill->DeleteRetiredBefore(mark).ok());
  EXPECT_LE(List(spill->dir()).size(), 2u);
}

TEST(SpillStoreTest, ReopenRerefPurgeCycle) {
  ScopedTempDir tmp;
  const std::string dir = tmp.Sub("spill");
  std::vector<SpillHandle> handles;
  {
    std::unique_ptr<SpillStore> spill;
    ASSERT_TRUE(SpillStore::Open(dir, 64, SpillStore::GcPolicy::kDeferred, &spill).ok());
    for (int i = 0; i < 12; ++i) {
      SpillHandle h;
      ASSERT_TRUE(spill->Append("frame-" + std::to_string(i), &h).ok());
      handles.push_back(h);
    }
  }
  // New incarnation: frames come back unclaimed; restore claims the first
  // half (so the tail segments end up with no claimed frames at all).
  std::unique_ptr<SpillStore> spill;
  ASSERT_TRUE(SpillStore::Open(dir, 64, SpillStore::GcPolicy::kDeferred, &spill).ok());
  const size_t claimed = handles.size() / 2;
  for (size_t i = 0; i < claimed; ++i) {
    ASSERT_TRUE(spill->Reref(handles[i])) << i;
  }
  SpillHandle bogus;
  bogus.segment = 99;
  bogus.offset = 0;
  bogus.length = 5;
  EXPECT_FALSE(spill->Reref(bogus));
  const size_t files_before = List(dir).size();
  ASSERT_TRUE(spill->PurgeUnclaimed().ok());
  // Claimed frames read back bit-exact; unclaimed ones lost their claim
  // (a late Reref must fail) and fully-unclaimed segment files are gone.
  for (size_t i = 0; i < claimed; ++i) {
    std::string payload;
    ASSERT_TRUE(spill->Read(handles[i], &payload).ok()) << i;
    EXPECT_EQ(payload, "frame-" + std::to_string(i));
  }
  for (size_t i = claimed; i < handles.size(); ++i) {
    EXPECT_FALSE(spill->Reref(handles[i])) << "purged frame " << i << " re-claimed";
  }
  EXPECT_LT(List(dir).size(), files_before) << "tail segments with no claims kept on disk";
}

TEST(SpillStoreTest, TornSegmentFuzzNeverCrashes) {
  std::mt19937 rng(77);
  for (int iter = 0; iter < 40; ++iter) {
    ScopedTempDir tmp;
    const std::string dir = tmp.Sub("spill");
    std::vector<SpillHandle> handles;
    std::vector<std::string> payloads;
    {
      std::unique_ptr<SpillStore> spill;
      ASSERT_TRUE(SpillStore::Open(dir, 200, SpillStore::GcPolicy::kDeferred, &spill).ok());
      for (int i = 0; i < 15; ++i) {
        std::string p(20 + rng() % 60, static_cast<char>('A' + i));
        SpillHandle h;
        ASSERT_TRUE(spill->Append(p, &h).ok());
        handles.push_back(h);
        payloads.push_back(std::move(p));
      }
    }
    // Damage one segment file at a fuzzed offset.
    const std::vector<std::string> names = List(dir);
    ASSERT_FALSE(names.empty());
    const std::string victim = dir + "/" + names[rng() % names.size()];
    std::string bytes = ReadAll(victim);
    ASSERT_FALSE(bytes.empty());
    if (rng() % 2 == 0) {
      bytes.resize(rng() % bytes.size());
    } else {
      const size_t i = rng() % bytes.size();
      bytes[i] = static_cast<char>(bytes[i] ^ (1u << (rng() % 8)));
    }
    WriteAll(victim, bytes);
    // Reopen: Open must scan cleanly; each surviving frame must Reref and
    // read back bit-exact, each damaged frame must fail cleanly.
    std::unique_ptr<SpillStore> spill;
    ASSERT_TRUE(SpillStore::Open(dir, 200, SpillStore::GcPolicy::kDeferred, &spill).ok())
        << "iter " << iter;
    for (size_t i = 0; i < handles.size(); ++i) {
      if (!spill->Reref(handles[i])) continue;
      std::string payload;
      const Status st = spill->Read(handles[i], &payload);
      if (st.ok()) {
        EXPECT_EQ(payload, payloads[i]) << "iter " << iter << " frame " << i;
      }
    }
  }
}

// --- CheckpointService --------------------------------------------------

TEST(CheckpointServiceTest, FailedWriteWedgesAndSkipsLaterJobs) {
  ScopedTempDir tmp;
  // A StateStore rooted at a path occupied by a *file* cannot write.
  WriteAll(tmp.Sub("blocked"), "i am a file");
  StateStore store(tmp.Sub("blocked"));
  CheckpointService service;
  int completions = 0;
  int failures = 0;
  for (uint64_t e = 0; e < 3; ++e) {
    CheckpointJob job;
    job.task_id = 7;
    job.epoch = e;
    job.is_base = true;
    job.blob.encode = [](std::string* out) { out->assign(1, 'x'); };
    job.store = &store;
    job.on_complete = [&completions, &failures](bool ok, uint64_t, uint64_t) {
      ++completions;
      if (!ok) ++failures;
    };
    service.Submit(std::move(job));
  }
  service.Barrier(7);
  EXPECT_TRUE(service.Wedged(7));
  EXPECT_FALSE(service.DurableSet(7));
  EXPECT_EQ(completions, 3);  // wedge-skips still report
  EXPECT_EQ(failures, 3);
  // Reset clears the wedge for a new incarnation.
  service.Reset(7);
  EXPECT_FALSE(service.Wedged(7));
  service.Stop();
}

TEST(CheckpointServiceTest, TasksAreIndependent) {
  ScopedTempDir tmp;
  WriteAll(tmp.Sub("blocked"), "file");
  StateStore bad(tmp.Sub("blocked"));
  StateStore good(tmp.Sub("good"));
  CheckpointService service;
  CheckpointJob j1;
  j1.task_id = 1;
  j1.epoch = 0;
  j1.is_base = true;
  j1.blob.encode = [](std::string* out) { out->assign(1, 'x'); };
  j1.store = &bad;
  service.Submit(std::move(j1));
  CheckpointJob j2;
  j2.task_id = 2;
  j2.epoch = 0;
  j2.is_base = true;
  j2.blob.encode = [](std::string* out) { out->assign(1, 'y'); };
  j2.store = &good;
  service.Submit(std::move(j2));
  service.Barrier(1);
  service.Barrier(2);
  EXPECT_TRUE(service.Wedged(1));
  EXPECT_FALSE(service.Wedged(2));
  EXPECT_TRUE(service.DurableSet(2));
  service.Stop();
}

// An executor adopted by a migration that races the end of a failed run
// can still submit after teardown stopped the service: the job is skipped
// like a wedge-skip, never written, never durable.
TEST(CheckpointServiceTest, SubmitAfterStopIsSkipped) {
  StateStore store("");
  CheckpointService service;
  service.Stop();
  bool reported = false;
  bool ok = true;
  CheckpointJob job;
  job.task_id = 3;
  job.epoch = 0;
  job.is_base = true;
  job.blob.encode = [](std::string* out) { out->assign(1, 'x'); };
  job.store = &store;
  job.on_complete = [&](bool success, uint64_t, uint64_t) {
    reported = true;
    ok = success;
  };
  service.Submit(std::move(job));
  service.Barrier(3);
  EXPECT_TRUE(reported);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(service.DurableSet(3));
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  EXPECT_FALSE(chain.valid);
}

// --- DetachRecord no-copy regression ------------------------------------

// A record that owns its token bytes must pass through DetachRecord
// untouched — the checkpoint/shed capture path relies on this staying a
// pointer bump, not a deep copy (src/text/record.cc).
TEST(DetachRecordTest, OwningRecordIsNotCopied) {
  RecordPtr owning = MakeRecord(1, 1, {3, 1, 2}, 0);
  ASSERT_FALSE(owning->borrowed());
  const RecordPtr detached = DetachRecord(owning);
  EXPECT_EQ(detached.get(), owning.get()) << "owning record deep-copied on detach";
  EXPECT_EQ(detached->tokens.data(), owning->tokens.data());
  EXPECT_EQ(owning.use_count(), 2);
}

TEST(DetachRecordTest, BorrowedRecordIsDeepCopied) {
  const std::vector<TokenId> backing = {1, 2, 3, 9};
  auto borrowed = std::make_shared<const Record>(
      5, 5, 0, TokenArray::Borrow(backing.data(), backing.size()));
  ASSERT_TRUE(borrowed->borrowed());
  const RecordPtr detached = DetachRecord(borrowed);
  EXPECT_NE(detached.get(), borrowed.get());
  ASSERT_FALSE(detached->borrowed());
  EXPECT_NE(detached->tokens.data(), backing.data());
  ASSERT_EQ(detached->tokens.size(), backing.size());
  EXPECT_TRUE(std::equal(backing.begin(), backing.end(), detached->tokens.begin()));
}

}  // namespace
}  // namespace dssj::store
