// The disk-backed certificate store's own suite: segment round-trips,
// every corruption code in the StoreError taxonomy, crash-window
// resume via open_at, and the streaming census's pause/resume ≡
// uninterrupted contract (the in-process half of the CI kill/resume
// gate; the SIGKILL half lives in ci.yml).
#include "store/cert_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/enumerate.hpp"
#include "store/census.hpp"
#include "store/checkpoint.hpp"
#include "util/parallel.hpp"

namespace wm::store {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on teardown.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("wm_store_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::string slurp(const std::string& p) {
  std::ifstream f(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void spit(const std::string& p, const std::string& data) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f << data;
}

StoreErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const StoreError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a StoreError";
  return StoreErrorCode::kIo;
}

TEST_F(StoreTest, Crc32KnownAnswer) {
  // The canonical IEEE check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  // Seed chaining == one-shot over the concatenation.
  EXPECT_EQ(crc32("6789", crc32("12345")), crc32("123456789"));
}

TEST_F(StoreTest, SegmentRoundTrip) {
  std::vector<std::pair<std::string, std::uint64_t>> records = {
      {"charlie", 3}, {"alpha", 1}, {"bravo", 2}};
  const std::uint32_t crc = Segment::write(path("seg"), "kind-x", records);
  const Segment seg = Segment::open(path("seg"), "kind-x");
  EXPECT_EQ(seg.count(), 3u);
  EXPECT_EQ(seg.payload_crc(), crc);
  EXPECT_EQ(seg.kind(), "kind-x");
  EXPECT_FALSE(seg.git().empty());
  EXPECT_EQ(seg.find("alpha"), std::optional<std::uint64_t>(1));
  EXPECT_EQ(seg.find("bravo"), std::optional<std::uint64_t>(2));
  EXPECT_EQ(seg.find("charlie"), std::optional<std::uint64_t>(3));
  EXPECT_FALSE(seg.find("delta").has_value());
  EXPECT_FALSE(seg.contains(""));
  // for_each replays in sorted key order.
  std::vector<std::string> keys;
  seg.for_each([&](std::string_view k, std::uint64_t) {
    keys.emplace_back(k);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"alpha", "bravo", "charlie"}));
}

TEST_F(StoreTest, SegmentEmptyAndBinaryKeys) {
  std::string binary("\x00\xff\x01", 3);
  const std::uint32_t crc =
      Segment::write(path("seg"), "k", {{binary, 7}});
  const Segment seg = Segment::open(path("seg"), "k");
  EXPECT_EQ(seg.payload_crc(), crc);
  EXPECT_EQ(seg.find(binary), std::optional<std::uint64_t>(7));

  Segment::write(path("empty"), "k", {});
  EXPECT_EQ(Segment::open(path("empty"), "k").count(), 0u);
}

TEST_F(StoreTest, SegmentTruncationDetected) {
  Segment::write(path("seg"), "k", {{"alpha", 1}, {"bravo", 2}});
  const std::string whole = slurp(path("seg"));
  // Sliced anywhere — below the header or mid-payload — it must raise
  // kTruncated, never read garbage.
  spit(path("short"), whole.substr(0, 10));
  EXPECT_EQ(code_of([&] { Segment::open(path("short"), "k"); }),
            StoreErrorCode::kTruncated);
  spit(path("cut"), whole.substr(0, whole.size() - 5));
  EXPECT_EQ(code_of([&] { Segment::open(path("cut"), "k"); }),
            StoreErrorCode::kTruncated);
}

TEST_F(StoreTest, SegmentBadMagicDetected) {
  Segment::write(path("seg"), "k", {{"alpha", 1}});
  std::string bytes = slurp(path("seg"));
  bytes[0] = 'X';
  spit(path("seg"), bytes);
  EXPECT_EQ(code_of([&] { Segment::open(path("seg"), "k"); }),
            StoreErrorCode::kBadMagic);
}

TEST_F(StoreTest, SegmentVersionSkewDetected) {
  Segment::write(path("seg"), "k", {{"alpha", 1}});
  std::string bytes = slurp(path("seg"));
  bytes[8] = 99;  // version field, little-endian u32 at offset 8
  spit(path("seg"), bytes);
  EXPECT_EQ(code_of([&] { Segment::open(path("seg"), "k"); }),
            StoreErrorCode::kVersionSkew);
}

TEST_F(StoreTest, SegmentCrcMismatchDetected) {
  Segment::write(path("seg"), "k", {{"alpha", 1}});
  std::string bytes = slurp(path("seg"));
  bytes.back() ^= 0x40;  // flip one payload bit
  spit(path("seg"), bytes);
  EXPECT_EQ(code_of([&] { Segment::open(path("seg"), "k"); }),
            StoreErrorCode::kCrcMismatch);
}

// Crafted segments: little-endian header fields rewritten in place, the
// payload CRC (header bytes [20, 24), over everything from byte 48 on)
// resealed so each case gets past the CRC check.
std::uint64_t peek_le(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  return v;
}

void poke_le(std::string& bytes, std::size_t at, int width, std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<char>(v >> (8 * i));
  }
}

void reseal(std::string& bytes) {
  poke_le(bytes, 20, 4, crc32(std::string_view(bytes).substr(48)));
}

/// First byte of the offset table: after the header, kind and git bytes.
std::size_t payload_start(const std::string& bytes) {
  return 48 + peek_le(bytes, 12, 4) + peek_le(bytes, 16, 4);
}

TEST_F(StoreTest, SegmentCraftedOffsetRejected) {
  // An offset near 2^64 used to form a pointer far past the mapping
  // before its bounds test, and the read behind it crashed.
  Segment::write(path("seg"), "k", {{"alpha", 1}});
  std::string bytes = slurp(path("seg"));
  poke_le(bytes, payload_start(bytes), 8,
          std::uint64_t{0} - (std::uint64_t{1} << 40));  // 2^64 - 2^40
  reseal(bytes);
  spit(path("seg"), bytes);
  EXPECT_EQ(code_of([&] { Segment::open(path("seg"), "k"); }),
            StoreErrorCode::kTruncated);
}

TEST_F(StoreTest, SegmentCraftedCountRejected) {
  // The CRC does not cover `count`, and count * 8 wraps: 2^61 + c makes
  // the offset table look 8c bytes long. At c = 1 the scan read the
  // record's length and first key bytes as a second offset; this key
  // makes that offset 2^64 - 2^40 + 8, and the read behind it crashed.
  const std::string key("\x00\xff\xff\xff\x00\x00\x00\x00", 8);
  Segment::write(path("seg"), "k", {{key, 1}});
  const std::string whole = slurp(path("seg"));
  for (const std::uint64_t c : {1, 3}) {
    std::string bytes = whole;
    poke_le(bytes, 24, 8, (std::uint64_t{1} << 61) + c);
    spit(path("seg"), bytes);
    EXPECT_EQ(code_of([&] { Segment::open(path("seg"), "k"); }),
              StoreErrorCode::kTruncated)
        << "count 2^61 + " << c;
  }
}

TEST_F(StoreTest, SegmentCraftedPayloadSizeRejected) {
  // A kind length of 2^32 - 1 with payload_bytes lowered to match wraps
  // the declared file size back to the real one, and the CRC still spans
  // the real bytes; reading the kind then ran 4 GiB past the mapping.
  Segment::write(path("seg"), "k", {{"alpha", 1}});
  std::string bytes = slurp(path("seg"));
  const std::uint64_t kind_len = peek_le(bytes, 12, 4);
  const std::uint64_t payload_bytes = peek_le(bytes, 32, 8);
  poke_le(bytes, 12, 4, 0xffffffffu);
  poke_le(bytes, 32, 8, payload_bytes + kind_len - 0xffffffffu);
  spit(path("seg"), bytes);
  EXPECT_EQ(code_of([&] { Segment::open(path("seg"), "k"); }),
            StoreErrorCode::kTruncated);
}

TEST_F(StoreTest, SegmentKindMismatchDetected) {
  Segment::write(path("seg"), "graph-n5", {{"alpha", 1}});
  EXPECT_EQ(code_of([&] { Segment::open(path("seg"), "kripke-n5"); }),
            StoreErrorCode::kKindMismatch);
  // Empty expect_kind skips the check (corruption tooling).
  EXPECT_EQ(Segment::open(path("seg"), "").kind(), "graph-n5");
}

TEST_F(StoreTest, CrcFileTornTrailerDetected) {
  write_crc_file(path("f"), "hello 1\nworld 2\n");
  EXPECT_EQ(load_crc_file(path("f"), "test"), "hello 1\nworld 2\n");
  // Drop the trailer line: torn write.
  spit(path("f"), "hello 1\nworld 2\n");
  EXPECT_EQ(code_of([&] { load_crc_file(path("f"), "test"); }),
            StoreErrorCode::kTruncated);
  // Corrupt the body under an intact trailer.
  write_crc_file(path("g"), "hello 1\n");
  std::string bytes = slurp(path("g"));
  bytes[0] = 'j';
  spit(path("g"), bytes);
  EXPECT_EQ(code_of([&] { load_crc_file(path("g"), "test"); }),
            StoreErrorCode::kCrcMismatch);
}

TEST_F(StoreTest, CertStoreDedupsAcrossSeals) {
  auto store = CertStore::open(path("s"), "k");
  EXPECT_TRUE(store.insert_fresh("a", 10));
  EXPECT_TRUE(store.insert_fresh("b", 11));
  EXPECT_FALSE(store.insert_fresh("a", 12));  // front duplicate
  store.seal();
  EXPECT_FALSE(store.insert_fresh("a", 13));  // sealed duplicate
  EXPECT_TRUE(store.insert_fresh("c", 14));
  EXPECT_EQ(store.distinct_keys(), 3u);
  EXPECT_TRUE(store.contains("a"));
  EXPECT_TRUE(store.contains("c"));
  EXPECT_FALSE(store.contains("z"));
  // Re-open from disk: the unsealed "c" is gone (fronts are volatile by
  // contract), the sealed keys survive.
  auto reopened = CertStore::open(path("s"), "k");
  EXPECT_EQ(reopened.distinct_keys(), 2u);
  EXPECT_TRUE(reopened.contains("a"));
  EXPECT_FALSE(reopened.contains("c"));
}

TEST_F(StoreTest, CertStoreSpillsAndCompacts) {
  StoreOptions options;
  options.spill_threshold = 4;
  options.compact_min_segments = 3;
  auto store = CertStore::open(path("s"), "k", options);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(store.insert_fresh("key" + std::to_string(i),
                                   static_cast<std::uint64_t>(i)));
  }
  EXPECT_GE(store.stats().spills, 4u);
  EXPECT_EQ(store.distinct_keys(), 20u);
  store.seal();
  EXPECT_TRUE(store.compact_if_needed());
  EXPECT_EQ(store.segment_refs().size(), 1u);
  EXPECT_EQ(store.distinct_keys(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(store.contains("key" + std::to_string(i))) << i;
  }
  // Replaced segment files linger until purge (crash-safety contract)...
  std::size_t files_before = 0;
  for (auto& e : fs::directory_iterator(path("s"))) {
    files_before += e.is_regular_file();
  }
  store.purge_unreferenced();
  std::size_t files_after = 0;
  for (auto& e : fs::directory_iterator(path("s"))) {
    files_after += e.is_regular_file();
  }
  EXPECT_LT(files_after, files_before);
  // ...and the purged store still reopens clean with full content.
  auto reopened = CertStore::open(path("s"), "k", options);
  EXPECT_EQ(reopened.distinct_keys(), 20u);
}

TEST_F(StoreTest, CertStoreKindMismatchOnOpen) {
  {
    auto store = CertStore::open(path("s"), "graph-n5");
    store.insert_fresh("a", 1);
    store.seal();
  }
  EXPECT_EQ(code_of([&] { CertStore::open(path("s"), "kripke-n5"); }),
            StoreErrorCode::kKindMismatch);
}

TEST_F(StoreTest, OpenAtRewindsToCheckpointedSet) {
  StoreOptions options;
  std::vector<SegmentRef> snapshot;
  {
    auto store = CertStore::open(path("s"), "k", options);
    store.insert_fresh("a", 1);
    store.seal();
    snapshot = store.segment_refs();  // what a checkpoint would record
    // The "crashed future": more segments the checkpoint never saw.
    store.insert_fresh("b", 2);
    store.seal();
    EXPECT_EQ(store.segment_refs().size(), 2u);
  }
  auto rewound = CertStore::open_at(path("s"), "k", snapshot, options);
  EXPECT_EQ(rewound.segment_refs(), snapshot);
  EXPECT_TRUE(rewound.contains("a"));
  EXPECT_FALSE(rewound.contains("b"));  // future segment deleted
  // Idempotent: rewinding again is a no-op.
  auto again = CertStore::open_at(path("s"), "k", snapshot, options);
  EXPECT_EQ(again.segment_refs(), snapshot);
}

TEST_F(StoreTest, CheckpointNewerThanStoreDetected) {
  std::vector<SegmentRef> snapshot;
  {
    auto store = CertStore::open(path("s"), "k");
    store.insert_fresh("a", 1);
    store.seal();
    snapshot = store.segment_refs();
  }
  ASSERT_EQ(snapshot.size(), 1u);
  // Store wiped under an intact checkpoint — e.g. the CI cache restored
  // a checkpoint but not the store dir.
  fs::remove(path("s") + "/" + snapshot[0].file);
  EXPECT_EQ(
      code_of([&] { CertStore::open_at(path("s"), "k", snapshot); }),
      StoreErrorCode::kCheckpointSkew);
  // Same file name, different content: also skew, caught by the CRC.
  Segment::write(path("s") + "/" + snapshot[0].file, "k", {{"other", 9}});
  EXPECT_EQ(
      code_of([&] { CertStore::open_at(path("s"), "k", snapshot); }),
      StoreErrorCode::kCheckpointSkew);
}

TEST_F(StoreTest, CheckpointRoundTrip) {
  Checkpoint cp;
  cp.kind = "graph-all-n6";
  cp.space = 32768;
  cp.batch = 1024;
  cp.next = 4096;
  cp.classes = 34;
  cp.admissible = 4096;
  cp.scanned = 4096;
  cp.batches = 4;
  cp.checkpoints = 2;
  cp.store_segments = {{"seg-000001.wmseg", 34, 0xdeadbeef}};
  cp.manifest_json = "{\"git\": \"test\"}";
  write_checkpoint(path("cp"), cp);
  EXPECT_EQ(load_checkpoint(path("cp")), cp);
}

TEST_F(StoreTest, CheckpointCorruptionDetected) {
  Checkpoint cp;
  cp.kind = "k";
  cp.space = 100;
  cp.batch = 10;
  cp.next = 10;
  write_checkpoint(path("cp"), cp);

  std::string bytes = slurp(path("cp"));
  spit(path("torn"), bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(code_of([&] { load_checkpoint(path("torn")); }),
            StoreErrorCode::kTruncated);

  std::string flipped = bytes;
  flipped[3] ^= 0x20;
  spit(path("flip"), flipped);
  EXPECT_EQ(code_of([&] { load_checkpoint(path("flip")); }),
            StoreErrorCode::kCrcMismatch);

  write_crc_file(path("alien"), "some-other-format 1\n");
  EXPECT_EQ(code_of([&] { load_checkpoint(path("alien")); }),
            StoreErrorCode::kBadMagic);

  write_crc_file(path("future"), "wm-census-checkpoint 999\nkind k\n");
  EXPECT_EQ(code_of([&] { load_checkpoint(path("future")); }),
            StoreErrorCode::kVersionSkew);

  // Frontier past the end of the space: grammar-valid but impossible.
  write_crc_file(path("past"),
                 "wm-census-checkpoint 1\nkind k\nspace 10\nnext 20\n");
  EXPECT_EQ(code_of([&] { load_checkpoint(path("past")); }),
            StoreErrorCode::kBadManifest);
}

TEST_F(StoreTest, CheckpointMalformedFieldsRejected) {
  // CRC-valid checkpoints whose fields do not parse. Each must be a
  // structured kBadManifest: never a crash, never a load that silently
  // stops at the bad field and drops the lines after it.
  const std::string head =
      "wm-census-checkpoint 1\nkind k\nspace 100\nbatch 10\nnext 10\n";
  const std::string segment = "segment seg-000001.wmseg 3 ";
  for (const std::string& tail :
       {"classes x34\n" + segment + "0badcafe\n", std::string("classes 34x\n"),
        std::string("scanned -5\n"),
        std::string("batches 99999999999999999999999\n"),
        std::string("checkpoints\n"), segment + "zzzzzzzz\n",
        segment + "0badcaf\n", segment + "0badcafe0\n", segment + "0x0badca\n",
        segment + "-badcafe\n", segment + "\n",
        std::string("segment seg-000001.wmseg three 0badcafe\n")}) {
    write_crc_file(path("cp"), head + tail);
    EXPECT_EQ(code_of([&] { load_checkpoint(path("cp")); }),
              StoreErrorCode::kBadManifest)
        << tail;
  }
  write_crc_file(path("cp"), "wm-census-checkpoint v1\nkind k\nnext 0\n");
  EXPECT_EQ(code_of([&] { load_checkpoint(path("cp")); }),
            StoreErrorCode::kBadManifest);
  // The well-formed twin loads, upper-case hex included.
  write_crc_file(path("cp"), head + "classes 34\n" + segment + "0BADCAFE\n");
  const Checkpoint cp = load_checkpoint(path("cp"));
  EXPECT_EQ(cp.classes, 34u);
  ASSERT_EQ(cp.store_segments.size(), 1u);
  EXPECT_EQ(cp.store_segments[0].crc, 0x0badcafeu);
}

TEST_F(StoreTest, ManifestMalformedFieldsRejected) {
  // The store manifest goes through the same checked reader.
  const std::string manifest = path("s") + "/store.manifest";
  const std::string head = "wm-cert-store 1\nkind k\ngit test\n";
  const std::string segment = "segment seg-000001.wmseg 3 ";
  for (const std::string& tail :
       {std::string("generation x34\n") + segment + "0badcafe\n",
        std::string("next_segment -1\n"), std::string("generation\n"),
        segment + "zzzzzzzz\n", segment + "0badcaf\n"}) {
    fs::remove_all(path("s"));
    fs::create_directories(path("s"));
    write_crc_file(manifest, head + tail);
    EXPECT_EQ(code_of([&] { CertStore::open(path("s"), "k"); }),
              StoreErrorCode::kBadManifest)
        << tail;
  }
  // Resume treats a bad manifest like a torn one: the checkpoint's
  // segment set is authoritative and the manifest is rewritten.
  const CertStore rewound = CertStore::open_at(path("s"), "k", {});
  EXPECT_TRUE(rewound.segment_refs().empty());
  EXPECT_EQ(CertStore::open(path("s"), "k").distinct_keys(), 0u);
}

/// A tiny deterministic census space: keys are i mod 37 over a domain
/// with gaps, so it has duplicates, inadmissibles, and 37 classes.
CensusSpace tiny_space() {
  CensusSpace space;
  space.kind = "tiny";
  space.count = 1000;
  space.classify = [](std::uint64_t i) -> std::optional<std::string> {
    if (i % 3 == 0) return std::nullopt;
    return "key" + std::to_string(i % 37);
  };
  return space;
}

TEST_F(StoreTest, CensusPauseResumeEqualsUninterrupted) {
  ThreadPool pool(4);
  CensusOptions base;
  base.batch = 64;
  base.checkpoint_every = 2;
  base.store.spill_threshold = 8;

  CensusOptions uninterrupted = base;
  uninterrupted.checkpoint_path = path("cp_full");
  const CensusResult full = run_census(tiny_space(), path("s_full"), &pool,
                                       uninterrupted);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.classes, 37u);
  EXPECT_EQ(full.scanned, 1000u);
  EXPECT_EQ(full.admissible, 666u);

  // Same census, paused after every 3 batches until done — including
  // pause points that don't land on a checkpoint boundary.
  CensusOptions chunked = base;
  chunked.checkpoint_path = path("cp_chunk");
  chunked.max_batches = 3;
  CensusResult last;
  int runs = 0;
  do {
    last = run_census(tiny_space(), path("s_chunk"), &pool, chunked);
    chunked.resume = true;
    ASSERT_LT(++runs, 20) << "census does not converge";
  } while (!last.complete);
  EXPECT_GT(runs, 2);  // the pause actually split the work
  EXPECT_EQ(last.classes, full.classes);
  EXPECT_EQ(last.scanned, full.scanned);
  EXPECT_EQ(last.admissible, full.admissible);
  EXPECT_EQ(last.batches, full.batches);
  EXPECT_EQ(last.store.sealed_keys + last.store.front_keys,
            full.store.sealed_keys + full.store.front_keys);
}

TEST_F(StoreTest, CensusResumeRejectsChangedParameters) {
  ThreadPool pool(2);
  CensusOptions opts;
  opts.batch = 64;
  opts.checkpoint_path = path("cp");
  opts.max_batches = 1;
  run_census(tiny_space(), path("s"), &pool, opts);

  opts.resume = true;
  opts.batch = 32;  // different batching → different totals → refuse
  EXPECT_EQ(code_of([&] { run_census(tiny_space(), path("s"), &pool, opts); }),
            StoreErrorCode::kCheckpointSkew);

  opts.batch = 64;
  CensusSpace other = tiny_space();
  other.kind = "other";
  EXPECT_EQ(code_of([&] { run_census(other, path("s"), &pool, opts); }),
            StoreErrorCode::kKindMismatch);
}

TEST_F(StoreTest, StreamEnumerationMatchesClassic) {
  // The batched census over graph_census_space must store exactly the
  // representatives enumerate_graphs_modulo_iso visits — the same
  // certificates under the same lowest edge masks — at any batch size.
  EnumerateOptions opts;
  opts.connected_only = false;
  const CensusSpace space = graph_census_space(5, opts);
  // The classic scan's (mask, certificate) pairs, in mask order. Mask
  // bit i is the i-th pair u < v in lexicographic order.
  std::vector<std::pair<std::uint64_t, std::string>> classic;
  enumerate_graphs_modulo_iso(5, opts, [&](const Graph& g) {
    std::uint64_t mask = 0;
    for (const Edge& e : g.edges()) {
      mask |= 1ULL << (e.u * 5 - e.u * (e.u + 1) / 2 + e.v - e.u - 1);
    }
    classic.emplace_back(mask, *space.classify(mask));
    return true;
  });
  ASSERT_EQ(classic.size(), 34u);  // A000088(5)

  ThreadPool pool(4);
  for (const std::uint64_t batch : {64u, 100u, 1024u}) {
    CensusOptions copts;
    copts.batch = batch;
    copts.checkpoint_path = path("cp" + std::to_string(batch));
    const std::string dir = path("s" + std::to_string(batch));
    const CensusResult r = run_census(space, dir, &pool, copts);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.classes, classic.size()) << "batch=" << batch;
    std::vector<std::pair<std::uint64_t, std::string>> stored;
    const CertStore store = CertStore::open(dir, space.kind);
    for (const SegmentRef& ref : store.segment_refs()) {
      Segment::open((fs::path(dir) / ref.file).string(), space.kind)
          .for_each([&](std::string_view key, std::uint64_t rep) {
            stored.emplace_back(rep, std::string(key));
          });
    }
    std::sort(stored.begin(), stored.end());
    EXPECT_EQ(stored, classic) << "batch=" << batch;
  }
}

}  // namespace
}  // namespace wm::store
