// Disk-backed canonical-certificate store — the census's long-term
// memory.
//
// enumerate_graphs_modulo_iso used to hold every canonical certificate
// in RAM and restart from scratch, which caps the census at whatever one
// interactive run can hold and finish. Following DiVinE's explicit
// on-disk state-space design (divine/explicit/header.h: a fixed,
// versioned header in front of an mmap'd payload), this store keeps the
// census's key set on disk so memory stays flat and a killed run can
// resume:
//
//  - An in-memory *front* (a plain hash map: the store is
//    sequential-only) absorbs fresh keys. When it passes
//    `spill_threshold` keys it is sealed: drained, sorted, and written
//    as an immutable on-disk *segment*.
//  - A segment file is a fixed header (magic, version, kind tag, element
//    count, the configure-time `git describe` from the obs manifest),
//    a sorted offset table + records payload, and a trailing CRC-32.
//    Sealed segments are mmap'd read-only and probed by binary search.
//  - `store.manifest` names the committed segment set (+ per-segment
//    CRCs) and carries a generation number and its own CRC line. It is
//    the single commit point: a segment exists once the manifest names
//    it, not when its file appears.
//  - Compaction merges all sealed segments into one (CRC-checked on
//    read, re-CRC'd on write) and commits a manifest naming only the
//    merged segment. Replaced files are NOT deleted here — see the
//    crash-safety contract below.
//
// Crash-safety contract (DESIGN.md "Disk-backed canonical store"):
// every file becomes visible via write-to-temp + fsync + atomic rename
// (+ directory fsync), so readers never observe a half-written segment
// or manifest. The enumeration checkpoint (checkpoint.hpp) records the
// exact segment set it depends on; resume re-opens the store *at* that
// set (open_at), deleting stale files from a crashed future, and files
// unreferenced by the current manifest are purged only after the *next*
// checkpoint commits (purge_unreferenced). Net effect: whatever the
// crash point — mid-seal, mid-compaction, between manifest and
// checkpoint — resume rewinds to the last committed checkpoint and
// replays deterministically. Corrupt on-disk state (truncation, bad
// magic, version skew, CRC mismatch, a checkpoint naming segments the
// store does not have) raises a structured StoreError, never a silent
// partial census.
//
// Concurrency: insert_fresh/contains/seal/compact are sequential-only —
// the census driver calls them from its ordered merge step; the
// parallelism lives a layer up, in the per-batch dedup scan
// (ParallelVisitor::dedup_stream).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace wm::store {

/// Structured failure taxonomy: every on-disk defect maps to one code so
/// callers (and tests) can tell corruption kinds apart.
enum class StoreErrorCode {
  kIo,             // open/read/write/rename/mmap failed
  kTruncated,      // file shorter than its header claims
  kBadMagic,       // not a store file at all
  kVersionSkew,    // written by an incompatible layout version
  kCrcMismatch,    // payload or manifest bytes corrupted
  kBadManifest,    // manifest/checkpoint grammar violated
  kKindMismatch,   // segment/checkpoint belongs to a different census
  kCheckpointSkew, // checkpoint references store state that is gone
};

const char* to_string(StoreErrorCode code);

class StoreError : public std::runtime_error {
 public:
  StoreError(StoreErrorCode code, const std::string& message);
  StoreErrorCode code() const { return code_; }

 private:
  StoreErrorCode code_;
};

/// CRC-32 (IEEE, reflected) over `data` — the checksum every store file
/// carries. Exposed for the corruption tests.
std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0);

/// One committed segment as the manifest (and a checkpoint) names it.
struct SegmentRef {
  std::string file;     // basename within the store directory
  std::uint64_t count;  // records
  std::uint32_t crc;    // payload CRC from the segment header
  friend bool operator==(const SegmentRef&, const SegmentRef&) = default;
};

struct StoreOptions {
  /// Front keys before an automatic seal. The census driver also seals
  /// explicitly at every checkpoint, so this only bounds memory between
  /// checkpoints.
  std::size_t spill_threshold = 1u << 20;
  /// compact_if_needed() merges when the committed segment count
  /// reaches this (2 = always compact two or more segments).
  std::size_t compact_min_segments = 8;
};

struct StoreStats {
  std::uint64_t sealed_keys = 0;  // records across committed segments
  std::uint64_t front_keys = 0;   // keys currently in the memory front
  std::uint64_t segments = 0;     // committed segments
  std::uint64_t generation = 0;   // manifest commits so far
  std::uint64_t spills = 0;       // seals this process performed
  std::uint64_t compactions = 0;  // compactions this process performed
  std::uint64_t bytes_on_disk = 0;
};

/// A sealed, immutable, mmap'd segment. Public only for the tests; use
/// CertStore for everything else.
class Segment {
 public:
  /// Validates header, size and CRC; throws StoreError on any defect.
  /// `expect_kind` empty skips the kind check.
  static Segment open(const std::string& path, std::string_view expect_kind);
  ~Segment();
  Segment(Segment&& other) noexcept;
  Segment& operator=(Segment&&) = delete;
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  bool contains(std::string_view key) const;
  std::optional<std::uint64_t> find(std::string_view key) const;
  std::uint64_t count() const { return count_; }
  std::uint32_t payload_crc() const { return payload_crc_; }
  const std::string& kind() const { return kind_; }
  const std::string& git() const { return git_; }

  /// Sorted (key, value) records, for compaction and tests.
  void for_each(const std::function<void(std::string_view, std::uint64_t)>&
                    fn) const;

  /// Writes a segment file at `path` via temp + fsync + atomic rename.
  /// `records` need not be sorted; they are sorted here. Returns the
  /// payload CRC committed into the header.
  static std::uint32_t write(
      const std::string& path, std::string_view kind,
      std::vector<std::pair<std::string, std::uint64_t>> records);

 private:
  Segment() = default;
  std::string_view key_at(std::uint64_t i) const;
  std::uint64_t value_at(std::uint64_t i) const;

  const char* map_ = nullptr;  // whole file, read-only
  std::size_t map_bytes_ = 0;
  const char* payload_ = nullptr;  // offset table start
  std::uint64_t count_ = 0;
  std::uint32_t payload_crc_ = 0;
  std::string kind_;
  std::string git_;
};

/// The disk-backed certificate store: memory front + committed segments
/// + manifest, under one directory. One store holds one `kind` of
/// certificate (e.g. "graph-all-n8"); the kind tag is baked into every
/// segment header and the manifest, so mixing censuses is a structured
/// error, not silent cross-talk.
class CertStore {
 public:
  /// Opens (or initialises) the store at `dir`. An existing manifest is
  /// loaded and every named segment validated; an absent one is
  /// committed empty. Throws StoreError on corruption or kind mismatch.
  static CertStore open(const std::string& dir, const std::string& kind,
                        const StoreOptions& options = {});

  /// Opens the store *at* a checkpointed segment set: exactly `expected`
  /// must be present and valid (else kCheckpointSkew — the checkpoint is
  /// newer than the store), segment files a crashed future left behind
  /// are deleted, and the manifest is rewritten to match. This is the
  /// resume path's idempotent rewind.
  static CertStore open_at(const std::string& dir, const std::string& kind,
                           const std::vector<SegmentRef>& expected,
                           const StoreOptions& options = {});

  /// Wipes every store file under `dir` (fresh cold start).
  static void wipe(const std::string& dir);

  CertStore(CertStore&&) = default;

  /// True iff `key` was absent from front and every committed segment;
  /// records it (with `value`, the candidate index that minted it) in
  /// the front. Seals the front automatically past spill_threshold.
  /// Emits the store.fresh_keys / store.dup_hits work counters.
  bool insert_fresh(const std::string& key, std::uint64_t value);

  bool contains(const std::string& key) const;

  /// Distinct keys (front + sealed).
  std::uint64_t distinct_keys() const;

  /// Drains the front into a new committed segment (no-op when empty).
  void seal();

  /// Merges all committed segments into one when their count reaches
  /// options.compact_min_segments; returns true if a compaction ran.
  /// Replaced segment files stay on disk until purge_unreferenced().
  bool compact_if_needed();

  /// Deletes segment files in the directory that the current manifest
  /// does not name. Call only after the state that references them (the
  /// previous checkpoint) has been superseded.
  void purge_unreferenced();

  /// The committed segment set — what a checkpoint records.
  const std::vector<SegmentRef>& segment_refs() const { return refs_; }

  std::uint64_t generation() const { return generation_; }
  const std::string& kind() const { return kind_; }
  const std::string& dir() const { return dir_; }
  StoreStats stats() const;

 private:
  CertStore(std::string dir, std::string kind, StoreOptions options);
  void load_manifest();
  void commit_manifest();
  void open_segments();
  std::string segment_path(const std::string& file) const;
  std::string next_segment_name();

  std::string dir_;
  std::string kind_;
  StoreOptions options_;
  std::uint64_t generation_ = 0;
  std::uint64_t next_segment_id_ = 1;
  std::vector<SegmentRef> refs_;
  std::vector<Segment> segments_;  // parallel to refs_
  std::unordered_map<std::string, std::uint64_t> front_;
  std::uint64_t spills_ = 0;
  std::uint64_t compactions_ = 0;
};

/// Manifest grammar helpers, shared with checkpoint.cpp: a line-oriented
/// text file whose final line is `end <crc32-hex-of-preceding-bytes>`.
/// Writing appends the CRC line and commits via temp + rename; loading
/// verifies it and returns the preceding lines.
void write_crc_file(const std::string& path, const std::string& body);
std::string load_crc_file(const std::string& path, const char* what);

/// Checked reader over a load_crc_file body, one whitespace-separated
/// token at a time. A CRC proves only that the bytes are the ones
/// written, so every value accessor parses its whole token and throws
/// StoreError(kBadManifest) when it is missing or malformed.
class FieldReader {
 public:
  /// Loads `path` via load_crc_file (its trailer errors propagate).
  FieldReader(const std::string& path, const char* what);
  /// The next token (a field name), or nullopt at the end of the body.
  std::optional<std::string> next();
  std::string word(const char* field);
  /// A decimal unsigned integer.
  std::uint64_t number(const char* field);
  /// A segment line's `file count crc`, the CRC exactly 8 hex digits.
  SegmentRef segment();
  /// The rest of the current line, without its leading blank.
  std::string rest_of_line();

 private:
  std::string path_;
  std::istringstream in_;
};

}  // namespace wm::store
