#include "store/cert_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "obs/counters.hpp"
#include "obs/manifest.hpp"

namespace wm::store {

namespace fs = std::filesystem;

namespace {

// Segment layout (little-endian, fixed 48-byte header):
//   [0..8)   magic "WMCERTSG"
//   [8..12)  u32 version (kSegmentVersion)
//   [12..16) u32 kind_len
//   [16..20) u32 git_len
//   [20..24) u32 payload_crc          (crc32 over meta + payload)
//   [24..32) u64 count
//   [32..40) u64 payload_bytes        (offset table + records)
//   [40..48) u64 reserved (0)
//   [48..)   meta: kind bytes, git bytes
//   then     payload: count * u64 offsets (into the records area),
//            records: u32 key_len, key bytes, u64 value
// File size must equal 48 + kind_len + git_len + payload_bytes exactly.
constexpr char kSegmentMagic[8] = {'W', 'M', 'C', 'E', 'R', 'T', 'S', 'G'};
constexpr std::uint32_t kSegmentVersion = 1;
constexpr std::size_t kHeaderBytes = 48;

constexpr const char* kManifestName = "store.manifest";
constexpr const char* kManifestMagic = "wm-cert-store";
constexpr std::uint32_t kManifestVersion = 1;

template <typename T>
T read_le(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void append_le(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

[[noreturn]] void fail(StoreErrorCode code, const std::string& message) {
  throw StoreError(code, message);
}

/// Writes `data` to `path` via <path>.tmp + fsync + rename + dir fsync —
/// the one way any store file ever becomes visible.
void atomic_write(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail(StoreErrorCode::kIo, "cannot create " + tmp);
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      fail(StoreErrorCode::kIo, "short write to " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail(StoreErrorCode::kIo, "fsync failed for " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail(StoreErrorCode::kIo, "rename failed for " + path);
  }
  const std::string dir = fs::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::string read_file(const std::string& path, const char* what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    fail(StoreErrorCode::kIo,
         std::string("cannot open ") + what + " " + path);
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      ::close(fd);
      fail(StoreErrorCode::kIo, std::string("read failed for ") + path);
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

}  // namespace

const char* to_string(StoreErrorCode code) {
  switch (code) {
    case StoreErrorCode::kIo: return "io";
    case StoreErrorCode::kTruncated: return "truncated";
    case StoreErrorCode::kBadMagic: return "bad_magic";
    case StoreErrorCode::kVersionSkew: return "version_skew";
    case StoreErrorCode::kCrcMismatch: return "crc_mismatch";
    case StoreErrorCode::kBadManifest: return "bad_manifest";
    case StoreErrorCode::kKindMismatch: return "kind_mismatch";
    case StoreErrorCode::kCheckpointSkew: return "checkpoint_skew";
  }
  return "unknown";
}

StoreError::StoreError(StoreErrorCode code, const std::string& message)
    : std::runtime_error(std::string("store error [") + to_string(code) +
                         "]: " + message),
      code_(code) {}

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
  // Reflected CRC-32 (poly 0xEDB88320), table built on first use.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

// --- Segment ----------------------------------------------------------------

Segment::~Segment() {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), map_bytes_);
  }
}

Segment::Segment(Segment&& other) noexcept
    : map_(other.map_),
      map_bytes_(other.map_bytes_),
      payload_(other.payload_),
      count_(other.count_),
      payload_crc_(other.payload_crc_),
      kind_(std::move(other.kind_)),
      git_(std::move(other.git_)) {
  other.map_ = nullptr;
  other.map_bytes_ = 0;
}

Segment Segment::open(const std::string& path, std::string_view expect_kind) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    fail(StoreErrorCode::kIo, "cannot open segment " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(StoreErrorCode::kIo, "cannot stat segment " + path);
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  if (bytes < kHeaderBytes) {
    ::close(fd);
    fail(StoreErrorCode::kTruncated,
         path + ": " + std::to_string(bytes) + " bytes, header needs " +
             std::to_string(kHeaderBytes));
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    fail(StoreErrorCode::kIo, "mmap failed for " + path);
  }
  Segment seg;
  seg.map_ = static_cast<const char*>(map);
  seg.map_bytes_ = bytes;
  const char* p = seg.map_;
  if (std::memcmp(p, kSegmentMagic, sizeof kSegmentMagic) != 0) {
    fail(StoreErrorCode::kBadMagic, path + ": not a wm cert segment");
  }
  const std::uint32_t version = read_le<std::uint32_t>(p + 8);
  if (version != kSegmentVersion) {
    fail(StoreErrorCode::kVersionSkew,
         path + ": segment version " + std::to_string(version) +
             ", this build reads " + std::to_string(kSegmentVersion));
  }
  const std::uint32_t kind_len = read_le<std::uint32_t>(p + 12);
  const std::uint32_t git_len = read_le<std::uint32_t>(p + 16);
  seg.payload_crc_ = read_le<std::uint32_t>(p + 20);
  seg.count_ = read_le<std::uint64_t>(p + 24);
  const std::uint64_t payload_bytes = read_le<std::uint64_t>(p + 32);
  const std::uint64_t expect_size =
      kHeaderBytes + kind_len + git_len + payload_bytes;
  // The sum wraps for a payload_bytes near 2^64; no payload outgrows its
  // file.
  if (expect_size != bytes || payload_bytes > bytes) {
    fail(StoreErrorCode::kTruncated,
         path + ": header declares " + std::to_string(expect_size) +
             " bytes, file has " + std::to_string(bytes));
  }
  // The CRC does not cover `count`: bound it before `count * 8` can wrap.
  if (seg.count_ > payload_bytes / sizeof(std::uint64_t)) {
    fail(StoreErrorCode::kTruncated,
         path + ": payload smaller than its offset table");
  }
  const std::uint32_t actual_crc =
      crc32(std::string_view(p + kHeaderBytes, kind_len + git_len +
                                                   payload_bytes));
  if (actual_crc != seg.payload_crc_) {
    fail(StoreErrorCode::kCrcMismatch,
         path + ": payload crc " + hex32(actual_crc) + ", header says " +
             hex32(seg.payload_crc_));
  }
  seg.kind_.assign(p + kHeaderBytes, kind_len);
  seg.git_.assign(p + kHeaderBytes + kind_len, git_len);
  seg.payload_ = p + kHeaderBytes + kind_len + git_len;
  if (!expect_kind.empty() && seg.kind_ != expect_kind) {
    fail(StoreErrorCode::kKindMismatch,
         path + ": holds kind '" + seg.kind_ + "', store is '" +
             std::string(expect_kind) + "'");
  }
  // Validate every record stays in bounds once, so lookups can trust the
  // offset table unconditionally afterwards. Offsets are compared as
  // byte counts before any pointer is formed from them.
  const std::uint64_t table_bytes = seg.count_ * sizeof(std::uint64_t);
  const char* records = seg.payload_ + table_bytes;
  const std::uint64_t record_bytes = payload_bytes - table_bytes;
  // A record is a u32 key length, the key and a u64 value.
  constexpr std::uint64_t kFixed = sizeof(std::uint32_t) + sizeof(std::uint64_t);
  for (std::uint64_t i = 0; i < seg.count_; ++i) {
    const std::uint64_t off =
        read_le<std::uint64_t>(seg.payload_ + i * sizeof(std::uint64_t));
    if (off > record_bytes || record_bytes - off < kFixed ||
        record_bytes - off - kFixed < read_le<std::uint32_t>(records + off)) {
      fail(StoreErrorCode::kTruncated,
           path + ": record " + std::to_string(i) + " out of bounds");
    }
  }
  return seg;
}

std::string_view Segment::key_at(std::uint64_t i) const {
  const char* records = payload_ + count_ * sizeof(std::uint64_t);
  const std::uint64_t off =
      read_le<std::uint64_t>(payload_ + i * sizeof(std::uint64_t));
  const char* rec = records + off;
  const std::uint32_t len = read_le<std::uint32_t>(rec);
  return std::string_view(rec + sizeof(std::uint32_t), len);
}

std::uint64_t Segment::value_at(std::uint64_t i) const {
  const std::string_view key = key_at(i);
  return read_le<std::uint64_t>(key.data() + key.size());
}

bool Segment::contains(std::string_view key) const {
  return find(key).has_value();
}

std::optional<std::uint64_t> Segment::find(std::string_view key) const {
  std::uint64_t lo = 0, hi = count_;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const int cmp = key_at(mid).compare(key);
    if (cmp == 0) return value_at(mid);
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::nullopt;
}

void Segment::for_each(
    const std::function<void(std::string_view, std::uint64_t)>& fn) const {
  for (std::uint64_t i = 0; i < count_; ++i) fn(key_at(i), value_at(i));
}

std::uint32_t Segment::write(
    const std::string& path, std::string_view kind,
    std::vector<std::pair<std::string, std::uint64_t>> records) {
  std::sort(records.begin(), records.end());
  const std::string_view git = obs::build_git_describe();
  std::string payload;
  std::string body;
  payload.reserve(records.size() * 16);
  for (const auto& [key, value] : records) {
    append_le<std::uint64_t>(payload, body.size());
    append_le<std::uint32_t>(body, static_cast<std::uint32_t>(key.size()));
    body += key;
    append_le<std::uint64_t>(body, value);
  }
  payload += body;

  std::string meta;
  meta += kind;
  meta += git;
  std::uint32_t crc = crc32(meta);
  crc = crc32(payload, crc);

  std::string file;
  file.reserve(kHeaderBytes + meta.size() + payload.size());
  file.append(kSegmentMagic, sizeof kSegmentMagic);
  append_le<std::uint32_t>(file, kSegmentVersion);
  append_le<std::uint32_t>(file, static_cast<std::uint32_t>(kind.size()));
  append_le<std::uint32_t>(file, static_cast<std::uint32_t>(git.size()));
  append_le<std::uint32_t>(file, crc);
  append_le<std::uint64_t>(file, records.size());
  append_le<std::uint64_t>(file, payload.size());
  append_le<std::uint64_t>(file, 0);  // reserved
  file += meta;
  file += payload;
  atomic_write(path, file);
  WM_COUNT_INFO_ADD(store.bytes_written, file.size());
  return crc;
}

// --- manifest / checkpoint text files ---------------------------------------

void write_crc_file(const std::string& path, const std::string& body) {
  std::string out = body;
  out += "end ";
  out += hex32(crc32(body));
  out += "\n";
  atomic_write(path, out);
}

std::string load_crc_file(const std::string& path, const char* what) {
  const std::string raw = read_file(path, what);
  // The last line must be `end <crc32hex>` over everything before it.
  const std::size_t nl = raw.rfind('\n', raw.size() >= 2 ? raw.size() - 2
                                                         : std::string::npos);
  const std::size_t line_start = (nl == std::string::npos) ? 0 : nl + 1;
  std::istringstream tail(raw.substr(line_start));
  std::string word, crc_hex;
  if (!(tail >> word >> crc_hex) || word != "end") {
    fail(StoreErrorCode::kTruncated,
         path + ": missing `end <crc>` trailer (torn write?)");
  }
  const std::string body = raw.substr(0, line_start);
  if (hex32(crc32(body)) != crc_hex) {
    fail(StoreErrorCode::kCrcMismatch, path + ": trailer crc mismatch");
  }
  return body;
}

FieldReader::FieldReader(const std::string& path, const char* what)
    : path_(path), in_(load_crc_file(path, what)) {}

std::optional<std::string> FieldReader::next() {
  std::string token;
  if (!(in_ >> token)) return std::nullopt;
  return token;
}

std::string FieldReader::word(const char* field) {
  std::optional<std::string> token = next();
  if (!token) {
    fail(StoreErrorCode::kBadManifest,
         path_ + ": missing " + field + " value");
  }
  return std::move(*token);
}

std::uint64_t FieldReader::number(const char* field) {
  const std::string token = word(field);
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || stop != end) {
    fail(StoreErrorCode::kBadManifest,
         path_ + ": bad " + field + " '" + token + "'");
  }
  return value;
}

SegmentRef FieldReader::segment() {
  SegmentRef ref{};
  ref.file = word("segment file");
  ref.count = number("segment count");
  const std::string crc = word("segment crc");
  const char* end = crc.data() + crc.size();
  const auto [stop, ec] = std::from_chars(crc.data(), end, ref.crc, 16);
  if (crc.size() != 8 || ec != std::errc() || stop != end) {
    fail(StoreErrorCode::kBadManifest,
         path_ + ": bad segment crc '" + crc + "'");
  }
  return ref;
}

std::string FieldReader::rest_of_line() {
  std::string line;
  std::getline(in_, line);
  if (!line.empty() && line.front() == ' ') line.erase(0, 1);
  return line;
}

// --- CertStore --------------------------------------------------------------

CertStore::CertStore(std::string dir, std::string kind, StoreOptions options)
    : dir_(std::move(dir)), kind_(std::move(kind)), options_(options) {}

CertStore CertStore::open(const std::string& dir, const std::string& kind,
                          const StoreOptions& options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) fail(StoreErrorCode::kIo, "cannot create store dir " + dir);
  CertStore s(dir, kind, options);
  if (fs::exists(s.segment_path(kManifestName))) {
    s.load_manifest();
    s.open_segments();
  } else {
    s.commit_manifest();
  }
  return s;
}

CertStore CertStore::open_at(const std::string& dir, const std::string& kind,
                             const std::vector<SegmentRef>& expected,
                             const StoreOptions& options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) fail(StoreErrorCode::kIo, "cannot create store dir " + dir);
  CertStore s(dir, kind, options);
  // Adopt the checkpoint's generation lineage if a manifest survives;
  // its segment *list* is overridden by the checkpoint's.
  if (fs::exists(s.segment_path(kManifestName))) {
    try {
      s.load_manifest();
    } catch (const StoreError&) {
      // A torn manifest is a legal crash artefact here: the checkpoint
      // names the authoritative set, and we rewrite the manifest below.
    }
  }
  s.refs_ = expected;
  s.segments_.clear();
  for (const SegmentRef& ref : expected) {
    const std::string path = s.segment_path(ref.file);
    if (!fs::exists(path)) {
      fail(StoreErrorCode::kCheckpointSkew,
           "checkpoint names segment " + ref.file +
               " which the store does not have (checkpoint newer than "
               "store)");
    }
    Segment seg = Segment::open(path, kind);
    if (seg.count() != ref.count || seg.payload_crc() != ref.crc) {
      fail(StoreErrorCode::kCheckpointSkew,
           "checkpoint names segment " + ref.file +
               " with different content than the store holds");
    }
    s.segments_.push_back(std::move(seg));
  }
  s.generation_ += 1;
  s.commit_manifest();
  s.purge_unreferenced();  // stale files from the crashed future
  return s;
}

void CertStore::wipe(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::string CertStore::segment_path(const std::string& file) const {
  return (fs::path(dir_) / file).string();
}

std::string CertStore::next_segment_name() {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%06llu.wmseg",
                static_cast<unsigned long long>(next_segment_id_++));
  return buf;
}

void CertStore::load_manifest() {
  const std::string path = segment_path(kManifestName);
  FieldReader in(path, "store manifest");
  if (in.next() != kManifestMagic) {
    fail(StoreErrorCode::kBadMagic, path + ": not a store manifest");
  }
  const std::uint64_t version = in.number("version");
  if (version != kManifestVersion) {
    fail(StoreErrorCode::kVersionSkew,
         path + ": manifest version " + std::to_string(version));
  }
  refs_.clear();
  std::string kind;
  while (const std::optional<std::string> word = in.next()) {
    if (word == "kind") {
      kind = in.word("kind");
    } else if (word == "generation") {
      generation_ = in.number("generation");
    } else if (word == "next_segment") {
      next_segment_id_ = in.number("next_segment");
    } else if (word == "segment") {
      refs_.push_back(in.segment());
    } else if (word == "git") {
      in.word("git");  // provenance only
    } else {
      fail(StoreErrorCode::kBadManifest, path + ": unknown field " + *word);
    }
  }
  if (kind != kind_) {
    fail(StoreErrorCode::kKindMismatch,
         path + ": manifest kind '" + kind + "', store opened as '" + kind_ +
             "'");
  }
}

void CertStore::commit_manifest() {
  std::string body;
  body += kManifestMagic;
  body += " ";
  body += std::to_string(kManifestVersion);
  body += "\nkind ";
  body += kind_;
  body += "\ngit ";
  body += obs::build_git_describe();
  body += "\ngeneration ";
  body += std::to_string(generation_);
  body += "\nnext_segment ";
  body += std::to_string(next_segment_id_);
  body += "\n";
  for (const SegmentRef& ref : refs_) {
    body += "segment ";
    body += ref.file;
    body += " ";
    body += std::to_string(ref.count);
    body += " ";
    body += hex32(ref.crc);
    body += "\n";
  }
  write_crc_file(segment_path(kManifestName), body);
}

void CertStore::open_segments() {
  segments_.clear();
  for (const SegmentRef& ref : refs_) {
    Segment seg = Segment::open(segment_path(ref.file), kind_);
    if (seg.count() != ref.count || seg.payload_crc() != ref.crc) {
      fail(StoreErrorCode::kCrcMismatch,
           ref.file + ": segment disagrees with the manifest that names it");
    }
    segments_.push_back(std::move(seg));
  }
}

bool CertStore::contains(const std::string& key) const {
  if (front_.contains(key)) return true;
  // Newest segment first: recently sealed keys are the likeliest repeats.
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    WM_COUNT_INFO(store.segment_probes);
    if (it->contains(key)) return true;
  }
  return false;
}

bool CertStore::insert_fresh(const std::string& key, std::uint64_t value) {
  bool fresh = !front_.contains(key);
  if (fresh) {
    for (auto it = segments_.rbegin(); fresh && it != segments_.rend(); ++it) {
      WM_COUNT_INFO(store.segment_probes);
      fresh = !it->contains(key);
    }
  }
  if (!fresh) {
    WM_COUNT(store.dup_hits);
    return false;
  }
  WM_COUNT(store.fresh_keys);
  front_.emplace(key, value);
  WM_COUNT_MAX(store.front_peak_keys, front_.size());
  if (front_.size() >= options_.spill_threshold) seal();
  return true;
}

std::uint64_t CertStore::distinct_keys() const {
  std::uint64_t sealed = 0;
  for (const SegmentRef& ref : refs_) sealed += ref.count;
  return sealed + front_.size();
}

void CertStore::seal() {
  if (front_.empty()) return;
  const std::string file = next_segment_name();
  const std::uint32_t crc = Segment::write(
      segment_path(file), kind_, {front_.begin(), front_.end()});
  SegmentRef ref{file, front_.size(), crc};
  generation_ += 1;
  refs_.push_back(ref);
  commit_manifest();
  segments_.push_back(Segment::open(segment_path(file), kind_));
  front_.clear();
  ++spills_;
  WM_COUNT_INFO(store.spills);
}

bool CertStore::compact_if_needed() {
  if (refs_.size() < options_.compact_min_segments || refs_.size() < 2) {
    return false;
  }
  std::vector<std::pair<std::string, std::uint64_t>> merged;
  merged.reserve(static_cast<std::size_t>(distinct_keys() - front_.size()));
  for (const Segment& seg : segments_) {
    seg.for_each([&](std::string_view key, std::uint64_t value) {
      merged.emplace_back(std::string(key), value);
    });
  }
  // insert_fresh never files one key twice across segments, but merge by
  // min anyway so compaction is safe on any store.
  std::sort(merged.begin(), merged.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (out > 0 && merged[out - 1].first == merged[i].first) {
      merged[out - 1].second = std::min(merged[out - 1].second,
                                        merged[i].second);
    } else {
      if (out != i) merged[out] = std::move(merged[i]);  // no self-move
      ++out;
    }
  }
  merged.resize(out);
  const std::string file = next_segment_name();
  const std::uint64_t count = merged.size();
  const std::uint32_t crc = Segment::write(segment_path(file), kind_,
                                           std::move(merged));
  generation_ += 1;
  refs_.clear();
  refs_.push_back(SegmentRef{file, count, crc});
  commit_manifest();  // replaced files stay until purge_unreferenced()
  segments_.clear();
  segments_.push_back(Segment::open(segment_path(file), kind_));
  ++compactions_;
  WM_COUNT_INFO(store.compactions);
  return true;
}

void CertStore::purge_unreferenced() {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == kManifestName) continue;
    const bool is_segment = name.rfind("seg-", 0) == 0;
    const bool is_tmp = name.size() > 4 &&
                        name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (!is_segment && !is_tmp) continue;
    const bool referenced =
        std::any_of(refs_.begin(), refs_.end(),
                    [&](const SegmentRef& r) { return r.file == name; });
    if (!referenced) {
      fs::remove(entry.path(), ec);
      WM_COUNT_INFO(store.purged_files);
    }
  }
}

StoreStats CertStore::stats() const {
  StoreStats s;
  s.front_keys = front_.size();
  s.segments = refs_.size();
  s.generation = generation_;
  s.spills = spills_;
  s.compactions = compactions_;
  for (const SegmentRef& ref : refs_) s.sealed_keys += ref.count;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file(ec)) {
      s.bytes_on_disk += static_cast<std::uint64_t>(entry.file_size(ec));
    }
  }
  return s;
}

}  // namespace wm::store
