#include "store/checkpoint.hpp"

#include <cstdio>
#include <optional>

namespace wm::store {

namespace {
constexpr const char* kMagic = "wm-census-checkpoint";
}

void write_checkpoint(const std::string& path, const Checkpoint& cp) {
  std::string body;
  body += kMagic;
  body += " ";
  body += std::to_string(Checkpoint::kVersion);
  body += "\nkind ";
  body += cp.kind;
  body += "\nspace ";
  body += std::to_string(cp.space);
  body += "\nbatch ";
  body += std::to_string(cp.batch);
  body += "\nnext ";
  body += std::to_string(cp.next);
  body += "\nclasses ";
  body += std::to_string(cp.classes);
  body += "\nadmissible ";
  body += std::to_string(cp.admissible);
  body += "\nscanned ";
  body += std::to_string(cp.scanned);
  body += "\nbatches ";
  body += std::to_string(cp.batches);
  body += "\ncheckpoints ";
  body += std::to_string(cp.checkpoints);
  body += "\n";
  for (const SegmentRef& ref : cp.store_segments) {
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof crc_hex, "%08x", ref.crc);
    body += "segment ";
    body += ref.file;
    body += " ";
    body += std::to_string(ref.count);
    body += " ";
    body += crc_hex;
    body += "\n";
  }
  // The manifest JSON is one line by construction (obs::manifest_json
  // never emits raw newlines); keep it last so the grammar stays
  // prefix-parseable.
  body += "manifest ";
  body += cp.manifest_json;
  body += "\n";
  write_crc_file(path, body);
}

Checkpoint load_checkpoint(const std::string& path) {
  FieldReader in(path, "census checkpoint");
  if (in.next() != kMagic) {
    throw StoreError(StoreErrorCode::kBadMagic,
                     path + ": not a census checkpoint");
  }
  const std::uint64_t version = in.number("version");
  if (version != Checkpoint::kVersion) {
    throw StoreError(StoreErrorCode::kVersionSkew,
                     path + ": checkpoint version " + std::to_string(version) +
                         ", this build reads " +
                         std::to_string(Checkpoint::kVersion));
  }
  Checkpoint cp;
  bool saw_kind = false, saw_next = false;
  while (const std::optional<std::string> word = in.next()) {
    if (word == "kind") {
      cp.kind = in.word("kind");
      saw_kind = true;
    } else if (word == "space") {
      cp.space = in.number("space");
    } else if (word == "batch") {
      cp.batch = in.number("batch");
    } else if (word == "next") {
      cp.next = in.number("next");
      saw_next = true;
    } else if (word == "classes") {
      cp.classes = in.number("classes");
    } else if (word == "admissible") {
      cp.admissible = in.number("admissible");
    } else if (word == "scanned") {
      cp.scanned = in.number("scanned");
    } else if (word == "batches") {
      cp.batches = in.number("batches");
    } else if (word == "checkpoints") {
      cp.checkpoints = in.number("checkpoints");
    } else if (word == "segment") {
      cp.store_segments.push_back(in.segment());
    } else if (word == "manifest") {
      cp.manifest_json = in.rest_of_line();
    } else {
      throw StoreError(StoreErrorCode::kBadManifest,
                       path + ": unknown field " + *word);
    }
  }
  if (!saw_kind || !saw_next) {
    throw StoreError(StoreErrorCode::kTruncated,
                     path + ": missing required fields");
  }
  if (cp.next > cp.space) {
    throw StoreError(StoreErrorCode::kBadManifest,
                     path + ": frontier past the end of the space");
  }
  return cp;
}

}  // namespace wm::store
