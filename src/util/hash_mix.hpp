// Hash finalisation for hand-rolled hash tables.
//
// std::hash on integer keys is the identity on every mainstream standard
// library, so any table that derives a slot index from the raw hash with
// a modulo sees sequential keys hammer adjacent buckets. The serve memo
// cache (serve/memo_cache.hpp) therefore finalises the raw hash with an
// avalanche mixer before using any of its bits for shard or slot
// placement; bisimulation signature hashing mixes with it too.
#pragma once

#include <cstdint>

namespace wm {

/// splitmix64 finaliser: every input bit flips every output bit with
/// probability ~1/2, so low-order slot indices are uniform even for
/// identity hashes of sequential integers.
inline std::uint64_t hash_mix(std::uint64_t h) noexcept {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace wm
