// Hash finalisation: an avalanche mixer for combining and spreading
// hash bits.
//
// std::hash on integer keys is the identity on every mainstream standard
// library, so a hash folded from raw integers keeps their structure:
// sequential keys land in adjacent buckets. Bisimulation signature
// hashing (bisim/bisimulation.cpp) mixes each element in with it, and
// bench_dedup draws its spread keys from it.
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
