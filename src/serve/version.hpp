#pragma once

// Fleet-scale campaign serving: engine version salt.
//
// Every content-addressed result cache key mixes this salt in.  The
// engine guarantees that a (campaign_seed, cell, repetition) result is
// a pure function of its spec *for a fixed engine version* — any PR
// that changes simulated trajectories (MAC semantics, event ordering,
// RNG derivation, default parameters) MUST bump the salt, which
// atomically invalidates every existing cache entry (a stale entry
// misses instead of returning a silent wrong answer).  PRs that only add features, speed
// up code without changing trajectories (the PR-5 contract), or touch
// analysis/output layers do not bump it.

#include <string_view>

namespace csmabw::serve {

inline constexpr std::string_view kEngineVersionSalt = "csmabw-engine-v2";

}  // namespace csmabw::serve
