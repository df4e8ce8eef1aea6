// The stream/tag registry: every compile-time constant that names an RNG
// stream anywhere in the tree lives HERE, in one of three namespaces, each
// with compile-checked pairwise uniqueness.
//
// Why a registry: the determinism story (byte-identical trials at any thread
// count and batch lane width) rests on (seed, stream) and (seed, experiment,
// row) pairs never colliding. PR 9 paid for one silent collision — E1's old
// `n*131 + d` row coordinates gave grid cells (1024, 136) and (1025, 5) the
// same seed, so two supposedly independent rows reran identical trials.
// Scattered `1 << 62`-style tag literals have the same failure mode: nothing
// checks two files against each other. Registering every constant in one
// header makes the collision check a static_assert, and radio_lint's
// `stream-tag-registry` rule keeps new literals from growing outside it
// (docs/static-analysis.md).
//
// The three namespaces (a value may repeat ACROSS namespaces, never within):
//
//   * experiment ids — the second argument of derive_row_seed(). One id per
//     experiment driver (E1…E18) plus the examples that derive row seeds.
//   * stream tags — fixed second arguments of Rng::for_stream(): the
//     session tag bits OR-ed over trial indices (high bits, so `tag | trial`
//     stays disjoint from every plain trial stream) and the handful of fixed
//     stream ids the examples use. Dynamic stream indices (trial numbers,
//     `cell++` counters, adversary probe streams derived from a drawn
//     probe_seed) are data, not registry entries.
//   * row tags — the fixed third/fourth arguments of derive_row_seed():
//     registered stable_row_tag() strings and small section discriminators.
//     Row tags are already scoped by the experiment id's avalanche, so this
//     uniqueness is stricter than correctness needs — but it is free, and it
//     compile-checks that no two registered strings FNV-collide.
//
// To register a new tag: add the constant to its section AND to that
// section's kAll… array. A duplicate value fails the build via the
// static_asserts at the bottom (negative compile test:
// tests/util/stream_tags_collision_fail.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace radio::stream_tags {

// ---------------------------------------------------------------------------
// Experiment ids (derive_row_seed argument 2).
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kExampleResilienceDrill = 0;
inline constexpr std::uint64_t kE1CentralizedScaling = 1;
inline constexpr std::uint64_t kE2CentralizedDensity = 2;
inline constexpr std::uint64_t kE3DistributedScaling = 3;
inline constexpr std::uint64_t kE4ProtocolComparison = 4;
inline constexpr std::uint64_t kE5LayerStructure = 5;
inline constexpr std::uint64_t kE6CoveringMatching = 6;
inline constexpr std::uint64_t kE7LowerBounds = 7;
inline constexpr std::uint64_t kE8DenseRegime = 8;
inline constexpr std::uint64_t kE9PhaseAblation = 9;
inline constexpr std::uint64_t kE10ModelEquivalence = 10;
inline constexpr std::uint64_t kE11FaultRobustness = 11;
inline constexpr std::uint64_t kE12GossipScaling = 12;
inline constexpr std::uint64_t kE13AdaptiveBackoff = 13;
inline constexpr std::uint64_t kE14Multisource = 14;
inline constexpr std::uint64_t kE15StructuredTopologies = 15;
inline constexpr std::uint64_t kE16StreamThroughput = 16;
inline constexpr std::uint64_t kE17StreamLatency = 17;
inline constexpr std::uint64_t kE18StreamGiant = 18;

inline constexpr std::uint64_t kAllExperimentIds[] = {
    kExampleResilienceDrill, kE1CentralizedScaling,  kE2CentralizedDensity,
    kE3DistributedScaling,   kE4ProtocolComparison,  kE5LayerStructure,
    kE6CoveringMatching,     kE7LowerBounds,         kE8DenseRegime,
    kE9PhaseAblation,        kE10ModelEquivalence,   kE11FaultRobustness,
    kE12GossipScaling,       kE13AdaptiveBackoff,    kE14Multisource,
    kE15StructuredTopologies, kE16StreamThroughput,  kE17StreamLatency,
    kE18StreamGiant,
};

// ---------------------------------------------------------------------------
// Fixed Rng::for_stream stream tags / stream ids (argument 2).
// ---------------------------------------------------------------------------

/// Sub-stream tag bits for a StreamSession's two generators (sim/stream).
/// Trial indices are small integers, so setting a high bit keeps
/// (seed, tag | stream) disjoint from every (seed, trial) stream that
/// run_trials or the batch scheduler derives.
inline constexpr std::uint64_t kArrivalStreamTag = std::uint64_t{1} << 62;
inline constexpr std::uint64_t kProtocolStreamTag = std::uint64_t{1} << 63;

/// E2's giant-n row: one fixed stream seeds the whole implicit-backend row.
inline constexpr std::uint64_t kE2GiantRowStream = 0;

/// Fixed stream ids of the example programs (examples/ is linted too; demos
/// share the seed's stream namespace with each other, nothing else).
inline constexpr std::uint64_t kExampleResilienceRunStream = 7;
inline constexpr std::uint64_t kExampleFaceoffBuildStream = 99;
inline constexpr std::uint64_t kExampleGossipRunStream = 100;
inline constexpr std::uint64_t kExampleFaceoffRunStreamBase = 1000;

inline constexpr std::uint64_t kAllStreamTags[] = {
    kArrivalStreamTag,          kProtocolStreamTag,
    kE2GiantRowStream,          kExampleResilienceRunStream,
    kExampleFaceoffBuildStream, kExampleGossipRunStream,
    kExampleFaceoffRunStreamBase,
};

// ---------------------------------------------------------------------------
// Registered row tags (derive_row_seed arguments 3/4).
// ---------------------------------------------------------------------------

// String-keyed rows: registering the FNV values compile-checks that no two
// registered strings hash-collide.
inline constexpr std::uint64_t kRowCentralizedThm5 =
    stable_row_tag("centralized-thm5");
inline constexpr std::uint64_t kRowTreeSchedule = stable_row_tag("tree-schedule");
inline constexpr std::uint64_t kRowRumor = stable_row_tag("rumor");
inline constexpr std::uint64_t kRowThm8 = stable_row_tag("thm8");
inline constexpr std::uint64_t kRowThm6 = stable_row_tag("thm6");
inline constexpr std::uint64_t kRowStress = stable_row_tag("stress");
inline constexpr std::uint64_t kRowLossFaults = stable_row_tag("loss-faults");

// E6's section discriminators (the |Y| scale / matching ratio / Prop 2
// sections of the covering-matching table).
inline constexpr std::uint64_t kE6RowSampledCover = 0;
inline constexpr std::uint64_t kE6RowPrivateMatching = 1;
inline constexpr std::uint64_t kE6RowProposition2 = 2;

/// Second-coordinate placeholder for 4-argument derive_row_seed call sites
/// whose row is fully named by the first tag (kept so existing rows keep
/// their exact historical seeds). Lives outside the row-tag uniqueness array
/// on purpose: it shares the value of kE6RowSampledCover but occupies the
/// row_tag2 slot, a different coordinate.
inline constexpr std::uint64_t kSubRowNone = 0;

inline constexpr std::uint64_t kAllRowTags[] = {
    kRowCentralizedThm5, kRowTreeSchedule,     kRowRumor,
    kRowThm8,            kRowThm6,             kRowStress,
    kRowLossFaults,      kE6RowSampledCover,   kE6RowPrivateMatching,
    kE6RowProposition2,
};

// ---------------------------------------------------------------------------
// Compile-time pairwise uniqueness.
// ---------------------------------------------------------------------------

namespace detail {

template <std::size_t N>
constexpr bool all_distinct(const std::uint64_t (&tags)[N]) noexcept {
  for (std::size_t i = 0; i < N; ++i)
    for (std::size_t j = i + 1; j < N; ++j)
      if (tags[i] == tags[j]) return false;
  return true;
}

}  // namespace detail

static_assert(detail::all_distinct(kAllExperimentIds),
              "two registered experiment ids collide — every derive_row_seed "
              "experiment namespace must be unique");
static_assert(detail::all_distinct(kAllStreamTags),
              "two registered Rng::for_stream tags collide — streams derived "
              "from them would silently share every draw");
static_assert(detail::all_distinct(kAllRowTags),
              "two registered row tags collide (for string tags: an FNV "
              "hash collision) — rename one of the rows");

}  // namespace radio::stream_tags
