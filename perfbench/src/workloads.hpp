#pragma once

// The benchmark's inputs, all pure functions of the workload seed.
//
//   serve_hot   the 36 Table 1 queries (9 laws x 4 cost models, refined-dp,
//               n = 500), every one resident in the plan cache after
//               warm-up: the event loop, framing, protocol and cache lookup
//               do the work while the solvers idle.
//   campaign    a Table 2 style grid through core::run_scenario_sweep: the
//               nine Table 1 laws at seeded parameter settings x 4 cost
//               models x the 7 Table 2 heuristics at paper sizes
//               (M = 5000, N = 1000, n = 1000).

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/scenario_sweep.hpp"
#include "dist/factory.hpp"

namespace perfbench {

/// serve_hot's distinct queries as wire-line tails: everything after the id
/// field, so a request line is `{"id":"<id>",` + tail.
[[nodiscard]] std::vector<std::string> hot_tails();

/// Query index of request `i` of the seeded stream, uniform over `queries`
/// queries; independent of connection count and timing.
[[nodiscard]] std::uint32_t pick_query(std::uint64_t seed, std::uint64_t i,
                                       std::size_t queries);

/// The four evaluation cost models (alpha, beta, gamma), labelled.
[[nodiscard]] std::vector<std::pair<std::string, sre::core::CostModel>>
cost_models();

/// The campaign's distributions: each Table 1 law at `settings_per_law`
/// seeded parameter settings around the paper's values.
[[nodiscard]] std::vector<sre::dist::PaperInstance> campaign_distributions(
    std::uint64_t seed, std::size_t settings_per_law);

/// The seven Table 2 heuristics at paper sizes. `nested_parallel` lets
/// brute-force fan its t1 grid out over the process-global pool (the
/// shipped configuration); false keeps it on the calling thread.
[[nodiscard]] std::vector<sre::core::HeuristicPtr> campaign_heuristics(
    bool nested_parallel);

/// Uniform double in [0, 1) from (seed, stream, index).
[[nodiscard]] double uniform01(std::uint64_t seed, std::uint64_t stream,
                               std::uint64_t index);

}  // namespace perfbench
