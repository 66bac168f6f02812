#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

#include "core/heuristics/brute_force.hpp"
#include "core/heuristics/dp_discretization.hpp"
#include "core/heuristics/moment_based.hpp"
#include "obs/report.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

double lerp(double lo, double hi, double u) { return lo + (hi - lo) * u; }

/// `"dist":...}`: a request line without its leading `{"id":...,`.
std::string line_tail(const std::string& dist, const sre::core::CostModel& m,
                      const std::string& solver, std::size_t n) {
  using sre::obs::format_double;
  return "\"dist\":\"" + dist + "\",\"alpha\":" + format_double(m.alpha) +
         ",\"beta\":" + format_double(m.beta) +
         ",\"gamma\":" + format_double(m.gamma) + ",\"solver\":\"" + solver +
         "\",\"n\":" + std::to_string(n) + "}";
}

}  // namespace

std::vector<std::string> hot_tails() {
  std::vector<std::string> tails;
  for (const auto& inst : sre::dist::paper_distributions()) {
    for (const auto& [label, model] : cost_models()) {
      (void)label;
      tails.push_back(line_tail(inst.label, model, "refined-dp", 500));
    }
  }
  return tails;
}

double uniform01(std::uint64_t seed, std::uint64_t stream,
                 std::uint64_t index) {
  std::uint64_t state = sre::sim::substream_seed(
      sre::sim::substream_seed(seed, stream), index);
  return static_cast<double>(sre::sim::splitmix64(state) >> 11) * 0x1.0p-53;
}

std::uint32_t pick_query(std::uint64_t seed, std::uint64_t i,
                         std::size_t queries) {
  return static_cast<std::uint32_t>(uniform01(seed, 1, i) *
                                    static_cast<double>(queries));
}

std::vector<std::pair<std::string, sre::core::CostModel>> cost_models() {
  return {
      {"reservation-only", sre::core::CostModel::reservation_only()},
      {"alpha1-beta1", {1.0, 1.0, 0.0}},
      {"alpha1-beta1-gamma1", {1.0, 1.0, 1.0}},
      {"alpha0.95-beta1-gamma1.05", {0.95, 1.0, 1.05}},
  };
}

std::vector<sre::dist::PaperInstance> campaign_distributions(
    std::uint64_t seed, std::size_t settings_per_law) {
  using sre::dist::ParamMap;
  std::vector<sre::dist::PaperInstance> out;
  for (std::size_t s = 0; s < settings_per_law; ++s) {
    const auto u = [&](std::uint64_t j) { return uniform01(seed, 3000 + j, s); };
    // A log-uniform scale factor in [0.5, 2] around each Table 1 value,
    // shapes jittered inside the ranges the paper's laws occupy.
    const double f = std::exp(lerp(std::log(0.5), std::log(2.0), u(0)));
    const double lo = lerp(5.0, 15.0, u(3));
    const double bp_l = lerp(0.5, 2.0, u(4));
    const std::vector<std::pair<std::string, ParamMap>> laws = {
        {"exponential", {{"lambda", f}}},
        {"weibull", {{"lambda", f}, {"kappa", lerp(0.5, 1.5, u(1))}}},
        {"gamma", {{"alpha", lerp(1.5, 3.0, u(1))}, {"beta", 2.0 * f}}},
        {"lognormal",
         {{"mu", lerp(2.0, 4.0, u(1))}, {"sigma", lerp(0.3, 0.8, u(2))}}},
        {"truncatednormal",
         {{"mu", lerp(6.0, 10.0, u(1))}, {"sigma", lerp(1.0, 2.0, u(2))},
          {"a", 0.0}}},
        {"pareto", {{"nu", 1.5 * f}, {"alpha", lerp(2.5, 3.5, u(1))}}},
        {"uniform", {{"a", lo}, {"b", lo + lerp(5.0, 15.0, u(1))}}},
        {"beta", {{"alpha", lerp(1.5, 3.0, u(1))}, {"beta", lerp(1.5, 3.0, u(2))}}},
        {"boundedpareto",
         {{"l", bp_l}, {"h", bp_l * lerp(10.0, 30.0, u(1))},
          {"alpha", lerp(1.5, 2.5, u(2))}}},
    };
    for (const auto& [name, params] : laws) {
      auto d = sre::dist::make_distribution(name, params);
      if (!d) throw std::runtime_error("campaign law " + name + " rejected");
      out.push_back({name + "#" + std::to_string(s), std::move(d)});
    }
  }
  return out;
}

std::vector<sre::core::HeuristicPtr> campaign_heuristics(bool nested_parallel) {
  using namespace sre::core;
  using sre::sim::DiscretizationOptions;
  using sre::sim::DiscretizationScheme;
  // core::standard_heuristics() at paper sizes, with the brute-force pool
  // choice exposed so the scaling curve controls every pool it uses.
  BruteForceOptions bf;  // M = 5000 t1 candidates, N = 1000 samples
  bf.parallel = nested_parallel;
  return {
      std::make_shared<BruteForce>(bf),
      std::make_shared<MeanByMean>(),
      std::make_shared<MeanStdev>(),
      std::make_shared<MeanDoubling>(),
      std::make_shared<MedianByMedian>(),
      std::make_shared<DiscretizedDp>(DiscretizationOptions{
          1000, 1e-7, DiscretizationScheme::kEqualTime}),
      std::make_shared<DiscretizedDp>(DiscretizationOptions{
          1000, 1e-7, DiscretizationScheme::kEqualProbability}),
  };
}

}  // namespace perfbench
