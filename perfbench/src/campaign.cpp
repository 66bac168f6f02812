// campaign: Table 2 style grids through core::run_scenario_sweep on the
// process-global pool, each pass checked bit for bit against a serial
// reference (run_scenario_sweep is documented bit-identical for any
// SweepOptions).

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/expected_cost.hpp"
#include "core/omniscient.hpp"
#include "core/scenario_sweep.hpp"
#include "dist/tabulated_cdf.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runs.hpp"
#include "sim/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Nine laws x settings x 4 cost models x 7 heuristics scenarios.
constexpr std::size_t kSettingsPerLaw = 4;
constexpr int kSetupReps = 101;
constexpr int kMinPasses = 3;

struct Grid {
  std::vector<sre::dist::PaperInstance> dists;
  std::vector<sre::core::SweepScenario> shipped;    ///< brute-force on the pool
  std::vector<sre::core::SweepScenario> contained;  ///< every solver inline
};

/// The campaign as a user builds it: brute-force fans out on the pool.
Grid build_grid(std::uint64_t seed) {
  Grid g;
  g.dists = campaign_distributions(seed, kSettingsPerLaw);
  g.shipped = sre::core::make_scenario_grid(g.dists, cost_models(),
                                            campaign_heuristics(true));
  return g;
}

/// The same scenarios with every solver on the sweep's own workers, for the
/// serial reference and the scaling curve.
void add_contained(Grid& g) {
  g.contained = sre::core::make_scenario_grid(g.dists, cost_models(),
                                              campaign_heuristics(false));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_outcome(const sre::core::ScenarioOutcome& a,
                  const sre::core::ScenarioOutcome& b) {
  const auto& x = a.eval;
  const auto& y = b.eval;
  if (a.ok != b.ok || a.dist_label != b.dist_label ||
      a.model_label != b.model_label || a.solver != b.solver ||
      x.sequence.size() != y.sequence.size()) {
    return false;
  }
  for (std::size_t i = 0; i < x.sequence.size(); ++i) {
    if (!same_bits(x.sequence[i], y.sequence[i])) return false;
  }
  return same_bits(x.t1, y.t1) && same_bits(x.expected_cost_mc, y.expected_cost_mc) &&
         same_bits(x.mc_std_error, y.mc_std_error) &&
         same_bits(x.expected_cost_analytic, y.expected_cost_analytic) &&
         same_bits(x.normalized_mc, y.normalized_mc) &&
         same_bits(x.normalized_analytic, y.normalized_analytic);
}

/// Counts every outcome of `got` that differs from the reference.
void compare(const sre::core::ScenarioSweepReport& got,
             const sre::core::ScenarioSweepReport& ref, const char* what,
             Report& rep) {
  rep.attempt(ref.outcomes.size());
  if (got.outcomes.size() != ref.outcomes.size()) {
    rep.fail(std::string(what) + ": outcome count differs", ref.outcomes.size());
    return;
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
    if (!same_outcome(got.outcomes[i], ref.outcomes[i])) ++bad;
  }
  if (bad > 0) {
    rep.fail(std::string(what) + ": " + std::to_string(bad) +
                 " outcomes differ from the serial reference",
             bad);
  }
}

/// Plan invariants on the reference: covering, finite, not below the
/// omniscient cost. Returns the mean normalized Monte Carlo cost.
double check_reference(const Grid& g, const sre::core::ScenarioSweepReport& ref,
                       Report& rep) {
  double sum = 0.0;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
    const auto& sc = g.contained[i];
    const auto& e = ref.outcomes[i].eval;
    const bool ok = ref.outcomes[i].ok && !e.sequence.empty() &&
                    e.sequence.covers_distribution(*sc.dist) &&
                    std::isfinite(e.expected_cost_analytic) &&
                    std::isfinite(e.normalized_mc) &&
                    e.normalized_analytic >= 1.0;
    if (!ok) ++bad;
    sum += e.normalized_mc;
  }
  rep.attempt(ref.outcomes.size());
  if (bad > 0) rep.fail(std::to_string(bad) + " reference plans break an invariant", bad);
  return ref.outcomes.empty() ? 0.0 : sum / static_cast<double>(ref.outcomes.size());
}

sre::core::EvaluationOptions inline_mc() {
  sre::core::EvaluationOptions eval;
  eval.mc.parallel = false;
  return eval;
}

sre::core::ScenarioSweepReport serial_reference(const Grid& g) {
  sre::sim::SweepOptions serial;
  serial.serial = true;
  return sre::core::run_scenario_sweep(g.contained, inline_mc(), serial);
}

double scenario_busy_seconds() {
  const auto hists = sre::obs::histograms_snapshot();
  const auto it = hists.find("sim.sweep.scenario_seconds");
  return it == hists.end() ? 0.0 : it->second.sum;
}

std::string metric_suffix(std::string name) {
  for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return name;
}

}  // namespace

void run_campaign(const Options& opt, Report& rep) {
  rep.note("workload", quoted("campaign"));
  rep.note("seed", static_cast<double>(opt.seed));

  // Set-up, several times: grid construction and an nproc-worker pool start.
  std::vector<double> setups;
  Grid g;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    g = build_grid(opt.seed);
    { sre::sim::ThreadPool pool(opt.nproc); setups.push_back(seconds_since(t0)); }
  }
  add_contained(g);
  (void)sre::sim::ThreadPool::global();  // the pool the passes run on

  const auto ref = serial_reference(g);
  const double mean_norm = check_reference(g, ref, rep);

  // Measured passes: the shipped configuration — sweep, nested Monte
  // Carlo and brute-force all on the process-global pool.
  std::vector<double> walls_ms;
  std::vector<double> rates;
  const auto start = Clock::now();
  sre::core::ScenarioSweepReport last;
  while (walls_ms.size() < static_cast<std::size_t>(kMinPasses) ||
         seconds_since(start) < opt.seconds) {
    const auto t0 = Clock::now();
    last = sre::core::run_scenario_sweep(g.shipped);
    const double wall = seconds_since(t0);
    compare(last, ref, "campaign pass", rep);
    walls_ms.push_back(wall * 1e3);
    rates.push_back(static_cast<double>(g.shipped.size()) / wall);
  }
  const Summary pass = summarize(walls_ms);
  if (!pass.ordered()) rep.fail("pass-time percentiles out of order " + pass.json());

  rep.note("scenarios", static_cast<double>(g.shipped.size()));
  rep.note("pass_ms", pass.json());
  rep.note("threads", "{\"nproc\":" + std::to_string(opt.nproc) +
                          ",\"sweep_pool\":" +
                          std::to_string(sre::sim::ThreadPool::global().size()) +
                          ",\"nested_mc_and_brute_force_pool\":\"global\"" +
                          ",\"reference\":1}");
  rep.note("cdf_cache", "{\"hits\":" + num(static_cast<double>(last.cache.hits)) +
                            ",\"misses\":" + num(static_cast<double>(last.cache.misses)) +
                            ",\"tables_built\":" +
                            num(static_cast<double>(last.cache.tables_built)) + "}");

  rep.metric("setup_s", median(setups), "s");
  rep.metric("goodput_per_s", median(rates), "1/s");
  rep.metric("latency_p50_ms", pass.p50, "ms");
  rep.metric("latency_p90_ms", pass.p90, "ms");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.metric("mean_normalized_cost", mean_norm, "ratio");
}

void run_campaign_trace(const Options& opt, Report& rep) {
  rep.note("workload", quoted("campaign"));
  rep.note("seed", static_cast<double>(opt.seed));
  Grid g = build_grid(opt.seed);
  add_contained(g);
  const double n = static_cast<double>(g.contained.size());

  // Scaling curve. Every point keeps Monte Carlo and brute-force on the
  // sweep's own workers, so the pool named is the only one the pass uses.
  sre::obs::reset_all();
  auto t0 = Clock::now();
  const auto ref = serial_reference(g);
  const double serial_wall = seconds_since(t0);
  const double serial_busy = scenario_busy_seconds();
  (void)check_reference(g, ref, rep);

  const unsigned points[3] = {1, 2, opt.nproc};
  const char* names[3] = {"sim.sweep.speedup_1t", "sim.sweep.speedup_2t",
                          "sim.sweep.speedup_nproc"};
  std::string curve = "[{\"threads\":1,\"pool\":\"serial\",\"wall_s\":" +
                      num(serial_wall) + "}";
  double wall_nproc = 0.0, busy_nproc = 0.0;
  std::uint64_t steals_nproc = 0;
  for (int k = 0; k < 3; ++k) {
    sre::sim::SweepOptions so;
    so.threads = points[k];
    sre::obs::reset_all();
    t0 = Clock::now();
    const auto r = sre::core::run_scenario_sweep(g.contained, inline_mc(), so);
    const double wall = seconds_since(t0);
    compare(r, ref, "scaling pass", rep);
    rep.metric(names[k], serial_wall / wall, "x");
    curve += ",{\"threads\":" + std::to_string(points[k]) +
             ",\"sweep_pool\":" + std::to_string(r.sweep.threads) +
             ",\"caller_helps\":true,\"nested_pool\":\"inline\",\"wall_s\":" +
             num(wall) +
             ",\"speedup\":" + num(serial_wall / wall) + "}";
    if (k == 2) {
      wall_nproc = wall;
      busy_nproc = scenario_busy_seconds();
      steals_nproc = r.sweep.steals;
    }
  }
  rep.note("scaling_curve", curve + "]");
  rep.metric("sim.sweep.threads_nproc", opt.nproc, "count");
  rep.metric("sim.sweep.efficiency", serial_wall / wall_nproc / opt.nproc, "ratio");
  // The joining thread helps run scenarios, so nproc + 1 threads share the
  // pool's work.
  rep.metric("sim.sweep.busy_share", busy_nproc / ((opt.nproc + 1) * wall_nproc),
             "ratio");
  rep.metric("sim.sweep.inflation",
             serial_busy > 0 ? busy_nproc / serial_busy : 0.0, "x");
  rep.metric("sim.sweep.steals", static_cast<double>(steals_nproc), "count");

  // The shipped configuration, untraced then with the flight recorder
  // capturing every span: the wall-time ratio is the tracing cost.
  t0 = Clock::now();
  const auto shipped = sre::core::run_scenario_sweep(g.shipped);
  const double wall_plain = seconds_since(t0);
  compare(shipped, ref, "shipped pass", rep);
  sre::obs::recorder::start();
  t0 = Clock::now();
  const auto traced = sre::core::run_scenario_sweep(g.shipped);
  const double wall_traced = seconds_since(t0);
  sre::obs::recorder::stop();
  compare(traced, ref, "traced pass", rep);
  rep.metric("obs.trace_overhead_share", 1.0 - wall_plain / wall_traced, "ratio");
  rep.note("shipped_pass", "{\"sweep_pool\":" + std::to_string(shipped.sweep.threads) +
                               ",\"nested_pool\":\"global\",\"wall_s\":" +
                               num(wall_plain) + ",\"traced_wall_s\":" +
                               num(wall_traced) + "}");
  rep.metric("dist.cdf_cache.hits", static_cast<double>(shipped.cache.hits), "count");
  rep.metric("dist.cdf_cache.misses", static_cast<double>(shipped.cache.misses), "count");
  rep.metric("dist.cdf_cache.tables_built",
             static_cast<double>(shipped.cache.tables_built), "count");
  rep.metric("dist.cdf_cache.table_reuses",
             static_cast<double>(shipped.cache.table_reuses), "count");

  // Serial replay through the public calls: generate (sharing one CdfCache
  // per law, as the sweep does), Monte Carlo evaluation, analytic cost.
  std::map<const sre::dist::Distribution*, std::unique_ptr<sre::dist::CdfCache>> caches;
  std::map<std::string, std::pair<double, double>> gen_ms;  // name -> (sum, count)
  double mc_ms = 0.0, other_ms = 0.0;
  std::uint64_t replay_bad = 0;
  const auto eval = inline_mc();
  for (std::size_t i = 0; i < g.contained.size(); ++i) {
    const auto& sc = g.contained[i];
    auto& cache = caches[sc.dist.get()];
    if (!cache) cache = std::make_unique<sre::dist::CdfCache>(sc.dist);
    sre::core::GenerateContext ctx;
    ctx.cdf_cache = cache.get();
    t0 = Clock::now();
    const auto seq = sc.solver->generate(*sc.dist, sc.model, ctx);
    const double g_ms = seconds_since(t0) * 1e3;
    t0 = Clock::now();
    const auto mc = sre::core::expected_cost_monte_carlo(seq, *sc.dist, sc.model, eval.mc);
    mc_ms += seconds_since(t0) * 1e3;
    t0 = Clock::now();
    (void)sre::core::expected_cost_analytic(seq, *sc.dist, sc.model);
    (void)sre::core::omniscient_cost(*sc.dist, sc.model);
    other_ms += seconds_since(t0) * 1e3;
    auto& slot = gen_ms[sc.solver->name()];
    slot.first += g_ms;
    slot.second += 1.0;
    if (seq.values() != ref.outcomes[i].eval.sequence.values() ||
        !same_bits(mc.mean, ref.outcomes[i].eval.expected_cost_mc)) {
      ++replay_bad;
    }
  }
  rep.attempt(g.contained.size());
  if (replay_bad > 0) rep.fail("serial replay differs from the sweep", replay_bad);
  double gen_total = 0.0;
  for (const auto& [name, v] : gen_ms) {
    rep.metric("core.generate_ms." + metric_suffix(name), v.first / v.second, "ms");
    gen_total += v.first;
  }
  rep.metric("sim.mc_eval_ms", mc_ms / n, "ms");
  rep.metric("sim.mc_share", mc_ms / (gen_total + mc_ms + other_ms), "ratio");
}

}  // namespace perfbench
