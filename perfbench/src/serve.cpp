// serve_hot: measured run and traced run against a spawned
// `sre_serve --tcp 0 --threads 2`.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "core/expected_cost.hpp"
#include "core/heuristics/dp_discretization.hpp"
#include "loadgen.hpp"
#include "obs/minijson.hpp"
#include "runs.hpp"
#include "sim/discretize.hpp"
#include "srv/cache.hpp"
#include "srv/protocol.hpp"
#include "srv/request.hpp"
#include "srv/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace json = sre::obs::minijson;

constexpr unsigned kServerWorkers = 2;
/// Closed-loop requests in flight per connection (warm-up and saturation).
constexpr std::size_t kWindow = 16;
/// Offered rate of the open-loop phase, requests per second: about half the
/// saturation goodput measured when the benchmark was defined, so the phase
/// measures latency below the knee.
constexpr double kOpenRate = 20000.0;
constexpr double kLatencyLimitMs = 50.0;
constexpr int kRounds = 32;
/// Set-up-only cycles (spawn -> PORT -> pong -> warm-up -> shutdown) timed
/// besides the set-up that opens each round.
constexpr int kSetupCycles = 48;
constexpr double kBurnInSeconds = 2.0;
/// The headlines count calm stretches only: a set-up during which the host
/// stole no CPU time, and a kSliceSeconds slice of a phase in which neither
/// the slice nor the one before it lost time to the host. When less than
/// this share of the set-ups or slices is calm, the headline counts them all.
constexpr double kMinCalmShare = 0.05;

/// The "result" object of an ok response line, or an empty view.
std::string_view result_of(std::string_view line) {
  if (line.find(",\"ok\":true,") == std::string_view::npos) return {};
  const auto pos = line.find("\"result\":");
  if (pos == std::string_view::npos || line.back() != '}') return {};
  const std::size_t start = pos + 9;
  return line.substr(start, line.size() - 1 - start);
}

using Tails = std::vector<std::string>;

std::string request_line(const Tails& tails, std::uint32_t key) {
  return "{\"id\":\"ref\"," + tails[key];
}

/// First result bytes served per query; every later response for the same
/// query must repeat them exactly.
class ResultBook {
 public:
  explicit ResultBook(std::size_t keys) : results_(keys) {}

  bool check(std::uint32_t key, std::string_view line) {
    const std::string_view result = result_of(line);
    if (result.empty()) return false;
    auto& slot = results_[key];
    if (!slot) {
      slot = std::string(result);
      seen_.push_back(key);
      return true;
    }
    return *slot == result;
  }

  [[nodiscard]] const std::vector<std::uint32_t>& seen() const { return seen_; }
  [[nodiscard]] const std::string& result(std::uint32_t key) const {
    return *results_[key];
  }

 private:
  std::vector<std::optional<std::string>> results_;
  std::vector<std::uint32_t> seen_;
};

/// Checks every served query against srv::handle_line on an in-process
/// PlannerService of the same build (byte identity) and against the plan
/// invariants. Returns the mean normalized cost over the served plans.
double verify_served(const Tails& tails, const ResultBook& book,
                     unsigned threads, Report& rep) {
  sre::srv::ServiceConfig cfg;
  cfg.workers = threads;
  cfg.queue_capacity = 4096;
  sre::srv::PlannerService reference(cfg);
  const auto& keys = book.seen();
  std::vector<std::string> problems(keys.size());
  std::vector<double> normalized(keys.size(), 0.0);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < keys.size();
         i = next.fetch_add(1)) {
      const std::uint32_t key = keys[i];
      const std::string line = request_line(tails, key);
      const auto outcome = sre::srv::handle_line(reference, line);
      const std::string& served = book.result(key);
      if (result_of(outcome.line) != served) {
        problems[i] = "result differs from in-process handle_line: " + line;
        continue;
      }
      const auto doc = json::parse(served);
      const json::Value* plan = doc.ok ? doc.value.find("plan") : nullptr;
      const json::Value* expected = doc.ok ? doc.value.find("expected_cost") : nullptr;
      const json::Value* omni = doc.ok ? doc.value.find("omniscient_cost") : nullptr;
      const json::Value* norm = doc.ok ? doc.value.find("normalized_cost") : nullptr;
      if (plan == nullptr || !plan->is_array() || expected == nullptr ||
          omni == nullptr || norm == nullptr) {
        problems[i] = "malformed result: " + line;
        continue;
      }
      std::vector<double> values;
      for (const auto& v : plan->array) values.push_back(v.number);
      const auto seq = sre::core::ReservationSequence::try_create(values);
      const auto prep = sre::srv::prepare(sre::srv::parse_request_line(line));
      if (!seq || !seq->covers_distribution(*prep.dist)) {
        problems[i] = "plan not strictly increasing or not covering: " + line;
      } else if (!std::isfinite(expected->number) ||
                 !std::isfinite(norm->number) ||
                 expected->number < omni->number) {
        problems[i] = "expected cost not finite or below omniscient: " + line;
      }
      normalized[i] = norm->number;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  double sum = 0.0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    rep.attempt();
    if (!problems[i].empty()) rep.fail(problems[i]);
    sum += normalized[i];
  }
  return keys.empty() ? 0.0 : sum / static_cast<double>(keys.size());
}

/// Slice k of a phase is calm when the host stole no time in it and, for
/// latency, in the slice before it (whose stall can still hold requests
/// up; a closed loop's count is not inflated by it).
bool calm(const PhaseStats& st, std::size_t k, bool with_previous) {
  return st.steal_by_slice_ms[k] == 0.0 &&
         (!with_previous || k == 0 || st.steal_by_slice_ms[k - 1] == 0.0);
}

void account(const PhaseStats& st, const char* phase, Report& rep) {
  rep.attempt(st.sent);
  if (st.failed > 0) {
    rep.fail(std::string(phase) + ": " + std::to_string(st.failed) +
                 " responses failed or differed",
             st.failed);
  }
}

void check_summary(const Summary& s, const char* what, Report& rep) {
  if (!s.ordered()) {
    rep.fail(std::string(what) + ": percentiles out of order " + s.json());
  }
}

std::string phase_json(const PhaseStats& st) {
  std::string out = "{\"sent\":" + std::to_string(st.sent) +
                    ",\"received\":" + std::to_string(st.received) +
                    ",\"good\":" + std::to_string(st.good) +
                    ",\"over_limit\":" + std::to_string(st.over_limit) +
                    ",\"failed\":" + std::to_string(st.failed) +
                    ",\"seconds\":" + num(st.seconds);
  if (st.offered_rps > 0.0) {
    out += ",\"offered_rps\":" + num(st.offered_rps) +
           ",\"achieved_rps\":" + num(st.achieved_rps) +
           ",\"backlog\":" + (st.backlog ? "true" : "false") +
           ",\"late_ms\":" + summarize(st.late_ms).json();
  } else {
    out += ",\"goodput_rps\":" + num(st.goodput_rps);
  }
  return out + ",\"latency_ms\":" + summarize(st.latency_ms).json() + "}";
}

/// Disjoint cores for the generator (the last one) and the server (the
/// rest), so neither steals the other's core; unpinned below 3 cores.
struct Placement {
  explicit Placement(unsigned nproc) : pinned(nproc >= 3) {
    CPU_ZERO(&generator);
    CPU_ZERO(&server);
    for (unsigned c = 0; c + 1 < nproc; ++c) CPU_SET(c, &server);
    CPU_SET(nproc - 1, &generator);
  }
  [[nodiscard]] const cpu_set_t* gen() const { return pinned ? &generator : nullptr; }
  [[nodiscard]] const cpu_set_t* srv() const { return pinned ? &server : nullptr; }
  bool pinned;
  cpu_set_t generator;
  cpu_set_t server;
};

/// A running server with a warm cache and a connected generator.
struct Session {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Generator> gen;
  double setup_s = 0.0;
  double spawn_s = 0.0;  ///< the part of setup_s before the warm-up pass
  double steal_ms = 0.0;  ///< host steal time that passed during set-up
};

Session start_session(const Options& opt, const Tails& tails,
                      ResultBook& book, Report& rep,
                      const std::string& access_log = {}) {
  std::vector<std::uint32_t> every_query(tails.size());
  for (std::uint32_t k = 0; k < every_query.size(); ++k) every_query[k] = k;
  Session s;
  const double steal0 = host_steal_ms();
  const auto t0 = Clock::now();
  std::vector<std::string> args = {"--tcp", "0", "--threads",
                                   std::to_string(kServerWorkers)};
  if (!access_log.empty()) {
    args.push_back("--access-log");
    args.push_back(access_log);
  }
  const Placement place(opt.nproc);
  s.server = std::make_unique<ServerProcess>(opt.serve_path, args, place.srv());
  if (s.server->call("{\"ping\":true}") != "{\"ok\":true,\"pong\":true}") {
    throw std::runtime_error("sre_serve did not answer the ping");
  }
  s.gen = std::make_unique<Generator>(
      s.server->port(), opt.nproc, tails,
      [&book](std::uint32_t key, std::string_view line) {
        return book.check(key, line);
      },
      place.gen());
  s.spawn_s = seconds_since(t0);
  const PhaseStats warm = s.gen->run_list(every_query, kWindow, 'w');
  s.setup_s = seconds_since(t0);
  s.steal_ms = host_steal_ms() - steal0;
  account(warm, "warm-up", rep);
  return s;
}

void stop_session(Session& s, Report& rep) {
  s.gen.reset();
  if (!s.server->shutdown()) rep.fail("sre_serve did not shut down cleanly");
  s.server.reset();
}

/// The service block of a {"stats":true} reply.
struct ServiceStats {
  double requests = 0, hits = 0, misses = 0, evictions = 0, solves = 0,
         coalesced = 0, rejected = 0;
};

ServiceStats service_stats(ServerProcess& server) {
  const auto doc = json::parse(server.call("{\"stats\":true}"));
  const json::Value* svc = doc.ok ? doc.value.find("service") : nullptr;
  if (svc == nullptr) throw std::runtime_error("malformed stats reply");
  const auto at = [](const json::Value* v, const char* a, const char* b = nullptr) {
    const json::Value* x = v != nullptr ? v->find(a) : nullptr;
    if (x != nullptr && b != nullptr) x = x->find(b);
    return x != nullptr ? x->number : 0.0;
  };
  ServiceStats s;
  s.requests = at(svc, "requests");
  s.hits = at(svc, "cache", "hits");
  s.misses = at(svc, "cache", "misses");
  s.evictions = at(svc, "cache", "evictions");
  s.solves = at(svc, "batch", "solves");
  s.coalesced = at(svc, "batch", "coalesced");
  s.rejected = at(svc, "rejected", "total");
  return s;
}

std::function<std::uint32_t(std::uint64_t)> stream(const Options& opt,
                                                   const Tails& tails,
                                                   std::uint64_t offset) {
  return [seed = opt.seed, queries = tails.size(), offset](std::uint64_t i) {
    return pick_query(seed, offset + i, queries);
  };
}

// Stream offsets keep the phases on disjoint stretches of one seeded stream.
constexpr std::uint64_t kSaturationStream = 0;
constexpr std::uint64_t kOpenStream = 1ULL << 40;
constexpr std::uint64_t kTracedStream = 2ULL << 40;
constexpr std::uint64_t kBurnInStream = 3ULL << 40;

void note_threads(const Options& opt, Report& rep, unsigned reference) {
  rep.note("threads",
           "{\"nproc\":" + std::to_string(opt.nproc) +
               ",\"generator\":1,\"generator_connections\":" +
               std::to_string(opt.nproc) +
               ",\"server_event_loop\":1,\"server_solver_workers\":" +
               std::to_string(kServerWorkers) +
               ",\"server_global_pool\":" + std::to_string(opt.nproc) +
               ",\"reference_service_workers\":" + std::to_string(reference) +
               "}");
}

// --- traced run: per-layer timings from outside ----------------------------

template <class F>
double time_us(F&& f, int reps = 1) {
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) f();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
         reps;
}

struct StageTimes {
  std::vector<double> ingress, queue, solve, handoff, write;
  double sums[5] = {0, 0, 0, 0, 0};
  double total = 0.0;
};

/// Joins the access log's wide events of one phase (ids starting with
/// `tag`) by stage.
StageTimes read_stages(const std::string& path, char tag) {
  StageTimes st;
  std::ifstream in(path);
  std::string line;
  const std::string id_prefix = std::string("\"id\":\"") + tag;
  while (std::getline(in, line)) {
    if (line.find(id_prefix) == std::string::npos) continue;
    const auto doc = json::parse(line);
    if (!doc.ok) continue;
    const auto ns = [&](const char* k) {
      const json::Value* v = doc.value.find(k);
      return v != nullptr ? v->number : 0.0;
    };
    const double acc = ns("accepted_ns"), adm = ns("admitted_ns"),
                 bat = ns("batched_ns"), sol = ns("solved_ns"),
                 slo = ns("slotted_ns"), flu = ns("flushed_ns");
    const double parts[5] = {adm - acc, bat - adm, sol - bat, slo - sol,
                             flu - slo};
    std::vector<double>* lists[5] = {&st.ingress, &st.queue, &st.solve,
                                     &st.handoff, &st.write};
    for (int k = 0; k < 5; ++k) {
      const double p = std::max(0.0, parts[k]);
      lists[k]->push_back(p * 1e-6);
      st.sums[k] += p;
    }
    st.total += std::max(0.0, flu - acc);
  }
  return st;
}

void solve_path_metrics(const Tails& tails, const ResultBook& book,
                        const std::vector<std::uint32_t>& stream_keys,
                        Report& rep) {
  std::vector<std::uint32_t> keys = book.seen();
  std::sort(keys.begin(), keys.end());

  std::vector<double> classify, prepare, format, analytic, discretize, fill;
  std::unordered_map<std::string, std::vector<double>> generate;
  std::vector<sre::srv::PlanRequest> replayed;
  for (const std::uint32_t key : keys) {
    const std::string line = request_line(tails, key);
    classify.push_back(time_us([&] { (void)sre::srv::classify_line(line); }, 20));
    const sre::srv::PlanRequest req = sre::srv::parse_request_line(line);
    prepare.push_back(time_us([&] { (void)sre::srv::prepare(req); }, 20));
    sre::srv::PlanResponse resp;
    resp.ok = true;
    resp.result = book.result(key);
    format.push_back(
        time_us([&] { (void)sre::srv::format_response("ref", resp); }, 20));

    auto prep = sre::srv::prepare(req);
    std::optional<sre::core::ReservationSequence> plan;
    generate[req.solver].push_back(time_us([&] {
      plan = prep.solver->generate(*prep.dist, req.model, {});
    }));
    analytic.push_back(time_us([&] {
      (void)sre::core::expected_cost_analytic(*plan, *prep.dist, req.model);
    }));
    if (req.solver == "refined-dp" || req.solver == "equal-probability") {
      const sre::sim::DiscretizationOptions dopts{
          req.n, req.epsilon,
          sre::sim::DiscretizationScheme::kEqualProbability};
      std::optional<sre::dist::DiscreteDistribution> discrete;
      discretize.push_back(time_us(
          [&] { discrete.emplace(sre::sim::discretize(*prep.dist, dopts)); }));
      fill.push_back(time_us([&] {
        (void)sre::core::dp_optimal_sequence(
            *discrete, req.model, {}, sre::sim::DpVariant::kDivideAndConquer);
      }));
    }
    replayed.push_back(req);
  }
  rep.metric("srv.protocol.classify_us", median(classify), "us");
  rep.metric("srv.request.prepare_us", median(prepare), "us");
  rep.metric("srv.protocol.format_us", median(format), "us");
  for (const auto& [solver, times] : generate) {
    rep.metric("core.generate_us." + solver, median(times), "us");
  }
  rep.metric("sim.discretize_us", median(discretize), "us");
  rep.metric("core.dp_fill_us", median(fill), "us");
  rep.metric("core.expected_cost_analytic_us", median(analytic), "us");

  // Plan cache: the traced phase's request stream replayed through a fresh
  // 1024-entry cache, inserting on every miss as the service does. Each
  // sample includes one clock read.
  std::unordered_map<std::uint32_t, std::pair<std::string, std::uint64_t>> cache_keys;
  for (const std::uint32_t key : stream_keys) {
    if (cache_keys.count(key) != 0) continue;
    const auto prep =
        sre::srv::prepare(sre::srv::parse_request_line(request_line(tails, key)));
    cache_keys.emplace(key, std::make_pair(prep.key, prep.key_hash));
  }
  sre::srv::PlanCache cache;
  std::vector<double> lookup_us, insert_us;
  for (const std::uint32_t key : stream_keys) {
    const auto& [cache_key, hash] = cache_keys.at(key);
    std::shared_ptr<const std::string> hit;
    lookup_us.push_back(time_us([&] { hit = cache.lookup(cache_key, hash); }));
    if (!hit) {
      auto value = std::make_shared<const std::string>(book.result(key));
      insert_us.push_back(
          time_us([&] { cache.insert(cache_key, hash, std::move(value)); }));
    }
  }
  rep.metric("srv.cache.lookup_us", median(lookup_us), "us");
  rep.metric("srv.cache.insert_us", median(insert_us), "us");

  // A cache hit through the whole in-process service call.
  sre::srv::PlannerService service;
  std::vector<double> call_us;
  for (std::size_t i = 0; i < std::min<std::size_t>(replayed.size(), 64); ++i) {
    const auto& req = replayed[i];
    (void)service.call(req);  // the cold solve fills the cache
    call_us.push_back(time_us([&] { (void)service.call(req); }, 20));
  }
  rep.metric("srv.service.call_us", median(call_us), "us");
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  const Tails tails = hot_tails();
  ResultBook book(tails.size());
  rep.note("workload", quoted("serve_hot"));
  rep.note("seed", static_cast<double>(opt.seed));
  rep.note("distinct_queries", static_cast<double>(tails.size()));
  note_threads(opt, rep, opt.nproc);

  // Burn-in: one untimed session pages the binaries in and wakes the cores,
  // so the first timed set-up is not a cold start.
  {
    Session s = start_session(opt, tails, book, rep);
    const PhaseStats burn = s.gen->run_closed(stream(opt, tails, kBurnInStream),
                                              kWindow, kBurnInSeconds,
                                              kLatencyLimitMs, 'b');
    stop_session(s, rep);
    account(burn, "burn-in", rep);
  }

  // Set-up on its own, many times: its median is the headline together with
  // the set-ups that open the rounds.
  std::vector<double> setups, calm_setups, spawns;
  const auto add_setup = [&](const Session& s) {
    setups.push_back(s.setup_s);
    spawns.push_back(s.spawn_s);
    if (s.steal_ms == 0.0) calm_setups.push_back(s.setup_s);
  };
  for (int c = 0; c < kSetupCycles; ++c) {
    Session s = start_session(opt, tails, book, rep);
    add_setup(s);
    stop_session(s, rep);
  }

  // Independent rounds, each on a fresh server: set-up, a closed-loop
  // saturation phase, then an open-loop phase at kOpenRate. On a shared
  // virtual machine, stretches in which the host takes the cores away
  // multiply p90 by 10-100x and cut goodput. The generator reads the host
  // steal time every kSliceSeconds, and the headlines count the calm slices
  // of every round: goodput is their good responses over their length, and
  // each latency percentile is exact over every request due in them. Slices
  // are chosen by steal alone, never by the values they measured.
  double good_all = 0.0, seconds_all = 0.0, good_calm = 0.0, seconds_calm = 0.0;
  std::size_t sat_slices = 0, sat_calm = 0, open_slices = 0, open_calm = 0;
  std::vector<double> rss, all_latency, calm_latency, all_late;
  std::string rounds = "[";
  for (int r = 0; r < kRounds; ++r) {
    Session s = start_session(opt, tails, book, rep);
    const ServiceStats before = service_stats(*s.server);
    const double steal0 = host_steal_ms();
    const auto t0 = Clock::now();
    const std::uint64_t shift = static_cast<std::uint64_t>(r) << 32;
    const PhaseStats sat = s.gen->run_closed(
        stream(opt, tails, kSaturationStream + shift), kWindow,
        0.4 * opt.seconds / kRounds, kLatencyLimitMs, 's');
    const PhaseStats open =
        s.gen->run_open(stream(opt, tails, kOpenStream + shift), kOpenRate,
                        0.6 * opt.seconds / kRounds, 'o');
    const double steal_rate = (host_steal_ms() - steal0) / seconds_since(t0);
    const ServiceStats after = service_stats(*s.server);
    rss.push_back(peak_rss_mb(s.server->pid()));
    stop_session(s, rep);
    account(sat, "saturation", rep);
    account(open, "open loop", rep);

    check_summary(summarize(open.latency_ms), "open-loop latency", rep);
    check_summary(summarize(open.late_ms), "generator lateness", rep);
    if (open.backlog) {
      std::fprintf(stderr, "perfbench: open-loop backlog: %.1f of %.1f rps\n",
                   open.achieved_rps, open.offered_rps);
    }
    add_setup(s);
    std::size_t round_sat_calm = 0, round_open_calm = 0;
    for (std::size_t k = 0; k < sat.good_by_slice.size(); ++k) {
      const double length = std::min(
          kSliceSeconds, sat.seconds - static_cast<double>(k) * kSliceSeconds);
      const auto good = static_cast<double>(sat.good_by_slice[k]);
      good_all += good;
      seconds_all += length;
      if (calm(sat, k, false)) {
        good_calm += good;
        seconds_calm += length;
        ++round_sat_calm;
      }
    }
    for (std::size_t k = 0; k < open.latency_by_slice.size(); ++k) {
      if (!calm(open, k, true)) continue;
      calm_latency.insert(calm_latency.end(), open.latency_by_slice[k].begin(),
                          open.latency_by_slice[k].end());
      ++round_open_calm;
    }
    sat_slices += sat.good_by_slice.size();
    sat_calm += round_sat_calm;
    open_slices += open.latency_by_slice.size();
    open_calm += round_open_calm;
    all_latency.insert(all_latency.end(), open.latency_ms.begin(),
                       open.latency_ms.end());
    all_late.insert(all_late.end(), open.late_ms.begin(), open.late_ms.end());
    rounds += std::string(r ? "," : "") + "{\"setup_s\":" + num(s.setup_s) +
              ",\"spawn_s\":" + num(s.spawn_s) +
              ",\"host_steal_ms_per_s\":" + num(steal_rate) +
              ",\"calm_slices\":{\"saturation\":" + std::to_string(round_sat_calm) +
              ",\"open_loop\":" + std::to_string(round_open_calm) + "}" +
              ",\"peak_rss_mb\":" + num(rss.back()) +
              ",\"saturation\":" + phase_json(sat) +
              ",\"open_loop\":" + phase_json(open) +
              ",\"service_delta\":{\"requests\":" +
              num(after.requests - before.requests) +
              ",\"cache_hits\":" + num(after.hits - before.hits) +
              ",\"cache_misses\":" + num(after.misses - before.misses) +
              ",\"evictions\":" + num(after.evictions - before.evictions) +
              ",\"solves\":" + num(after.solves - before.solves) +
              ",\"coalesced\":" + num(after.coalesced - before.coalesced) +
              ",\"rejected\":" + num(after.rejected - before.rejected) + "}}";
  }
  rep.note("rounds", rounds + "]");

  const auto enough = [](std::size_t calm_count, std::size_t all) {
    return calm_count > 0 &&
           static_cast<double>(calm_count) >= kMinCalmShare * static_cast<double>(all);
  };
  const bool calm_setup = enough(calm_setups.size(), setups.size());
  const bool calm_sat = enough(sat_calm, sat_slices);
  const bool calm_open = enough(open_calm, open_slices);
  const double goodput = calm_sat ? good_calm / seconds_calm : good_all / seconds_all;
  const Summary all_lat = summarize(all_latency);
  const Summary lat = calm_open ? summarize(calm_latency) : all_lat;
  check_summary(lat, "headline latency", rep);
  const auto share = [](const char* what, std::size_t calm_count, std::size_t all,
                        bool used) {
    return std::string("\"") + what + "\":{\"calm\":" + std::to_string(calm_count) +
           ",\"of\":" + std::to_string(all) +
           ",\"headline_over\":" + (used ? "\"calm\"" : "\"all\"") + "}";
  };
  rep.note("headline_samples",
           "{\"slice_seconds\":" + num(kSliceSeconds) +
               ",\"min_calm_share\":" + num(kMinCalmShare) + "," +
               share("setups", calm_setups.size(), setups.size(), calm_setup) + "," +
               share("saturation_slices", sat_calm, sat_slices, calm_sat) + "," +
               share("open_loop_slices", open_calm, open_slices, calm_open) +
               ",\"headline_latency_ms\":" + lat.json() +
               ",\"all_rounds\":{\"goodput_per_s\":" + num(good_all / seconds_all) +
               ",\"setup_s\":" + num(median(setups)) + "}}");
  rep.note("setup", "{\"setup_s\":" + summarize(setups).json() +
                        ",\"spawn_s\":" + summarize(spawns).json() + "}");
  rep.note("open_loop_all_rounds", "{\"latency_ms\":" + all_lat.json() +
                                       ",\"late_ms\":" + summarize(all_late).json() + "}");

  const double mean_norm = verify_served(tails, book, opt.nproc, rep);
  rep.note("served_distinct_queries", static_cast<double>(book.seen().size()));

  rep.metric("setup_s", median(calm_setup ? calm_setups : setups), "s");
  rep.metric("goodput_per_s", goodput, "1/s");
  rep.metric("latency_p50_ms", lat.p50, "ms");
  rep.metric("latency_p90_ms", lat.p90, "ms");
  rep.metric("peak_rss_mb", median(rss), "MB");
  rep.metric("mean_normalized_cost", mean_norm, "ratio");
}

void run_serve_trace(const Options& opt, Report& rep) {
  const Tails tails = hot_tails();
  ResultBook book(tails.size());
  rep.note("workload", quoted("serve_hot"));
  rep.note("seed", static_cast<double>(opt.seed));
  note_threads(opt, rep, opt.nproc);
  const double sat_s = 0.25 * opt.seconds;

  // Untraced and traced saturation on the same stream: the goodput ratio
  // is the access log's cost.
  Session plain = start_session(opt, tails, book, rep);
  const PhaseStats off = plain.gen->run_closed(
      stream(opt, tails, kTracedStream), kWindow, sat_s, kLatencyLimitMs, 's');
  stop_session(plain, rep);
  account(off, "untraced saturation", rep);

  const std::string log_path = opt.work_dir + "/access-serve_hot.jsonl";
  Session traced = start_session(opt, tails, book, rep, log_path);
  const ServiceStats before = service_stats(*traced.server);
  const PhaseStats on = traced.gen->run_closed(
      stream(opt, tails, kTracedStream), kWindow, sat_s, kLatencyLimitMs, 's');
  const PhaseStats open = traced.gen->run_open(stream(opt, tails, kOpenStream),
                                               kOpenRate, 0.3 * opt.seconds, 'o');
  const ServiceStats after = service_stats(*traced.server);
  stop_session(traced, rep);  // drains and closes the access log
  account(on, "traced saturation", rep);
  account(open, "traced open loop", rep);
  rep.note("saturation_untraced", phase_json(off));
  rep.note("saturation_traced", phase_json(on));
  rep.note("open_loop_traced", phase_json(open));

  const StageTimes stages = read_stages(log_path, 'o');
  std::remove(log_path.c_str());
  if (stages.ingress.empty()) rep.fail("access log held no open-loop events");
  const char* names[5] = {"ingress", "queue", "solve", "handoff", "write"};
  const std::vector<double>* lists[5] = {&stages.ingress, &stages.queue,
                                         &stages.solve, &stages.handoff,
                                         &stages.write};
  for (int k = 0; k < 5; ++k) {
    const std::string base = std::string("srv.stage.") + names[k];
    rep.metric(base + "_p50_ms", median(*lists[k]), "ms");
    rep.metric(base + "_share",
               stages.total > 0 ? stages.sums[k] / stages.total : 0.0, "ratio");
  }

  const double requests = after.requests - before.requests;
  const double lookups = (after.hits - before.hits) + (after.misses - before.misses);
  const double solves = after.solves - before.solves;
  const double coalesced = after.coalesced - before.coalesced;
  rep.metric("srv.cache.hit_rate",
             lookups > 0 ? (after.hits - before.hits) / lookups : 0.0, "ratio");
  rep.metric("srv.cache.evictions_per_req",
             requests > 0 ? (after.evictions - before.evictions) / requests : 0.0,
             "ratio");
  rep.metric("srv.service.solves", solves, "count");
  rep.metric("srv.service.coalesced", coalesced, "count");
  rep.metric("srv.service.rejected", after.rejected - before.rejected, "count");
  rep.metric("srv.service.batch_size_mean",
             solves > 0 ? (solves + coalesced) / solves : 0.0, "count");

  const Summary late = summarize(open.late_ms);
  const Summary lat = summarize(open.latency_ms);
  check_summary(late, "generator lateness", rep);
  check_summary(lat, "open-loop latency", rep);
  rep.metric("loadgen.late_p99_ms", late.p99, "ms");
  rep.metric("loadgen.late_max_ms", late.max, "ms");
  rep.metric("loadgen.late_samples", static_cast<double>(late.count), "count");
  rep.metric("loadgen.latency_p99_ms", lat.p99, "ms");
  rep.metric("loadgen.latency_max_ms", lat.max, "ms");
  rep.metric("loadgen.latency_samples", static_cast<double>(lat.count), "count");
  rep.metric("obs.trace_overhead_share",
             off.goodput_rps > 0 ? 1.0 - on.goodput_rps / off.goodput_rps : 0.0,
             "ratio");

  std::vector<std::uint32_t> stream_keys;
  const auto pick = stream(opt, tails, kTracedStream);
  for (std::uint64_t i = 0; i < on.sent; ++i) stream_keys.push_back(pick(i));
  solve_path_metrics(tails, book, stream_keys, rep);
  (void)verify_served(tails, book, opt.nproc, rep);
}

}  // namespace perfbench
