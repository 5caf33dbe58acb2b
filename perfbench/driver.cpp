// Benchmark driver: runs one workload for a wall-clock window and prints
// its raw measurements as one JSON document on stdout. perfbench/run.py
// builds this binary, turns the raw samples into the metrics named in
// BENCHMARK.json and checks the outputs.
//
//   fedl_perfbench --workload roster_grid --seed 1 --seconds 10
//                  --trace 0 --spans-out spans.json
//
// Untraced repetitions go through the program's public entry points:
// harness::Experiment::run under Scheduler::run_trials. Between them runs
// the selection control, a selection-only server loop like
// bench/fig8_scale_sweep. With --trace 1 the window is split in two: the
// first half repeats the untraced measurement, the second half runs this
// file's own drivers, which compose the public layer calls
// (EdgeEnvironment::advance_epoch, SelectionStrategy::decide/observe,
// FlEngine::run_epoch or the EventEngine calls, BudgetLedger::charge) and
// record one span per call.
// Layers are timed from outside only; nothing in src/ is instrumented for
// this benchmark.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/fedl_strategy.h"
#include "data/partition.h"
#include "harness/experiment.h"
#include "nn/factory.h"
#include "obs/digest.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "parallel/scheduler.h"
#include "sim/environment.h"
#include "tensor/simd_dispatch.h"

namespace fedl::perfbench {
namespace {

// Every workload runs inside one process sized for a 4-core host: the
// scheduler never holds more than this many threads, whatever the machine.
constexpr std::size_t kThreadBudget = 4;

// The work per epoch depends on the scenario the seed draws (how many
// clients FedL selects, for how many iterations, how hard the selection
// problem is). Workloads with few trials per repetition therefore run
// several scenarios, at scenario seeds derived from the workload seed, so
// that one seed's figures stand for the workload rather than for one draw.
constexpr std::uint64_t kScenarioSeedStride = 1000003;

// roster_grid: the Fig. 6 FMNIST budget grid (paper roster × IID/non-IID)
// at one budget, small CNN, four concurrent trials, kGridDraws times over.
// Each cell draws its own scenario: trials last three to six epochs and the
// work of an epoch varies between draws, so one shared draw would set the
// work of the whole repetition.
constexpr double kGridBudget = 100.0;
constexpr std::size_t kGridDraws = 2;
constexpr std::size_t kGridJobs = 4;
// On a shared 4-vCPU host a stolen vCPU stalls every fork-join that spans
// all four threads, so one trial holding the whole budget turns a few
// percent of hypervisor steal into tens of percent of wall time. The
// training workloads below therefore run their scenarios concurrently:
// the scenarios' runners and their fan-out leases still compete for the
// same four slots, with narrower fork-joins.
//
// wide_cnn: FedL, CIFAR-like CNN at width 0.25, 20 clients, three scenarios
// side by side on three runners; their client fan-out and threaded GEMMs
// lease the fourth slot. With two scenarios of two slots each, every
// fork-join spanned a pair of vCPUs, and wall throughput fell by a third at
// a few percent of steal. Trials are capped at a few epochs so a run holds
// several repetitions.
constexpr std::size_t kWideScenarios = 3;
constexpr std::size_t kWideEpochs = 2;
constexpr std::size_t kWideJobs = 3;
// async_event: the roster_grid FMNIST setting (four trials at a time) with
// FedL under --async, alternating IID and non-IID. Trials stop at kAsyncEpochs,
// before the budget binds, so every repetition has the same number of
// cohorts and the straggler drain after the last decision weighs the same on
// every seed. The cohort sizes and iteration counts FedL picks set the work
// of an event-mode epoch and vary strongly between scenarios, hence the
// many short trials.
constexpr std::size_t kAsyncScenarios = 16;
constexpr double kAsyncBudget = 600.0;
constexpr std::size_t kAsyncEpochs = 4;
// The selection control: the selection-only server loop over a lazy
// roster of M clients with about kSelectOnline online per epoch, exact
// FedL (no pruning), synthetic outcomes. One pass runs kSelectScenarios
// fresh worlds for kSelectEpochs epochs each. Every workload runs passes
// between its repetitions, about kControlShare of the window, so the
// select_ms metrics see the same host conditions as the training metrics:
// a training-side change must leave them unchanged, and a selection-side
// change moves them alone.
constexpr std::size_t kSelectScenarios = 4;
constexpr std::size_t kSelectClients = 100000;
constexpr std::size_t kSelectOnline = 1000;
constexpr std::size_t kSelectEpochs = 25;
constexpr std::size_t kSelectNmin = 8;
constexpr double kControlShare = 0.25;
constexpr std::size_t kMinControlPasses = 2;
// Span logs of control worlds are numbered from here, apart from trials.
constexpr std::size_t kControlTrialBase = 1000000;
// Set-up is timed once per trial; workloads with few trials per run add
// constructions after the window until this many samples exist.
constexpr std::size_t kMinSetupSamples = 9;

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// One call into a layer, in seconds since kOrigin. `parent` indexes the
// same trial's log; -1 marks the trial's root span.
struct Span {
  const char* name = nullptr;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;
};

// In-memory span log of one trial (single-threaded: a trial's layer calls
// all happen on its own thread). Written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(std::size_t trial) : trial_(trial) {}

  std::size_t trial() const { return trial_; }
  const std::vector<Span>& spans() const { return spans_; }

  std::size_t open(const char* name) {
    const long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    spans_.push_back({name, now_s(), 0.0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t idx) {
    FEDL_CHECK(!open_.empty() && open_.back() == idx) << "unbalanced span";
    spans_[idx].end = now_s();
    open_.pop_back();
  }

 private:
  std::size_t trial_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// Runs f() inside a span named `name` when `log` is set; plain call
// otherwise. Returns whatever f returns (references included).
template <typename F>
decltype(auto) timed(SpanLog* log, const char* name, F&& f) {
  if (log == nullptr) return f();
  const std::size_t idx = log->open(name);
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    f();
    log->close(idx);
  } else {
    decltype(auto) r = f();
    log->close(idx);
    return r;
  }
}

std::string fmt_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// What one trial produced. The fingerprint must be identical on every
// repetition of a workload and at any thread configuration.
struct TrialOutcome {
  std::string fingerprint;
  std::string error;  // non-empty when the trial threw
  bool within_budget = true;
  std::size_t epochs = 0;
  double setup_s = 0.0;
  // Digest over every per-epoch TrainTrace record; empty for control
  // worlds, which have no training trace.
  std::string records_digest;
  std::size_t resident_bytes = 0;  // FedL learner pooled state at the end
  double available_sum = 0.0;      // Σ |E_t| over the epochs advanced
  std::size_t advances = 0;
};

std::string fingerprint(const fl::TrainTrace& trace, std::size_t epochs,
                        const std::string& reason) {
  const double acc =
      trace.records.empty() ? 0.0 : trace.records.back().test_accuracy;
  return "epochs=" + std::to_string(epochs) + " acc=" + fmt_g17(acc) +
         " sim_time=" + fmt_g17(trace.total_time()) +
         " cost=" + fmt_g17(trace.total_cost()) + " reason=" + reason;
}

std::string records_digest(const std::vector<fl::TraceRecord>& records) {
  std::uint64_t h = obs::kFnvOffsetBasis;
  for (const fl::TraceRecord& r : records) {
    const double fields[] = {static_cast<double>(r.epoch),
                             static_cast<double>(r.round),
                             r.sim_time_s,
                             r.cost_spent,
                             r.train_loss,
                             r.test_loss,
                             r.test_accuracy,
                             static_cast<double>(r.num_selected),
                             static_cast<double>(r.num_iterations),
                             r.eta};
    h = obs::fnv1a(fields, sizeof fields, h);
  }
  return obs::digest_hex(h);
}

bool cost_within(double spent, double budget) {
  return spent <= budget * (1.0 + 1e-12);
}

std::uint64_t scenario_seed(std::uint64_t seed, std::size_t j) {
  return seed + j * kScenarioSeedStride;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kGrid, kWide, kAsync };

struct Cell {
  harness::ScenarioConfig cfg;
  std::string algorithm;
};

// The FMNIST scenario of bench/fig_common.h's defaults (Fig. 6).
harness::ScenarioConfig fmnist_scenario(std::uint64_t seed) {
  harness::ScenarioConfig cfg;
  cfg.task = harness::Task::kFmnistLike;
  cfg.num_clients = 12;
  cfg.n_min = 4;
  cfg.max_epochs = 60;
  cfg.train_samples = 600;
  cfg.test_samples = 250;
  cfg.width_scale = 0.08;
  cfg.batch_cap = 24;
  cfg.eval_cap = 160;
  cfg.theta = 0.5;
  cfg.dane.sgd_steps = 3;
  cfg.num_threads = 0;  // fan-out from the scheduler's remaining budget
  cfg.seed = seed;
  return cfg;
}

std::vector<Cell> grid_cells(std::uint64_t seed) {
  std::vector<Cell> cells;
  for (std::size_t draw = 0; draw < kGridDraws; ++draw) {
    for (bool iid : {true, false}) {
      for (const std::string& alg : harness::paper_roster()) {
        Cell c{fmnist_scenario(scenario_seed(seed, cells.size())), alg};
        c.cfg.iid = iid;
        c.cfg.budget = kGridBudget;
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

std::vector<Cell> cells_for(Kind kind, std::uint64_t seed) {
  switch (kind) {
    case Kind::kGrid:
      return grid_cells(seed);
    case Kind::kWide: {
      std::vector<Cell> cells;
      for (std::size_t j = 0; j < kWideScenarios; ++j) {
        harness::ScenarioConfig cfg;  // CIFAR-like defaults: width 0.25
        cfg.task = harness::Task::kCifarLike;
        cfg.num_clients = 20;
        cfg.width_scale = 0.25;
        cfg.max_epochs = kWideEpochs;
        cfg.num_threads = 0;
        cfg.seed = scenario_seed(seed, j);
        cells.push_back({cfg, "fedl"});
      }
      return cells;
    }
    case Kind::kAsync: {
      std::vector<Cell> cells;
      for (std::size_t j = 0; j < kAsyncScenarios; ++j) {
        Cell c{fmnist_scenario(scenario_seed(seed, j)), "fedl"};
        c.cfg.iid = j % 2 == 0;
        c.cfg.budget = kAsyncBudget;
        c.cfg.max_epochs = kAsyncEpochs;
        c.cfg.async.enabled = true;
        c.cfg.async.buffer_k = 4;
        c.cfg.async.staleness_exponent = 0.5;
        cells.push_back(std::move(c));
      }
      return cells;
    }
  }
  return {};
}

std::size_t jobs_for(Kind kind) {
  switch (kind) {
    case Kind::kGrid:
    case Kind::kAsync:
      return kGridJobs;
    case Kind::kWide:
      return kWideJobs;
  }
  return 1;
}

// ---------------------------------------------------------------------------
// Untraced trials: the program's own driver.

TrialOutcome run_experiment(const Cell& cell) {
  TrialOutcome o;
  try {
    const double t0 = now_s();
    harness::Experiment exp(cell.cfg);
    o.setup_s = now_s() - t0;
    auto strategy = harness::make_strategy(cell.algorithm, cell.cfg);
    const harness::RunResult r = exp.run(*strategy);
    o.epochs = r.epochs_run;
    o.records_digest = records_digest(r.trace.records);
    o.within_budget = cost_within(r.trace.total_cost(), cell.cfg.budget);
    o.fingerprint = fingerprint(r.trace, r.epochs_run, r.termination_reason);
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  return o;
}

// ---------------------------------------------------------------------------
// Traced trials: the same FL procedure composed from the public layer calls.
// World construction repeats harness::Experiment's seeds exactly, so the
// records match Experiment::run's (run.py compares the records digests).

struct World {
  World(const harness::ScenarioConfig& c, const std::string& algorithm,
        SpanLog* log)
      : cfg(c) {
    const data::SyntheticSpec spec =
        cfg.task == harness::Task::kFmnistLike
            ? data::fmnist_like_spec(cfg.train_samples, cfg.seed)
            : data::cifar_like_spec(cfg.train_samples, cfg.seed);
    data = timed(log, "data.synthesize", [&] {
      return data::make_synthetic_train_test(spec, cfg.test_samples);
    });
    partition = timed(log, "data.partition", [&] {
      Rng prng(cfg.seed ^ 0x9e3779b9ULL);
      return cfg.iid ? data::partition_iid(data.train, cfg.num_clients, prng)
                     : data::partition_noniid_principal(
                           data.train, cfg.num_clients, 2, 0.8, prng);
    });
    timed(log, "harness.build", [&] {
      env_spec.num_clients = cfg.num_clients;
      env_spec.expected_participants = std::max<std::size_t>(1, cfg.n_min);
      env_spec.device.availability_prob = cfg.availability;
      env_spec.device.seed = cfg.seed * 31 + 7;
      env_spec.channel.seed = cfg.seed * 37 + 11;
      env_spec.online.seed = cfg.seed * 41 + 13;
      env_spec.device.bits_per_sample =
          static_cast<double>(data.train.sample_numel()) * 32.0;
      env_spec.bandwidth = cfg.bandwidth;
      env = std::make_unique<sim::EdgeEnvironment>(env_spec, partition);

      Rng mrng(cfg.seed * 43 + 17);
      nn::ModelSpec ms;
      ms.width_scale = cfg.width_scale;
      ms.l2_reg = cfg.dane.gamma;
      const bool fmnist = cfg.task == harness::Task::kFmnistLike;
      ms.image_h = ms.image_w = fmnist ? 28 : 32;
      ms.channels = fmnist ? 1 : 3;
      nn::Model model = fmnist ? nn::make_fmnist_cnn(ms, mrng)
                               : nn::make_cifar_cnn(ms, mrng);
      fl::EngineConfig ec;
      ec.dane = cfg.dane;
      ec.aggregation = cfg.aggregation;
      ec.compressor = cfg.compressor;
      ec.faults = cfg.faults;
      ec.batch_cap = cfg.batch_cap;
      ec.eval_cap = cfg.eval_cap;
      ec.num_threads = cfg.num_threads;
      ec.seed = cfg.seed * 47 + 19;
      engine = std::make_unique<fl::FlEngine>(&data.train, &data.test,
                                              env.get(), std::move(model), ec);
      strategy = harness::make_strategy(algorithm, cfg);
    });
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Constraint (3b): the n cheapest available clients must be affordable.
  bool floor_infeasible(const sim::EpochContext& ctx,
                        const core::BudgetLedger& ledger) const {
    if (ctx.available.empty()) return false;
    std::vector<double> costs;
    costs.reserve(ctx.available.size());
    for (const auto& o : ctx.available) costs.push_back(o.cost);
    std::sort(costs.begin(), costs.end());
    const std::size_t need = std::min<std::size_t>(cfg.n_min, costs.size());
    double cheapest_n = 0.0;
    for (std::size_t i = 0; i < need; ++i) cheapest_n += costs[i];
    return cheapest_n > ledger.remaining();
  }

  harness::ScenarioConfig cfg;
  data::TrainTest data;
  data::Partition partition;
  sim::EnvironmentSpec env_spec;
  std::unique_ptr<sim::EdgeEnvironment> env;
  std::unique_ptr<fl::FlEngine> engine;
  std::unique_ptr<core::SelectionStrategy> strategy;
};

fl::TraceRecord make_record(std::size_t epoch, std::size_t rounds,
                            double sim_time, double spent,
                            const fl::EpochOutcome& out,
                            const core::Decision& decision) {
  fl::TraceRecord rec;
  rec.epoch = epoch;
  rec.round = rounds;
  rec.sim_time_s = sim_time;
  rec.cost_spent = spent;
  rec.train_loss = out.train_loss_all;
  rec.test_loss = out.test_loss;
  rec.test_accuracy = out.test_accuracy;
  rec.num_selected = decision.selected.size();
  rec.num_iterations = out.num_iterations;
  rec.eta = out.eta_max;
  return rec;
}

double decision_rho(const core::SelectionStrategy& s,
                    const core::Decision& decision) {
  if (const auto* fedl = dynamic_cast<const core::FedLStrategy*>(&s))
    return fedl->last_fraction().rho;
  return static_cast<double>(
      std::max<std::size_t>(1, decision.num_iterations));
}

void finish(TrialOutcome& o, const World& w, const fl::TrainTrace& trace,
            const std::string& reason) {
  o.epochs = trace.records.size();
  o.within_budget = cost_within(trace.total_cost(), w.cfg.budget);
  o.fingerprint = fingerprint(trace, o.epochs, reason);
  if (const auto* fedl =
          dynamic_cast<const core::FedLStrategy*>(w.strategy.get()))
    o.resident_bytes = fedl->learner().resident_bytes();
  o.records_digest = records_digest(trace.records);
}

// Experiment::run's lockstep loop.
TrialOutcome traced_lockstep(const Cell& cell, SpanLog& log) {
  TrialOutcome o;
  const double t0 = now_s();
  World w(cell.cfg, cell.algorithm, &log);
  o.setup_s = now_s() - t0;
  core::SelectionStrategy& strategy = *w.strategy;
  core::BudgetLedger ledger(w.cfg.budget);
  core::RegretConfig rc;
  rc.theta = w.cfg.theta;
  rc.n_min = w.cfg.n_min;
  core::RegretTracker regret(w.cfg.num_clients, rc);
  fl::TrainTrace trace{strategy.name(), {}};
  const double min_rent = w.env_spec.device.cost_lo;
  std::string reason;
  std::size_t empty_streak = 0;
  std::size_t rounds = 0;
  double sim_time = 0.0;

  for (std::size_t t = 0; t < w.cfg.max_epochs; ++t) {
    if (ledger.exhausted() || ledger.remaining() < min_rent) {
      reason = "budget_exhausted";
      break;
    }
    const sim::EpochContext& ctx = timed(
        &log, "sim.advance_epoch",
        [&]() -> const sim::EpochContext& { return w.env->advance_epoch(); });
    o.available_sum += static_cast<double>(ctx.available.size());
    ++o.advances;
    if (w.floor_infeasible(ctx, ledger)) {
      reason = "infeasible_floor";
      break;
    }
    const core::Decision decision = timed(
        &log, "core.decide", [&] { return strategy.decide(ctx, ledger); });
    if (decision.selected.empty()) {
      if (w.cfg.empty_decision_streak > 0 &&
          ++empty_streak >= w.cfg.empty_decision_streak) {
        reason = "empty_decisions";
        break;
      }
    } else {
      empty_streak = 0;
    }
    for (std::size_t id : decision.selected)
      FEDL_CHECK(ctx.is_available(id)) << "selected unavailable client";
    const fl::EpochOutcome out = timed(&log, "fl.run_epoch", [&] {
      return w.engine->run_epoch(decision.selected, decision.num_iterations);
    });
    timed(&log, "core.charge", [&] { ledger.charge(out.cost); });
    timed(&log, "core.observe",
          [&] { strategy.observe(ctx, decision, out); });
    const double rho = decision_rho(strategy, decision);
    timed(&log, "core.regret",
          [&] { regret.record(ctx, ledger, decision, rho, out); });
    rounds += out.num_iterations;
    sim_time += out.latency_s;
    trace.records.push_back(
        make_record(ctx.epoch, rounds, sim_time, ledger.spent(), out,
                    decision));
  }
  finish(o, w, trace, reason.empty() ? "max_epochs" : reason);
  return o;
}

// Experiment::run_async's event-driven loop: decisions at flush boundaries,
// cohorts resolved out of order and consumed in epoch order.
TrialOutcome traced_async(const Cell& cell, SpanLog& log) {
  TrialOutcome o;
  const double t0 = now_s();
  World w(cell.cfg, cell.algorithm, &log);
  o.setup_s = now_s() - t0;
  core::SelectionStrategy& strategy = *w.strategy;
  core::BudgetLedger ledger(w.cfg.budget);
  core::RegretConfig rc;
  rc.theta = w.cfg.theta;
  rc.n_min = w.cfg.n_min;
  core::RegretTracker regret(w.cfg.num_clients, rc);
  fl::TrainTrace trace{strategy.name(), {}};
  fl::EventEngine evt(w.engine.get(), w.env.get(), w.cfg.async,
                      w.cfg.seed * 71 + 23);

  struct Pending {
    sim::EpochContext ctx;
    core::Decision decision;
    double rho = 0.0;
  };
  std::map<std::size_t, Pending> pending;
  std::map<std::size_t, fl::CohortOutcome> resolved;
  std::size_t next_emit = 0;
  bool next_emit_set = false;
  std::size_t rounds = 0;
  double sim_time = 0.0;
  const double min_rent = w.env_spec.device.cost_lo;
  std::size_t empty_streak = 0;
  std::string reason;

  auto pump = [&] {
    timed(&log, "fl.event.take_resolved", [&] {
      evt.take_events();
      for (fl::CohortOutcome& co : evt.take_resolved()) {
        const std::size_t ep = co.outcome.epoch;
        resolved.emplace(ep, std::move(co));
      }
    });
  };
  auto drain = [&] {
    while (next_emit_set) {
      auto it = resolved.find(next_emit);
      if (it == resolved.end()) break;
      const fl::CohortOutcome& co = it->second;
      const fl::EpochOutcome& out = co.outcome;
      Pending& pe = pending.at(next_emit);
      timed(&log, "core.observe",
            [&] { strategy.observe(pe.ctx, pe.decision, out); });
      timed(&log, "core.regret", [&] {
        regret.record(pe.ctx, ledger, pe.decision, pe.rho, out);
      });
      rounds += out.num_iterations;
      sim_time = std::max(sim_time, co.resolve_vt);
      trace.records.push_back(make_record(pe.ctx.epoch, rounds, sim_time,
                                          ledger.spent(), out, pe.decision));
      resolved.erase(it);
      pending.erase(next_emit);
      ++next_emit;
    }
  };

  for (std::size_t t = 0; t < w.cfg.max_epochs; ++t) {
    if (ledger.exhausted() || ledger.remaining() < min_rent) {
      reason = "budget_exhausted";
      break;
    }
    const sim::EpochContext& raw = timed(
        &log, "sim.advance_epoch",
        [&]() -> const sim::EpochContext& { return w.env->advance_epoch(); });
    o.available_sum += static_cast<double>(raw.available.size());
    ++o.advances;
    sim::EpochContext ctx;
    ctx.epoch = raw.epoch;
    ctx.available.reserve(raw.available.size());
    for (const auto& ob : raw.available)
      if (!evt.client_inflight(ob.id)) ctx.available.push_back(ob);
    if (w.floor_infeasible(ctx, ledger)) {
      reason = "infeasible_floor";
      break;
    }
    const core::Decision decision = timed(
        &log, "core.decide", [&] { return strategy.decide(ctx, ledger); });
    if (decision.selected.empty()) {
      if (w.cfg.empty_decision_streak > 0 &&
          ++empty_streak >= w.cfg.empty_decision_streak) {
        reason = "empty_decisions";
        break;
      }
    } else {
      empty_streak = 0;
    }
    for (std::size_t id : decision.selected)
      FEDL_CHECK(ctx.is_available(id)) << "selected unavailable client";

    const std::size_t epoch = ctx.epoch;
    if (!next_emit_set) {
      next_emit = epoch;
      next_emit_set = true;
    }
    Pending& pe = pending[epoch];
    pe.rho = decision_rho(strategy, decision);
    pe.ctx = std::move(ctx);
    pe.decision = decision;

    if (decision.selected.empty()) {
      fl::CohortOutcome co;
      co.outcome.epoch = epoch;
      co.outcome.num_iterations = decision.num_iterations;
      const fl::CohortEval ev = timed(&log, "fl.evaluate_cohort", [&] {
        return w.engine->evaluate_cohort({});
      });
      co.outcome.train_loss_selected = ev.train_loss_selected;
      co.outcome.train_loss_all = ev.train_loss_all;
      co.outcome.test_loss = ev.test_loss;
      co.outcome.test_accuracy = ev.test_accuracy;
      co.dispatch_vt = evt.now();
      co.resolve_vt = evt.now();
      resolved.emplace(epoch, std::move(co));
    } else {
      double cohort_cost = 0.0;
      for (std::size_t id : decision.selected) {
        const sim::ClientObservation* ob = pe.ctx.find(id);
        FEDL_CHECK(ob != nullptr);
        cohort_cost += ob->cost;
      }
      timed(&log, "core.charge", [&] { ledger.charge(cohort_cost); });
      timed(&log, "fl.event.dispatch", [&] {
        evt.dispatch(epoch, decision.selected,
                     std::max<std::size_t>(1, decision.num_iterations),
                     cohort_cost);
      });
    }
    timed(&log, "fl.event.run_until_flush", [&] { evt.run_until_flush(); });
    pump();
    drain();
  }
  while (!evt.drained()) {
    timed(&log, "fl.event.run_until_flush", [&] { evt.run_until_flush(); });
    pump();
    drain();
  }
  pump();
  drain();
  FEDL_CHECK(pending.empty()) << "dispatched epochs never resolved";
  finish(o, w, trace, reason.empty() ? "max_epochs" : reason);
  return o;
}

// ---------------------------------------------------------------------------
// The selection control: the selection-only server loop (no engine), as in
// fig8.

struct SelectWorld {
  std::unique_ptr<sim::EdgeEnvironment> env;
  std::unique_ptr<core::FedLStrategy> strategy;
};

SelectWorld make_select_world(std::uint64_t seed) {
  sim::EnvironmentSpec spec;
  spec.lazy_sampling = true;
  spec.num_clients = kSelectClients;
  spec.expected_participants = kSelectNmin;
  spec.device.availability_prob = static_cast<double>(kSelectOnline) /
                                  static_cast<double>(kSelectClients);
  spec.device.seed = seed * 31 + 7;
  core::FedLConfig fc;
  fc.learner.n_min = kSelectNmin;
  fc.learner.selection_width = 0;
  fc.seed = seed * 61 + 37;
  return {std::make_unique<sim::EdgeEnvironment>(spec),
          std::make_unique<core::FedLStrategy>(kSelectClients, fc)};
}

// The selection-only server loop over one lazy world, run in chunks of
// epochs. Each epoch appends advance + decide + observe wall time, in ms,
// to `select_ms`.
class SelectLoop {
 public:
  SelectLoop(std::uint64_t seed, SpanLog* log)
      : world_(timed(log, "harness.build",
                     [&] { return make_select_world(seed); })) {}

  void run(std::size_t epochs, SpanLog* log, std::vector<double>* select_ms) {
    sim::EdgeEnvironment& env = *world_.env;
    core::FedLStrategy& strategy = *world_.strategy;
    for (std::size_t e = 0; e < epochs; ++e, ++epochs_) {
      const double a0 = now_s();
      const sim::EpochContext& ctx = timed(
          log, "sim.advance_epoch",
          [&]() -> const sim::EpochContext& { return env.advance_epoch(); });
      const core::Decision dec = timed(
          log, "core.decide", [&] { return strategy.decide(ctx, ledger_); });
      const double a1 = now_s();

      // Synthetic realized epoch: every selected client completes, with mild
      // per-client variation so the estimate EMAs do real work.
      fl::EpochOutcome out;
      out.epoch = ctx.epoch;
      out.selected = dec.selected;
      out.num_iterations = std::max<std::size_t>(1, dec.num_iterations);
      double cost = 0.0;
      for (std::size_t i = 0; i < dec.selected.size(); ++i) {
        const sim::ClientObservation* ob = ctx.find(dec.selected[i]);
        cost += ob != nullptr ? ob->cost : 0.0;
        out.client_eta.push_back(0.4 + 0.2 * static_cast<double>(i % 3));
        out.client_loss_reduction.push_back(
            0.02 + 0.01 * static_cast<double>(i % 5));
        out.client_completed_iters.push_back(out.num_iterations);
      }
      out.cost = cost;
      out.train_loss_all =
          2.303 / (1.0 + 0.05 * static_cast<double>(epochs_));
      timed(log, "core.charge", [&] { ledger_.charge(cost); });

      const double b0 = now_s();
      timed(log, "core.observe", [&] { strategy.observe(ctx, dec, out); });
      const double b1 = now_s();

      if (!dec.selected.empty())
        selection_hash_ =
            obs::fnv1a(dec.selected.data(),
                       dec.selected.size() * sizeof(dec.selected[0]),
                       selection_hash_);
      selected_total_ += dec.selected.size();
      select_ms->push_back(1e3 * ((a1 - a0) + (b1 - b0)));
      available_sum_ += static_cast<double>(ctx.available.size());
    }
  }

  TrialOutcome outcome() const {
    TrialOutcome o;
    o.epochs = epochs_;
    o.within_budget = cost_within(ledger_.spent(), ledger_.total());
    o.resident_bytes = world_.strategy->learner().resident_bytes();
    o.available_sum = available_sum_;
    o.advances = epochs_;
    o.fingerprint = "epochs=" + std::to_string(epochs_) +
                    " selected=" + std::to_string(selected_total_) +
                    " cost=" + fmt_g17(ledger_.spent()) +
                    " selection=" + obs::digest_hex(selection_hash_);
    return o;
  }

 private:
  SelectWorld world_;
  // Effectively unconstrained: the pacing cap, not the remainder, governs.
  core::BudgetLedger ledger_{1e15};
  std::size_t epochs_ = 0;
  std::uint64_t selection_hash_ = obs::kFnvOffsetBasis;
  std::size_t selected_total_ = 0;
  double available_sum_ = 0.0;
};

// ---------------------------------------------------------------------------
// Repetitions

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<TrialOutcome> trials;
  std::map<std::string, std::uint64_t> counters;  // registry deltas
};

std::map<std::string, std::uint64_t> counter_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> d;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    d[name] = v - (it == before.end() ? 0 : it->second);
  }
  return d;
}

using TrialFn = std::function<TrialOutcome(std::size_t /*cell*/)>;

// One repetition: every cell once, `jobs` at a time, timed as a whole.
Rep run_rep(std::size_t num_cells, std::size_t jobs, const TrialFn& fn) {
  Scheduler::instance().configure(kThreadBudget, jobs);
  Rep rep;
  rep.trials.resize(num_cells);
  const auto before = obs::MetricsRegistry::global().snapshot().counters;
  const double c0 = cpu_s();
  const double t0 = now_s();
  Scheduler::instance().run_trials(num_cells, [&](std::size_t i) {
    rep.trials[i] = fn(i);
  });
  rep.wall_s = now_s() - t0;
  rep.cpu_s = cpu_s() - c0;
  rep.counters = counter_delta(
      before, obs::MetricsRegistry::global().snapshot().counters);
  return rep;
}

struct Phase {
  // One untimed repetition first: thread pools, allocator arenas and caches
  // settle before the window opens. Its outputs are still checked.
  Rep warmup;
  std::vector<Rep> reps;
  // Passes of the selection control; each pass's worlds are its trials.
  std::vector<Rep> control;
  // Peak resident memory once the warm-up repetition ended: a fixed amount
  // of work, so the figure does not grow with the number of repetitions a
  // faster build fits into the window.
  double peak_rss_mib = 0.0;
  // Selection latencies (ms), one batch per control pass.
  std::vector<std::vector<double>> select_ms;
  std::vector<double> setup_s;
  std::vector<SpanLog> logs;  // traced phase only
};

// One pass of the selection control on the calling thread, timed as a
// whole. Each world's epochs append to a new select_ms batch.
Rep run_control_pass(std::uint64_t seed, bool traced, Phase& ph) {
  const std::size_t pass = ph.control.size();
  std::vector<double>& batch = ph.select_ms.emplace_back();
  Rep rep;
  const auto before = obs::MetricsRegistry::global().snapshot().counters;
  const double c0 = cpu_s();
  const double t0 = now_s();
  for (std::size_t j = 0; j < kSelectScenarios; ++j) {
    SpanLog log(kControlTrialBase + pass * kSelectScenarios + j);
    SpanLog* lp = traced ? &log : nullptr;
    TrialOutcome& o = rep.trials.emplace_back();
    try {
      o = timed(lp, "select.world", [&] {
        SelectLoop loop(scenario_seed(seed, j), lp);
        loop.run(kSelectEpochs, lp, &batch);
        return loop.outcome();
      });
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    if (traced) ph.logs.push_back(std::move(log));
  }
  rep.wall_s = now_s() - t0;
  rep.cpu_s = cpu_s() - c0;
  rep.counters = counter_delta(
      before, obs::MetricsRegistry::global().snapshot().counters);
  return rep;
}

// Repeats the workload within a window of `seconds`: at least once, and a
// further repetition only while the last one's duration still fits. After
// each repetition, control passes run until they hold kControlShare of the
// time since the window opened.
Phase run_phase(Kind kind, std::uint64_t seed, double seconds, bool traced) {
  Phase ph;
  const std::vector<Cell> cells = cells_for(kind, seed);
  const std::size_t n = cells.size();
  std::mutex logs_mutex;
  std::size_t rep_index = 0;
  const TrialFn trial = [&](std::size_t i) {
    if (!traced) return run_experiment(cells[i]);
    SpanLog log(rep_index * n + i);
    const std::size_t root = log.open("harness.trial");
    TrialOutcome o;
    try {
      o = kind == Kind::kAsync ? traced_async(cells[i], log)
                               : traced_lockstep(cells[i], log);
      log.close(root);
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    std::lock_guard<std::mutex> lock(logs_mutex);
    ph.logs.push_back(std::move(log));
    return o;
  };

  if (!traced) {
    ph.warmup = run_rep(n, jobs_for(kind), trial);
    ph.peak_rss_mib = peak_rss_mib();
  }
  const double start = now_s();
  double control_s = 0.0;
  while (ph.reps.empty() ||
         now_s() - start + ph.reps.back().wall_s <= seconds) {
    ph.reps.push_back(run_rep(n, jobs_for(kind), trial));
    ++rep_index;
    while (control_s < kControlShare * (now_s() - start)) {
      ph.control.push_back(run_control_pass(seed, traced, ph));
      control_s += ph.control.back().wall_s;
    }
  }
  while (ph.control.size() < kMinControlPasses)
    ph.control.push_back(run_control_pass(seed, traced, ph));
  if (traced) return ph;
  // Set-up samples: trials time their own construction, topped up after the
  // window so the median rests on several samples.
  for (const Rep& r : ph.reps)
    for (const TrialOutcome& o : r.trials) ph.setup_s.push_back(o.setup_s);
  while (ph.setup_s.size() < kMinSetupSamples) {
    const double t0 = now_s();
    harness::Experiment exp(cells.front().cfg);
    ph.setup_s.push_back(now_s() - t0);
  }
  return ph;
}

// Serial vs parallel execution of one roster_grid cell: same fingerprint.
std::pair<std::string, std::string> thread_invariance(std::uint64_t seed) {
  Cell cell = grid_cells(seed).front();
  cell.cfg.num_threads = 1;
  const Rep serial = run_rep(1, 1, [&](std::size_t) {
    return run_experiment(cell);
  });
  cell.cfg.num_threads = 0;
  const Rep parallel = run_rep(1, kGridJobs, [&](std::size_t) {
    return run_experiment(cell);
  });
  auto fp = [](const Rep& r) {
    const TrialOutcome& o = r.trials.front();
    return o.error.empty() ? o.fingerprint : "error: " + o.error;
  };
  return {fp(serial), fp(parallel)};
}

// ---------------------------------------------------------------------------
// Output

void write_trial(obs::JsonWriter& w, const TrialOutcome& o) {
  w.begin_object();
  w.key("fingerprint").value(o.fingerprint);
  w.key("error").value(o.error);
  w.key("within_budget").value(o.within_budget);
  w.key("epochs").value(static_cast<std::uint64_t>(o.epochs));
  w.key("records_digest").value(o.records_digest);
  w.key("resident_bytes").value(static_cast<std::uint64_t>(o.resident_bytes));
  w.key("available_sum").value(o.available_sum);
  w.key("advances").value(static_cast<std::uint64_t>(o.advances));
  w.end_object();
}

void write_rep(obs::JsonWriter& w, const Rep& r) {
  w.begin_object();
  w.key("wall_s").value(r.wall_s);
  w.key("cpu_s").value(r.cpu_s);
  w.key("trials").begin_array();
  for (const TrialOutcome& o : r.trials) write_trial(w, o);
  w.end_array();
  w.key("counters").begin_object();
  for (const auto& [name, v] : r.counters) w.key(name).value(v);
  w.end_object();
  w.end_object();
}

void write_phase(obs::JsonWriter& w, const Phase& ph) {
  w.begin_object();
  if (!ph.warmup.trials.empty()) {
    w.key("warmup");
    write_rep(w, ph.warmup);
  }
  w.key("reps").begin_array();
  for (const Rep& r : ph.reps) write_rep(w, r);
  w.end_array();
  w.key("control").begin_array();
  for (const Rep& r : ph.control) write_rep(w, r);
  w.end_array();
  w.key("select_ms").begin_array();
  for (const std::vector<double>& batch : ph.select_ms) {
    w.begin_array();
    for (double v : batch) w.value(v);
    w.end_array();
  }
  w.end_array();
  w.key("setup_s").begin_array();
  for (double v : ph.setup_s) w.value(v);
  w.end_array();
  w.end_object();
}

// {"names":[...],"spans":[[name, trial, parent, start_s, end_s], ...]}
void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream f(path);
  FEDL_CHECK(f.good()) << "cannot write " << path;
  std::vector<std::string> names;
  std::map<std::string, std::size_t> ids;
  obs::JsonWriter w(f);
  w.begin_object();
  w.key("spans").begin_array();
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      const auto [it, fresh] = ids.emplace(s.name, names.size());
      if (fresh) names.push_back(s.name);
      w.begin_array();
      w.value(static_cast<std::uint64_t>(it->second));
      w.value(static_cast<std::uint64_t>(log.trial()));
      w.value(static_cast<std::int64_t>(s.parent));
      w.value(s.start);
      w.value(s.end);
      w.end_array();
    }
  }
  w.end_array();
  w.key("names").begin_array();
  for (const std::string& s : names) w.value(s);
  w.end_array();
  w.end_object();
  f << "\n";
}

int bench_main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string workload = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string spans_out = flags.get_string("spans-out", "spans.json");
  if (!flags.unread_keys().empty())
    throw ConfigError("unknown flag --" + flags.unread_keys().front());
  const std::map<std::string, Kind> kinds = {{"roster_grid", Kind::kGrid},
                                             {"wide_cnn", Kind::kWide},
                                             {"async_event", Kind::kAsync}};
  const auto kind_it = kinds.find(workload);
  if (kind_it == kinds.end())
    throw ConfigError("unknown workload '" + workload + "'");
  const Kind kind = kind_it->second;

  set_log_level(LogLevel::kWarn);

  const Phase plain = run_phase(kind, seed, trace ? seconds / 2 : seconds,
                                /*traced=*/false);
  std::unique_ptr<Phase> traced;
  std::size_t peak_inflight = 0;
  if (trace) {
    Scheduler::instance().reset_stats();
    traced = std::make_unique<Phase>(
        run_phase(kind, seed, seconds / 2, /*traced=*/true));
    peak_inflight = Scheduler::instance().stats().peak_inflight;
    write_spans(spans_out, traced->logs);
  }

  // Read before the invariance check, whose extra trials would otherwise
  // set the gauges.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  auto gauge = [&](const std::string& name) {
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0.0 : it->second;
  };
  // Outside the window.
  const auto [serial_fp, parallel_fp] = thread_invariance(seed);

  obs::JsonWriter w(std::cout);
  w.begin_object();
  w.key("workload").value(workload);
  w.key("seed").value(seed);
  w.key("thread_budget").value(static_cast<std::uint64_t>(kThreadBudget));
  w.key("jobs").value(static_cast<std::uint64_t>(jobs_for(kind)));
  w.key("hardware_threads")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("build_type").value(FEDL_BUILD_TYPE);
  w.key("gemm_kernel_tier")
      .value(static_cast<std::int64_t>(active_gemm_kernel()));
  w.key("replica_bytes").value(gauge("fl.replica_bytes"));
  w.key("pool_workers").value(gauge("pool.workers"));
  w.key("peak_rss_mib").value(plain.peak_rss_mib);
  w.key("invariance").begin_object();
  w.key("serial").value(serial_fp);
  w.key("parallel").value(parallel_fp);
  w.end_object();
  w.key("plain");
  write_phase(w, plain);
  if (traced) {
    w.key("traced");
    write_phase(w, *traced);
    w.key("peak_inflight").value(static_cast<std::uint64_t>(peak_inflight));
    w.key("spans_out").value(spans_out);
  }
  w.end_object();
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace fedl::perfbench

int main(int argc, char** argv) {
  try {
    return fedl::perfbench::bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "fedl_perfbench failed: " << e.what() << "\n";
    return 1;
  }
}
