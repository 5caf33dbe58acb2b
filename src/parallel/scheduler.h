// Process-wide two-level scheduler: concurrent experiment trials on top,
// per-trial client fan-out below, both drawing from one hardware-thread
// budget (DESIGN.md "Two-level parallelism").
//
// Level 1 (trials): run_trials(n, fn) executes n independent trials —
// (algorithm, setting, seed, budget) cells of an experiment grid — with at
// most `jobs` running concurrently, each on a dedicated runner thread that
// occupies one budget slot while its trial runs.
//
// Level 2 (intra-trial fan-out): instead of constructing a private
// ThreadPool, FlEngine::run_clients asks the scheduler for extra worker
// slots (acquire_workers). Grants are try-acquire against the remaining
// budget, so `--jobs J --threads K` composes predictably: J runners plus
// Σ granted leases never exceed the budget. A trial whose nominal share is
// idle-capacity-bounded may *steal* unused slots (auto fan-out mode), so a
// lone straggler trial ramps up to the whole machine.
//
// Determinism: grants only change how a fan-out is chunked across worker
// threads, never the values computed — every per-client task touches only
// its own slot and all floating-point reductions happen in client order on
// the trial's thread (see engine.cpp), so per-trial results are
// bit-identical for any (jobs, threads, budget) combination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace fedl {

struct SchedulerStats {
  std::size_t thread_budget = 0;  // total slots (trial runners + leases)
  std::size_t active_trials = 0;  // trials running right now
  std::size_t leased_slots = 0;   // worker slots currently handed out
  std::size_t peak_inflight = 0;  // max(active_trials + leased_slots) seen
  std::uint64_t trials_run = 0;   // trials completed since reset_stats()
  std::uint64_t steal_count = 0;  // leases that granted beyond the nominal
  std::uint64_t stolen_slots = 0; // slots granted beyond nominal, cumulative

  std::size_t inflight() const { return active_trials + leased_slots; }
};

class Scheduler {
 public:
  // The process-wide instance (never destroyed). Default configuration:
  // budget = hardware_concurrency, jobs = 1 — single-trial behavior with
  // whole-machine fan-out available to that trial.
  static Scheduler& instance();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Re-sizes the budget and top-level concurrency. budget 0 selects
  // hardware_concurrency (at least 1); jobs 0 selects the budget (one slot
  // per trial). Must only be called while the scheduler is idle (no trials
  // running, no leases outstanding) — checked.
  void configure(std::size_t budget, std::size_t jobs);

  std::size_t thread_budget() const;
  // Trials that may run concurrently: min(jobs, budget).
  std::size_t max_concurrent_trials() const;
  // A trial's nominal whole-thread share (its runner included) when the
  // fan-out is not pinned: max(1, budget / max_concurrent_trials()).
  std::size_t auto_share() const;

  // True on a thread currently executing a trial body for run_trials.
  static bool in_trial();

  // RAII grant of extra worker slots; slots return to the budget on
  // destruction. granted() may be 0 (run inline).
  class WorkerLease {
   public:
    WorkerLease() = default;
    WorkerLease(WorkerLease&& other) noexcept { swap(other); }
    WorkerLease& operator=(WorkerLease&& other) noexcept {
      swap(other);
      return *this;
    }
    WorkerLease(const WorkerLease&) = delete;
    WorkerLease& operator=(const WorkerLease&) = delete;
    ~WorkerLease();

    std::size_t granted() const { return granted_; }

   private:
    friend class Scheduler;
    WorkerLease(Scheduler* owner, std::size_t granted)
        : owner_(owner), granted_(granted) {}
    void swap(WorkerLease& other) {
      std::swap(owner_, other.owner_);
      std::swap(granted_, other.granted_);
    }

    Scheduler* owner_ = nullptr;
    std::size_t granted_ = 0;
  };

  // Try-acquire up to `max_useful` extra worker slots for the calling
  // thread's fan-out (the caller's own slot is accounted separately: every
  // live run_trials runner reserves one slot for its whole lifetime, a
  // non-trial caller is charged one slot implicitly). `nominal` is the fan-out's configured share of extra
  // workers; slots beyond it are only granted when `allow_steal` and idle
  // capacity exists, and are counted as stolen in the stats/gauges. Never
  // blocks; granted() == 0 means "run inline".
  WorkerLease acquire_workers(std::size_t nominal, std::size_t max_useful,
                              bool allow_steal);

  // Shared worker pool (budget - 1 workers) that executes leased fan-out
  // chunks. Only valid when thread_budget() > 1.
  ThreadPool& pool();

  // Runs fn(0), …, fn(n-1) — each exactly once — with at most
  // max_concurrent_trials() executing concurrently, on dedicated runner
  // threads (or inline when the effective width is 1). Blocks until every
  // trial finished. A throwing trial does not stop the others; afterwards
  // the lowest-index exception is rethrown. Trials must not call
  // run_trials recursively (checked).
  void run_trials(std::size_t n, const std::function<void(std::size_t)>& fn);

  SchedulerStats stats() const;
  // Zeroes peak/steal/trial counters (budget and live occupancy are kept).
  void reset_stats();

 private:
  Scheduler();

  void begin_trial();
  void end_trial();
  void release_workers(std::size_t granted);
  void update_gauges_locked();

  mutable std::mutex mutex_;
  std::size_t budget_ = 1;
  std::size_t jobs_ = 1;
  std::size_t runners_ = 0;  // live run_trials runner threads (slots reserved)
  std::size_t active_trials_ = 0;
  std::size_t leased_ = 0;
  std::size_t peak_inflight_ = 0;
  std::size_t stolen_now_ = 0;     // currently-leased slots beyond nominal
  std::uint64_t trials_run_ = 0;
  std::uint64_t steal_count_ = 0;
  std::uint64_t stolen_slots_ = 0;
  std::unique_ptr<ThreadPool> pool_;  // budget-1 workers; null when budget<=1
};

// Budget-respecting fan-out in one call: try-acquire up to end-begin-1
// extra workers from the scheduler (auto-share nominal, stealing enabled),
// run body(i) over [begin, end) caller-participating, release the lease.
// Runs inline when the range is trivial or the budget is saturated — so the
// compute layers (conv2d per-sample loops and col2im, the GEMM macro loop)
// can fan out unconditionally and still compose with trial runners and
// per-client leases without ever oversubscribing. Values never depend on
// the grant (bodies touch disjoint per-index state by contract).
template <typename Body>
void leased_parallel_for(std::size_t begin, std::size_t end,
                         const Body& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  Scheduler& sched = Scheduler::instance();
  if (n > 1 && sched.thread_budget() > 1) {
    Scheduler::WorkerLease lease = sched.acquire_workers(
        sched.auto_share() - 1, n - 1, /*allow_steal=*/true);
    if (lease.granted() > 0) {
      parallel_for_shared(sched.pool(), lease.granted(), begin, end, body);
      return;
    }
  }
  for (std::size_t i = begin; i < end; ++i) body(i);
}

}  // namespace fedl
