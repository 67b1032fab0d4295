// Observation seams the benchmark wraps around the program under test.
//
// Both decorators forward every call unchanged; they only read clocks and
// the arguments and results that pass through the public interfaces:
//
//   - StampingBackend wraps an ExecutionBackend. In every run it stamps each
//     emitted token when EndIteration returns (the token exists from that
//     moment on), stamps each Admit, tracks when its instance holds
//     unfinished requests, and notes which requests it preempted, converted,
//     served from hidden cache or seeded from the prefix index. In a traced
//     run it also times every call and counts the work of each step.
//   - TimedScheduler wraps a Scheduler (traced runs only). It times
//     PlanIteration and reads the SchedulerInput and BatchPlan.
//
// Threading: one instance's decorators are called only from that instance's
// worker thread. They write the InstanceObs of their instance and the
// RequestObs of requests routed to it, so no two threads write the same
// object; the benchmark reads both after RunAsync has joined every worker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "engine/model_config.h"
#include "serve/execution_backend.h"
#include "sim/scheduler.h"

namespace servebench {

using aptserve::CacheType;
using aptserve::ExecutionBackend;
using aptserve::SimRequest;

/// Seconds on the benchmark's steady clock.
double Now();

/// What the decorators saw of one request.
struct RequestObs {
  int32_t instance = -1;
  int32_t admits = 0;
  int32_t finishes = 0;
  /// Steady-clock time of Admit on the instance.
  double admit_time = -1.0;
  /// One stamp per emitted token, in emission order.
  std::vector<double> token_times;
  bool preempted = false;
  bool converted = false;
  bool hidden = false;
  bool prefix_seeded = false;
  /// Cache type of the latest prefill pass; -1 before the first.
  int32_t last_type = -1;
};

/// Accounting of one instance. Busy time is kept in every run; the rest is
/// filled in traced runs only.
struct InstanceObs {
  // Scheduler.
  aptserve::SampleSet plan_s;
  double pool_used_share_sum = 0.0;
  int64_t pool_samples = 0;
  double hidden_token_share_sum = 0.0;
  int64_t hidden_token_samples = 0;
  int64_t prefill_sched_tokens = 0;
  int64_t hidden_prefill_sched_tokens = 0;

  // Backend and engine.
  double backend_s = 0.0;  ///< every backend call
  double prepare_s = 0.0;  ///< ExecutePrefillChunk / ExecuteDecode
  double compute_s = 0.0;  ///< EndIteration (deferred forwards + sampling)
  aptserve::SampleSet iteration_s;  ///< BeginIteration -> EndIteration
  int64_t executed_iterations = 0;
  int64_t batch_items = 0;
  int64_t prefill_tokens = 0;
  int64_t decode_tokens = 0;
  int64_t useful_prefill_tokens = 0;
  double prefill_only_s = 0.0;
  int64_t prefill_only_tokens = 0;
  double decode_only_s = 0.0;
  int64_t decode_only_tokens = 0;
  double flops = 0.0;
  int64_t oom_steps = 0;

  // Serving loop, derived from the call sequence.
  int64_t plans = 0;
  double overhead_s = 0.0;
  double busy_s = 0.0;  ///< time with at least one unfinished request

  // Bookkeeping for the derived loop figures.
  int32_t unfinished = 0;
  int32_t min_unfinished_since_plan = 0;
  double busy_since = -1.0;
  double last_plan_start = -1.0;
  double last_plan_s = 0.0;
  double backend_s_at_last_plan = 0.0;
};

/// Floating-point operations of one engine step, computed from tensor
/// sizes: positions [start, end) pass through QKV, output projection, FFN
/// and causal attention in every layer, a hidden-cache step rebuilds K and
/// V of the `start` cached positions, and the step ends with one LM-head
/// row.
double StepFlops(const aptserve::ModelConfig& model, CacheType type,
                 int32_t start, int32_t end);

class StampingBackend final : public ExecutionBackend {
 public:
  /// `traced` is false in the timed run. `requests` is indexed by request
  /// id; it and `inst` outlive the backend.
  StampingBackend(std::unique_ptr<ExecutionBackend> inner,
                  const aptserve::ModelConfig& model, int32_t instance,
                  std::vector<RequestObs>* requests, InstanceObs* inst,
                  bool traced);

  std::string name() const override { return inner_->name(); }
  aptserve::Status Prepare(const std::vector<SimRequest>& reqs) override;
  aptserve::Status Admit(const SimRequest& sr) override;
  const aptserve::BlockPool* pool() const override { return inner_->pool(); }
  const aptserve::HybridCacheAssigner* assigner() const override {
    return inner_->assigner();
  }
  const aptserve::CostModel* cost_model() const override {
    return inner_->cost_model();
  }
  void BeginIteration() override;
  aptserve::StatusOr<double> EndIteration() override;
  double IdleAdvanceSeconds() const override {
    return inner_->IdleAdvanceSeconds();
  }
  aptserve::Status Release(const SimRequest& sr) override;
  aptserve::Status Convert(const SimRequest& sr, CacheType new_type) override;
  aptserve::StatusOr<bool> TrySwapOut(const SimRequest& sr) override;
  aptserve::StatusOr<bool> TrySwapIn(const SimRequest& sr) override;
  aptserve::StatusOr<StepOutcome> ExecutePrefillChunk(const SimRequest& sr,
                                                      CacheType cache_type,
                                                      int32_t chunk) override;
  aptserve::StatusOr<StepOutcome> ExecuteDecode(const SimRequest& sr) override;
  aptserve::Status OnFinish(const SimRequest& sr) override;
  aptserve::Status Finalize() override { return inner_->Finalize(); }
  int64_t swap_outs() const override { return inner_->swap_outs(); }
  int64_t swap_ins() const override { return inner_->swap_ins(); }
  const aptserve::PrefixStats* prefix_stats() const override {
    return inner_->prefix_stats();
  }
  int32_t ReclaimCache(int32_t min_blocks) override;

 private:
  RequestObs& Obs(const SimRequest& sr) {
    return (*requests_)[static_cast<size_t>(sr.spec.id)];
  }

  std::unique_ptr<ExecutionBackend> inner_;
  aptserve::ModelConfig model_;
  int32_t instance_;
  std::vector<RequestObs>* requests_;
  InstanceObs* inst_;
  bool traced_;
  /// Requests that produced a token in the current iteration.
  std::vector<aptserve::RequestId> tokened_;
  double iteration_start_ = 0.0;
  int64_t iter_prefill_tokens_ = 0;
  int64_t iter_decode_tokens_ = 0;
};

class TimedScheduler final : public aptserve::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<aptserve::Scheduler> inner, InstanceObs* obs)
      : inner_(std::move(inner)), obs_(obs) {}

  aptserve::BatchPlan PlanIteration(
      const aptserve::SchedulerInput& input) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<aptserve::Scheduler> inner_;
  InstanceObs* obs_;
};

}  // namespace servebench
