// Correctness checks run after the timed section. Each compares the served
// run against an independent computation or a property the method must
// have; none compares against stored output of an earlier run.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/model_config.h"
#include "probes.h"
#include "serve/async_serving.h"
#include "serve/router.h"
#include "workload/request.h"

namespace servebench {

using TokenMap =
    std::unordered_map<aptserve::RequestId, std::vector<int32_t>>;

/// Collects failures; a run is correct when none were added.
class CheckLog {
 public:
  void Fail(const std::string& what);
  bool ok() const { return failures_ == 0; }
  int32_t failures() const { return failures_; }

 private:
  int32_t failures_ = 0;
};

/// Every trace request was admitted once, finished once, and emitted
/// exactly output_len tokens; its served prompt is the trace's (or, for
/// length-only traces, the backend's documented synthesis of it). The totals
/// equal the program's WallLatencyReport counts.
void CheckConservation(const std::vector<aptserve::Request>& trace,
                       const std::vector<RequestObs>& obs,
                       const TokenMap& served, uint64_t prompt_seed,
                       int32_t vocab_size,
                       const aptserve::AsyncServingResult& result,
                       CheckLog* log);

/// Each request ran on the instance an offline Router::Route of the same
/// trace picks, and per-instance counts agree with it.
void CheckRouting(const std::vector<aptserve::Request>& trace,
                  const aptserve::Router& router,
                  const std::vector<RequestObs>& obs,
                  const aptserve::AsyncServingResult& result, CheckLog* log);

/// The program's own TTFT percentiles (measured from release) never exceed
/// the due-time ones by more than one histogram bucket.
void CheckReportedTtft(std::vector<double> due_ttft,
                       const aptserve::WallLatencyReport& wall, CheckLog* log);

struct OracleSummary {
  int32_t pairs = 0;
  /// Pairs from preempted, converted or hidden-cache requests.
  int32_t hybrid_pairs = 0;
  int32_t mismatches = 0;
  int32_t near_ties = 0;
  bool self_check_caught = false;
};

/// For a bounded sample of (request, position) pairs, weighted toward
/// requests that were preempted, converted, hidden-cached or prefix-seeded,
/// the served greedy token must be the argmax of the uncached ForwardFull
/// logits (a near-tie within kLogitTolerance accepts either). Then one
/// collected token is corrupted and the same check must reject it. With
/// `require_hybrid`, a sample holding no preempted, converted or
/// hidden-cache request fails.
OracleSummary CheckOracle(const std::vector<aptserve::Request>& trace,
                          const std::vector<RequestObs>& obs,
                          const TokenMap& served,
                          const aptserve::ModelConfig& model,
                          uint64_t weight_seed, uint64_t sample_seed,
                          int32_t max_pairs, bool require_hybrid,
                          CheckLog* log);

}  // namespace servebench
