// The benchmark's traffic mixes. Each is an open-loop arrival schedule
// built by the library's own trace generators (src/workload/) from the
// command-line seed; the program under test receives only the requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/metrics.h"
#include "workload/request.h"

namespace servebench {

struct Workload {
  std::string name;
  /// TTFT (from the due time) and per-request p99 TBT limits.
  aptserve::SloSpec slo;
  /// Sorted by arrival, ids 0..n-1; `arrival` is the due time in seconds
  /// after the replay clock starts.
  std::vector<aptserve::Request> trace;
  /// One line: generator, rate, burstiness.
  std::string shape;
};

/// Builds workload `name` from `seed`, with arrivals spread over about
/// `seconds`. `max_seq_len` is the served model's context: every request
/// satisfies prompt + output + 1 <= max_seq_len, which is what the engine
/// admits. `smoke` shrinks request count and lengths to a seconds-long run.
aptserve::StatusOr<Workload> MakeWorkload(const std::string& name,
                                          uint64_t seed, double seconds,
                                          bool smoke, int32_t max_seq_len,
                                          int32_t vocab_size);

}  // namespace servebench
