// servebench: serves one traffic mix in wall-clock time on the real engine
// and reports end-to-end latency, throughput and goodput (or, with
// --trace 1, per-layer figures), after checking the served output.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//              [--scheduler apt|fcfs]
//
// System under test, the same for every workload: MultiInstanceRunner::
// RunAsync over two InferenceBackend instances of ModelConfig::Small
// (context raised to 2048), one engine thread each, greedy decoding,
// AptScheduler on the hybrid cache, prefix sharing on, prefix-affinity
// routing. The process runs four threads while serving: the feeder, the
// controller (this thread) and one worker per instance.
//
// Every latency is timed from the request's due time (trace arrival after
// the replay clock starts), not from when the feeder released it, and each
// token is stamped when the backend's EndIteration returns. Engines are
// built and rho is calibrated before the replay clock starts; that is
// setup_s, repeated kSetupRepeats times and reported as the median.
//
// The last line of stdout is one JSON object holding every metric measured:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// run.py keeps in it the metrics BENCHMARK.json lists.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "checks.h"
#include "common/stats.h"
#include "core/apt_scheduler.h"
#include "engine/rho_calibrator.h"
#include "probes.h"
#include "serve/async_serving.h"
#include "serve/inference_backend.h"
#include "serve/multi_instance.h"
#include "workload/token_ids.h"
#include "workloads.h"

namespace servebench {
namespace {

using aptserve::Request;
using aptserve::StatusOr;

constexpr int32_t kInstances = 2;
constexpr int32_t kBlockSize = 16;
constexpr int32_t kPoolBlocks = 2048;
/// Smoke runs serve from a pool this small so that Apt preempts, converts
/// and chooses hidden cache, and the oracle covers those paths.
constexpr int32_t kSmokePoolBlocks = 32;
constexpr int32_t kMaxSeqLen = 2048;
constexpr uint64_t kWeightSeed = 11;
/// InferenceBackendOptions' prompt synthesis seed for length-only traces.
constexpr uint64_t kPromptSeed = 7;
constexpr int32_t kSetupRepeats = 3;
constexpr int32_t kRhoReps = 3;
constexpr int32_t kOraclePairs = 16;
constexpr int32_t kSmokeOraclePairs = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string scheduler = "apt";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0.0) || a->seconds > 600.0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--scheduler") {
      if (value != "apt" && value != "fcfs") return false;
      a->scheduler = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

aptserve::ModelConfig ServedModel() {
  aptserve::ModelConfig m = aptserve::ModelConfig::Small();
  m.max_seq_len = kMaxSeqLen;
  return m;
}

aptserve::RuntimeConfig SerialRuntime() {
  aptserve::RuntimeConfig rc;
  rc.num_threads = 1;
  return rc;
}

aptserve::Router MakeRouter() {
  aptserve::RouterConfig rc;
  rc.n_instances = kInstances;
  rc.policy = aptserve::RoutePolicy::kPrefixAffinity;
  rc.block_size = kBlockSize;
  return aptserve::Router(rc);
}

// ---- Setup -----------------------------------------------------------------

struct SetupTimes {
  aptserve::SampleSet total_s;
  aptserve::SampleSet build_s;
  aptserve::SampleSet calibrate_s;
  aptserve::SampleSet rho_s;
};

using Backends = std::vector<std::unique_ptr<aptserve::InferenceBackend>>;

/// Calibrates rho and builds every instance's engine, kSetupRepeats times;
/// the last set serves. `sinks` receive finished token sequences.
StatusOr<Backends> RunSetup(int32_t pool_blocks, std::vector<TokenMap>* sinks,
                            SetupTimes* times) {
  const aptserve::ModelConfig model = ServedModel();
  const std::vector<int32_t> contexts = {128, 512, 1024};
  Backends backends;
  for (int32_t rep = 0; rep < kSetupRepeats; ++rep) {
    backends.clear();
    const double t0 = Now();
    APT_ASSIGN_OR_RETURN(
        aptserve::RhoCalibrationResult rho,
        aptserve::CalibrateRho(model, kWeightSeed, contexts, kRhoReps,
                               SerialRuntime()));
    const double t1 = Now();
    for (int32_t i = 0; i < kInstances; ++i) {
      aptserve::InferenceBackendOptions options;
      options.prompt_seed = kPromptSeed;
      options.runtime = SerialRuntime();
      options.rho_seconds_per_token = rho.rho_seconds_per_token;
      options.enable_prefix_sharing = true;
      options.finished_sink = &(*sinks)[static_cast<size_t>(i)];
      backends.push_back(std::make_unique<aptserve::InferenceBackend>(
          model, kWeightSeed, pool_blocks, kBlockSize,
          aptserve::SamplingParams::Greedy(), options));
    }
    const double t2 = Now();
    times->total_s.Add(t2 - t0);
    times->calibrate_s.Add(t1 - t0);
    times->build_s.Add(t2 - t1);
    times->rho_s.Add(rho.rho_seconds_per_token);
  }
  return backends;
}

// ---- Serving ---------------------------------------------------------------

/// Serves `w` on the pre-built backends. `start` receives the steady-clock
/// time taken right before RunAsync; the replay clock starts microseconds
/// later, so due times computed from it are never late.
StatusOr<aptserve::AsyncServingResult> Serve(
    const Workload& w, const std::string& scheduler, Backends* backends,
    std::vector<RequestObs>* requests, std::vector<InstanceObs>* instances,
    bool traced, double* start) {
  aptserve::MultiInstanceRunner runner(MakeRouter(),
                                       aptserve::ServingLoopConfig{},
                                       SerialRuntime());
  const aptserve::ModelConfig model = ServedModel();
  aptserve::AptConfig apt;
  apt.slo = w.slo;
  int32_t next_scheduler = 0;
  const aptserve::SchedulerFactory make_scheduler =
      [&]() -> std::unique_ptr<aptserve::Scheduler> {
    std::unique_ptr<aptserve::Scheduler> s;
    if (scheduler == "fcfs") {
      s = std::make_unique<aptserve::FcfsScheduler>();
    } else {
      s = std::make_unique<aptserve::AptScheduler>(apt);
    }
    const size_t i = static_cast<size_t>(next_scheduler++);
    if (!traced) return s;
    return std::make_unique<TimedScheduler>(std::move(s), &(*instances)[i]);
  };
  const aptserve::BackendFactory make_backend =
      [&](int32_t i) -> StatusOr<std::unique_ptr<aptserve::ExecutionBackend>> {
    const size_t k = static_cast<size_t>(i);
    return std::unique_ptr<aptserve::ExecutionBackend>(
        std::make_unique<StampingBackend>(
            std::move((*backends)[k]), model, i, requests, &(*instances)[k],
            traced));
  };
  aptserve::AsyncServingConfig async;
  async.max_wall_seconds = 150.0;
  *start = Now();
  return runner.RunAsync(w.trace, make_scheduler, make_backend, w.slo, async);
}

// ---- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct EndToEnd {
  aptserve::SampleSet ttft;  ///< due time -> first token, per request
  std::vector<Metric> metrics;
  double serve_start = 0.0;
  double serve_wall_s = 0.0;
  double busy_s = 0.0;  ///< summed over instances
  int64_t finished = 0;
};

double PeakRssMib() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

EndToEnd ComputeEndToEnd(const Workload& w, const std::vector<RequestObs>& obs,
                         const std::vector<InstanceObs>& instances,
                         double start, double setup_s) {
  EndToEnd out;
  aptserve::SampleSet tbt;
  aptserve::SampleSet e2e;
  int64_t tokens = 0;
  int64_t good = 0;
  double last = start;
  out.serve_start = start + w.trace.front().arrival;
  for (const Request& r : w.trace) {
    const RequestObs& o = obs[static_cast<size_t>(r.id)];
    if (o.finishes != 1 || o.token_times.empty()) continue;
    ++out.finished;
    const double due = start + r.arrival;
    const double ttft = o.token_times.front() - due;
    out.ttft.Add(ttft);
    e2e.Add(o.token_times.back() - due);
    last = std::max(last, o.token_times.back());
    tokens += static_cast<int64_t>(o.token_times.size());
    aptserve::SampleSet gaps;
    for (size_t k = 1; k < o.token_times.size(); ++k) {
      gaps.Add(o.token_times[k] - o.token_times[k - 1]);
      tbt.Add(o.token_times[k] - o.token_times[k - 1]);
    }
    const bool tbt_ok = gaps.empty() || gaps.P99() <= w.slo.tbt_p99_s;
    if (ttft <= w.slo.ttft_s && tbt_ok) ++good;
  }
  out.serve_wall_s = last - out.serve_start;
  for (const InstanceObs& i : instances) out.busy_s += i.busy_s;
  const double toks = static_cast<double>(tokens);
  out.metrics = {
      {"setup_s", setup_s, "s"},
      {"ttft_p50_s", out.ttft.Median(), "s"},
      {"ttft_p90_s", out.ttft.Quantile(0.9), "s"},
      {"ttft_mean_s", out.ttft.Mean(), "s"},
      {"tbt_p50_s", tbt.Median(), "s"},
      {"tbt_p99_s", tbt.P99(), "s"},
      {"tbt_mean_s", tbt.Mean(), "s"},
      {"e2e_p50_s", e2e.Median(), "s"},
      {"e2e_mean_s", e2e.Mean(), "s"},
      {"output_tok_per_s", Ratio(toks, out.serve_wall_s), "tok/s"},
      {"busy_tok_per_s", Ratio(toks * kInstances, out.busy_s), "tok/s"},
      {"goodput_rps", Ratio(static_cast<double>(good), out.serve_wall_s),
       "req/s"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
  };
  return out;
}

struct RouterReplay {
  double decide_us_mean = 0.0;
  double prefix_affine_share = 0.0;
  double max_instance_share = 0.0;
};

/// Replays the fleet's routing offline, request by request, timing each
/// RouteOne. A request counts as prefix-affine when the instance it goes to
/// was already sent a request with the same leading block of tokens.
RouterReplay ReplayRouter(const std::vector<Request>& trace) {
  const aptserve::Router router = MakeRouter();
  aptserve::RouterState state = router.MakeState(kInstances);
  const std::vector<uint8_t> live(kInstances, 1);
  std::vector<std::unordered_set<std::string>> held(kInstances);
  std::vector<int64_t> per_instance(kInstances, 0);
  aptserve::SampleSet decide_s;
  int64_t affine = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Request& r = trace[i];
    bool best_effort = false;
    const double t0 = Now();
    const int32_t inst = router.RouteOne(r, i, live, &state, &best_effort);
    decide_s.Add(Now() - t0);
    if (inst < 0) continue;
    ++per_instance[static_cast<size_t>(inst)];
    if (static_cast<int32_t>(r.token_ids.size()) < kBlockSize) continue;
    const std::string lead(
        reinterpret_cast<const char*>(r.token_ids.data()),
        kBlockSize * sizeof(int32_t));
    if (!held[static_cast<size_t>(inst)].insert(lead).second) ++affine;
  }
  RouterReplay out;
  out.decide_us_mean = decide_s.Mean() * 1e6;
  const double n = static_cast<double>(trace.size());
  out.prefix_affine_share = Ratio(static_cast<double>(affine), n);
  out.max_instance_share =
      Ratio(static_cast<double>(
                *std::max_element(per_instance.begin(), per_instance.end())),
            n);
  return out;
}

std::vector<Metric> ComputePerLayer(const Workload& w,
                                    const std::vector<RequestObs>& obs,
                                    const std::vector<InstanceObs>& inst,
                                    const aptserve::AsyncServingResult& result,
                                    const EndToEnd& e2e, double start,
                                    const SetupTimes& setup) {
  aptserve::SampleSet admit_delay;
  for (const Request& r : w.trace) {
    const RequestObs& o = obs[static_cast<size_t>(r.id)];
    if (o.admit_time >= 0.0) admit_delay.Add(o.admit_time - (start + r.arrival));
  }
  InstanceObs sum;
  aptserve::SampleSet plan_s;
  aptserve::SampleSet iteration_s;
  for (const InstanceObs& s : inst) {
    for (double x : s.plan_s.samples()) plan_s.Add(x);
    for (double x : s.iteration_s.samples()) iteration_s.Add(x);
    sum.pool_used_share_sum += s.pool_used_share_sum;
    sum.pool_samples += s.pool_samples;
    sum.hidden_token_share_sum += s.hidden_token_share_sum;
    sum.hidden_token_samples += s.hidden_token_samples;
    sum.prefill_sched_tokens += s.prefill_sched_tokens;
    sum.hidden_prefill_sched_tokens += s.hidden_prefill_sched_tokens;
    sum.prepare_s += s.prepare_s;
    sum.compute_s += s.compute_s;
    sum.executed_iterations += s.executed_iterations;
    sum.batch_items += s.batch_items;
    sum.prefill_tokens += s.prefill_tokens;
    sum.decode_tokens += s.decode_tokens;
    sum.useful_prefill_tokens += s.useful_prefill_tokens;
    sum.prefill_only_s += s.prefill_only_s;
    sum.prefill_only_tokens += s.prefill_only_tokens;
    sum.decode_only_s += s.decode_only_s;
    sum.decode_only_tokens += s.decode_only_tokens;
    sum.flops += s.flops;
    sum.oom_steps += s.oom_steps;
    sum.plans += s.plans;
    sum.overhead_s += s.overhead_s;
  }
  const aptserve::MultiInstanceResult& fleet = result.serve;
  const aptserve::PrefixStats& prefix = fleet.prefix;
  const RouterReplay route = ReplayRouter(w.trace);
  const auto count = [](int64_t v) { return static_cast<double>(v); };
  return {
      {"serve.admit_delay_p90_s", admit_delay.Quantile(0.9), "s"},
      {"serve.ttft_underreport_p90_s",
       e2e.ttft.Quantile(0.9) - result.wall.ttft.Quantile(0.9), "s"},
      {"serve.arrival_queue_high_water",
       count(static_cast<int64_t>(result.arrival_queue_high_water)), "count"},
      {"router.decide_us_mean", route.decide_us_mean, "us"},
      {"router.prefix_affine_share", route.prefix_affine_share, "ratio"},
      {"router.max_instance_share", route.max_instance_share, "ratio"},
      {"loop.iterations", count(sum.plans), "count"},
      {"loop.batch_items_mean",
       Ratio(count(sum.batch_items), count(sum.executed_iterations)), "count"},
      {"loop.overhead_s", sum.overhead_s, "s"},
      {"loop.idle_share",
       1.0 - Ratio(e2e.busy_s, kInstances * e2e.serve_wall_s), "ratio"},
      {"sched.plan_us_p50", plan_s.Median() * 1e6, "us"},
      {"sched.plan_us_p99", plan_s.P99() * 1e6, "us"},
      {"sched.preemptions", count(fleet.combined.preemptions), "count"},
      {"sched.conversions", count(fleet.combined.conversions), "count"},
      {"sched.hidden_prefill_share",
       Ratio(count(sum.hidden_prefill_sched_tokens),
             count(sum.prefill_sched_tokens)),
       "ratio"},
      {"cache.pool_used_share_mean",
       Ratio(sum.pool_used_share_sum, count(sum.pool_samples)), "ratio"},
      {"cache.hidden_token_share",
       Ratio(sum.hidden_token_share_sum, count(sum.hidden_token_samples)),
       "ratio"},
      {"cache.oom_steps", count(sum.oom_steps), "count"},
      {"cache.batch_limit_time_share", fleet.combined.batch_limit_time_ratio,
       "ratio"},
      {"prefix.hit_share", Ratio(count(prefix.hits), count(prefix.lookups)),
       "ratio"},
      {"prefix.skipped_token_share",
       Ratio(count(fleet.prefill_tokens_skipped),
             count(fleet.prefill_tokens_skipped +
                   fleet.prefill_tokens_computed)),
       "ratio"},
      {"prefix.evicted_blocks", count(prefix.evicted_blocks), "count"},
      {"engine.prepare_s", sum.prepare_s, "s"},
      {"engine.compute_s", sum.compute_s, "s"},
      {"engine.iter_ms_p50", iteration_s.Median() * 1e3, "ms"},
      {"engine.prefill_tokens", count(sum.prefill_tokens), "count"},
      {"engine.decode_tokens", count(sum.decode_tokens), "count"},
      {"engine.prefill_tok_per_s",
       Ratio(count(sum.prefill_only_tokens), sum.prefill_only_s), "tok/s"},
      {"engine.decode_tok_per_s",
       Ratio(count(sum.decode_only_tokens), sum.decode_only_s), "tok/s"},
      {"engine.useful_prefill_share",
       Ratio(count(sum.useful_prefill_tokens), count(sum.prefill_tokens)),
       "ratio"},
      {"engine.gflops", Ratio(sum.flops, sum.compute_s) / 1e9, "GFLOP/s"},
      {"setup.engine_build_s", setup.build_s.Median(), "s"},
      {"setup.calibrate_s", setup.calibrate_s.Median(), "s"},
      {"setup.rho_us", setup.rho_s.Median() * 1e6, "us"},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void PrintMetrics(const char* label, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-32s %14.6f %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Share of prompt tokens that repeat the prompt of some earlier request
/// (longest common prefix with any earlier prompt), over all prompt tokens.
double SharedPromptShare(const std::vector<Request>& trace) {
  std::vector<std::vector<int32_t>> prompts;
  int64_t shared = 0;
  int64_t total = 0;
  for (const Request& r : trace) {
    std::vector<int32_t> p =
        r.has_token_ids() ? r.token_ids
                          : aptserve::DeterministicPromptTokens(
                                r.id, kPromptSeed, r.prompt_len,
                                ServedModel().vocab_size);
    size_t best = 0;
    for (const std::vector<int32_t>& q : prompts) {
      const size_t n = std::min(p.size(), q.size());
      size_t k = 0;
      while (k < n && p[k] == q[k]) ++k;
      best = std::max(best, k);
    }
    shared += static_cast<int64_t>(best);
    total += static_cast<int64_t>(p.size());
    prompts.push_back(std::move(p));
  }
  return Ratio(static_cast<double>(shared), static_cast<double>(total));
}

void DescribeTrace(const Workload& w) {
  aptserve::SampleSet prompt;
  aptserve::SampleSet output;
  aptserve::RunningStat gaps;
  for (size_t i = 0; i < w.trace.size(); ++i) {
    prompt.Add(w.trace[i].prompt_len);
    output.Add(w.trace[i].output_len);
    if (i > 0) gaps.Add(w.trace[i].arrival - w.trace[i - 1].arrival);
  }
  const double cv = Ratio(gaps.stddev(), gaps.mean());
  std::printf("trace: prompt mean %.0f median %.0f p90 %.0f max %.0f; output "
              "mean %.0f median %.0f p90 %.0f max %.0f; arrivals %.2f req/s "
              "over %.1f s, gap cv %.2f; shared prompt-token share %.3f\n",
              prompt.Mean(), prompt.Median(), prompt.Quantile(0.9),
              prompt.Max(), output.Mean(), output.Median(),
              output.Quantile(0.9), output.Max(),
              Ratio(static_cast<double>(w.trace.size()),
                    w.trace.back().arrival),
              w.trace.back().arrival, cv, SharedPromptShare(w.trace));
}

int Run(const Args& args) {
  const aptserve::ModelConfig model = ServedModel();
  StatusOr<Workload> built =
      MakeWorkload(args.workload, args.seed, args.seconds, args.smoke,
                   model.max_seq_len, model.vocab_size);
  if (!built.ok()) {
    std::fprintf(stderr, "servebench: %s\n", built.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *built;
  for (size_t i = 0; i < w.trace.size(); ++i) {
    if (w.trace[i].id != static_cast<aptserve::RequestId>(i)) {
      std::fprintf(stderr, "servebench: trace ids are not 0..n-1\n");
      return 2;
    }
  }
  std::printf("workload %s seed %llu: %zu requests, %s; SLO TTFT %.3f s, "
              "p99 TBT %.3f s; scheduler %s%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.trace.size(), w.shape.c_str(), w.slo.ttft_s, w.slo.tbt_p99_s,
              args.scheduler.c_str(), args.smoke ? " (smoke)" : "");
  DescribeTrace(w);

  std::vector<TokenMap> sinks(kInstances);
  SetupTimes setup;
  StatusOr<Backends> backends =
      RunSetup(args.smoke ? kSmokePoolBlocks : kPoolBlocks, &sinks, &setup);
  if (!backends.ok()) {
    std::fprintf(stderr, "servebench: setup: %s\n",
                 backends.status().ToString().c_str());
    return 1;
  }

  std::vector<RequestObs> requests(w.trace.size());
  for (const Request& r : w.trace) {
    requests[static_cast<size_t>(r.id)].token_times.reserve(
        static_cast<size_t>(r.output_len));
  }
  std::vector<InstanceObs> instances(kInstances);
  double start = 0.0;
  StatusOr<aptserve::AsyncServingResult> result =
      Serve(w, args.scheduler, &*backends, &requests, &instances, args.trace,
            &start);
  if (!result.ok()) {
    std::fprintf(stderr, "servebench: serving failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  const EndToEnd e2e =
      ComputeEndToEnd(w, requests, instances, start, setup.total_s.Median());

  // ---- Correctness, after the timed section ----
  TokenMap served;
  for (TokenMap& m : sinks) {
    for (auto& [id, toks] : m) served[id] = std::move(toks);
  }
  CheckLog log;
  CheckConservation(w.trace, requests, served, kPromptSeed, model.vocab_size,
                    *result, &log);
  CheckRouting(w.trace, MakeRouter(), requests, *result, &log);
  CheckReportedTtft(e2e.ttft.samples(), result->wall, &log);
  const OracleSummary oracle =
      CheckOracle(w.trace, requests, served, model, kWeightSeed, args.seed,
                  args.smoke ? kSmokeOraclePairs : kOraclePairs,
                  /*require_hybrid=*/args.smoke, &log);

  const int64_t attempted = static_cast<int64_t>(w.trace.size());
  std::printf("requests attempted %lld finished %lld failed %lld; serving "
              "wall %.3f s; rho %.4g us/token\n",
              static_cast<long long>(attempted),
              static_cast<long long>(e2e.finished),
              static_cast<long long>(attempted - e2e.finished),
              e2e.serve_wall_s, setup.rho_s.Median() * 1e6);
  std::printf("checks: %s (oracle %d pairs, %d from preempted, converted or "
              "hidden-cache requests, %d mismatches, %d near-ties, "
              "self-check %s)\n",
              log.ok() ? "pass" : "FAIL", oracle.pairs, oracle.hybrid_pairs,
              oracle.mismatches,
              oracle.near_ties,
              oracle.self_check_caught ? "caught the corruption" : "MISSED");

  std::vector<Metric> reported = e2e.metrics;
  if (args.trace) {
    PrintMetrics("traced-e2e", e2e.metrics);
    reported = ComputePerLayer(w, requests, instances, *result, e2e, start,
                               setup);
  }
  PrintMetrics("metric", reported);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              log.ok() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(attempted - e2e.finished),
              MetricsJson(reported).c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--scheduler apt|fcfs]\n");
    return 2;
  }
  return servebench::Run(args);
}
