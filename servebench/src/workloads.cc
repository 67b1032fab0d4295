#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "workload/arrival.h"
#include "workload/length_sampler.h"
#include "workload/shared_prefix.h"

namespace servebench {

using aptserve::Request;
using aptserve::Status;
using aptserve::StatusOr;

namespace {

// sharegpt-poisson runs at about half the fleet's saturation rate; at
// higher rates its tail latencies swing between seeds by more than the
// benchmark's bounds (README.md, "Choices and deviations").
constexpr double kShareGptRate = 3.0;
constexpr int32_t kMinRequests = 100;

// prefix-chat: conversations start every kChatStagger seconds; each has
// kChatTurns turns kChatThink seconds apart.
constexpr double kChatStagger = 0.5;
constexpr int32_t kChatTurns = 4;
constexpr double kChatThink = 2.0;

// Smoke traces: few short requests, due nearly together so that they
// contend for the smoke run's small pool (main.cc); no request outgrows
// it.
constexpr int32_t kSmokeRequests = 12;
constexpr double kSmokeRate = 100.0;
constexpr int32_t kSmokeMaxPrompt = 96;
constexpr int32_t kSmokeMaxOutput = 96;

int32_t RequestCount(double rate, double seconds, bool smoke) {
  if (smoke) return kSmokeRequests;
  return std::max(kMinRequests,
                  static_cast<int32_t>(std::lround(rate * seconds)));
}

constexpr int32_t kOversample = 16;

/// `n` values from a pool of kOversample * n seeded draws, stratified: the
/// pool is sorted, one value is taken from each of n equal-mass strata, and
/// the picks are shuffled. Every seed then offers nearly the same histogram
/// of lengths and gaps, and so the same work at the same rate, while which
/// request gets which value, and so where bursts fall, still follows the
/// seed.
template <typename T>
std::vector<T> Stratified(std::vector<T> pool, int32_t n, aptserve::Rng* rng) {
  std::sort(pool.begin(), pool.end());
  std::vector<T> picks(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    picks[static_cast<size_t>(i)] = pool[static_cast<size_t>(
        i * kOversample + rng->UniformInt(0, kOversample - 1))];
  }
  for (int32_t i = n - 1; i > 0; --i) {
    std::swap(picks[static_cast<size_t>(i)],
              picks[static_cast<size_t>(rng->UniformInt(0, i))]);
  }
  return picks;
}

std::vector<int32_t> StratifiedLengths(const aptserve::LengthDistribution& dist,
                                       int32_t n, aptserve::Rng* rng) {
  std::vector<int32_t> pool(static_cast<size_t>(n) * kOversample);
  for (int32_t& v : pool) v = dist.Sample(rng);
  return Stratified(std::move(pool), n, rng);
}

/// Poisson arrivals at `rate`: exponential gaps from PoissonArrivals,
/// stratified, and scaled so the n-th request is due at exactly n / rate.
StatusOr<std::vector<double>> StratifiedPoissonArrivals(double rate, int32_t n,
                                                        aptserve::Rng* rng) {
  APT_ASSIGN_OR_RETURN(
      std::vector<aptserve::TimePoint> times,
      aptserve::PoissonArrivals(rate, n * kOversample, rng));
  std::vector<double> gaps(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    gaps[i] = times[i] - (i > 0 ? times[i - 1] : 0.0);
  }
  gaps = Stratified(std::move(gaps), n, rng);
  double sum = 0.0;
  for (double g : gaps) sum += g;
  std::vector<double> arrivals;
  double t = 0.0;
  for (double g : gaps) {
    t += g * (n / rate) / sum;
    arrivals.push_back(t);
  }
  return arrivals;
}

/// ShareGPT lengths with Poisson arrivals at kShareGptRate, both
/// stratified.
StatusOr<Workload> ShareGptPoisson(uint64_t seed, double seconds, bool smoke,
                                   int32_t max_seq_len) {
  const aptserve::DatasetProfile profile = aptserve::DatasetProfile::ShareGpt();
  const int32_t n = RequestCount(kShareGptRate, seconds, smoke);
  const double rate = smoke ? kSmokeRate : kShareGptRate;
  aptserve::Rng rng(seed);
  APT_ASSIGN_OR_RETURN(std::vector<double> arrivals,
                       StratifiedPoissonArrivals(rate, n, &rng));
  const std::vector<int32_t> prompts = StratifiedLengths(profile.input, n, &rng);
  const std::vector<int32_t> outputs = StratifiedLengths(profile.output, n, &rng);
  // workload/trace.cc caps prompt + output at max_total_len, but the engine
  // needs prompt + output + 1 <= max_seq_len (the last sampled token is fed
  // back through the model), so the cap here is one below the context.
  const int32_t max_total = max_seq_len - 1;
  Workload w;
  w.name = "sharegpt-poisson";
  w.slo = {1.0, 0.1};
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.arrival = arrivals[static_cast<size_t>(i)];
    r.prompt_len = std::min(prompts[static_cast<size_t>(i)], max_total - 1);
    r.output_len = std::max(
        1, std::min(outputs[static_cast<size_t>(i)], max_total - r.prompt_len));
    if (smoke) {
      r.prompt_len = std::clamp(r.prompt_len / 4, 1, kSmokeMaxPrompt);
      r.output_len = std::clamp(r.output_len / 2, 2, kSmokeMaxOutput);
    }
    w.trace.push_back(r);
  }
  char shape[120];
  std::snprintf(shape, sizeof(shape), "ShareGPT lengths, Poisson arrivals %.2f req/s",
                rate);
  w.shape = shape;
  return w;
}

StatusOr<Workload> PrefixChat(uint64_t seed, double seconds, bool smoke,
                              int32_t vocab_size) {
  aptserve::SharedPrefixConfig sc;
  sc.system_prompt_len = smoke ? 64 : 512;
  sc.tokens_per_turn = smoke ? 16 : 64;
  sc.turns_per_conversation = kChatTurns;
  sc.output_len_mean = smoke ? 6 : 32;
  sc.output_jitter = 0.25;
  sc.think_time_s = smoke ? kChatThink / 4 : kChatThink;
  sc.conversation_stagger_s = kChatStagger;
  sc.num_conversations =
      smoke ? 3
            : std::max((kMinRequests + kChatTurns - 1) / kChatTurns,
                       static_cast<int32_t>(std::lround(seconds / kChatStagger)));
  sc.vocab_size = vocab_size;
  sc.seed = seed;
  APT_ASSIGN_OR_RETURN(std::vector<Request> trace,
                       aptserve::BuildSharedPrefixTrace(sc));
  Workload w;
  w.name = "prefix-chat";
  w.slo = {0.5, 0.1};
  w.trace = std::move(trace);
  char shape[200];
  std::snprintf(shape, sizeof(shape),
                "%d conversations x %d turns, system prompt %d + %d per turn, "
                "starts every %.2f s, think %.2f s",
                sc.num_conversations, sc.turns_per_conversation,
                sc.system_prompt_len, sc.tokens_per_turn,
                sc.conversation_stagger_s, sc.think_time_s);
  w.shape = shape;
  return w;
}

}  // namespace

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                double seconds, bool smoke,
                                int32_t max_seq_len, int32_t vocab_size) {
  if (name == "sharegpt-poisson") {
    return ShareGptPoisson(seed, seconds, smoke, max_seq_len);
  }
  if (name == "prefix-chat") return PrefixChat(seed, seconds, smoke, vocab_size);
  return Status::InvalidArgument("unknown workload: " + name);
}

}  // namespace servebench
