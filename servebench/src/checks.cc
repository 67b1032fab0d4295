#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "common/rng.h"
#include "engine/model_weights.h"
#include "engine/transformer.h"
#include "runtime/thread_pool.h"
#include "workload/token_ids.h"

namespace servebench {

using aptserve::Request;

namespace {

/// fp32 accumulation-order tolerance between the cached forward paths and
/// ForwardFull (the bound transformer_equivalence_test holds them to).
constexpr float kLogitTolerance = 2e-4f;

/// Log-bucketed histogram resolution of the program's latency readout
/// (LatencyHistogram: 16 buckets per decade).
const double kBucketRatio = std::pow(10.0, 1.0 / 16.0);

/// The oracle's acceptance rule: `token` is the argmax, or within the
/// tolerance of it.
bool AcceptToken(const std::vector<float>& logits, int32_t token,
                 bool* near_tie) {
  const float best = *std::max_element(logits.begin(), logits.end());
  int32_t within = 0;
  for (float v : logits) within += v >= best - kLogitTolerance ? 1 : 0;
  *near_tie = within > 1;
  return token >= 0 && token < static_cast<int32_t>(logits.size()) &&
         logits[static_cast<size_t>(token)] >= best - kLogitTolerance;
}

struct OraclePair {
  aptserve::RequestId id;
  int32_t pos;  ///< position of the served token checked
  std::vector<float> logits;
  aptserve::Status status;
};

/// Mismatches of the served tokens against the pairs' ForwardFull logits;
/// `log` (nullable) records each.
int32_t CountMismatches(const std::vector<OraclePair>& pairs,
                        const TokenMap& served, CheckLog* log,
                        int32_t* near_ties) {
  int32_t mismatches = 0;
  for (const OraclePair& p : pairs) {
    const std::string where = "request " + std::to_string(p.id) +
                              " position " + std::to_string(p.pos);
    bool tie = false;
    const int32_t token = served.at(p.id)[static_cast<size_t>(p.pos)];
    if (!p.status.ok()) {
      if (log) log->Fail(where + ": ForwardFull failed: " + p.status.ToString());
      ++mismatches;
    } else if (!AcceptToken(p.logits, token, &tie)) {
      if (log) {
        log->Fail(where + ": served token " + std::to_string(token) +
                  " is not the ForwardFull argmax");
      }
      ++mismatches;
    }
    if (tie) ++*near_ties;
  }
  return mismatches;
}

}  // namespace

void CheckLog::Fail(const std::string& what) {
  ++failures_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void CheckConservation(const std::vector<Request>& trace,
                       const std::vector<RequestObs>& obs,
                       const TokenMap& served, uint64_t prompt_seed,
                       int32_t vocab_size,
                       const aptserve::AsyncServingResult& result,
                       CheckLog* log) {
  int64_t tokens = 0;
  for (const Request& r : trace) {
    const RequestObs& o = obs[static_cast<size_t>(r.id)];
    const std::string id = "request " + std::to_string(r.id);
    if (o.admits != 1 || o.finishes != 1) {
      log->Fail(id + " admitted " + std::to_string(o.admits) +
                " and finished " + std::to_string(o.finishes) + " times");
      continue;
    }
    if (static_cast<int32_t>(o.token_times.size()) != r.output_len) {
      log->Fail(id + " emitted " + std::to_string(o.token_times.size()) +
                " tokens, output_len is " + std::to_string(r.output_len));
    }
    auto it = served.find(r.id);
    if (it == served.end() ||
        static_cast<int32_t>(it->second.size()) != r.total_len()) {
      log->Fail(id + " has no full token sequence of prompt + output length");
      continue;
    }
    const std::vector<int32_t> prompt =
        r.has_token_ids() ? r.token_ids
                          : aptserve::DeterministicPromptTokens(
                                r.id, prompt_seed, r.prompt_len, vocab_size);
    if (!std::equal(prompt.begin(), prompt.end(), it->second.begin())) {
      log->Fail(id + " was served another prompt than the trace's");
    }
    tokens += static_cast<int64_t>(o.token_times.size());
  }
  if (served.size() != trace.size()) {
    log->Fail(std::to_string(served.size()) + " sequences for " +
              std::to_string(trace.size()) + " requests");
  }
  const aptserve::WallLatencyReport& wall = result.wall;
  if (wall.requests != static_cast<int64_t>(trace.size()) ||
      wall.tokens != tokens) {
    log->Fail("program reports " + std::to_string(wall.requests) +
              " requests / " + std::to_string(wall.tokens) +
              " tokens; the stamps count " + std::to_string(trace.size()) +
              " / " + std::to_string(tokens));
  }
}

void CheckRouting(const std::vector<Request>& trace,
                  const aptserve::Router& router,
                  const std::vector<RequestObs>& obs,
                  const aptserve::AsyncServingResult& result, CheckLog* log) {
  const aptserve::RouteDecision offline = router.Route(trace);
  int32_t moved = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (obs[static_cast<size_t>(trace[i].id)].instance != offline.assignment[i]) {
      ++moved;
    }
  }
  if (moved > 0) {
    log->Fail(std::to_string(moved) +
              " requests ran on another instance than offline routing picks");
  }
  const std::vector<int32_t>& live = result.serve.requests_per_instance;
  if (live.size() != offline.admitted_per_instance.size() ||
      !std::equal(live.begin(), live.end(),
                  offline.admitted_per_instance.begin())) {
    log->Fail("per-instance request counts differ from offline routing");
  }
}

void CheckReportedTtft(std::vector<double> due_ttft,
                       const aptserve::WallLatencyReport& wall,
                       CheckLog* log) {
  if (due_ttft.empty()) return;
  std::sort(due_ttft.begin(), due_ttft.end());
  const size_t n = due_ttft.size();
  for (double q : {0.5, 0.9, 0.99}) {
    // The histogram estimates quantile q inside the bucket holding the
    // ceil(q * n)-th smallest sample; that sample, timed from release, is
    // no larger than the same order statistic timed from the due time.
    const size_t k = std::min(
        n, std::max<size_t>(1, static_cast<size_t>(std::ceil(q * n))));
    const double due = due_ttft[k - 1];
    const double reported = wall.ttft.Quantile(q);
    if (reported > due * kBucketRatio + 1e-4) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "reported TTFT q%.2f %.6f s exceeds the due-time %.6f s",
                    q, reported, due);
      log->Fail(buf);
    }
  }
}

OracleSummary CheckOracle(const std::vector<Request>& trace,
                          const std::vector<RequestObs>& obs,
                          const TokenMap& served,
                          const aptserve::ModelConfig& model,
                          uint64_t weight_seed, uint64_t sample_seed,
                          int32_t max_pairs, bool require_hybrid,
                          CheckLog* log) {
  // Half the sample from requests whose cache took a non-trivial path (a
  // quarter from preempted, converted or hidden-cache ones, the rest from
  // prefix-seeded ones), the rest uniform over all requests.
  aptserve::Rng rng(sample_seed ^ 0x6f7261636c65ULL);
  std::vector<const Request*> hybrid;
  std::vector<const Request*> seeded;
  std::vector<const Request*> all;
  for (const Request& r : trace) {
    if (served.count(r.id) == 0) continue;
    const RequestObs& o = obs[static_cast<size_t>(r.id)];
    all.push_back(&r);
    if (o.preempted || o.converted || o.hidden) {
      hybrid.push_back(&r);
    } else if (o.prefix_seeded) {
      seeded.push_back(&r);
    }
  }
  std::vector<OraclePair> pairs;
  std::unordered_set<aptserve::RequestId> chosen;
  const auto pick = [&](std::vector<const Request*>* from, int32_t want) {
    for (int32_t k = 0; k < want && !from->empty(); ++k) {
      const size_t j =
          static_cast<size_t>(rng.UniformInt(0, from->size() - 1));
      const Request* r = (*from)[j];
      (*from)[j] = from->back();
      from->pop_back();
      if (!chosen.insert(r->id).second) {
        --k;
        continue;
      }
      const RequestObs& o = obs[static_cast<size_t>(r->id)];
      // A prefix-seeded request's first token is computed right on top of
      // the adopted blocks; a restarted one is checked at its last token,
      // which follows the restart.
      int32_t pos = r->prompt_len;
      if (o.preempted || o.converted) {
        pos = r->total_len() - 1;
      } else if (!o.prefix_seeded) {
        pos = static_cast<int32_t>(
            rng.UniformInt(r->prompt_len, r->total_len() - 1));
      }
      pairs.push_back({r->id, pos, {}, aptserve::Status::OK()});
    }
  };
  pick(&hybrid, max_pairs / 4);
  const int32_t hybrid_pairs = static_cast<int32_t>(pairs.size());
  pick(&seeded, max_pairs / 2 - hybrid_pairs);
  pick(&all, max_pairs - static_cast<int32_t>(pairs.size()));
  if (require_hybrid && hybrid_pairs == 0) {
    log->Fail("oracle: no preempted, converted or hidden-cache request was "
              "served, so those cache paths went unchecked");
  }

  const aptserve::TransformerModel oracle(
      aptserve::ModelWeights::Random(model, weight_seed));
  aptserve::RuntimeConfig rc;
  rc.num_threads = 4;
  aptserve::runtime::ThreadPool pool(rc);
  pool.ParallelForEach(0, static_cast<int64_t>(pairs.size()), 1,
                       [&](int64_t k) {
                         OraclePair& p = pairs[static_cast<size_t>(k)];
                         const std::vector<int32_t>& seq = served.at(p.id);
                         std::vector<int32_t> context(seq.begin(),
                                                      seq.begin() + p.pos);
                         auto logits = oracle.ForwardFull(context);
                         if (logits.ok()) {
                           p.logits = std::move(*logits);
                         } else {
                           p.status = logits.status();
                         }
                       });

  OracleSummary summary;
  summary.pairs = static_cast<int32_t>(pairs.size());
  summary.hybrid_pairs = hybrid_pairs;
  summary.mismatches = CountMismatches(pairs, served, log, &summary.near_ties);

  // Self-check: corrupt one collected token to the lowest-scoring one,
  // which no tolerance can accept, and run the same check on it.
  for (const OraclePair& p : pairs) {
    if (!p.status.ok()) continue;
    TokenMap corrupted = {{p.id, served.at(p.id)}};
    corrupted[p.id][static_cast<size_t>(p.pos)] = static_cast<int32_t>(
        std::min_element(p.logits.begin(), p.logits.end()) - p.logits.begin());
    int32_t ties = 0;
    summary.self_check_caught =
        CountMismatches({p}, corrupted, nullptr, &ties) == 1;
    break;
  }
  if (!summary.self_check_caught) {
    log->Fail("oracle self-check: a corrupted token was not rejected");
  }
  return summary;
}

}  // namespace servebench
