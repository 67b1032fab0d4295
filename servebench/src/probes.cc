#include "probes.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace servebench {

using aptserve::Status;
using aptserve::StatusOr;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double StepFlops(const aptserve::ModelConfig& model, CacheType type,
                 int32_t start, int32_t end) {
  const double d = model.d_model;
  const double f = model.d_ff;
  const double n = end - start;
  const double linear = n * (2.0 * d * 3.0 * d + 2.0 * d * d + 4.0 * d * f);
  // Position p attends over p + 1 positions: one QK dot and one weighted
  // V accumulation of d values each.
  const double attended = n * (start + 1 + end) / 2.0;
  const double attention = 4.0 * d * attended;
  const double reproject =
      type == CacheType::kHidden ? 4.0 * d * d * start : 0.0;
  return model.n_layers * (linear + attention + reproject) +
         2.0 * d * model.vocab_size;
}

StampingBackend::StampingBackend(std::unique_ptr<ExecutionBackend> inner,
                                 const aptserve::ModelConfig& model,
                                 int32_t instance,
                                 std::vector<RequestObs>* requests,
                                 InstanceObs* inst, bool traced)
    : inner_(std::move(inner)),
      model_(model),
      instance_(instance),
      requests_(requests),
      inst_(inst),
      traced_(traced) {}

Status StampingBackend::Prepare(const std::vector<SimRequest>& reqs) {
  const double t0 = traced_ ? Now() : 0.0;
  Status st = inner_->Prepare(reqs);
  if (traced_) inst_->backend_s += Now() - t0;
  return st;
}

Status StampingBackend::Admit(const SimRequest& sr) {
  const double t0 = Now();
  Status st = inner_->Admit(sr);
  RequestObs& o = Obs(sr);
  o.instance = instance_;
  o.admit_time = t0;
  ++o.admits;
  if (++inst_->unfinished == 1) inst_->busy_since = t0;
  if (traced_) inst_->backend_s += Now() - t0;
  return st;
}

void StampingBackend::BeginIteration() {
  const double t0 = traced_ ? Now() : 0.0;
  tokened_.clear();
  iter_prefill_tokens_ = 0;
  iter_decode_tokens_ = 0;
  inner_->BeginIteration();
  if (traced_) {
    iteration_start_ = t0;
    inst_->backend_s += Now() - t0;
  }
}

StatusOr<double> StampingBackend::EndIteration() {
  const double t0 = traced_ ? Now() : 0.0;
  StatusOr<double> latency = inner_->EndIteration();
  const double t = Now();
  if (latency.ok()) {
    for (aptserve::RequestId id : tokened_) {
      (*requests_)[static_cast<size_t>(id)].token_times.push_back(t);
    }
  }
  tokened_.clear();
  if (traced_) {
    inst_->compute_s += t - t0;
    inst_->backend_s += t - t0;
    const double iter = t - iteration_start_;
    inst_->iteration_s.Add(iter);
    ++inst_->executed_iterations;
    if (iter_prefill_tokens_ > 0 && iter_decode_tokens_ == 0) {
      inst_->prefill_only_s += iter;
      inst_->prefill_only_tokens += iter_prefill_tokens_;
    } else if (iter_decode_tokens_ > 0 && iter_prefill_tokens_ == 0) {
      inst_->decode_only_s += iter;
      inst_->decode_only_tokens += iter_decode_tokens_;
    }
  }
  return latency;
}

Status StampingBackend::Release(const SimRequest& sr) {
  const double t0 = traced_ ? Now() : 0.0;
  Obs(sr).preempted = true;
  Status st = inner_->Release(sr);
  if (traced_) inst_->backend_s += Now() - t0;
  return st;
}

Status StampingBackend::Convert(const SimRequest& sr, CacheType new_type) {
  const double t0 = traced_ ? Now() : 0.0;
  Obs(sr).converted = true;
  Status st = inner_->Convert(sr, new_type);
  if (traced_) inst_->backend_s += Now() - t0;
  return st;
}

StatusOr<bool> StampingBackend::TrySwapOut(const SimRequest& sr) {
  const double t0 = traced_ ? Now() : 0.0;
  StatusOr<bool> r = inner_->TrySwapOut(sr);
  if (traced_) inst_->backend_s += Now() - t0;
  return r;
}

StatusOr<bool> StampingBackend::TrySwapIn(const SimRequest& sr) {
  const double t0 = traced_ ? Now() : 0.0;
  StatusOr<bool> r = inner_->TrySwapIn(sr);
  if (traced_) inst_->backend_s += Now() - t0;
  return r;
}

StatusOr<ExecutionBackend::StepOutcome> StampingBackend::ExecutePrefillChunk(
    const SimRequest& sr, CacheType cache_type, int32_t chunk) {
  const double t0 = traced_ ? Now() : 0.0;
  RequestObs& o = Obs(sr);
  if (!inner_->assigner()->Has(sr.spec.id)) {
    // A fresh pass with another type than the previous pass is the
    // conversion the loop folds into a resume prefill.
    if (o.last_type >= 0 && o.last_type != static_cast<int32_t>(cache_type)) {
      o.converted = true;
    }
    o.last_type = static_cast<int32_t>(cache_type);
  }
  if (cache_type == CacheType::kHidden) o.hidden = true;
  const int32_t progress = sr.prefill_progress;
  StatusOr<StepOutcome> r = inner_->ExecutePrefillChunk(sr, cache_type, chunk);
  if (r.ok() && !r->out_of_memory) {
    if (r->prefix_skipped > 0) o.prefix_seeded = true;
    if (r->token) tokened_.push_back(sr.spec.id);
  }
  if (traced_) {
    const double t1 = Now();
    inst_->prepare_s += t1 - t0;
    inst_->backend_s += t1 - t0;
    if (r.ok() && r->out_of_memory) ++inst_->oom_steps;
    if (r.ok() && !r->out_of_memory) {
      const int32_t computed = r->computed > 0 ? r->computed : chunk;
      const int32_t start = progress + r->prefix_skipped;
      inst_->flops += StepFlops(model_, cache_type, start, start + computed);
      inst_->prefill_tokens += computed;
      if (!o.preempted && !o.converted) {
        inst_->useful_prefill_tokens += computed;
      }
      iter_prefill_tokens_ += computed;
      ++inst_->batch_items;
    }
  }
  return r;
}

StatusOr<ExecutionBackend::StepOutcome> StampingBackend::ExecuteDecode(
    const SimRequest& sr) {
  const double t0 = traced_ ? Now() : 0.0;
  StatusOr<StepOutcome> r = inner_->ExecuteDecode(sr);
  const bool ran = r.ok() && !r->out_of_memory;
  if (ran && r->token) tokened_.push_back(sr.spec.id);
  if (traced_) {
    const double t1 = Now();
    inst_->prepare_s += t1 - t0;
    inst_->backend_s += t1 - t0;
    if (r.ok() && r->out_of_memory) ++inst_->oom_steps;
    if (ran) {
      inst_->flops += StepFlops(model_, sr.cache_type, sr.cached_tokens,
                                  sr.cached_tokens + 1);
      ++inst_->decode_tokens;
      ++iter_decode_tokens_;
      ++inst_->batch_items;
    }
  }
  return r;
}

Status StampingBackend::OnFinish(const SimRequest& sr) {
  ++Obs(sr).finishes;
  const double t0 = traced_ ? Now() : 0.0;
  Status st = inner_->OnFinish(sr);
  const double t1 = Now();
  if (traced_) inst_->backend_s += t1 - t0;
  inst_->min_unfinished_since_plan =
      std::min(inst_->min_unfinished_since_plan, --inst_->unfinished);
  if (inst_->unfinished == 0) inst_->busy_s += t1 - inst_->busy_since;
  return st;
}

int32_t StampingBackend::ReclaimCache(int32_t min_blocks) {
  const double t0 = traced_ ? Now() : 0.0;
  const int32_t freed = inner_->ReclaimCache(min_blocks);
  if (traced_) inst_->backend_s += Now() - t0;
  return freed;
}

aptserve::BatchPlan TimedScheduler::PlanIteration(
    const aptserve::SchedulerInput& input) {
  InstanceObs& s = *obs_;
  const double t0 = Now();
  // The interval since the previous plan is one loop iteration; when the
  // instance never ran out of work in it, the worker did not park, so what
  // the scheduler and the backend did not use is the loop's own time.
  if (s.last_plan_start >= 0.0 && s.min_unfinished_since_plan > 0) {
    s.overhead_s += (t0 - s.last_plan_start) - s.last_plan_s -
                    (s.backend_s - s.backend_s_at_last_plan);
  }
  aptserve::BatchPlan plan = inner_->PlanIteration(input);
  const double t1 = Now();
  s.plan_s.Add(t1 - t0);
  ++s.plans;

  if (input.pool != nullptr && input.pool->num_blocks() > 0) {
    s.pool_used_share_sum += input.pool->utilization();
    ++s.pool_samples;
  }
  int64_t cached = 0;
  int64_t hidden = 0;
  for (const SimRequest* r : input.running) {
    cached += r->cached_tokens;
    if (r->cache_type == CacheType::kHidden) hidden += r->cached_tokens;
  }
  if (cached > 0) {
    s.hidden_token_share_sum += static_cast<double>(hidden) / cached;
    ++s.hidden_token_samples;
  }
  for (const aptserve::ScheduledItem& item : plan.items) {
    if (item.prefill_chunk <= 0) continue;
    s.prefill_sched_tokens += item.prefill_chunk;
    if (item.cache_type == CacheType::kHidden) {
      s.hidden_prefill_sched_tokens += item.prefill_chunk;
    }
  }

  s.last_plan_start = t0;
  s.last_plan_s = Now() - t0;
  s.backend_s_at_last_plan = s.backend_s;
  s.min_unfinished_since_plan = s.unfinished;
  return plan;
}

}  // namespace servebench
