#include "serve/solve_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/error.hpp"
#include "core/timer.hpp"
#include "solve/fault_injection.hpp"

namespace mcmi::serve {

namespace detail {

struct JobState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  CancelToken token;
  ServeRequest request;
  std::shared_ptr<ArtifactEntry> entry;
  std::vector<real_t> rhs;
  ServeResult result;
  WallTimer timer;  ///< started at submit; clocks queue + total time
};

}  // namespace detail

using detail::JobState;

ServeResult ServeHandle::wait() const {
  MCMI_CHECK(state_ != nullptr, "waiting on an empty handle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->result;
}

const ServeResult& ServeHandle::wait_ref() const {
  MCMI_CHECK(state_ != nullptr, "waiting on an empty handle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->result;
}

bool ServeHandle::wait_for(real_t seconds) const {
  MCMI_CHECK(state_ != nullptr, "waiting on an empty handle");
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(lock,
                             std::chrono::duration<real_t>(seconds),
                             [&] { return state_->done; });
}

bool ServeHandle::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

void ServeHandle::cancel() const {
  if (state_ != nullptr) state_->token.request_cancel();
}

SolveService::SolveService(ServiceOptions options)
    : options_(std::move(options)),
      store_(options_.store),
      events_(options_.event_log_capacity) {
  MCMI_CHECK(options_.workers >= 1, "service needs at least one worker");
  MCMI_CHECK(options_.queue_capacity >= 1, "queue capacity must be >= 1");
  store_.set_fault_injector(options_.faults);
  paused_ = options_.start_paused;
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  const std::size_t builders =
      options_.build_on_cold ? std::max<std::size_t>(options_.builders, 1)
                             : options_.builders;
  builders_.reserve(builders);
  for (std::size_t i = 0; i < builders; ++i) {
    builders_.emplace_back([this] { builder_loop(); });
  }
  if (options_.watchdog_period_seconds > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

void SolveService::record_event_locked(ServiceEventType type, u64 fingerprint,
                                       const char* detail) {
  ServiceEvent event;
  event.seconds =
      std::chrono::duration<real_t>(CancelToken::clock::now() - epoch_)
          .count();
  event.type = type;
  event.fingerprint = fingerprint;
  event.detail = detail;
  events_.push(event);
}

void SolveService::account_terminal_locked(const JobState& job) {
  const SolveStatus status = job.result.report.status;
  switch (status) {
    case SolveStatus::kRejected:
      ++stats_.shed;
      record_event_locked(ServiceEventType::kShed, job.result.fingerprint,
                          "evicted by higher priority");
      break;
    case SolveStatus::kCancelled:
      ++stats_.cancelled;
      record_event_locked(ServiceEventType::kCancelled,
                          job.result.fingerprint,
                          job.result.solve_ran ? "mid-solve" : "queued");
      break;
    case SolveStatus::kDeadlineExceeded:
      ++stats_.expired;
      record_event_locked(ServiceEventType::kExpired, job.result.fingerprint,
                          job.result.solve_ran ? "mid-solve" : "queued");
      break;
    default:
      ++stats_.completed;
      record_event_locked(ServiceEventType::kCompleted,
                          job.result.fingerprint, to_string(status));
      break;
  }
  stats_.queue_wait.record(job.result.queue_seconds);
  stats_.total.record(job.result.total_seconds);
  if (job.result.solve_ran) {
    stats_.solve.record(job.result.report.total_seconds);
  }
}

void SolveService::complete_job(const std::shared_ptr<JobState>& job) {
  job->result.total_seconds = job->timer.seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    account_terminal_locked(*job);
  }
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->done = true;
  }
  job->cv.notify_all();
  drain_cv_.notify_all();
}

ServeHandle SolveService::submit(const CsrMatrix& a, std::vector<real_t> rhs,
                                 const ServeRequest& request) {
  MCMI_CHECK(static_cast<index_t>(rhs.size()) == a.rows(),
             "rhs size must match the matrix");
  {
    // Cheap pre-check so a shutdown-time submit never interns the matrix.
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ++stats_.rejected_shutdown;
      record_event_locked(ServiceEventType::kRejected, 0, "shutdown");
      return {};
    }
  }

  auto job = std::make_shared<JobState>();
  job->request = request;
  job->rhs = std::move(rhs);
  job->entry = store_.intern(a);
  job->result.fingerprint = job->entry->fingerprint();
  job->token.chain_to(&shutdown_token_);
  if (std::isfinite(request.deadline_seconds)) {
    // Deadline stamped at submit: queue wait counts against the request.
    job->token.set_deadline(request.deadline_seconds);
  }

  if (job->token.should_stop()) {
    // Dead on arrival (deadline <= 0, or shutdown raced the pre-check):
    // accepted and completed immediately, never queued — no worker, no
    // queue slot, no build.
    job->result.report.status = stop_reason(job->token);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        ++stats_.rejected_shutdown;
        record_event_locked(ServiceEventType::kRejected, 0, "shutdown");
        return {};
      }
      ++stats_.submitted;
    }
    complete_job(job);
    return ServeHandle(job);
  }

  std::shared_ptr<JobState> victim;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      ++stats_.rejected_shutdown;
      record_event_locked(ServiceEventType::kRejected, 0, "shutdown");
      return {};
    }
    if (queue_.size() >= options_.queue_capacity) {
      // Load shedding: a strictly higher-priority arrival evicts the most
      // expendable queued job — lowest priority, oldest among equals —
      // instead of being refused.  The map is keyed (-priority, seq), so
      // the victim group is the one holding the *largest* key; its oldest
      // member is the group's lower bound.
      const index_t worst_key = std::prev(queue_.end())->first.first;
      if (request.priority > -worst_key) {
        auto vit = queue_.lower_bound({worst_key, 0});
        victim = vit->second;
        queue_.erase(vit);
        victim->result.report.status = SolveStatus::kRejected;
        victim->result.queue_seconds = victim->timer.seconds();
      } else {
        ++stats_.rejected_capacity;
        record_event_locked(ServiceEventType::kRejected,
                            job->entry->fingerprint(), "capacity");
        return {};
      }
    }
    queue_.emplace(std::make_pair(-request.priority, next_seq_++), job);
    ++stats_.submitted;
  }
  if (victim != nullptr) complete_job(victim);
  work_cv_.notify_one();
  return ServeHandle(job);
}

void SolveService::worker_loop() {
  for (;;) {
    std::shared_ptr<JobState> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (stopping_) return;
      job = queue_.begin()->second;
      queue_.erase(queue_.begin());
      ++running_;
      active_jobs_.push_back(job);
    }
    run_job(job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      active_jobs_.erase(
          std::find(active_jobs_.begin(), active_jobs_.end(), job));
    }
    drain_cv_.notify_all();
  }
}

void SolveService::run_job(const std::shared_ptr<JobState>& job) {
  job->result.queue_seconds = job->timer.seconds();

  if (job->token.should_stop()) {
    // Cancelled or past deadline while queued (the watchdog sweep usually
    // harvests these first; this is the at-pickup backstop): complete
    // without solving.
    job->result.report.status = stop_reason(job->token);
    complete_job(job);
    return;
  }

  // Warm-vs-cold admission: the decision point is the worker pickup, so a
  // request that waited through a swap_in gets the warm path.
  auto tuned = job->entry->tuned();
  const bool warm = tuned != nullptr;
  if (!warm && options_.build_on_cold) schedule_build(job->entry);

  SolveRequest sreq;
  sreq.tolerance = job->request.tolerance;
  sreq.max_iterations = job->request.max_iterations;
  sreq.restart = job->request.restart;
  sreq.method = job->request.method;
  sreq.external_cancel = &job->token;  // deadline + cancel live on the token
  if (warm) {
    // The tuned preconditioner is *supplied*: the MCMC rung skips its
    // build and applies the store's P (fallback rungs remain below it).
    sreq.supply(SolveStage::kMcmc, std::move(tuned));
    sreq.mcmc_params = job->entry->tuned_params();
  } else {
    // Cold path: serve now from the cheap rungs; the MCMC build (if any)
    // is already on its way through the builder pool.
    sreq.ladder = {
        {SolveStage::kIlu0, 0.0, 1, 0.0},
        {SolveStage::kJacobi, 0.0, 1, 0.0},
        {SolveStage::kIdentity, 0.0, 1, 0.0},
    };
  }

  // The operator the solve runs against: the pinned matrix, or — under a
  // configured shard count — the entry's cached copy bound to a sharded
  // plan (keyed by (fingerprint, shard_layout), built once per layout).
  std::shared_ptr<const CsrMatrix> matrix = job->entry->matrix();
  if (options_.solve_shards > 0) {
    matrix = job->entry->matrix_for(
        ShardLayout::nnz_balanced(options_.solve_shards, matrix->row_ptr()));
  }
  SolveOrchestrator orchestrator(*matrix);
  orchestrator.set_kernel_cache(job->entry->kernels().get());
  job->result.x.assign(job->rhs.size(), 0.0);
  job->result.report = orchestrator.solve(job->rhs, job->result.x, sreq);
  job->result.solve_ran = true;
  job->result.warm = warm;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (warm) {
      ++stats_.warm_requests;
    } else {
      ++stats_.cold_requests;
    }
  }
  complete_job(job);
}

void SolveService::schedule_build(
    const std::shared_ptr<ArtifactEntry>& entry) {
  // A claim that follows earlier failures is the circuit breaker's
  // half-open probe (try_begin_build only grants it once the cooldown has
  // expired); a first claim is the ordinary cold build.
  const bool probe = entry->build_failures() > 0;
  if (entry->try_begin_build()) {
    bool scheduled = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!stopping_) {
        build_queue_.push_back({entry});
        ++stats_.builds_started;
        if (probe) ++stats_.builds_retried;
        record_event_locked(ServiceEventType::kBuildScheduled,
                            entry->fingerprint(), probe ? "probe" : "cold");
        scheduled = true;
      }
    }
    if (scheduled) {
      build_cv_.notify_one();
    } else {
      retire_or_cool_down(entry, BuildStatus::kCancelled);
    }
  } else if (entry->state() == BuildState::kBuilding) {
    // Coalesced: this request's fingerprint already has a build in
    // flight; it joins the same eventual swap_in instead of scheduling.
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.coalesced_builds;
  }
}

void SolveService::builder_loop() {
  for (;;) {
    BuildJob build;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      build_cv_.wait(lock, [&] { return stopping_ || !build_queue_.empty(); });
      if (stopping_) return;
      build = std::move(build_queue_.front());
      build_queue_.pop_front();
      ++building_;
    }
    run_build(build);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --building_;
    }
    drain_cv_.notify_all();
  }
}

void SolveService::retire_or_cool_down(
    const std::shared_ptr<ArtifactEntry>& entry, BuildStatus cause) {
  entry->mark_build_failed(cause, options_.max_build_attempts,
                           options_.build_cooldown_seconds);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry->state() == BuildState::kRetryWait) {
    ++stats_.builds_transient;
    record_event_locked(ServiceEventType::kBuildTransient,
                        entry->fingerprint(), to_string(cause));
  } else {
    ++stats_.builds_failed;
    record_event_locked(ServiceEventType::kBuildRetired, entry->fingerprint(),
                        to_string(cause));
  }
}

void SolveService::run_build(const BuildJob& build) {
  const CsrMatrix& a = *build.entry->matrix();

  // Every background build runs under its own token: the budget bounds
  // tuner + build together, shutdown chains in, and the watchdog holds a
  // reference so it can reap a build that stops polling.
  auto token = std::make_shared<CancelToken>();
  token->chain_to(&shutdown_token_);
  if (options_.build_budget_seconds > 0) {
    token->set_deadline(options_.build_budget_seconds);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_builds_.push_back(
        {build.entry, token, CancelToken::clock::now()});
  }

  BuildStatus status = BuildStatus::kBuilt;
  CsrMatrix pm;
  McmcParams params = options_.mcmc_params;

  FaultInjector::ServiceBuildFault fault;
  if (options_.faults != nullptr) {
    fault = options_.faults->next_service_build();
  }
  if (fault.hang) {
    // Scripted non-polling hang: only an explicit cancel (watchdog
    // intervention or shutdown) wakes it — the deadline is a cooperative
    // construct a hung build by definition ignores.
    while (!token->cancel_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    status = BuildStatus::kCancelled;
  } else if (fault.fail) {
    status = fault.status;
  } else {
    if (options_.tune && !token->should_stop()) {
      PerformanceMeasurer measurer(a, options_.tune_solve_options,
                                   options_.mcmc_options);
      hpo::McmcTuneOptions tune_options = options_.tune_options;
      tune_options.cancel = token.get();
      const hpo::McmcTuneResult tuned =
          hpo::tune_mcmc_params(measurer, options_.tune_method, tune_options);
      // A cancelled first round leaves no history; keep the fallback params.
      if (!tuned.history.empty()) params = tuned.best;
    }
    if (token->should_stop()) {
      status = build_stop_reason(*token);
    } else {
      McmcOptions mcmc_options = options_.mcmc_options;
      mcmc_options.cancel = token.get();
      McmcInverter inverter(a, params, mcmc_options);
      inverter.set_kernel_cache(build.entry->kernels().get());
      pm = inverter.compute();
      const McmcBuildInfo& info = inverter.info();
      if (info.status != BuildStatus::kBuilt) {
        status = info.status;
      } else if (!info.neumann_convergent) {
        status = BuildStatus::kDivergentKernel;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_builds_.erase(
        std::find_if(active_builds_.begin(), active_builds_.end(),
                     [&](const ActiveBuild& b) { return b.token == token; }));
  }

  if (status == BuildStatus::kBuilt) {
    auto tuned =
        std::make_shared<SparseApproximateInverse>(std::move(pm), "mcmc");
    if (options_.solve_shards > 0) {
      // Bind the tuned P to the serving layout once, here, instead of per
      // request: the SPAI is shared by every warm solve from now on.
      tuned->set_shard_layout(ShardLayout::nnz_balanced(
          options_.solve_shards, tuned->matrix().row_ptr()));
    }
    store_.swap_in(build.entry, std::move(tuned), params);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.builds_completed;
    record_event_locked(ServiceEventType::kBuildCompleted,
                        build.entry->fingerprint(), "swapped in");
  } else {
    // Cause-aware retirement: transient failures (deadline, cancel,
    // injected fault) cool down in kRetryWait for a bounded number of
    // probe rebuilds; permanent ones (divergent kernel, zero pivot)
    // retire the fingerprint — requests stay on the fallback rungs and
    // no rebuild storm follows either way.
    retire_or_cool_down(build.entry, status);
  }
}

void SolveService::watchdog_loop() {
  const auto period =
      std::chrono::duration<real_t>(options_.watchdog_period_seconds);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    watchdog_cv_.wait_for(lock, period, [&] { return stopping_; });
    if (stopping_) return;

    // (1) Proactive expiry sweep: complete already-expired (or cancelled)
    // queued jobs without consuming a worker — under overload, expired
    // jobs must not occupy queue slots or worker pickups.
    std::vector<std::shared_ptr<JobState>> harvested;
    for (auto it = queue_.begin(); it != queue_.end();) {
      JobState& job = *it->second;
      if (job.token.should_stop()) {
        job.result.report.status = stop_reason(job.token);
        job.result.queue_seconds = job.timer.seconds();
        harvested.push_back(it->second);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }

    // (2) Builds stuck past their budget + grace: a polling build would
    // have stopped itself at the deadline, so anything still running is
    // presumed hung — fire its token and let the builder recover.
    if (options_.build_budget_seconds > 0) {
      const auto now = CancelToken::clock::now();
      const real_t limit =
          options_.build_budget_seconds + options_.watchdog_grace_seconds;
      for (ActiveBuild& b : active_builds_) {
        const real_t age =
            std::chrono::duration<real_t>(now - b.start).count();
        if (age > limit && !b.token->cancel_requested()) {
          b.token->request_cancel();
          ++stats_.watchdog_build_kills;
          record_event_locked(ServiceEventType::kWatchdogBuildKill,
                              b.entry->fingerprint(), "stuck past budget");
        }
      }
    }

    // (3) Solves stuck past their deadline + grace, same presumption.
    for (const std::shared_ptr<JobState>& job : active_jobs_) {
      if (job->token.overdue_seconds() > options_.watchdog_grace_seconds &&
          !job->token.cancel_requested()) {
        job->token.request_cancel();
        ++stats_.watchdog_solve_kills;
        record_event_locked(ServiceEventType::kWatchdogSolveKill,
                            job->result.fingerprint, "stuck past deadline");
      }
    }

    if (!harvested.empty()) {
      lock.unlock();
      for (const auto& job : harvested) complete_job(job);
      lock.lock();
    }
  }
}

void SolveService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] {
    return queue_.empty() && running_ == 0 && build_queue_.empty() &&
           building_ == 0;
  });
}

void SolveService::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void SolveService::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
  drain_cv_.notify_all();
}

void SolveService::shutdown() {
  std::vector<std::shared_ptr<JobState>> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (auto& [key, job] : queue_) orphans.push_back(job);
    queue_.clear();
    build_queue_.clear();
  }
  shutdown_token_.request_cancel();
  work_cv_.notify_all();
  build_cv_.notify_all();
  drain_cv_.notify_all();
  watchdog_cv_.notify_all();

  for (const auto& job : orphans) {
    job->result.report.status = SolveStatus::kCancelled;
    complete_job(job);
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  for (std::thread& t : builders_) {
    if (t.joinable()) t.join();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

ServiceStats SolveService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = stats_;
  }
  out.rejected = out.rejected_capacity + out.rejected_shutdown;
  out.store = store_.stats();
  return out;
}

std::vector<ServiceEvent> SolveService::recent_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.snapshot();
}

}  // namespace mcmi::serve
