#include "serve/serve_server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "plan/graph_ir.h"
#include "quant/quant_executor.h"
#include "serve/plan_cache.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace ringcnn::serve {

using Clock = std::chrono::steady_clock;

/**
 * The backend seam: the queueing/batching machinery above is identical
 * for fp32 and int8 serving; only the executor type (and what
 * "prepare" means for it) differs. Each backend instantiates the
 * shared PlanCache over its executor.
 */
struct ServeServer::Backend
{
    virtual ~Backend() = default;
    /** Claims the plan slot for `shape` (marks it busy) and bumps the
     *  matching stats counter. Requires the server lock. */
    virtual void* claim(const Shape& shape, ServeStats& stats) = 0;
    /** Prepares (compiles or rebinds) the claimed plan and runs the
     *  batch through it. Called OUTSIDE the lock. */
    virtual void run(void* plan, const Shape& shape,
                     const Tensor* const* xs, Tensor* outs, int n) = 0;
    /** Releases a claimed plan; a failed prepare/run drops it so a
     *  broken compile is never served from cache. Requires the lock. */
    virtual void release(void* plan, bool ok) = 0;
    /** Trims transient cache overflow; returns plans dropped (folded
     *  into ServeStats::plan_evictions). Requires the lock. */
    virtual uint64_t trim() = 0;
    /**
     * Degrade-and-retry path: runs the batch on a FRESH executor
     * compiled from the source model with checksum verification forced
     * on, bypassing the claimed cache entry (the cached plan may be
     * the corrupted party — release(ok=false) drops it). A fresh
     * compile from the source weights makes a successful retry
     * bit-identical to an unfaulted run. Called OUTSIDE the lock.
     */
    virtual void run_fallback(const Shape& shape, const Tensor* const* xs,
                              Tensor* outs, int n) = 0;
};

namespace {

template <class Exec>
void
count_outcome(typename PlanCache<Exec>::Outcome oc, ServeStats& stats)
{
    switch (oc) {
        case PlanCache<Exec>::Outcome::kHit:
            ++stats.plan_hits;
            break;
        case PlanCache<Exec>::Outcome::kFresh:
            ++stats.plan_compiles;
            break;
        case PlanCache<Exec>::Outcome::kRebind:
            ++stats.plan_rebinds;
            break;
    }
}

/** fp32: one arena-planned ModelExecutor per shape; an eviction
 *  rebinds the victim's plan in place, recycling its arena. */
class Fp32Backend final : public ServeServer::Backend
{
  public:
    Fp32Backend(nn::Model& model, const ServeOptions& opt)
        : model_(model), opt_(opt), cache_(opt.max_plans)
    {
    }

    void* claim(const Shape& shape, ServeStats& stats) override
    {
        typename Cache::Outcome oc;
        auto* e = cache_.claim(shape, &oc);
        count_outcome<nn::ModelExecutor>(oc, stats);
        return e;
    }

    void run(void* plan, const Shape& shape, const Tensor* const* xs,
             Tensor* outs, int n) override
    {
        auto* e = static_cast<typename Cache::Entry*>(plan);
        if (e->exec == nullptr) {
            e->exec = std::make_unique<nn::ModelExecutor>(model_, shape,
                                                          opt_.executor);
        } else if (e->exec->in_shape() != shape) {
            e->exec->rebind(shape);
        }
        e->exec->run_into(xs, outs, n);
    }

    void release(void* plan, bool ok) override
    {
        cache_.release(static_cast<typename Cache::Entry*>(plan), ok);
    }

    uint64_t trim() override
    {
        return static_cast<uint64_t>(cache_.trim());
    }

    void run_fallback(const Shape& shape, const Tensor* const* xs,
                      Tensor* outs, int n) override
    {
        nn::ExecutorOptions eopt = opt_.executor;
        eopt.verify_checksums = true;
        nn::ModelExecutor fresh(model_, shape, eopt);
        fresh.run_into(xs, outs, n);
    }

  private:
    using Cache = PlanCache<nn::ModelExecutor>;
    nn::Model& model_;
    ServeOptions opt_;
    Cache cache_;
};

/**
 * int8: the quantized engine path. Its plan is shape-agnostic (the
 * integer graph fixes channel counts; spatial dims flow through), so
 * one compiled QuantExecutor serves every shape and a cache "rebind"
 * only re-keys the slot. The PlanCache still bounds live arenas: each
 * cached entry owns its own activation arena sized by the shapes it
 * has seen, and distinct entries let distinct shapes run without
 * re-growing one shared arena.
 */
class Int8Backend final : public ServeServer::Backend
{
  public:
    /** Shape-keyed adapter satisfying the PlanCache Exec contract. */
    struct QuantPlanExec
    {
        QuantPlanExec(const quant::QuantizedModel& qm, const Shape& shape,
                      quant::QuantExecOptions qopt)
            : shape_(shape), exec_(qm, qopt)
        {
        }
        const Shape& in_shape() const { return shape_; }

        Shape shape_;
        quant::QuantExecutor exec_;
    };

    Int8Backend(const quant::QuantizedModel& model, const ServeOptions& opt)
        : model_(model), cache_(opt.max_plans)
    {
        qopt_.threads = opt.executor.threads;
        qopt_.verify_checksums = opt.executor.verify_checksums;
    }

    void* claim(const Shape& shape, ServeStats& stats) override
    {
        typename Cache::Outcome oc;
        auto* e = cache_.claim(shape, &oc);
        count_outcome<QuantPlanExec>(oc, stats);
        return e;
    }

    void run(void* plan, const Shape& shape, const Tensor* const* xs,
             Tensor* outs, int n) override
    {
        auto* e = static_cast<typename Cache::Entry*>(plan);
        if (e->exec == nullptr) {
            e->exec =
                std::make_unique<QuantPlanExec>(model_, shape, qopt_);
        } else {
            e->exec->shape_ = shape;  // plan is shape-agnostic
        }
        e->exec->exec_.forward_into(xs, outs, n);
    }

    void release(void* plan, bool ok) override
    {
        cache_.release(static_cast<typename Cache::Entry*>(plan), ok);
    }

    uint64_t trim() override
    {
        return static_cast<uint64_t>(cache_.trim());
    }

    void run_fallback(const Shape& shape, const Tensor* const* xs,
                      Tensor* outs, int n) override
    {
        quant::QuantExecOptions q = qopt_;
        q.verify_checksums = true;
        QuantPlanExec fresh(model_, shape, q);
        fresh.exec_.forward_into(xs, outs, n);
    }

  private:
    using Cache = PlanCache<QuantPlanExec>;
    const quant::QuantizedModel& model_;
    quant::QuantExecOptions qopt_;
    Cache cache_;
};

}  // namespace

ServeServer::ServeServer(nn::Model& model, ServeOptions opt) : opt_(opt)
{
    backend_ = std::make_unique<Fp32Backend>(model, opt_);
    start_workers();
}

ServeServer::ServeServer(const quant::QuantizedModel& model, ServeOptions opt)
    : opt_(opt)
{
    backend_ = std::make_unique<Int8Backend>(model, opt_);
    start_workers();
}

void
ServeServer::start_workers()
{
    RINGCNN_CHECK(opt_.max_batch >= 1, "serve max_batch must be >= 1");
    RINGCNN_CHECK(opt_.max_plans >= 1, "serve max_plans must be >= 1");
    RINGCNN_CHECK(opt_.linger_ms >= 0.0, "serve linger_ms must be >= 0");
    int workers = opt_.workers > 0
                      ? opt_.workers
                      : std::min(util::hardware_threads(), 8);
    workers = std::max(1, workers);
    threads_.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        threads_.emplace_back([this]() { worker_loop(); });
    }
}

ServeServer::~ServeServer()
{
    stop(StopMode::kDrain);
    for (auto& t : threads_) t.join();
}

void
ServeServer::stop(StopMode mode)
{
    std::vector<Request> abandon;
    {
        std::unique_lock<std::mutex> lock(mu_);
        // Closing admission and sweeping the queue happen under ONE
        // critical section: any submit that saw stop_ == false has
        // already pushed its request, so it is either swept here
        // (kAbort) or drained below (kDrain) — an accepted future is
        // never left unresolved. (The old destructor drained FIRST and
        // closed admission after, abandoning anything accepted in
        // between.)
        const bool first = !stop_;
        stop_ = true;
        if (first && mode == StopMode::kAbort) {
            for (auto& [s, b] : buckets_) {
                for (auto& r : b.q) abandon.push_back(std::move(r));
                b.q.clear();
            }
            stats_.aborted += static_cast<uint64_t>(abandon.size());
            stats_.failed += static_cast<uint64_t>(abandon.size());
            pending_ -= static_cast<uint64_t>(abandon.size());
            if (pending_ == 0) idle_cv_.notify_all();
        }
    }
    // Wake every parked worker (they re-check stop_ and either drain
    // the queue or exit) and every submitter blocked on admission
    // (they observe stop_ and throw ShutdownError).
    work_cv_.notify_all();
    admit_cv_.notify_all();
    if (!abandon.empty()) {
        auto err = std::make_exception_ptr(ShutdownError(
            "ringcnn: ServeServer stopped (kAbort) before this request "
            "was dispatched"));
        for (auto& r : abandon) r.promise.set_exception(err);
    }
    drain();
}

std::future<Tensor>
ServeServer::submit(Tensor x, Deadline deadline)
{
    Request req;
    const Shape shape = x.shape();
    req.x = std::move(x);
    req.deadline = deadline;
    return enqueue(std::move(req), shape);
}

std::future<Tensor>
ServeServer::submit_view(const Tensor& x, Deadline deadline)
{
    Request req;
    req.view = &x;
    req.deadline = deadline;
    return enqueue(std::move(req), x.shape());
}

std::future<Tensor>
ServeServer::enqueue(Request req, const Shape& shape)
{
    std::future<Tensor> fut = req.promise.get_future();
    // Obviously malformed shapes fail fast, before they can claim (and
    // on a full cache, rebind-and-lose) a plan slot. Channel-level
    // mismatches still surface from the compile in the worker.
    bool well_formed = shape.size() == 3;
    for (const int d : shape) well_formed = well_formed && d > 0;
    if (!well_formed) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.requests;
            ++stats_.failed;
        }
        req.promise.set_exception(std::make_exception_ptr(
            std::invalid_argument("ringcnn: serve request must be a "
                                  "positive CHW tensor")));
        return fut;
    }
    // Non-finite inputs are rejected BEFORE a batch can form around
    // them: a NaN never reaches a kernel pass, never co-batches with
    // healthy requests, and shows up typed instead of as downstream
    // checksum noise. Scanned here on the submitter's thread.
    const Tensor& x = req.input();
    const float* p = x.data();
    const int64_t numel = x.numel();
    bool finite = true;
    for (int64_t i = 0; i < numel && finite; ++i) {
        finite = std::isfinite(p[i]);
    }
    if (!finite) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.requests;
            ++stats_.rejected_inputs;
            ++stats_.failed;
        }
        req.promise.set_exception(std::make_exception_ptr(
            InvalidInputError("ringcnn: serve request contains "
                              "non-finite values")));
        return fut;
    }
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (stop_) {
            throw ShutdownError(
                "ringcnn: ServeServer::submit after shutdown");
        }
        // Admission control: pending_ (accepted minus finished) is the
        // queue the bound protects — it includes in-flight requests,
        // so the bound also caps response latency for admitted work.
        if (opt_.max_queue > 0 && pending_ >= opt_.max_queue) {
            if (opt_.admission == Admission::kBlock) {
                admit_cv_.wait(lock, [this]() {
                    return stop_ || pending_ < opt_.max_queue;
                });
                if (stop_) {
                    throw ShutdownError(
                        "ringcnn: ServeServer::submit after shutdown");
                }
            } else {
                ++stats_.requests;
                ++stats_.shed;
                ++stats_.failed;
                lock.unlock();
                req.promise.set_exception(std::make_exception_ptr(
                    OverloadError("ringcnn: serve queue at max_queue; "
                                  "request shed")));
                return fut;
            }
        }
        Bucket& b = buckets_[shape];
        if (b.q.empty()) b.oldest = Clock::now();
        b.q.push_back(std::move(req));
        ++stats_.requests;
        ++pending_;
        stats_.max_queue_depth = std::max(stats_.max_queue_depth, pending_);
    }
    work_cv_.notify_one();
    return fut;
}

void
ServeServer::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this]() { return pending_ == 0; });
}

ServeStats
ServeServer::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

ServeHealth
ServeServer::health() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ServeHealth h;
    h.admitting = !stop_;
    h.pending = pending_;
    h.rejected_inputs = stats_.rejected_inputs;
    h.integrity_failures = stats_.integrity_failures;
    h.retries = stats_.retries;
    h.retry_successes = stats_.retry_successes;
    // Degraded: a detected fault was NOT absorbed — a retry failed, or
    // verification tripped with the retry path disabled. Overload,
    // deadline drops, and recovered retries leave the server healthy.
    h.degraded = stats_.retries > stats_.retry_successes ||
                 (!opt_.retry_on_fault && stats_.integrity_failures > 0);
    return h;
}

double
ServeServer::effective_linger_ms(const ServeOptions& opt, size_t queue_depth)
{
    // Linear schedule: the full cap when the bucket is idle, zero once
    // a batch is formed. A deeper queue never waits LONGER than a
    // shallower one (monotonicity, pinned in test_serve).
    const double frac = static_cast<double>(queue_depth) /
                        static_cast<double>(std::max(1, opt.max_batch));
    return std::max(0.0, opt.linger_ms * (1.0 - frac));
}

Clock::time_point
ServeServer::linger_deadline(const Bucket& b) const
{
    return b.oldest +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double, std::milli>(
                   effective_linger_ms(opt_, b.q.size())));
}

bool
ServeServer::has_queued_requests() const
{
    for (const auto& [s, b] : buckets_) {
        if (!b.q.empty()) return true;
    }
    return false;
}

void
ServeServer::fail_expired(std::vector<Request>& late)
{
    if (late.empty()) return;
    auto err = std::make_exception_ptr(DeadlineError(
        "ringcnn: serve request deadline passed before dispatch"));
    for (auto& r : late) r.promise.set_exception(err);
}

ServeServer::Bucket*
ServeServer::pick_bucket(Clock::time_point now, Shape* shape)
{
    // Dispatchable: not already owned by a worker, and either full or
    // lingering past the deadline (during shutdown the linger is moot:
    // everything queued dispatches immediately). Among several, serve
    // the bucket whose HEAD request has waited longest (arrival
    // fairness).
    Bucket* pick = nullptr;
    const Shape* pick_shape = nullptr;
    for (auto& [s, b] : buckets_) {
        if (b.in_flight || b.q.empty()) continue;
        const bool full =
            b.q.size() >= static_cast<size_t>(opt_.max_batch);
        const bool expired = stop_ || now >= linger_deadline(b);
        if (!full && !expired) continue;
        if (pick == nullptr || b.oldest < pick->oldest) {
            pick = &b;
            pick_shape = &s;
        }
    }
    if (pick != nullptr) *shape = *pick_shape;
    return pick;
}

void
ServeServer::worker_loop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        Shape shape;
        Bucket* bucket = nullptr;
        for (;;) {
            // Exit only once admission is closed AND no accepted
            // request is still queued — a request admitted by a submit
            // racing stop() is always dispatched (or swept by kAbort)
            // before the workers leave. Wake peers so the exit
            // cascades through every parked worker.
            if (stop_ && !has_queued_requests()) {
                work_cv_.notify_all();
                return;
            }
            bucket = pick_bucket(Clock::now(), &shape);
            if (bucket != nullptr) break;
            // Sleep until the earliest linger deadline of a waiting
            // bucket (or a submit/completion wakes us). During
            // shutdown remaining queued work is owned by in-flight
            // peers; wait for their completion signal.
            Clock::time_point deadline{};
            bool have_deadline = false;
            if (!stop_) {
                for (auto& [s, b] : buckets_) {
                    if (b.in_flight || b.q.empty()) continue;
                    const auto d = linger_deadline(b);
                    if (!have_deadline || d < deadline) {
                        deadline = d;
                        have_deadline = true;
                    }
                }
            }
            if (have_deadline) {
                work_cv_.wait_until(lock, deadline);
            } else {
                work_cv_.wait(lock);
            }
        }

        // Take up to max_batch requests, oldest first; the bucket stays
        // claimed (in_flight) until the batch finishes so no second
        // worker races this shape's executor. Requests whose deadline
        // already passed are dropped HERE, at batch formation — they
        // never occupy a batch slot or waste a kernel pass.
        bucket->in_flight = true;
        const Clock::time_point now = Clock::now();
        std::vector<Request> batch;
        std::vector<Request> late;
        batch.reserve(static_cast<size_t>(opt_.max_batch));
        while (batch.size() < static_cast<size_t>(opt_.max_batch) &&
               !bucket->q.empty()) {
            Request r = std::move(bucket->q.front());
            bucket->q.pop_front();
            if (r.deadline < now) {
                late.push_back(std::move(r));
            } else {
                batch.push_back(std::move(r));
            }
        }
        const int n = static_cast<int>(batch.size());
        if (!bucket->q.empty()) bucket->oldest = Clock::now();
        stats_.expired += static_cast<uint64_t>(late.size());
        if (n == 0) {
            // Everything popped had expired: no batch to run. Resolve
            // the dropped futures outside the lock and go around.
            bucket->in_flight = false;
            if (bucket->q.empty()) buckets_.erase(shape);
            stats_.failed += static_cast<uint64_t>(late.size());
            pending_ -= static_cast<uint64_t>(late.size());
            if (pending_ == 0) idle_cv_.notify_all();
            if (opt_.max_queue > 0) admit_cv_.notify_all();
            lock.unlock();
            fail_expired(late);
            lock.lock();
            continue;
        }
        stats_.batched += static_cast<uint64_t>(n);
        void* plan = backend_->claim(shape, stats_);
        ++stats_.batches;
        const bool solo = active_batches_ == 0;
        ++active_batches_;
        // Lost-wakeup guard: if OTHER buckets are dispatchable right
        // now, hand one to a parked peer before going off to execute —
        // otherwise a parked worker can oversleep a full linger window
        // (its next wakeup would be the next submit or this batch's
        // completion).
        {
            Shape peer_shape;
            if (pick_bucket(now, &peer_shape) != nullptr) {
                work_cv_.notify_one();
            }
        }
        lock.unlock();

        // Oversubscription policy: when several batches execute
        // concurrently, each runs its kernels inline on its own worker
        // (distinct cores, no contention for the shared pool's
        // serialized submissions); a SOLO batch keeps the pool fan-out
        // so one hot shape still uses the whole machine.
        std::unique_ptr<util::InlineGuard> guard;
        if (!solo) {
            guard = std::make_unique<util::InlineGuard>();
        }

        fail_expired(late);

        std::vector<const Tensor*> ptrs(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            ptrs[static_cast<size_t>(i)] =
                &batch[static_cast<size_t>(i)].input();
        }
        std::vector<Tensor> outs(static_cast<size_t>(n));
        bool ok = false;
        bool integrity = false;
        bool retried = false;
        std::exception_ptr err;
        {
            // Injected worker stall (liveness soak): the batch is late
            // but correct — drain()/deadlines must cope.
            uint64_t stall_token;
            if (util::fault_check("serve.stall", &stall_token)) {
                util::fault_stall_ms(
                    static_cast<int>(5 + stall_token % 20));
            }
        }
        try {
            backend_->run(plan, shape, ptrs.data(), outs.data(), n);
            ok = true;
        } catch (const plan::IntegrityError&) {
            integrity = true;
            err = std::current_exception();
        } catch (...) {
            err = std::current_exception();
        }
        // The cached plan is only trustworthy if the FIRST run
        // succeeded: a retry success must not resurrect a possibly
        // corrupted cache entry (release(ok=false) drops it).
        const bool plan_ok = ok;
        if (!ok && opt_.retry_on_fault) {
            // Degrade and retry ONCE on the fallback path: the claimed
            // plan (cached derived weights, compiled tap tables) may be
            // the corrupted party. A fresh compile from the source
            // model, with verification forced on, either reproduces the
            // failure (deterministic bug — surface it to the futures)
            // or absorbs a transient fault with responses bit-identical
            // to an unfaulted run. The suspect cached plan is dropped
            // either way (release(plan_ok=false) below).
            retried = true;
            try {
                backend_->run_fallback(shape, ptrs.data(), outs.data(), n);
                ok = true;
                err = nullptr;
            } catch (const plan::IntegrityError&) {
                integrity = true;
                err = std::current_exception();
            } catch (...) {
                err = std::current_exception();
            }
        }
        for (int i = 0; i < n; ++i) {
            if (ok) {
                batch[static_cast<size_t>(i)].promise.set_value(
                    std::move(outs[static_cast<size_t>(i)]));
            } else {
                batch[static_cast<size_t>(i)].promise.set_exception(err);
            }
        }
        batch.clear();  // release request inputs outside the lock
        guard.reset();

        lock.lock();
        --active_batches_;
        backend_->release(plan, plan_ok);
        if (integrity) ++stats_.integrity_failures;
        if (retried) {
            ++stats_.retries;
            if (ok) ++stats_.retry_successes;
        }
        bucket->in_flight = false;
        if (bucket->q.empty()) {
            buckets_.erase(shape);
        } else {
            // Requests that queued while the batch was in flight were
            // not waiting on POLICY — restart the linger clock now
            // that the shape is dispatchable again, so the next batch
            // gets its full window to coalesce (a closed-loop client
            // population needs a beat to resubmit). Added latency per
            // dispatch stays bounded by linger_ms.
            bucket->oldest = Clock::now();
        }
        // Trim transient plan overflow (all-busy burst) back to bound.
        stats_.plan_evictions += backend_->trim();
        if (ok) {
            stats_.completed += static_cast<uint64_t>(n);
        } else {
            stats_.failed += static_cast<uint64_t>(n);
        }
        stats_.failed += static_cast<uint64_t>(late.size());
        pending_ -=
            static_cast<uint64_t>(n) + static_cast<uint64_t>(late.size());
        late.clear();
        if (pending_ == 0) idle_cv_.notify_all();
        if (opt_.max_queue > 0) admit_cv_.notify_all();
        // More work may have queued behind this shape or others.
        work_cv_.notify_one();
    }
}

}  // namespace ringcnn::serve
