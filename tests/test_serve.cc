/**
 * @file
 * ServeServer tests: the shape-bucketed batching front end must be a
 * drop-in for per-request Model::infer —
 *
 *  - responses are BIT-identical to the single-request executor path,
 *    for every submission interleaving and batch composition;
 *  - mixed-shape storms exercise the per-shape plan cache's LRU
 *    rebind/evict machinery without ever mixing results up;
 *  - weight bumps between drains are picked up through the
 *    ParamRef::version counters (no stale-plan outputs, no recompiles);
 *  - partial batches flush after the linger deadline; malformed
 *    requests fail their own future and nothing else;
 *  - overload control: max_queue shed (typed OverloadError fast-fail)
 *    and block (backpressure that bounds the queue without losses),
 *    per-request deadlines dropped at batch formation (DeadlineError,
 *    counted in stats().expired, never a wasted kernel pass), and the
 *    adaptive linger schedule's monotonicity;
 *  - lifecycle: stop(kDrain|kAbort) races submitters without ever
 *    abandoning an accepted future (no broken_promise — the
 *    destructor-abandonment regression), kAbort typed-fails queued
 *    requests, and a worker claiming one bucket hands other
 *    dispatchable buckets to parked peers (lost-wakeup regression).
 *
 * The threaded queue + futures machinery is exactly where the CI
 * ASan/TSan-style checks earn their keep; keep sizes small so the
 * suite stays fast under sanitizers.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "models/backbones.h"
#include "quant/quant_model.h"
#include "serve/serve_server.h"
#include "tensor/image_ops.h"

namespace ringcnn {
namespace {

models::ErnetConfig
small_cfg()
{
    models::ErnetConfig cfg;
    cfg.channels = 8;
    cfg.blocks = 1;
    cfg.pump_ratio = 2;
    cfg.extra_pump = 0;
    return cfg;
}

nn::Model
small_model()
{
    return models::build_dn_ernet_pu(models::Algebra::with_fh("RI4"),
                                     small_cfg());
}

void
expect_bit_equal(const Tensor& got, const Tensor& want, const char* what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (int64_t i = 0; i < want.numel(); ++i) {
        ASSERT_EQ(got[i], want[i]) << what << " flat " << i;
    }
}

TEST(ServeServer, ConcurrentClientsBitIdenticalToModelInfer)
{
    nn::Model model = small_model();
    std::mt19937 rng(51);
    constexpr int kClients = 4, kPerClient = 6;
    constexpr int kTotal = kClients * kPerClient;

    std::vector<Tensor> inputs;
    std::vector<Tensor> refs;
    for (int i = 0; i < kTotal; ++i) {
        Tensor x({3, 16, 16});
        x.rand_uniform(rng, 0.0f, 1.0f);
        refs.push_back(model.infer(x));
        inputs.push_back(std::move(x));
    }

    serve::ServeServer server(model);
    std::vector<std::future<Tensor>> futs(kTotal);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c]() {
            for (int i = c; i < kTotal; i += kClients) {
                futs[static_cast<size_t>(i)] =
                    server.submit(Tensor(inputs[static_cast<size_t>(i)]));
            }
        });
    }
    for (auto& t : clients) t.join();
    for (int i = 0; i < kTotal; ++i) {
        expect_bit_equal(futs[static_cast<size_t>(i)].get(),
                         refs[static_cast<size_t>(i)], "request");
    }

    server.drain();
    const serve::ServeStats st = server.stats();
    EXPECT_EQ(st.requests, static_cast<uint64_t>(kTotal));
    EXPECT_EQ(st.completed, static_cast<uint64_t>(kTotal));
    EXPECT_EQ(st.failed, 0u);
    EXPECT_GE(st.batches, 1u);
    // Coalescing actually happened: fewer dispatches than requests.
    EXPECT_LT(st.batches, static_cast<uint64_t>(kTotal));
    EXPECT_GT(st.mean_batch(), 1.0);
    // One shape -> one compiled plan, reused across batches.
    EXPECT_EQ(st.plan_compiles, 1u);
    EXPECT_EQ(st.plan_rebinds, 0u);
}

TEST(ServeServer, MixedShapeStormKeepsResultsStraight)
{
    nn::Model model = small_model();
    std::mt19937 rng(52);
    const std::vector<Shape> shapes{
        {3, 16, 16}, {3, 12, 20}, {3, 8, 8}, {3, 20, 12}, {3, 24, 8}};

    // Cache bound BELOW the live shape count: the LRU must rebind plans
    // mid-storm and still never cross results between shapes.
    serve::ServeOptions opt;
    opt.max_plans = 2;
    opt.max_batch = 4;
    opt.workers = 1;  // deterministic plan accounting (no all-busy
                      // overflow compiles on many-core hosts)
    serve::ServeServer server(model, opt);

    constexpr int kRounds = 3;
    const int kTotal = static_cast<int>(shapes.size()) * kRounds * 2;
    std::vector<Tensor> inputs;
    std::vector<Tensor> refs;
    for (int i = 0; i < kTotal; ++i) {
        Tensor x(shapes[static_cast<size_t>(i) % shapes.size()]);
        x.rand_uniform(rng, 0.0f, 1.0f);
        refs.push_back(model.infer(x));
        inputs.push_back(std::move(x));
    }

    std::vector<std::future<Tensor>> futs(static_cast<size_t>(kTotal));
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
        clients.emplace_back([&, c]() {
            for (int i = c; i < kTotal; i += 2) {
                futs[static_cast<size_t>(i)] =
                    server.submit(Tensor(inputs[static_cast<size_t>(i)]));
            }
        });
    }
    for (auto& t : clients) t.join();
    for (int i = 0; i < kTotal; ++i) {
        expect_bit_equal(futs[static_cast<size_t>(i)].get(),
                         refs[static_cast<size_t>(i)], "storm request");
    }

    server.drain();
    const serve::ServeStats st = server.stats();
    EXPECT_EQ(st.completed, static_cast<uint64_t>(kTotal));
    EXPECT_EQ(st.failed, 0u);
    // 5 live shapes through a 2-plan cache: evictions (rebinds) MUST
    // have happened, and beyond the first fills every further shape
    // switch recycles an arena instead of compiling from scratch.
    EXPECT_EQ(st.plan_compiles, 2u);
    EXPECT_GE(st.plan_rebinds, 3u);
}

TEST(ServeServer, Int8ModeBitIdenticalToQuantizedForward)
{
    // The int8 serving mode instantiates the same queue + PlanCache
    // machinery over the quantized engine path; every response must be
    // bit-identical to a single-request QuantizedModel forward. The
    // integer plan is shape-agnostic, so mixed spatial sizes serve
    // from recycled cache slots without recompiling kernels.
    nn::Model model = small_model();
    std::mt19937 rng(57);
    std::vector<Tensor> calib;
    for (int i = 0; i < 2; ++i) {
        Tensor c({3, 16, 16});
        c.rand_uniform(rng, 0.0f, 1.0f);
        calib.push_back(std::move(c));
    }
    const quant::QuantizedModel qm(model, calib);

    const std::vector<Shape> shapes{{3, 16, 16}, {3, 8, 8}, {3, 12, 20}};
    constexpr int kTotal = 12;
    std::vector<Tensor> inputs;
    std::vector<Tensor> refs;
    for (int i = 0; i < kTotal; ++i) {
        Tensor x(shapes[static_cast<size_t>(i) % shapes.size()]);
        x.rand_uniform(rng, 0.0f, 1.0f);
        refs.push_back(qm.forward(x));
        inputs.push_back(std::move(x));
    }

    serve::ServeOptions opt;
    opt.max_batch = 4;
    opt.max_plans = 2;  // below the live shape count: rebinds happen
    opt.workers = 1;    // deterministic plan accounting
    serve::ServeServer server(qm, opt);
    std::vector<std::future<Tensor>> futs;
    futs.reserve(static_cast<size_t>(kTotal));
    for (int i = 0; i < kTotal; ++i) {
        futs.push_back(server.submit(Tensor(inputs[static_cast<size_t>(i)])));
    }
    for (int i = 0; i < kTotal; ++i) {
        expect_bit_equal(futs[static_cast<size_t>(i)].get(),
                         refs[static_cast<size_t>(i)], "int8 request");
    }
    server.drain();
    const serve::ServeStats st = server.stats();
    EXPECT_EQ(st.completed, static_cast<uint64_t>(kTotal));
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.plan_compiles, 2u);
}

TEST(ServeServer, WeightBumpsBetweenDrainsArePickedUp)
{
    nn::Model model = small_model();
    std::mt19937 rng(53);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    serve::ServeServer server(model);
    const Tensor before = server.submit(Tensor(x)).get();
    server.drain();

    // Optimizer-style in-place update through ParamRef.
    for (auto& p : model.params()) {
        for (auto& v : *p.value) v += 0.03125f;
        p.mark_dirty();
    }

    const Tensor after = server.submit(Tensor(x)).get();
    server.drain();
    EXPECT_GT(mse(before, after), 0.0) << "stale plan: bump ignored";

    // The refreshed plan must agree with a freshly compiled executor —
    // and must NOT have been recompiled (version counters, not plans).
    nn::ModelExecutor fresh(model, {3, 16, 16});
    expect_bit_equal(after, fresh.run(x), "post-bump");
    const serve::ServeStats st = server.stats();
    EXPECT_EQ(st.plan_compiles, 1u);
    EXPECT_EQ(st.plan_rebinds, 0u);
}

TEST(ServeServer, PartialBatchFlushesAfterLinger)
{
    nn::Model model = small_model();
    std::mt19937 rng(54);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    serve::ServeOptions opt;
    opt.max_batch = 64;  // never fills
    opt.linger_ms = 0.5;
    serve::ServeServer server(model, opt);

    // A single request must complete (within the linger, not hang).
    std::future<Tensor> fut = server.submit(Tensor(x));
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    expect_bit_equal(fut.get(), model.infer(x), "lone request");
}

TEST(ServeServer, MalformedRequestFailsOnlyItsFuture)
{
    nn::Model model = small_model();
    std::mt19937 rng(55);
    Tensor good({3, 16, 16});
    good.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor want = model.infer(good);

    serve::ServeServer server(model);
    std::future<Tensor> ok1 = server.submit(Tensor(good));
    // Wrong channel count: compiles fail in the worker, surfaced on
    // the future. Wrong rank: rejected up front, before it can claim
    // (and on a full cache, waste) a plan slot.
    std::future<Tensor> bad = server.submit(Tensor({5, 16, 16}));
    std::future<Tensor> bad_rank = server.submit(Tensor({16, 16}));
    std::future<Tensor> ok2 = server.submit(Tensor(good));

    EXPECT_THROW(bad.get(), std::invalid_argument);
    EXPECT_THROW(bad_rank.get(), std::invalid_argument);
    expect_bit_equal(ok1.get(), want, "before bad");
    expect_bit_equal(ok2.get(), want, "after bad");

    server.drain();
    const serve::ServeStats st = server.stats();
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.failed, 2u);
}

TEST(ServeServer, SubmitViewIsZeroCopyAndBitIdentical)
{
    // The borrowed-input path must produce the same bits as the owning
    // path; the caller keeps the tensor alive until the future
    // resolves.
    nn::Model model = small_model();
    std::mt19937 rng(58);
    std::vector<Tensor> inputs;
    for (int i = 0; i < 6; ++i) {
        Tensor x({3, 16, 16});
        x.rand_uniform(rng, 0.0f, 1.0f);
        inputs.push_back(std::move(x));
    }

    serve::ServeServer server(model);
    std::vector<std::future<Tensor>> futs;
    for (auto& x : inputs) futs.push_back(server.submit_view(x));
    for (size_t i = 0; i < inputs.size(); ++i) {
        expect_bit_equal(futs[i].get(), model.infer(inputs[i]), "view");
    }
}

TEST(ServeServer, DeterministicUnderDifferentInterleavings)
{
    // The same request set submitted in two different orders (and
    // therefore batched differently) produces identical bits.
    nn::Model model = small_model();
    std::mt19937 rng(56);
    constexpr int kTotal = 10;
    std::vector<Tensor> inputs;
    for (int i = 0; i < kTotal; ++i) {
        Tensor x({3, 16, 16});
        x.rand_uniform(rng, 0.0f, 1.0f);
        inputs.push_back(std::move(x));
    }

    serve::ServeOptions opt;
    opt.max_batch = 3;
    auto run_order = [&](const std::vector<int>& order) {
        serve::ServeServer server(model, opt);
        std::vector<std::future<Tensor>> futs(kTotal);
        for (int i : order) {
            futs[static_cast<size_t>(i)] =
                server.submit(Tensor(inputs[static_cast<size_t>(i)]));
        }
        std::vector<Tensor> outs;
        for (auto& f : futs) outs.push_back(f.get());
        return outs;
    };

    std::vector<int> fwd(kTotal), rev(kTotal);
    for (int i = 0; i < kTotal; ++i) {
        fwd[static_cast<size_t>(i)] = i;
        rev[static_cast<size_t>(i)] = kTotal - 1 - i;
    }
    const std::vector<Tensor> a = run_order(fwd);
    const std::vector<Tensor> b = run_order(rev);
    for (int i = 0; i < kTotal; ++i) {
        expect_bit_equal(a[static_cast<size_t>(i)],
                         b[static_cast<size_t>(i)], "interleaving");
    }
}

TEST(ServeServer, ManyWorkersManyShapesUnderSanitizers)
{
    // Several server workers + several shapes in flight: the lock,
    // linger timing, and plan hand-off paths all race here — the
    // sanitizer job is the real assertion, bit-equality the functional
    // one.
    nn::Model model = small_model();
    std::mt19937 rng(57);
    const std::vector<Shape> shapes{{3, 16, 16}, {3, 8, 8}, {3, 12, 12}};

    serve::ServeOptions opt;
    opt.workers = 3;
    opt.max_batch = 2;
    opt.linger_ms = 0.05;
    serve::ServeServer server(model, opt);

    constexpr int kTotal = 30;
    std::vector<Tensor> inputs;
    std::vector<Tensor> refs;
    for (int i = 0; i < kTotal; ++i) {
        Tensor x(shapes[static_cast<size_t>(i) % shapes.size()]);
        x.rand_uniform(rng, 0.0f, 1.0f);
        refs.push_back(model.infer(x));
        inputs.push_back(std::move(x));
    }
    std::vector<std::future<Tensor>> futs(kTotal);
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&, c]() {
            for (int i = c; i < kTotal; i += 3) {
                futs[static_cast<size_t>(i)] =
                    server.submit(Tensor(inputs[static_cast<size_t>(i)]));
            }
        });
    }
    for (auto& t : clients) t.join();
    for (int i = 0; i < kTotal; ++i) {
        expect_bit_equal(futs[static_cast<size_t>(i)].get(),
                         refs[static_cast<size_t>(i)], "mt request");
    }
    EXPECT_EQ(server.worker_count(), 3);
}

TEST(ServeServer, ShedBeyondMaxQueueIsTypedAndLossesNeverPerturbBatches)
{
    nn::Model model = small_model();
    std::mt19937 rng(60);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor want = model.infer(x);

    // max_batch 8 with a long linger (45 ms at the admitted depth of
    // 2): the first batch cannot dispatch while the burst is
    // submitted, so admissions beyond max_queue=2 shed
    // deterministically.
    serve::ServeOptions opt;
    opt.workers = 1;
    opt.max_batch = 8;
    opt.linger_ms = 60.0;
    opt.max_queue = 2;
    opt.admission = serve::Admission::kShed;
    serve::ServeServer server(model, opt);

    constexpr int kOffered = 6;
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < kOffered; ++i) {
        futs.push_back(server.submit(Tensor(x)));
    }
    int completed = 0, shed = 0;
    for (auto& f : futs) {
        try {
            expect_bit_equal(f.get(), want, "admitted under shedding");
            ++completed;
        } catch (const serve::OverloadError&) {
            ++shed;
        }
    }
    // Exactly max_queue admitted; the rest typed-shed — and every
    // admitted response was bit-identical above (dropped requests
    // never perturb surviving batches).
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(shed, kOffered - 2);

    server.drain();
    const serve::ServeStats st = server.stats();
    EXPECT_EQ(st.requests, static_cast<uint64_t>(kOffered));
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.shed, static_cast<uint64_t>(kOffered - 2));
    EXPECT_EQ(st.failed, static_cast<uint64_t>(kOffered - 2));
    // The bound held: never more than max_queue accepted-unfinished.
    EXPECT_LE(st.max_queue_depth, opt.max_queue);
    // Shed requests never joined a batch.
    EXPECT_EQ(st.batched, 2u);
}

TEST(ServeServer, BlockAdmissionBoundsQueueWithoutLosses)
{
    nn::Model model = small_model();
    std::mt19937 rng(61);
    constexpr int kClients = 3, kPerClient = 5;
    constexpr int kTotal = kClients * kPerClient;
    std::vector<Tensor> inputs;
    std::vector<Tensor> refs;
    for (int i = 0; i < kTotal; ++i) {
        Tensor x({3, 16, 16});
        x.rand_uniform(rng, 0.0f, 1.0f);
        refs.push_back(model.infer(x));
        inputs.push_back(std::move(x));
    }

    serve::ServeOptions opt;
    opt.workers = 1;
    opt.max_batch = 2;
    opt.linger_ms = 0.05;
    opt.max_queue = 2;
    opt.admission = serve::Admission::kBlock;
    serve::ServeServer server(model, opt);

    // A burst of submitters: beyond the bound they BLOCK (backpressure)
    // instead of shedding — every request completes, and the queue
    // never exceeded max_queue at any instant.
    std::vector<std::future<Tensor>> futs(kTotal);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c]() {
            for (int i = c; i < kTotal; i += kClients) {
                futs[static_cast<size_t>(i)] =
                    server.submit(Tensor(inputs[static_cast<size_t>(i)]));
            }
        });
    }
    for (auto& t : clients) t.join();
    for (int i = 0; i < kTotal; ++i) {
        expect_bit_equal(futs[static_cast<size_t>(i)].get(),
                         refs[static_cast<size_t>(i)], "blocked admission");
    }
    server.drain();
    const serve::ServeStats st = server.stats();
    EXPECT_EQ(st.completed, static_cast<uint64_t>(kTotal));
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_LE(st.max_queue_depth, opt.max_queue);
}

TEST(ServeServer, ExpiredDeadlineDroppedAtBatchFormation)
{
    nn::Model model = small_model();
    std::mt19937 rng(62);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor want = model.infer(x);

    serve::ServeOptions opt;
    opt.workers = 1;
    opt.max_batch = 8;
    opt.linger_ms = 15.0;
    serve::ServeServer server(model, opt);

    // An already-expired request and a live one land in the same
    // bucket; at batch formation the expired one is dropped (typed)
    // and only the live one runs.
    const auto past =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
    std::future<Tensor> dead = server.submit(Tensor(x), past);
    std::future<Tensor> live = server.submit(Tensor(x));
    EXPECT_THROW(dead.get(), serve::DeadlineError);
    expect_bit_equal(live.get(), want, "live alongside expired");
    server.drain();
    serve::ServeStats st = server.stats();
    EXPECT_EQ(st.expired, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failed, 1u);
    // The expired request never joined a batch: one batch of one.
    EXPECT_EQ(st.batches, 1u);
    EXPECT_EQ(st.batched, 1u);
    EXPECT_DOUBLE_EQ(st.mean_batch(), 1.0);

    // A bucket of ONLY expired requests forms no batch at all — no
    // kernel pass is spent on work nobody is waiting for.
    std::future<Tensor> dead2 = server.submit(Tensor(x), past);
    EXPECT_THROW(dead2.get(), serve::DeadlineError);
    server.drain();
    st = server.stats();
    EXPECT_EQ(st.expired, 2u);
    EXPECT_EQ(st.batches, 1u);

    // A generous future deadline serves normally.
    const auto soon =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    expect_bit_equal(server.submit(Tensor(x), soon).get(), want,
                     "future deadline");
}

TEST(ServeServer, AdaptiveLingerIsMonotoneInQueueDepth)
{
    serve::ServeOptions opt;
    opt.linger_ms = 4.0;
    opt.max_batch = 8;
    // Idle bucket waits the full cap; a formed batch waits nothing;
    // in between, deeper queue => never a LONGER linger.
    EXPECT_DOUBLE_EQ(serve::ServeServer::effective_linger_ms(opt, 0), 4.0);
    double prev = serve::ServeServer::effective_linger_ms(opt, 0);
    for (size_t depth = 1; depth <= 12; ++depth) {
        const double cur =
            serve::ServeServer::effective_linger_ms(opt, depth);
        EXPECT_LE(cur, prev) << "depth " << depth;
        EXPECT_GE(cur, 0.0);
        prev = cur;
    }
    EXPECT_DOUBLE_EQ(
        serve::ServeServer::effective_linger_ms(opt, 8), 0.0);
    EXPECT_DOUBLE_EQ(
        serve::ServeServer::effective_linger_ms(opt, 100), 0.0);
}

TEST(ServeServer, MalformedSubmissionsLeaveMeanBatchUnchanged)
{
    // Regression (stats skew): mean_batch used to divide
    // completed + failed by batches, so fast-path-rejected malformed
    // requests — which never join a batch — inflated the reported
    // batching win.
    nn::Model model = small_model();
    std::mt19937 rng(63);
    Tensor good({3, 16, 16});
    good.rand_uniform(rng, 0.0f, 1.0f);

    serve::ServeOptions opt;
    opt.workers = 1;
    serve::ServeServer server(model, opt);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 4; ++i) futs.push_back(server.submit(Tensor(good)));
    for (auto& f : futs) f.get();
    server.drain();
    const serve::ServeStats before = server.stats();
    EXPECT_GT(before.mean_batch(), 0.0);

    for (int i = 0; i < 3; ++i) {
        std::future<Tensor> bad = server.submit(Tensor({16, 16}));
        EXPECT_THROW(bad.get(), std::invalid_argument);
    }
    server.drain();
    const serve::ServeStats after = server.stats();
    EXPECT_EQ(after.failed, before.failed + 3);
    EXPECT_EQ(after.batched, before.batched);
    EXPECT_EQ(after.batches, before.batches);
    EXPECT_DOUBLE_EQ(after.mean_batch(), before.mean_batch());
}

TEST(ServeServer, StopRacingSubmittersNeverBreaksPromises)
{
    // The destructor-abandonment regression: a request accepted
    // between "drain observed empty" and "admission closed" used to be
    // destroyed unresolved, surfacing std::future_error
    // (broken_promise) on a future the API documents as resolving.
    // stop() now closes admission and sweeps the queue atomically:
    // every future obtained from a submit that did not throw MUST
    // resolve — a Tensor, or ShutdownError under kAbort. 100
    // iterations of submitters racing stop() in both modes; the
    // ASan/UBSan job turns any lifetime slip into a hard failure.
    nn::Model model = small_model();
    std::mt19937 rng(64);
    Tensor x({3, 8, 8});
    x.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor want = model.infer(x);

    constexpr int kIters = 100;
    constexpr int kSubmitters = 2, kPerSubmitter = 4;
    for (int iter = 0; iter < kIters; ++iter) {
        serve::ServeOptions opt;
        opt.workers = 2;
        opt.max_batch = 2;
        opt.linger_ms = 0.05;
        serve::ServeServer server(model, opt);

        std::mutex fmu;
        std::vector<std::future<Tensor>> futs;
        std::vector<std::thread> subs;
        for (int c = 0; c < kSubmitters; ++c) {
            subs.emplace_back([&]() {
                for (int i = 0; i < kPerSubmitter; ++i) {
                    try {
                        std::future<Tensor> f = server.submit(Tensor(x));
                        std::lock_guard<std::mutex> g(fmu);
                        futs.push_back(std::move(f));
                    } catch (const serve::ShutdownError&) {
                        return;  // admission closed: allowed
                    }
                }
            });
        }
        // Race shutdown against the submitters, alternating modes.
        server.stop(iter % 2 == 0 ? serve::StopMode::kDrain
                                  : serve::StopMode::kAbort);
        for (auto& t : subs) t.join();

        for (auto& f : futs) {
            try {
                expect_bit_equal(f.get(), want, "drained under stop race");
            } catch (const serve::ShutdownError&) {
                // kAbort swept it: typed, documented.
            } catch (const std::future_error& e) {
                FAIL() << "iter " << iter
                       << ": broken promise — accepted request abandoned "
                          "by shutdown ("
                       << e.what() << ")";
            }
        }
        EXPECT_THROW(server.submit(Tensor(x)), serve::ShutdownError);
    }
}

TEST(ServeServer, AbortFailsQueuedFuturesTyped)
{
    nn::Model model = small_model();
    std::mt19937 rng(65);
    Tensor x({3, 16, 16});
    x.rand_uniform(rng, 0.0f, 1.0f);

    // A huge linger with an unfillable batch (still 4.6 s at depth 5
    // of 64) keeps every request queued; kAbort must fail them all
    // typed — promises are KEPT (with an error), not broken.
    serve::ServeOptions opt;
    opt.workers = 1;
    opt.max_batch = 64;
    opt.linger_ms = 5000.0;
    serve::ServeServer server(model, opt);

    constexpr int kQueued = 5;
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < kQueued; ++i) {
        futs.push_back(server.submit(Tensor(x)));
    }
    server.stop(serve::StopMode::kAbort);
    for (auto& f : futs) {
        EXPECT_THROW(f.get(), serve::ShutdownError);
    }
    const serve::ServeStats st = server.stats();
    EXPECT_EQ(st.aborted, static_cast<uint64_t>(kQueued));
    EXPECT_EQ(st.failed, static_cast<uint64_t>(kQueued));
    EXPECT_EQ(st.completed, 0u);
    EXPECT_EQ(st.batches, 0u);
    // Stop is idempotent and admission stays closed.
    server.stop(serve::StopMode::kDrain);
    EXPECT_THROW(server.submit(Tensor(x)), serve::ShutdownError);
}

TEST(ServeServer, TwoShapesTwoWorkersDispatchWithoutOversleeping)
{
    // Lost-wakeup regression: a worker claiming one dispatchable
    // bucket now notifies a parked peer when OTHER buckets are also
    // dispatchable — without it, the second shape could oversleep
    // until the next submit, up to a full linger window of avoidable
    // p99. A 600 ms linger cap leaves a 300 ms window for a max_batch=2
    // bucket holding one request; both shapes completing well under
    // that window proves neither waited it out.
    nn::Model model = small_model();
    std::mt19937 rng(66);
    Tensor xa({3, 16, 16}), xb({3, 8, 8});
    xa.rand_uniform(rng, 0.0f, 1.0f);
    xb.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor wa = model.infer(xa);
    const Tensor wb = model.infer(xb);

    serve::ServeOptions opt;
    opt.workers = 2;
    opt.max_batch = 2;
    opt.linger_ms = 600.0;
    serve::ServeServer server(model, opt);
    // Warm both plans so compile time stays out of the timing check.
    server.submit(Tensor(xa)).get();
    server.submit(Tensor(xb)).get();

    for (int round = 0; round < 10; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        // Two full buckets become dispatchable back to back.
        std::future<Tensor> a1 = server.submit(Tensor(xa));
        std::future<Tensor> a2 = server.submit(Tensor(xa));
        std::future<Tensor> b1 = server.submit(Tensor(xb));
        std::future<Tensor> b2 = server.submit(Tensor(xb));
        expect_bit_equal(a1.get(), wa, "shape A");
        expect_bit_equal(a2.get(), wa, "shape A");
        expect_bit_equal(b1.get(), wb, "shape B");
        expect_bit_equal(b2.get(), wb, "shape B");
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        EXPECT_LT(ms, 250.0)
            << "round " << round
            << ": a dispatchable shape waited toward a full linger";
    }
}

}  // namespace
}  // namespace ringcnn
