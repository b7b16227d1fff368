/**
 * @file
 * StepList: the lowered form of a GraphPlan that both executors run —
 * the activation arena and the linear list of steps over it. Lowering
 * (stage 4 of the plan pipeline, graph_ir.h) is the only part each
 * backend writes itself; it appends one step per unfused op here.
 *
 * The arena holds one buffer per (slot, image): slot ids come from
 * plan_arena(), and every slot grows a lane per image of the largest
 * batch run so far. Buffers keep their capacity across runs and across
 * rebind(), so a plan recompiled for a new shape reuses the previous
 * plan's allocations wherever they are big enough.
 *
 * A step is called with the batch size. Steps run in order on the
 * calling thread; a step may fan its own work out to the thread pool.
 * unary() and binary() build the common per-image form. Steps hold the
 * list's address, so it is neither copyable nor movable.
 */
#ifndef RINGCNN_PLAN_STEP_LIST_H
#define RINGCNN_PLAN_STEP_LIST_H

#include <functional>
#include <utility>
#include <vector>

#include "plan/graph_ir.h"

namespace ringcnn::plan
{

template <class Act>
class StepList
{
  public:
    StepList() = default;
    StepList(const StepList&) = delete;
    StepList& operator=(const StepList&) = delete;

    /** Drops every step and takes `plan`'s slots. The arena only grows:
     *  slots and lanes beyond the new plan's needs stay allocated. */
    void rebind(const GraphPlan& plan)
    {
        steps_.clear();
        if (slots_.size() < static_cast<size_t>(plan.num_slots)) {
            slots_.resize(static_cast<size_t>(plan.num_slots));
        }
        entry_ = plan.entry_slot;
        out_ = plan.out_slot;
        lanes_ = 0;  // new slots have no lanes yet; run() regrows them
    }

    /** Appends a step over the whole batch. */
    void push(std::function<void(int)> step)
    {
        steps_.push_back(std::move(step));
    }

    /** Appends a step calling f(in[b], out[b]) for every image b. The
     *  two are one buffer when the plan runs the op in place. */
    template <class F>
    void unary(int in, int out, F f)
    {
        push([this, in, out, f](int batch) {
            for (int b = 0; b < batch; ++b) f(at(in, b), at(out, b));
        });
    }

    /** Appends a step calling f(in0[b], in1[b], out[b]) for every
     *  image b. */
    template <class F>
    void binary(int in0, int in1, int out, F f)
    {
        push([this, in0, in1, out, f](int batch) {
            for (int b = 0; b < batch; ++b) {
                f(at(in0, b), at(in1, b), at(out, b));
            }
        });
    }

    /** Runs `count` images: load(b, entry) fills image b's entry
     *  buffer, then every step runs in order. */
    template <class Load>
    void run(int count, Load&& load)
    {
        if (count > lanes_) {
            for (auto& slot : slots_) {
                if (slot.size() < static_cast<size_t>(count)) {
                    slot.resize(static_cast<size_t>(count));
                }
            }
            lanes_ = count;
        }
        for (int b = 0; b < count; ++b) load(b, at(entry_, b));
        for (auto& step : steps_) step(count);
    }

    /** Every lane of slot `s`. */
    std::vector<Act>& slot(int s) { return slots_[static_cast<size_t>(s)]; }
    Act& at(int s, int b) { return slot(s)[static_cast<size_t>(b)]; }
    /** Image b's result of the last run. */
    Act& out(int b) { return at(out_, b); }
    const Act& out(int b) const
    {
        return slots_[static_cast<size_t>(out_)][static_cast<size_t>(b)];
    }

    size_t size() const { return steps_.size(); }
    int slot_count() const { return static_cast<int>(slots_.size()); }
    /** The whole arena, [slot][image]. */
    const std::vector<std::vector<Act>>& arena() const { return slots_; }

  private:
    std::vector<std::vector<Act>> slots_;  ///< [slot][image]
    std::vector<std::function<void(int)>> steps_;
    int entry_ = -1, out_ = -1;
    int lanes_ = 0;  ///< images every slot holds a buffer for
};

}  // namespace ringcnn::plan

#endif  // RINGCNN_PLAN_STEP_LIST_H
