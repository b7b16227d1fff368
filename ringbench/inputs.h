/**
 * @file
 * Seeded input generators for the ringbench workloads. Every pixel the
 * program under test sees comes from here and is a pure function of the
 * workload seed; the geometry that sets how much work an input costs
 * (frame sizes, panel layout, inset path, shape mix) is fixed, so seeds
 * vary content without varying the amount of work.
 */
#ifndef RINGBENCH_INPUTS_H
#define RINGBENCH_INPUTS_H

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace ringbench {

/** Derives an independent sub-seed for stream `k` of `seed`. */
uint64_t sub_seed(uint64_t seed, uint64_t k);

/** Natural-looking RGB scene, 3 x h x w in [0, 1]: smooth gradients
 *  under flat-shaded rectangles and discs. */
ringcnn::Tensor make_scene(int h, int w, uint64_t seed);

/** Adds N(0, sigma) per-pixel sensor noise drawn from `seed`. */
void add_noise(ringcnn::Tensor* img, float sigma, uint64_t seed);

/**
 * One period of a screen-content loop, 3 x h x w per frame: a flat
 * desktop, flat window panels with title bars, text-like glyph rows,
 * and one animated inset that slides back and forth along a fixed path
 * and returns to its start after `count` frames. Frame t and t+1
 * differ only inside the union of the inset's two positions.
 */
std::vector<ringcnn::Tensor> make_screen_loop(int h, int w, int count,
                                              uint64_t seed);

}  // namespace ringbench

#endif  // RINGBENCH_INPUTS_H
