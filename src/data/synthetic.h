/**
 * @file
 * Procedural image generator standing in for the paper's photographic
 * datasets (DIV2K / Waterloo for training; Set5/Set14/BSD100/Urban100/
 * CBSD68 for testing). Every algebra variant trains and tests on
 * identical distributions, so the *relative* quality orderings the
 * paper reports remain meaningful.
 *
 * Images combine the local structures computational-imaging CNNs must
 * reproduce: smooth shading, oriented band-limited textures, sharp
 * edges, and fine high-frequency detail. All generation is seeded.
 */
#ifndef RINGCNN_DATA_SYNTHETIC_H
#define RINGCNN_DATA_SYNTHETIC_H

#include <random>

#include "tensor/tensor.h"

namespace ringcnn::data {

/**
 * Generates one c-channel image in [0, 1] of size h x w.
 * Channels are correlated (shared luma) like natural RGB images.
 */
Tensor synthetic_image(int c, int h, int w, std::mt19937& rng);

/** Adds white Gaussian noise with the given stddev (no clamping). */
Tensor add_awgn(const Tensor& x, float sigma, std::mt19937& rng);

}  // namespace ringcnn::data

#endif  // RINGCNN_DATA_SYNTHETIC_H
