// Exact front-to-back visibility ordering of octree blocks for a viewpoint.
//
// Disjoint octants of one octree always admit a correct visibility order:
// at every internal node, visit the child octant containing (or nearest to)
// the eye first, then its face/edge neighbors by the number of axes on
// which they differ from the eye's octant. This is the classical octree
// traversal used by volume renderers; we apply it recursively to the block
// set (blocks are octants at mixed levels).
#pragma once

#include <span>
#include <vector>

#include "octree/blocks.hpp"
#include "render/camera.hpp"
#include "util/vec.hpp"

namespace qv::render {

// Returns a permutation of block indices, front-to-back as seen from `eye`.
// `domain` is the octree's root box.
std::vector<std::size_t> visibility_order(std::span<const octree::Block> blocks,
                                          const Box3& domain, Vec3 eye);

// View-dependent rendering cost of each block: the summed length of the
// chords that the pixel rays of the block's screen footprint cut through
// its box, counted from the eye on (the stretch the raycaster samples). A
// block off-screen or behind the eye costs 0. Pure arithmetic on the
// camera and the boxes, summed in pixel order, so every rank computes the
// same costs without a message.
std::vector<double> view_costs(std::span<const octree::Block> blocks,
                               const Camera& camera);

}  // namespace qv::render
