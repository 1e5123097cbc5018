/**
 * @file
 * Parameter-space grid specification.
 *
 * A GridSpec is the discretization of the VQA parameter space used for
 * both ground-truth grid search and OSCAR sampling: one axis per
 * circuit parameter, each an inclusive equidistant range (the paper's
 * Table 1, e.g. beta in [-pi/4, pi/4] x 50 points, gamma in
 * [-pi/2, pi/2] x 100 points for p=1 QAOA).
 */

#ifndef OSCAR_LANDSCAPE_GRID_H
#define OSCAR_LANDSCAPE_GRID_H

#include <cstddef>
#include <vector>

namespace oscar {

/** One equidistant inclusive axis of the parameter grid. */
struct GridAxis
{
    double lo;
    double hi;
    std::size_t count;

    /** The k-th grid value along this axis. */
    double value(std::size_t k) const;
};

/** Cartesian product of axes; flat indexing is row-major. */
class GridSpec
{
  public:
    GridSpec() = default;

    /**
     * @throws std::invalid_argument on no axes, an empty, inverted or
     *         non-finite axis, or a point count that overflows size_t
     */
    explicit GridSpec(std::vector<GridAxis> axes);

    /** Standard QAOA depth-1 grid of the paper's Table 1. */
    static GridSpec qaoaP1(std::size_t beta_points = 50,
                           std::size_t gamma_points = 100);

    /** Standard QAOA depth-2 grid of the paper's Table 1. */
    static GridSpec qaoaP2(std::size_t beta_points = 12,
                           std::size_t gamma_points = 15);

    std::size_t rank() const { return axes_.size(); }

    const GridAxis& axis(std::size_t d) const { return axes_[d]; }

    const std::vector<GridAxis>& axes() const { return axes_; }

    /** Total number of grid points. */
    std::size_t numPoints() const;

    /** Shape vector {count_0, ..., count_{r-1}}. */
    std::vector<std::size_t> shape() const;

    /** Parameter vector at a flat row-major grid index. */
    std::vector<double> pointAt(std::size_t flat_index) const;

    /** All grid values along one axis. */
    std::vector<double> axisValues(std::size_t d) const;

    /**
     * Flat index of the grid point nearest to an arbitrary parameter
     * vector (clamped to the grid). A zero-width axis (lo == hi)
     * resolves to coordinate 0.
     *
     * @throws std::invalid_argument on a rank mismatch or a non-finite
     *         coordinate
     */
    std::size_t nearestIndex(const std::vector<double>& params) const;

    /** Per-axis coordinates of a flat row-major index. */
    std::vector<std::size_t> coordsAt(std::size_t flat_index) const;

    /**
     * Stable permutation of positions into `indices` that orders the
     * points axis-major under `axis_priority`: the first named axis
     * varies slowest, the last fastest; axes not named are appended
     * (ascending) as the fastest digits. Batched backends that reuse
     * shared circuit prefixes publish their preferred priority as
     * CostFunction::batchOrderHint(); feeding them batches in this
     * order maximizes consecutive points' common circuit prefix.
     *
     * @throws std::invalid_argument on out-of-range / duplicate axes
     */
    std::vector<std::size_t>
    prefixFriendlyPermutation(const std::vector<std::size_t>& indices,
                              const std::vector<int>& axis_priority) const;

  private:
    std::vector<GridAxis> axes_;
};

} // namespace oscar

#endif // OSCAR_LANDSCAPE_GRID_H
