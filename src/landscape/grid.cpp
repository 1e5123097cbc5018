#include "src/landscape/grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace oscar {

double
GridAxis::value(std::size_t k) const
{
    assert(k < count);
    if (count == 1)
        return 0.5 * (lo + hi);
    return lo + (hi - lo) * static_cast<double>(k) /
                    static_cast<double>(count - 1);
}

GridSpec::GridSpec(std::vector<GridAxis> axes)
    : axes_(std::move(axes))
{
    if (axes_.empty())
        throw std::invalid_argument("GridSpec: no axes");
    std::size_t points = 1;
    for (const GridAxis& a : axes_) {
        if (a.count == 0)
            throw std::invalid_argument("GridSpec: empty axis");
        if (!std::isfinite(a.lo) || !std::isfinite(a.hi))
            throw std::invalid_argument("GridSpec: non-finite axis bound");
        if (a.hi < a.lo)
            throw std::invalid_argument("GridSpec: inverted axis");
        if (points > std::numeric_limits<std::size_t>::max() / a.count)
            throw std::invalid_argument(
                "GridSpec: point count overflows size_t");
        points *= a.count;
    }
}

GridSpec
GridSpec::qaoaP1(std::size_t beta_points, std::size_t gamma_points)
{
    const double pi = std::numbers::pi;
    return GridSpec({{-pi / 4, pi / 4, beta_points},
                     {-pi / 2, pi / 2, gamma_points}});
}

GridSpec
GridSpec::qaoaP2(std::size_t beta_points, std::size_t gamma_points)
{
    const double pi = std::numbers::pi;
    return GridSpec({{-pi / 8, pi / 8, beta_points},
                     {-pi / 8, pi / 8, beta_points},
                     {-pi / 4, pi / 4, gamma_points},
                     {-pi / 4, pi / 4, gamma_points}});
}

std::size_t
GridSpec::numPoints() const
{
    std::size_t n = 1;
    for (const GridAxis& a : axes_)
        n *= a.count;
    return n;
}

std::vector<std::size_t>
GridSpec::shape() const
{
    std::vector<std::size_t> s;
    s.reserve(axes_.size());
    for (const GridAxis& a : axes_)
        s.push_back(a.count);
    return s;
}

std::vector<double>
GridSpec::pointAt(std::size_t flat_index) const
{
    assert(flat_index < numPoints());
    std::vector<double> p(axes_.size());
    for (std::size_t d = axes_.size(); d-- > 0;) {
        const std::size_t k = flat_index % axes_[d].count;
        flat_index /= axes_[d].count;
        p[d] = axes_[d].value(k);
    }
    return p;
}

std::vector<double>
GridSpec::axisValues(std::size_t d) const
{
    assert(d < axes_.size());
    std::vector<double> v(axes_[d].count);
    for (std::size_t k = 0; k < axes_[d].count; ++k)
        v[k] = axes_[d].value(k);
    return v;
}

std::vector<std::size_t>
GridSpec::coordsAt(std::size_t flat_index) const
{
    assert(flat_index < numPoints());
    std::vector<std::size_t> c(axes_.size());
    for (std::size_t d = axes_.size(); d-- > 0;) {
        c[d] = flat_index % axes_[d].count;
        flat_index /= axes_[d].count;
    }
    return c;
}

std::vector<std::size_t>
GridSpec::prefixFriendlyPermutation(
    const std::vector<std::size_t>& indices,
    const std::vector<int>& axis_priority) const
{
    // Full digit order: the named axes slowest-first, then the
    // remaining axes ascending.
    std::vector<char> named(axes_.size(), 0);
    std::vector<std::size_t> digit_order;
    digit_order.reserve(axes_.size());
    for (int a : axis_priority) {
        if (a < 0 || static_cast<std::size_t>(a) >= axes_.size())
            throw std::invalid_argument(
                "GridSpec::prefixFriendlyPermutation: axis out of range");
        if (named[a])
            throw std::invalid_argument(
                "GridSpec::prefixFriendlyPermutation: duplicate axis");
        named[a] = 1;
        digit_order.push_back(static_cast<std::size_t>(a));
    }
    for (std::size_t d = 0; d < axes_.size(); ++d) {
        if (!named[d])
            digit_order.push_back(d);
    }

    // Mixed-radix sort key per point: a permutation of the row-major
    // digits, so keys stay within [0, numPoints).
    std::vector<std::pair<std::size_t, std::size_t>> keyed;
    keyed.reserve(indices.size());
    for (std::size_t pos = 0; pos < indices.size(); ++pos) {
        const auto coords = coordsAt(indices[pos]);
        std::size_t key = 0;
        for (std::size_t d : digit_order)
            key = key * axes_[d].count + coords[d];
        keyed.emplace_back(key, pos);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });

    std::vector<std::size_t> perm;
    perm.reserve(indices.size());
    for (const auto& [key, pos] : keyed)
        perm.push_back(pos);
    return perm;
}

std::size_t
GridSpec::nearestIndex(const std::vector<double>& params) const
{
    if (params.size() != axes_.size())
        throw std::invalid_argument("GridSpec::nearestIndex: rank mismatch");
    std::size_t flat = 0;
    for (std::size_t d = 0; d < axes_.size(); ++d) {
        const GridAxis& a = axes_[d];
        if (!std::isfinite(params[d]))
            throw std::invalid_argument(
                "GridSpec::nearestIndex: non-finite coordinate");
        // A zero-width axis has one value at every coordinate; take 0.
        std::size_t best = 0;
        if (a.count > 1 && a.hi > a.lo) {
            const double step =
                (a.hi - a.lo) / static_cast<double>(a.count - 1);
            const double raw = std::round((params[d] - a.lo) / step);
            best = static_cast<std::size_t>(std::clamp(
                raw, 0.0, static_cast<double>(a.count - 1)));
        }
        flat = flat * a.count + best;
    }
    return flat;
}

} // namespace oscar
