#include "src/cs/reconstructor.h"

#include <numeric>
#include <stdexcept>

namespace oscar {

std::vector<std::size_t>
csFoldedShape(const std::vector<std::size_t>& shape)
{
    if (shape.size() < 2 || shape.size() % 2 != 0)
        throw std::invalid_argument(
            "csFoldedShape: rank must be even and >= 2");
    const std::size_t half = shape.size() / 2;
    std::size_t rows = 1, cols = 1;
    for (std::size_t d = 0; d < half; ++d)
        rows *= shape[d];
    for (std::size_t d = half; d < shape.size(); ++d)
        cols *= shape[d];
    return {rows, cols};
}

NdArray
reconstructLandscape(const std::vector<std::size_t>& shape,
                     const std::vector<std::size_t>& sample_index,
                     const std::vector<double>& sample_value,
                     const CsOptions& options)
{
    return csSolveFolded(shape, sample_index, sample_value, options)
        .values;
}

CsSolveResult
csSolveFolded(const std::vector<std::size_t>& shape,
              const std::vector<std::size_t>& sample_index,
              const std::vector<double>& sample_value,
              const CsOptions& options, ExecutionEngine* engine)
{
    const auto folded = csFoldedShape(shape);
    // Row-major flattening is invariant under the fold, so the flat
    // sample indices are reused directly.
    const Dct2d dct(folded[0], folded[1]);
    CsSolveResult result;
    if (options.solver == CsSolver::Fista) {
        FistaResult solve = fistaSolve(dct, sample_index, sample_value,
                                       options.fista, engine);
        result.coefficients = std::move(solve.coefficients);
        result.iterations = solve.iterations;
        result.lambdaFraction = solve.lambdaFraction;
    } else {
        OmpResult solve = ompSolve(dct, sample_index, sample_value,
                                   options.omp);
        result.coefficients = std::move(solve.coefficients);
        result.iterations = solve.atomsSelected;
    }
    result.values = dct.inverse(result.coefficients).reshape(shape);
    return result;
}

} // namespace oscar
