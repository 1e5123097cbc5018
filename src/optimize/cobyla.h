/**
 * @file
 * COBYLA-style gradient-free trust-region minimizer.
 *
 * Powell's COBYLA builds linear interpolation models over a simplex of
 * n+1 points and minimizes them inside a shrinking trust region. This
 * implementation follows that skeleton for the unconstrained case
 * (the paper's use never adds constraints): interpolate a linear
 * model through the current simplex, step to the model minimizer on
 * the trust-region boundary, accept on improvement, shrink otherwise.
 * Like COBYLA, it converges in tens of queries on smooth 2-D QAOA
 * landscapes (cf. Table 6's ~40 queries). See README.md
 * "Substitutions", #5.
 */

#ifndef OSCAR_OPTIMIZE_COBYLA_H
#define OSCAR_OPTIMIZE_COBYLA_H

#include "src/optimize/optimizer.h"

namespace oscar {

/** Cobyla configuration. */
struct CobylaOptions
{
    double rhoBegin = 0.15; ///< initial trust-region radius
    double rhoEnd = 1e-4;   ///< stopping radius
    std::size_t maxIterations = 500;
};

/** Linear-approximation trust-region minimizer. */
class Cobyla : public Optimizer
{
  public:
    explicit Cobyla(CobylaOptions options = {});

    std::string name() const override { return "cobyla"; }

    OptimizerResult minimize(CostFunction& cost,
                             const std::vector<double>& initial) override;

  private:
    CobylaOptions options_;
};

} // namespace oscar

#endif // OSCAR_OPTIMIZE_COBYLA_H
