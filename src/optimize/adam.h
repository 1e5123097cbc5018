/**
 * @file
 * ADAM with central-finite-difference gradients.
 *
 * Matches the paper's gradient-based optimizer choice ("the
 * gradient-based optimizer ADAM ... with default settings from
 * Qiskit"): Qiskit's ADAM estimates gradients by finite differences,
 * which is why it consumes thousands of QPU queries (Table 6) -- each
 * gradient costs 2 * numParams circuit evaluations.
 */

#ifndef OSCAR_OPTIMIZE_ADAM_H
#define OSCAR_OPTIMIZE_ADAM_H

#include "src/optimize/optimizer.h"

namespace oscar {

/** ADAM configuration (defaults follow Qiskit's ADAM). */
struct AdamOptions
{
    double learningRate = 0.1;
    double beta1 = 0.9;
    double beta2 = 0.99;
    double epsilon = 1e-8;

    /** Finite-difference step. */
    double fdStep = 1e-2;

    std::size_t maxIterations = 200;

    /** Stop when the gradient norm drops below this. */
    double gradientTolerance = 1e-4;
};

/** ADAM minimizer. */
class Adam : public Optimizer
{
  public:
    explicit Adam(AdamOptions options = {});

    std::string name() const override { return "adam"; }

    OptimizerResult minimize(CostFunction& cost,
                             const std::vector<double>& initial) override;

  private:
    AdamOptions options_;
};

/**
 * Central finite-difference gradient estimate (2 * dim evaluations).
 * The 2 * dim probe points are submitted as one batch to `engine`
 * (serial when null).
 */
std::vector<double> finiteDifferenceGradient(CostFunction& cost,
                                             const std::vector<double>& at,
                                             double step,
                                             ExecutionEngine* engine =
                                                 nullptr);

} // namespace oscar

#endif // OSCAR_OPTIMIZE_ADAM_H
