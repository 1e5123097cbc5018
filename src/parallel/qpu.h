/**
 * @file
 * Simulated QPU device: a named cost evaluator with its own noise
 * configuration and latency behaviour.
 *
 * This is the substitution for the paper's physical devices (IBM
 * Perth/Lagos, simulated QPU pairs): what the parallel-reconstruction
 * and NCM experiments require is several devices that (a) evaluate the
 * same circuit, (b) have systematically different noise, and (c) take
 * wall-clock time with queuing and tail latency. See README.md
 * "Substitutions", #1.
 */

#ifndef OSCAR_PARALLEL_QPU_H
#define OSCAR_PARALLEL_QPU_H

#include <memory>
#include <string>

#include "src/backend/executor.h"
#include "src/parallel/latency_model.h"
#include "src/quantum/noise_model.h"

namespace oscar {

/** One (simulated) quantum processing unit. */
struct QpuDevice
{
    std::string name;
    NoiseModel noise;
    std::shared_ptr<CostFunction> cost;
    LatencyModel latency;
};

} // namespace oscar

#endif // OSCAR_PARALLEL_QPU_H
