/**
 * @file
 * Synthetic "hardware dataset" landscapes.
 *
 * The paper's Section 4.3 evaluates OSCAR on QAOA landscapes measured
 * on Google's 53-qubit Sycamore chip [Harrigan et al., Nat. Phys.
 * 2021]: 50 x 50 grids for MaxCut on hardware-grid (mesh) graphs,
 * MaxCut on 3-regular graphs, and the SK model. That dataset is not
 * redistributable, so this module generates the closest synthetic
 * equivalent (README.md "Substitutions", #2): the ideal closed-form QAOA
 * landscape, contracted by a fidelity damping factor, plus a smooth
 * spatially-correlated drift field (calibration drift across the
 * parameter sweep) plus white noise (finite-shot estimation error).
 * What the reconstruction experiments need -- a sparse periodic signal
 * observed through hardware-grade noise on a sparse 50 x 50 grid -- is
 * exactly preserved.
 */

#ifndef OSCAR_BACKEND_HARDWARE_DATASET_H
#define OSCAR_BACKEND_HARDWARE_DATASET_H

#include <cstdint>

#include "src/graph/graph.h"
#include "src/landscape/landscape.h"

namespace oscar {

/** Noise configuration of a synthetic hardware landscape. */
struct HardwareDatasetOptions
{
    /** Contraction of the ideal signal toward the mixed value. */
    double damping = 0.45;

    /**
     * Std of the smooth correlated drift field, relative to the ideal
     * landscape's std.
     */
    double correlatedNoise = 0.15;

    /**
     * Std of iid per-point noise, relative to the ideal landscape's
     * std (shot noise on ~25k shots plus readout fluctuations).
     */
    double whiteNoise = 0.10;

    /** Seed for the noise fields. */
    std::uint64_t seed = 1;
};

/**
 * Generate a hardware-like depth-1 QAOA landscape for `graph` on
 * `grid` (rank-2). The returned landscape plays the role of the
 * Google-dataset ground truth in the Fig. 5/6 experiments.
 */
Landscape syntheticHardwareLandscape(const Graph& graph,
                                     const GridSpec& grid,
                                     const HardwareDatasetOptions& options);

} // namespace oscar

#endif // OSCAR_BACKEND_HARDWARE_DATASET_H
