#include "src/parallel/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oscar {

SampleSet
ParallelRunResult::retainedBefore(double deadline) const
{
    SampleSet set;
    for (const ParallelSample& s : samples) {
        if (s.completionTime <= deadline) {
            set.indices.push_back(s.index);
            set.values.push_back(s.value);
        }
    }
    return set;
}

SampleSet
ParallelRunResult::allSamples() const
{
    SampleSet set;
    for (const ParallelSample& s : samples) {
        set.indices.push_back(s.index);
        set.values.push_back(s.value);
    }
    return set;
}

SampleSet
ParallelRunResult::deviceSamples(std::size_t device) const
{
    SampleSet set;
    for (const ParallelSample& s : samples) {
        if (s.device == device) {
            set.indices.push_back(s.index);
            set.values.push_back(s.value);
        }
    }
    return set;
}

namespace {

/** One scheduled execution, in simulated execution order. */
struct ScheduledTask
{
    std::size_t position; ///< position into `indices`
    std::size_t device;
    double latency;
};

/**
 * Static policies: owner per position, latency drawn serially in
 * submission order (the legacy interleaved order, kept bit-identical
 * across engine thread counts and with earlier releases).
 */
std::vector<ScheduledTask>
scheduleStatic(const std::vector<std::size_t>& indices,
               std::vector<QpuDevice>& devices, Rng& rng, Assignment how,
               const std::vector<double>& fractions)
{
    std::vector<std::size_t> owner(indices.size());
    if (how == Assignment::RoundRobin) {
        for (std::size_t i = 0; i < indices.size(); ++i)
            owner[i] = i % devices.size();
    } else {
        if (fractions.size() != devices.size())
            throw std::invalid_argument(
                "runParallelSampling: fraction per device required");
        double total = 0.0;
        for (double f : fractions) {
            if (f < 0.0)
                throw std::invalid_argument(
                    "runParallelSampling: negative fraction");
            total += f;
        }
        if (std::abs(total - 1.0) > 1e-6)
            throw std::invalid_argument(
                "runParallelSampling: fractions must sum to 1");
        std::size_t cursor = 0;
        for (std::size_t d = 0; d < devices.size(); ++d) {
            std::size_t count = static_cast<std::size_t>(std::llround(
                fractions[d] * static_cast<double>(indices.size())));
            if (d + 1 == devices.size())
                count = indices.size() - cursor; // absorb rounding
            count = std::min(count, indices.size() - cursor);
            for (std::size_t i = 0; i < count; ++i)
                owner[cursor++] = d;
        }
    }

    std::vector<ScheduledTask> schedule;
    schedule.reserve(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        schedule.push_back(
            {i, owner[i], devices[owner[i]].latency.sample(rng)});
    return schedule;
}

} // namespace

ParallelRunResult
runParallelSampling(const GridSpec& grid, std::vector<QpuDevice>& devices,
                    const std::vector<std::size_t>& indices, Rng& rng,
                    Assignment how, const std::vector<double>& fractions,
                    ExecutionEngine* engine)
{
    if (devices.empty())
        throw std::invalid_argument("runParallelSampling: no devices");

    const std::vector<ScheduledTask> schedule =
        scheduleStatic(indices, devices, rng, how, fractions);

    ParallelRunResult result;
    result.samples.reserve(indices.size());
    result.perDeviceCounts.assign(devices.size(), 0);

    // Submit every device's share as one asynchronous batch, all
    // in flight together: the engine overlaps the simulated devices'
    // executions on its worker pool. Values land positionally, keyed
    // to the device-local submission (= schedule) order.
    std::vector<std::vector<std::size_t>> device_jobs(devices.size());
    for (const ScheduledTask& task : schedule)
        device_jobs[task.device].push_back(task.position);

    ExecutionEngine& eng = ExecutionEngine::engineOr(engine);
    std::vector<BatchHandle> handles(devices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
        const std::vector<std::size_t>& jobs = device_jobs[d];
        if (jobs.empty())
            continue;
        handles[d] = eng.submitGenerated(
            *devices[d].cost, jobs.size(),
            [&grid, &indices, &jobs](std::size_t j) {
                return grid.pointAt(indices[jobs[j]]);
            });
    }

    std::vector<double> values(indices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
        if (!handles[d].valid())
            continue;
        const std::vector<double> batch = handles[d].get();
        for (std::size_t j = 0; j < device_jobs[d].size(); ++j)
            values[device_jobs[d][j]] = batch[j];
        result.execStats += handles[d].stats();
    }

    // Each simulated device runs its jobs serially; devices run
    // concurrently. Completion times replay the schedule order.
    std::vector<double> device_clock(devices.size(), 0.0);
    for (const ScheduledTask& task : schedule) {
        device_clock[task.device] += task.latency;
        result.samples.push_back({indices[task.position],
                                  values[task.position], task.device,
                                  device_clock[task.device]});
        ++result.perDeviceCounts[task.device];
    }
    result.makespan =
        *std::max_element(device_clock.begin(), device_clock.end());
    return result;
}

} // namespace oscar
