/**
 * @file
 * oscar_bench: runs one workload of the end-to-end benchmark and
 * prints, as its last stdout line, one JSON object
 *
 *   {"correct": ..., "attempted": ..., "failed": ...,
 *    "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}
 *
 * holding the end-to-end metrics (untraced) or the per-layer metrics
 * (--trace 1). A fuller record -- host stamp, quartiles, sample
 * counts, serve hit/miss latencies -- goes to <out-dir> for
 * compare.py. benchmark/run.py builds this binary and calls it.
 *
 *   oscar_bench --workload <name> [--seed N] [--seconds S]
 *               [--trace 0|1] [--smoke] [--rev SHA] [--out-dir DIR]
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "benchmark/bench.h"

#ifndef OSCAR_BENCH_BUILD_TYPE
#define OSCAR_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace oscar::obench;

int
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "oscar_bench: %s\n"
                 "usage: oscar_bench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--rev SHA] "
                 "[--out-dir DIR]\n",
                 why.c_str());
    return 2;
}

/** Parse argv into `args`; returns an error message or "". */
std::string
parseArgs(int argc, char** argv, Args& args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return "missing value after " + flag;
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return "--seed takes a whole number";
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0.0))
                return "--seconds takes a positive number";
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return "--trace takes 0 or 1";
            args.trace = value == "1";
        } else if (flag == "--rev") {
            args.rev = value;
        } else if (flag == "--out-dir") {
            args.outDir = value;
        } else {
            return "unknown argument " + flag;
        }
    }
    for (const std::string& name : workloadNames()) {
        if (name == args.workload)
            return "";
    }
    return "unknown workload \"" + args.workload + "\"";
}

/** A JSON number; non-finite values (never expected) print as 0. */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metricsJson(const std::vector<RunResult::Metric>& metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               number(metrics[i].value) + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    const std::string error = parseArgs(argc, argv, args);
    if (!error.empty())
        return usage(error);

    // Every serve miss spawns an engine whose threads' span rings are
    // never freed, so a traced mix needs small rings to stay bounded in
    // memory. 16 KiB rings wrap within one miss's burst of replay spans
    // before the drainer reads them; 32 KiB do not. Must be set before
    // the first engine applies the environment.
    if (args.trace && args.workload == "serve_mix")
        ::setenv("OSCAR_TRACE_BUFFER_KB", "32", 1);

    try {
        std::filesystem::create_directories(args.outDir);
        const auto started = std::chrono::system_clock::now();
        const unsigned nproc = std::thread::hardware_concurrency();
        std::printf("# oscar_bench workload=%s seed=%llu trace=%d smoke=%d "
                    "seconds=%g nproc=%u isa=%s build=%s rev=%s\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    args.trace ? 1 : 0, args.smoke ? 1 : 0, args.seconds,
                    nproc, isaName().c_str(), OSCAR_BENCH_BUILD_TYPE,
                    args.rev.c_str());
        std::fflush(stdout);

        oscar::ExecutionEngine engine(4);
        RunResult result = args.workload == "serve_mix"
                               ? runServeMix(args, engine)
                               : runRecon(args, engine);
        bool finite = true;
        for (const RunResult::Metric& m : result.metrics)
            finite = finite && std::isfinite(m.value);
        if (!finite)
            result.failCheck("a metric is not finite");
        const bool correct = result.failed == 0 && result.checksPassed;

        for (const RunResult::Metric& m : result.metrics)
            std::printf("%-24s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        for (const RunResult::Metric& m : result.extras)
            std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());

        const double started_s =
            std::chrono::duration<double>(started.time_since_epoch())
                .count();
        const std::string record_path =
            args.outDir + "/" + args.workload + "-seed" +
            std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0") +
            (args.smoke ? "-smoke" : "") + "-" +
            std::to_string(static_cast<long long>(started_s * 1e3)) +
            ".json";
        std::ofstream record(record_path);
        record << "{\"workload\": \"" << args.workload
               << "\", \"seed\": " << args.seed
               << ", \"trace\": " << (args.trace ? 1 : 0)
               << ", \"smoke\": " << (args.smoke ? 1 : 0)
               << ", \"seconds\": " << number(args.seconds)
               << ", \"started_unix_s\": " << number(started_s)
               << ", \"rev\": \"" << args.rev << "\", \"nproc\": " << nproc
               << ", \"isa\": \"" << isaName() << "\", \"build_type\": \""
               << OSCAR_BENCH_BUILD_TYPE << "\", \"claimable\": "
               << (result.claimable ? "true" : "false") << ", \"correct\": "
               << (correct ? "true" : "false")
               << ", \"attempted\": " << result.attempted
               << ", \"failed\": " << result.failed
               << ", \"metrics\": " << metricsJson(result.metrics)
               << ", \"extras\": " << metricsJson(result.extras) << "}\n";
        if (!record)
            std::fprintf(stderr, "oscar_bench: cannot write %s\n",
                         record_path.c_str());

        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                    "\"metrics\": %s}\n",
                    correct ? "true" : "false", result.attempted,
                    result.failed, metricsJson(result.metrics).c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "oscar_bench: %s\n", e.what());
        return 1;
    }
}
