/**
 * @file
 * quake_perfbench: the repository benchmark's one command.
 *
 *   quake_perfbench --workload sf5-seq|sf5-pe8|service-mix|all
 *                   [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
 *   quake_perfbench --list-metrics
 *
 * With --trace 0 the last stdout line is one JSON object holding every
 * end-to-end metric; with --trace 1 the workload runs twice, untraced
 * and then traced, and the JSON holds every per-layer metric (the
 * traced pass's layer figures, span self times and coverage, and the
 * tracing overhead).  Lines before it give the host context and each
 * metric with its unit and sample count.  The exit code is 1 when any
 * output check failed or an operation ended other than as expected.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "host.h"
#include "tracer.h"
#include "workloads.h"

namespace
{

using perfbench::Metric;

struct Named
{
    const char *name;
    const char *unit;
};

/** Every end-to-end (gated) metric, in BENCHMARK.json order. */
const std::vector<Named> kEndToEnd = {
    {"setup_s", "s"},
    {"time_to_solution_s", "s"},
    {"step_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
};

/** Printed with every run and carried as run.* per-layer metrics. */
const std::vector<Named> kReported = {
    {"scenario_ms_p50", "ms"},
    {"scenario_ms_p90", "ms"},
    {"scenarios_per_s", "1/s"},
};

/** Layers that get a self-time figure from the traced pass. */
const std::vector<const char *> kLayers = {
    "mesh", "partition", "parallel", "sparse", "quake",
    "resilience", "service", "bench",
};

/**
 * Every per-layer metric measured by a workload, in BENCHMARK.json
 * order.  One a workload does not exercise is reported as 0.
 */
const std::vector<Named> kPerLayer = {
    {"run.scenario_ms_p50", "ms"},
    {"run.scenario_ms_p90", "ms"},
    {"run.scenarios_per_s", "1/s"},
    {"mesh.generate_s", "s"},
    {"mesh.nodes", "count"},
    {"mesh.tets", "count"},
    {"partition.bisect_s", "s"},
    {"partition.flops_max", "count"},
    {"partition.words_max", "count"},
    {"partition.blocks_max", "count"},
    {"partition.flop_balance", "ratio"},
    {"parallel.distribute_s", "s"},
    {"parallel.smvp_ms_p50", "ms"},
    {"parallel.tf_ns", "ns"},
    {"parallel.dispatch_us_p50", "us"},
    {"parallel.dispatch_us_p99", "us"},
    {"sparse.assemble_s", "s"},
    {"sparse.smvp_ms_p50", "ms"},
    {"sparse.tf_ns", "ns"},
    {"sparse.blocks", "count"},
    {"sparse.bytes_per_flop", "B/flop"},
    {"quake.engine_build_s", "s"},
    {"quake.step_ms_p90", "ms"},
    {"quake.step_ms_p99", "ms"},
    {"quake.step_ms_max", "ms"},
    {"quake.solve_s", "s"},
    {"quake.steps", "count"},
    {"resilience.ckpt_write_ms_p50", "ms"},
    {"resilience.ckpt_bytes", "B"},
    {"resilience.ckpt_read_ms", "ms"},
    {"resilience.restore_ms", "ms"},
    {"service.submit_us_p50", "us"},
    {"service.queue_ms_p50", "ms"},
    {"service.prefix_ms_p50", "ms"},
    {"service.run_ms_p50", "ms"},
    {"service.cache_hits", "count"},
    {"service.cache_misses", "count"},
    {"service.cache_evictions", "count"},
    {"service.cache_lookups", "count"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.shed", "count"},
    {"service.deadline_misses", "count"},
    {"service.queue_rejections", "count"},
    {"host.steal_share", "ratio"},
    {"host.cpu_per_wall", "ratio"},
    {"host.logical_cpus", "count"},
    {"self.mesh_s", "s"},
    {"self.partition_s", "s"},
    {"self.parallel_s", "s"},
    {"self.sparse_s", "s"},
    {"self.quake_s", "s"},
    {"self.resilience_s", "s"},
    {"self.service_s", "s"},
    {"self.bench_s", "s"},
    {"trace.setup_coverage", "ratio"},
    {"trace.window_coverage", "ratio"},
    {"trace.unattributed_s", "s"},
    {"trace.spans", "count"},
    {"trace.overhead.setup_s", "s"},
    {"trace.overhead.time_to_solution_s", "s"},
    {"trace.overhead.step_ms_p50", "ms"},
    {"trace.overhead.peak_rss_mb", "MB"},
};

/**
 * The stated coverage shares: the layer spans inside the set-up and
 * inside the timed window must cover at least this much of them, or
 * the traced run counts a failed check.
 */
constexpr double kMinCoverage = 0.90;

int
usage(const char *why)
{
    std::cerr << "error: " << why << "\n"
              << "usage: quake_perfbench --workload "
                 "sf5-seq|sf5-pe8|service-mix|all [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out DIR]\n"
              << "       quake_perfbench --list-metrics\n";
    return 2;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Per-layer figures of a traced pass that come from its spans. */
void
addTraceMetrics(perfbench::WorkloadResult &traced,
                const perfbench::WorkloadResult &untraced,
                const perfbench::Tracer &tracer)
{
    const std::vector<perfbench::SpanRecord> spans = tracer.spans();
    auto &L = traced.perLayer;
    const std::map<std::string, double> self = perfbench::selfSecondsByLayer(spans);
    for (const char *layer : kLayers) {
        const auto it = self.find(layer);
        L[std::string("self.") + layer + "_s"] =
            Metric{it == self.end() ? 0.0 : it->second, "s", 0};
    }
    const auto [setup_cov, setup_total] = perfbench::layerCoverage(spans, "setup");
    const auto [window_cov, window_total] = perfbench::layerCoverage(spans, "window");
    const double setup_share = setup_total > 0 ? setup_cov / setup_total : 0.0;
    const double window_share = window_total > 0 ? window_cov / window_total : 0.0;
    L["trace.setup_coverage"] = Metric{setup_share, "ratio", 0};
    L["trace.window_coverage"] = Metric{window_share, "ratio", 0};
    L["trace.unattributed_s"] = Metric{
        (setup_total - setup_cov) + (window_total - window_cov), "s", 0};
    L["trace.spans"] = Metric{static_cast<double>(spans.size()), "count", 0};
    traced.tally.add(setup_share >= kMinCoverage);
    if (setup_share < kMinCoverage)
        traced.failures.push_back("layer spans cover only " + number(setup_share) +
                                  " of set-up");
    traced.tally.add(window_share >= kMinCoverage);
    if (window_share < kMinCoverage)
        traced.failures.push_back("layer spans cover only " + number(window_share) +
                                  " of the timed window");
    for (const Named &m : kEndToEnd) {
        const auto a = traced.endToEnd.find(m.name);
        const auto b = untraced.endToEnd.find(m.name);
        if (a != traced.endToEnd.end() && b != untraced.endToEnd.end())
            L[std::string("trace.overhead.") + m.name] =
                Metric{a->second.value - b->second.value, m.unit, 0};
    }
}

/**
 * The traced pass of one workload: per-layer figures, span self times
 * and coverage, host context and tracing overhead against `untraced`,
 * with the Chrome trace written next to the workload's outputs.
 */
perfbench::WorkloadResult
tracedPass(const perfbench::RunConfig &rc,
           const perfbench::WorkloadResult &untraced,
           const perfbench::HostInfo &host)
{
    perfbench::Tracer tracer;
    perfbench::WorkloadResult traced = perfbench::runWorkload(rc, &tracer);
    addTraceMetrics(traced, untraced, tracer);
    auto &L = traced.perLayer;
    for (const auto &[name, m] : traced.reported)
        L["run." + name] = m;
    L["host.steal_share"] = Metric{traced.stealShare, "ratio", 0};
    L["host.cpu_per_wall"] = Metric{traced.cpuPerWall, "ratio", 0};
    L["host.logical_cpus"] = Metric{static_cast<double>(host.logicalCpus), "count", 0};
    const std::string path = rc.outDir + "/trace.json";
    if (tracer.writeChromeTrace(path))
        std::cout << "trace: " << path << "\n";
    else
        traced.failures.push_back("could not write " + path);
    return traced;
}

struct Printed
{
    std::map<std::string, Metric> metrics;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
};

void
printMetric(const std::string &name, const Metric &m)
{
    std::cout << "  " << name << " = " << number(m.value) << " " << m.unit;
    if (m.samples > 0)
        std::cout << "  (n=" << m.samples << ")";
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--list-metrics") {
            for (const Named &m : kEndToEnd)
                std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
            for (const Named &m : kPerLayer)
                std::cout << "per_layer " << m.name << " " << m.unit << "\n";
            return 0;
        }
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            return usage(("malformed argument " + key).c_str());
        args[key.substr(2)] = argv[++i];
    }
    for (const auto &[k, v] : args)
        if (k != "workload" && k != "seed" && k != "seconds" && k != "trace" &&
            k != "out")
            return usage(("unknown option --" + k).c_str());
    if (args.count("workload") == 0)
        return usage("--workload is required");

    perfbench::RunConfig base;
    char *end = nullptr;
    const std::string seed_text = args.count("seed") ? args["seed"] : "1";
    base.seed = std::strtoull(seed_text.c_str(), &end, 10);
    if (seed_text.empty() || *end != '\0' || seed_text[0] == '-')
        return usage("--seed must be a non-negative integer");
    const std::string secs_text = args.count("seconds") ? args["seconds"] : "25";
    base.seconds = std::strtod(secs_text.c_str(), &end);
    if (*end != '\0' || !(base.seconds > 0) || base.seconds > 600)
        return usage("--seconds must be in (0, 600]");
    const std::string trace_text = args.count("trace") ? args["trace"] : "0";
    if (trace_text != "0" && trace_text != "1")
        return usage("--trace must be 0 or 1");
    const bool trace = trace_text == "1";
    const std::string out = args.count("out") ? args["out"] : ".bench_out";

    std::vector<std::string> workloads;
    if (args["workload"] == "all") {
        workloads = perfbench::workloadNames();
    } else {
        for (const std::string &w : perfbench::workloadNames())
            if (w == args["workload"])
                workloads.push_back(w);
        if (workloads.empty())
            return usage(("unknown workload " + args["workload"]).c_str());
    }

    const perfbench::HostInfo host = perfbench::readHostInfo();
    std::cout << "host: " << host.logicalCpus << " logical CPUs, affinity "
              << host.affinityMask << " (" << host.affinityCpus << "), "
              << host.cpuModel << "\n";

    Printed printed;
    bool correct = true;
    try {
        for (const std::string &w : workloads) {
            perfbench::RunConfig rc = base;
            rc.workload = w;
            rc.outDir = out + "/" + w;
            const std::string prefix = workloads.size() > 1 ? w + "/" : "";
            perfbench::WorkloadResult result = perfbench::runWorkload(rc, nullptr);
            std::map<std::string, Metric> shown;
            std::vector<Named> names = kEndToEnd;
            if (trace) {
                const perfbench::WorkloadResult traced = tracedPass(rc, result, host);
                for (const auto &f : traced.failures)
                    result.failures.push_back("traced pass: " + f);
                result.tally.attempted += traced.tally.attempted;
                result.tally.failed += traced.tally.failed;
                shown = traced.perLayer;
                names = kPerLayer;
            } else {
                shown = result.endToEnd;
            }
            std::cout << "workload " << w << " (seed " << rc.seed << ", "
                      << number(rc.seconds) << " s window): steal share "
                      << number(result.stealShare) << ", cpu/wall "
                      << number(result.cpuPerWall) << "\n";
            for (const Named &n : names) {
                const auto it = shown.find(n.name);
                Metric m = it != shown.end() ? it->second : Metric{0.0, n.unit, 0};
                if (!std::isfinite(m.value)) {
                    result.failures.push_back(std::string(n.name) + " is not finite");
                    ++result.tally.attempted;
                    ++result.tally.failed;
                    m.value = 0.0;
                }
                m.unit = n.unit;
                printMetric(n.name, m);
                printed.metrics[prefix + n.name] = m;
            }
            if (!trace) {
                std::cout << "  reported, not gated:\n";
                for (const Named &n : kReported) {
                    const auto it = result.reported.find(n.name);
                    if (it != result.reported.end())
                        printMetric(n.name, it->second);
                }
            }
            std::cout << "  operations: " << result.tally.attempted << " attempted, "
                      << result.tally.failed << " failed (share "
                      << number(result.tally.failedShare()) << ")\n";
            for (const std::string &f : result.failures)
                std::cout << "  FAILED: " << f << "\n";
            printed.attempted += result.tally.attempted;
            printed.failed += result.tally.failed;
            correct = correct && result.failures.empty() && result.tally.failed == 0;
        }
    } catch (const std::exception &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << printed.attempted
              << ", \"failed\": " << printed.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : printed.metrics) {
        std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
                  << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
