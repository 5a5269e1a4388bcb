/**
 * @file
 * eva2_perfbench — the repo benchmark program.
 *
 *   eva2_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out PATH]
 *
 * Runs one workload, checks its outputs against serial references,
 * and prints a human-readable summary followed by one JSON result
 * line: the end-to-end metrics (--trace 0) or the per-layer metrics
 * of a traced run (--trace 1, which also writes PATH as Chrome
 * trace_event JSON). Exits 1 when an output check fails.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

/** The end-to-end metrics every untraced run prints. */
const std::vector<std::string> kEndToEnd = {
    "fps",          "frame_p50_ms",      "frame_p99_ms",
    "ok_frac",      "deadline_met_frac", "top1_agreement",
    "bytes_per_session", "peak_rss_mb",  "setup_s",
};

/** The per-layer metrics every traced run prints. */
const std::vector<std::string> kPerLayer = {
    "net.overhead_p50_ms",
    "net.send_us_p50",
    "net.shed_frames",
    "net.bytes_per_frame",
    "api.submit_us_p50",
    "api.submit_us_p99",
    "api.first_frame_ms_max",
    "api.session_open_ms_p50",
    "runtime.cores_busy",
    "runtime.stage_inflation.suffix",
    "runtime.stage_inflation.motion_estimation",
    "runtime.batch_mean",
    "runtime.hibernations_per_frame",
    "runtime.hydrations_per_frame",
    "runtime.hydrate_p99_us",
    "runtime.resident_peak_mb",
    "core.key_frac",
    "core.pred_over_key",
    "core.warp_ms_p50",
    "flow.rfbme_ms_p50",
    "flow.add_ops_per_frame",
    "cnn.prefix_ms_p50",
    "cnn.prefix_gmacs_per_s",
    "cnn.suffix_ms_p50",
    "sparse.encode_ms_p50",
    "sparse.key_bytes",
    "trace.overhead_frac",
    "gen_late_ms_p99",
    "gen_late_ms_max",
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "eva2_perfbench: %s\nusage: eva2_perfbench --workload "
                 "fleet_open|single_stream|session_churn --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n",
                 why.c_str());
    std::exit(2);
}

perfbench::Args
parse(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            usage("missing value after " + a);
        }
        const std::string v = argv[++i];
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::atof(v.c_str());
        } else if (a == "--trace") {
            args.trace = v == "1";
        } else if (a == "--trace-out") {
            args.trace_out = v;
        } else {
            usage("unknown argument " + a);
        }
    }
    if (args.seconds < 1.0) {
        usage("--seconds must be at least 1");
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Args args = parse(argc, argv);
    perfbench::Report report;
    try {
        if (args.workload == "fleet_open") {
            perfbench::run_fleet_open(args, report);
        } else if (args.workload == "single_stream") {
            perfbench::run_single_stream(args, report);
        } else if (args.workload == "session_churn") {
            perfbench::run_session_churn(args, report);
        } else {
            usage("unknown workload '" + args.workload + "'");
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "eva2_perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 2;
    }
    report.print(args.trace ? kPerLayer : kEndToEnd);
    return report.correct() ? 0 : 1;
}
