/**
 * @file
 * The benchmark's workloads. Each fills `report` with the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run) and
 * the output-check verdict.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "bench.h"

namespace perfbench {

void run_fleet_open(const Args &args, Report &report);
void run_single_stream(const Args &args, Report &report);
void run_session_churn(const Args &args, Report &report);

/**
 * Fill the end-to-end metrics of an in-process closed loop measured
 * as `reps` windows, one per freshly set-up stack.
 */
void closed_e2e(Report &report, const std::vector<ClosedWindow> &reps,
                const PhaseCount &setup, i64 agree, double setup_s,
                double rss_mb, const eva2::MemoryStats &memory);

/**
 * Fill the workload-side per-layer metrics of an in-process closed
 * loop: the untraced windows `reps`, the `traced` window, the probe.
 */
void closed_layers(Report &report, const std::vector<ClosedWindow> &reps,
                   const ClosedWindow &traced, const NetProbe &probe,
                   const Samples &open_ms, const Samples &first_ms,
                   Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
