/**
 * @file
 * Metrics shared by the two in-process closed-loop workloads
 * (single_stream, session_churn).
 */
#include <algorithm>
#include <string>

#include "workloads.h"

namespace perfbench {

namespace {

/** Median over repetitions of one per-window figure. */
template <typename Fn>
double
rep_median(const std::vector<ClosedWindow> &reps, Fn fn)
{
    Samples s;
    for (const ClosedWindow &w : reps) {
        s.add(fn(w));
    }
    return s.median();
}

} // namespace

void
closed_e2e(Report &report, const std::vector<ClosedWindow> &reps,
           const PhaseCount &setup, i64 agree, double setup_s, double rss_mb,
           const eva2::MemoryStats &memory)
{
    i64 attempted = setup.attempted;
    i64 lost = setup.shed + setup.failed;
    i64 met = 0;
    i64 measured = 0;
    i64 succeeded = 0;
    Samples latency;
    Samples late;
    for (const ClosedWindow &w : reps) {
        attempted += w.count.attempted;
        lost += w.count.shed + w.count.failed;
        met += w.met;
        measured += w.measured;
        succeeded += w.count.succeeded;
        latency.append(w.latency_ms);
        late.append(w.late_ms);
    }
    const double failed_frac =
        static_cast<double>(lost) / static_cast<double>(attempted);
    const double met_frac =
        static_cast<double>(met) / static_cast<double>(measured);
    double used = 0.0;
    report.metric("fps", rep_median(reps, [](const ClosedWindow &w) {
                      return w.fps;
                  }),
                  "1/s");
    report.metric("frame_p50_ms",
                  rep_median(reps,
                             [](const ClosedWindow &w) {
                                 return w.latency_ms.median();
                             }),
                  "ms");
    report.metric("frame_p99_ms", latency.tail(0.99, &used), "ms");
    report.metric("ok_frac", 1.0 - failed_frac, "frac");
    report.metric("deadline_met_frac", met_frac, "frac");
    report.metric("top1_agreement",
                  static_cast<double>(agree) /
                      static_cast<double>(std::max<i64>(succeeded, 1)),
                  "frac");
    report.metric("bytes_per_session", memory.bytes_per_session(), "bytes");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("setup_s", setup_s, "s");
    report.note("frame_p99_ms is the p" + std::to_string(used * 100.0) +
                " of " + std::to_string(latency.size()) + " frames");
    report.note("failed_frac " + std::to_string(failed_frac) +
                ", deadline_miss_frac " + std::to_string(1.0 - met_frac));
    report.note("gen_late_ms p99 " + std::to_string(late.tail(0.99)) +
                ", max " + std::to_string(late.max()) +
                "; runtime.cores_busy " +
                std::to_string(rep_median(reps, [](const ClosedWindow &w) {
                    return w.cpu_s / w.wall_s;
                })));
}

void
closed_layers(Report &report, const std::vector<ClosedWindow> &reps,
              const ClosedWindow &traced, const NetProbe &probe,
              const Samples &open_ms, const Samples &first_ms,
              Tracer &tracer)
{
    report.metric("net.overhead_p50_ms",
                  probe.tcp_ms.median() - probe.inproc_ms.median(), "ms");
    report.metric("net.send_us_p50",
                  tracer.durations_ms("net.send").median() * 1e3, "us");
    report.metric("net.shed_frames", static_cast<double>(probe.shed),
                  "count");
    report.metric("net.bytes_per_frame", probe.bytes_per_frame, "bytes");
    const Samples submit = tracer.durations_ms("api.submit");
    report.metric("api.submit_us_p50", submit.median() * 1e3, "us");
    report.metric("api.submit_us_p99", submit.tail(0.99) * 1e3, "us");
    report.metric("api.first_frame_ms_max", first_ms.max(), "ms");
    report.metric("api.session_open_ms_p50", open_ms.median(), "ms");
    report.metric("runtime.cores_busy",
                  rep_median(reps,
                             [](const ClosedWindow &w) {
                                 return w.cpu_s / w.wall_s;
                             }),
                  "cores");
    const double fps = rep_median(reps, [](const ClosedWindow &w) {
        return w.fps;
    });
    report.metric("trace.overhead_frac", fps / traced.fps - 1.0, "frac");
    Samples late = traced.late_ms;
    for (const ClosedWindow &w : reps) {
        late.append(w.late_ms);
    }
    report.metric("gen_late_ms_p99", late.tail(0.99), "ms");
    report.metric("gen_late_ms_max", late.max(), "ms");
}

} // namespace perfbench
