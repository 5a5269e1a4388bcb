/**
 * @file
 * Shared pieces of the repo benchmark: sample statistics, the run
 * report, span tracing, completion logging for in-process sessions,
 * the closed-loop in-flight gate, input generation, and the serial
 * references every workload checks its outputs against.
 *
 * The benchmark drives the library only through its public entry
 * points (net::Client/Server, Engine/Session, FramePlan); nothing
 * here reaches into src/ internals.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <array>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.h"
#include "cnn/network.h"
#include "core/instrumentation.h"
#include "util/common.h"

namespace perfbench {

using eva2::i64;
using eva2::u64;
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/** Milliseconds from a to b. */
double ms_between(TimePoint a, TimePoint b);

/** Command-line arguments shared by every workload. */
struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out; ///< Chrome trace_event file (traced runs).
};

/**
 * Repetitions per run: each builds the workload's serving stack from
 * scratch (set-up, timed) and then measures a window of
 * seconds / kReps on it. A run reports the median over repetitions of
 * its times and rates, so one slow stack or one noisy stretch of the
 * machine does not move the run's figure.
 */
constexpr i64 kReps = 5;

/** A bag of samples with the benchmark's percentile rule. */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    void append(const Samples &o);
    i64 size() const { return static_cast<i64>(v_.size()); }
    double median() const;
    double max() const;
    double mean() const;
    /**
     * Nearest-rank percentile p (0..1), lowered until at least ten
     * samples lie beyond it; `used` receives the percentile taken.
     */
    double tail(double p, double *used = nullptr) const;

  private:
    double rank(double p) const;

    std::vector<double> v_;
};

/**
 * Keep every core busy for `seconds`. An idle virtual machine can
 * take about a second to run all its cores at full speed again; this
 * runs before set-up so that ramp does not land in a timed phase.
 */
void warm_cores(double seconds);

/** Process CPU seconds (user + system) from getrusage. */
double cpu_seconds();

/** Peak resident set size of this process in MB (getrusage). */
double peak_rss_mb();

/** Frames attempted/succeeded/shed/failed in one phase of a run. */
struct PhaseCount
{
    std::string phase;
    i64 attempted = 0;
    i64 succeeded = 0;
    i64 shed = 0;
    i64 failed = 0; ///< Failed, or unverifiable (see README).
};

/** One run's outcome: checks, frame accounting, named metrics. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void phase(const PhaseCount &count);
    /** Record an output-check failure (the run is not correct). */
    void error(const std::string &what);
    /** A human-readable note printed with the summary. */
    void note(const std::string &what);

    bool correct() const { return errors_.empty(); }

    /**
     * Print the human-readable summary, then the result line with
     * the metrics named in `names` (all must be present).
     */
    void print(const std::vector<std::string> &names) const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::vector<std::string> order_;
    std::map<std::string, Value> metrics_;
    std::vector<PhaseCount> phases_;
    std::vector<std::string> errors_;
    std::vector<std::string> notes_;
};

// ---------------------------------------------------------------------
// Tracing.

/**
 * In-memory span recorder. A span has a name, start, end, parent and
 * the frame id it belongs to; spans are written at exit as Chrome
 * trace_event JSON. Disabled tracers record nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool on() const { return enabled_; }

    /** A fresh span id (for a parent recorded after its children). */
    i64 new_id();

    /** Record a finished span under a caller-chosen id. */
    void record(const char *name, i64 id, i64 parent, i64 frame,
                TimePoint start, TimePoint end);

    /** Record a finished span; returns its id (-1 when off). */
    i64 record(const char *name, i64 parent, i64 frame, TimePoint start,
               TimePoint end);

    /** Durations (ms) of every span called `name`. */
    Samples durations_ms(const std::string &name) const;

    /** Self time per span name: total ms and span count. */
    std::map<std::string, std::pair<double, i64>> self_times() const;

    /** Write every span as Chrome trace_event JSON. */
    bool write_chrome(const std::string &path) const;

    i64 span_count() const;

  private:
    struct Span
    {
        const char *name;
        i64 id;
        i64 parent;
        i64 frame;
        TimePoint start;
        TimePoint end;
        i64 tid;
    };

    /** Per-span self time in ms, indexed like spans_. */
    std::vector<double> self_ms_locked() const;

    bool enabled_;
    const TimePoint epoch_ = Clock::now();
    mutable std::mutex mutex_;
    i64 next_id_ = 0;
    std::vector<Span> spans_;
};

/**
 * The benchmark's AmcObserver: turns each FramePlan stage callback
 * into a child span of the current frame span and keeps per-stage
 * durations. Used only by the single-threaded serial replay.
 */
class StageSpans : public eva2::AmcObserver
{
  public:
    explicit StageSpans(Tracer &tracer) : tracer_(tracer) {}

    void on_stage(eva2::AmcStage stage, double ms) override;

    /** Start a frame: later stage spans become its children. */
    void begin_frame(i64 frame_id, i64 span_id);

    const Samples &stage(eva2::AmcStage s) const
    {
        return stage_ms_[static_cast<size_t>(s)];
    }

  private:
    Tracer &tracer_;
    i64 frame_ = -1;
    i64 parent_ = -1;
    std::array<Samples, eva2::kNumAmcStages> stage_ms_;
};

// ---------------------------------------------------------------------
// In-process completion logging and the closed-loop gate.

/**
 * Closed-loop admission: at most `limit` frames in flight. acquire()
 * returns the time the taken slot became free, so submit time minus
 * that is the generator's lateness.
 */
class InflightGate
{
  public:
    explicit InflightGate(i64 limit) : limit_(limit) {}
    TimePoint acquire();
    void release();

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    i64 limit_;
    i64 in_flight_ = 0;
    std::vector<TimePoint> freed_; ///< FIFO of release times.
    size_t freed_head_ = 0;
};

/**
 * Completion times and outcomes of in-process sessions, filled by
 * Session outcome sinks at commit time, so a frame's completion is
 * timed when it happens, not when the generator gets round to it.
 */
class OutcomeLog
{
  public:
    struct Entry
    {
        TimePoint at;
        eva2::FrameOutcome outcome;
    };

    explicit OutcomeLog(i64 sessions) : entries_(sessions) {}

    /** A sink for session `index`; releases `gate` when non-null. */
    eva2::Session::OutcomeSink sink(i64 index, InflightGate *gate);

    /** Block until `total` outcomes have been logged. */
    void wait_for(i64 total);

    /** Entry of frame `frame` of session `index` (after wait_for). */
    const Entry &at(i64 index, i64 frame) const;

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    i64 count_ = 0;
    std::vector<std::vector<Entry>> entries_;
};

/** One frame of an in-process closed-loop window. */
struct ClosedRec
{
    i64 session = 0;
    i64 k = 0; ///< Frame number within the session.
    TimePoint due;  ///< When its in-flight slot became free.
    TimePoint sent; ///< Session::submit called.
    TimePoint done;
    i64 span = -1;
    eva2::FrameOutcome outcome;
};

/** What a closed-loop window's frames add up to. */
struct ClosedWindow
{
    PhaseCount count;
    std::vector<ClosedRec> recs;
    i64 measured = 0;   ///< Frames the rates below are taken over.
    Samples latency_ms; ///< Submit to outcome, successful frames.
    Samples late_ms;    ///< Slot free to submit (generator lateness).
    i64 met = 0;        ///< Within the workload's latency limit.
    double fps = 0.0;
    double cpu_s = 0.0;
    double wall_s = 0.0;
};

/**
 * Drive in-process sessions in a closed loop for `seconds`: take an
 * in-flight slot, ask `next` for the session, submit that session's
 * next frame (`frame_of(session, k)`), and repeat. `counts` holds
 * each session's frames so far; the sessions' sinks must log to
 * `log` and release `gate`. With `period` > 0 (a looped clip of that
 * many frames) rates and latencies are taken over the whole loops
 * inside the window.
 */
ClosedWindow
closed_window(const std::string &phase, eva2::Engine &engine,
              const std::vector<eva2::Session *> &sessions, OutcomeLog &log,
              InflightGate &gate, std::vector<i64> &counts, double seconds,
              double limit_ms, i64 period, Tracer &tracer,
              const std::function<i64()> &next,
              const std::function<const eva2::Tensor &(i64, i64)> &frame_of);

// ---------------------------------------------------------------------
// Inputs and references.

/**
 * `count` camera streams of `frames` frames at `size` px, from the
 * workload seed alone (video::multi_stream_set); `q88` snaps them to
 * the Q8.8 grid, which makes hibernation lossless.
 */
std::vector<std::vector<eva2::Tensor>>
camera_streams(u64 seed, i64 count, i64 frames, i64 size, bool q88);

/** The configuration of the serial reference: 1 thread, depth 1. */
eva2::EngineConfig serial_config(eva2::EngineConfig config);

/**
 * Chained digests of a serial reference run: out[s][n] is stream s's
 * chain after its first n frames (out[s][0] = seed), where frame k of
 * stream s is frame_of(s, k) and stream s runs lengths[s] frames.
 */
std::vector<std::vector<u64>>
reference_chains(const eva2::Network &net, const eva2::EngineConfig &config,
                 const std::vector<i64> &lengths,
                 const std::function<const eva2::Tensor &(i64, i64)> &frame_of);

/**
 * Top-1 of every frame run as a key frame (the every-frame-key
 * reference): out[s][k] for streams[s][k]. Frames are independent,
 * so this runs on `threads` threads.
 */
std::vector<std::vector<i64>>
key_top1(const eva2::Network &net, const eva2::EngineConfig &config,
         const std::vector<std::vector<eva2::Tensor>> &streams,
         i64 threads);

// ---------------------------------------------------------------------
// Layer measurements of a traced run.

/** What the serial FramePlan replay measured. */
struct ReplayResult
{
    StageSpans *spans = nullptr;
    i64 frames = 0;
    i64 key_frames = 0;
    Samples key_frame_ms;
    Samples pred_frame_ms;
    Samples key_bytes;  ///< Stored key activation bytes.
    Samples hydrate_us; ///< Plan hibernate → hydrate cycles.
    double prefix_macs = 0.0;
};

/**
 * Serially replay `frames` frames of each given stream through a
 * standalone FramePlan with the benchmark's observer. `spans` must
 * outlive the result.
 */
ReplayResult serial_replay(const eva2::Network &net,
                           const eva2::EngineConfig &config,
                           const std::vector<const std::vector<eva2::Tensor> *>
                               &streams,
                           i64 frames, StageSpans &spans, Tracer &tracer);

/** One-frame-at-a-time loopback TCP versus in-process comparison. */
struct NetProbe
{
    Samples tcp_ms;
    Samples inproc_ms;
    double bytes_per_frame = 0.0;
    i64 shed = 0;
};

/**
 * Send `frames` one at a time through a loopback net::Server and,
 * separately, through Session::submit on a fresh engine of the same
 * configuration; spans net.send and api.submit are recorded.
 */
NetProbe net_probe(const eva2::Network &net,
                   const eva2::EngineConfig &config,
                   const std::vector<eva2::Tensor> &frames, Tracer &tracer);

/** Engine counters between two report() snapshots. */
struct EngineDelta
{
    i64 frames = 0;
    i64 key_frames = 0;
    i64 me_add_ops = 0;
    double suffix_mean_ms = 0.0;
    double me_mean_ms = 0.0;
    double batch_mean = 1.0;
    i64 hibernations = 0;
    i64 hydrations = 0;
};

EngineDelta engine_delta(const eva2::RunReport &before,
                         const eva2::RunReport &after);

/**
 * Fill the per-layer metrics every workload derives the same way:
 * the replay's core/flow/cnn/sparse rows, stage inflation, engine
 * counters, and the trace file with a self-time table.
 */
void layer_metrics(Report &report, const ReplayResult &replay,
                   const EngineDelta &delta,
                   const eva2::MemoryStats &memory, Tracer &tracer,
                   const Args &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
