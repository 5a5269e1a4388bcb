/**
 * @file
 * single_stream — one Faster16 camera at 128 px, in process, closed
 * loop with as many frames in flight as the pipeline is deep. Key
 * frames dominate its time, so it is bound by the CNN prefix, and
 * only intra-op parallelism can put more than one core to work. The
 * TCP front end, the suffix batcher and the memory tier's eviction
 * are not on its path.
 */
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "cnn/model_zoo.h"
#include "workloads.h"

namespace perfbench {

namespace {

using eva2::Tensor;

constexpr i64 kSize = 128;
constexpr i64 kInFlight = 3; ///< The pipeline depth.
/**
 * The camera's clip: two scenes of each kind the generator has
 * (objects, pan, occlusion, static, chaotic), cut together and
 * looped, so every seed sees the same mix of motion; rates are taken
 * over whole loops.
 */
constexpr i64 kScenes = 10;
constexpr i64 kSceneFrames = 12;
constexpr i64 kClip = kScenes * kSceneFrames;
/** Three 30 fps intervals: the depth-3 pipeline's budget. */
constexpr double kLimitMs = 100.0;

eva2::EngineConfig
single_config()
{
    eva2::EngineConfig c;
    c.policy = "adaptive_error:th=0.05,max_gap=8";
    c.pipeline_depth = kInFlight;
    c.num_threads = 4;
    c.memory = "budget_mb:1048576"; // Tracking only (see fleet_open).
    return c;
}

/** One camera's serving stack. Sinks log into members that outlive
 *  the engine. */
struct Stack
{
    OutcomeLog log{1};
    InflightGate gate{kInFlight};
    std::vector<i64> counts{0};
    std::unique_ptr<eva2::Network> net;
    std::unique_ptr<eva2::Engine> engine;
    std::vector<eva2::Session *> sessions;
};

struct SetupResult
{
    double seconds = 0.0;
    double open_ms = 0.0;
    double first_ms = 0.0;
    PhaseCount count;
};

SetupResult
setup(Stack &s, const std::vector<Tensor> &clip, Tracer &tracer)
{
    SetupResult r;
    const i64 root = tracer.new_id();
    const TimePoint t0 = Clock::now();
    eva2::ScaledBuildOptions o;
    o.input = eva2::Shape{1, kSize, kSize};
    s.net = std::make_unique<eva2::Network>(
        eva2::build_scaled(eva2::faster16_spec(), o));
    const TimePoint t_net = Clock::now();
    tracer.record("setup.network", root, -1, t0, t_net);
    s.engine = std::make_unique<eva2::Engine>(*s.net, single_config());
    const TimePoint a = Clock::now();
    eva2::Session &session = s.engine->session("cam0");
    const TimePoint b = Clock::now();
    tracer.record("api.session_open", root, 0, a, b);
    r.open_ms = ms_between(a, b);
    session.set_outcome_sink(s.log.sink(0, &s.gate));
    s.sessions.push_back(&session);
    s.gate.acquire();
    const TimePoint sent = Clock::now();
    session.submit(clip[0]);
    s.counts[0] = 1;
    s.log.wait_for(1);
    const OutcomeLog::Entry &e = s.log.at(0, 0);
    tracer.record("api.first_frame", root, 0, sent, e.at);
    r.first_ms = ms_between(sent, e.at);
    r.count.attempted = 1;
    r.count.succeeded = e.outcome.failed ? 0 : 1;
    r.count.failed = e.outcome.failed ? 1 : 0;
    const TimePoint t1 = Clock::now();
    tracer.record("setup", root, -1, -1, t0, t1);
    r.seconds = ms_between(t0, t1) / 1e3;
    return r;
}

} // namespace

void
run_single_stream(const Args &args, Report &report)
{
    std::vector<std::vector<Tensor>> clip(1);
    for (std::vector<Tensor> &scene :
         camera_streams(args.seed, kScenes, kSceneFrames, kSize, false)) {
        clip[0].insert(clip[0].end(), scene.begin(), scene.end());
    }
    std::printf("single_stream: 1 camera, %lld px Faster16, %lld frames "
                "in flight, %lld-frame clip\n",
                static_cast<long long>(kSize),
                static_cast<long long>(kInFlight),
                static_cast<long long>(kClip));
    const auto next = [] { return i64{0}; };
    const auto frame_of = [&clip](i64, i64 k) -> const Tensor & {
        return clip[0][static_cast<size_t>(k % kClip)];
    };
    // A traced run gives half its time to the untraced repetitions
    // and half to one traced window on the last stack.
    const double measured_s = args.trace ? args.seconds / 2.0 : args.seconds;
    warm_cores(1.0);
    Tracer tracer(args.trace);
    Tracer off(false);

    Samples setup_s;
    Samples open_ms;
    Samples first_ms;
    PhaseCount setup_total;
    setup_total.phase = "setup";
    std::vector<ClosedWindow> reps;
    std::vector<std::pair<i64, u64>> ends; ///< Frames run, digest.
    std::unique_ptr<Stack> s;
    EngineDelta delta;
    eva2::MemoryStats memory;
    for (i64 rep = 0; rep < kReps; ++rep) {
        s.reset();
        s = std::make_unique<Stack>();
        const SetupResult r = setup(*s, clip[0], tracer);
        setup_s.add(r.seconds);
        open_ms.add(r.open_ms);
        first_ms.add(r.first_ms);
        setup_total.attempted += r.count.attempted;
        setup_total.succeeded += r.count.succeeded;
        setup_total.failed += r.count.failed;
        const eva2::RunReport before = s->engine->report();
        reps.push_back(closed_window(
            "window " + std::to_string(rep + 1), *s->engine, s->sessions,
            s->log, s->gate, s->counts, measured_s / kReps, kLimitMs, kClip,
            off, next, frame_of));
        const eva2::RunReport after = s->engine->report();
        delta = engine_delta(before, after);
        memory = after.memory;
        ends.emplace_back(s->counts[0], s->sessions[0]->report().digest);
    }
    const double rss_mb = peak_rss_mb();
    report.phase(setup_total);
    for (const ClosedWindow &w : reps) {
        report.phase(w.count);
    }
    ClosedWindow traced;
    if (args.trace) {
        traced = closed_window("window (traced)", *s->engine, s->sessions,
                               s->log, s->gate, s->counts, measured_s,
                               kLimitMs, kClip, tracer, next, frame_of);
        report.phase(traced.count);
        ends.emplace_back(s->counts[0], s->sessions[0]->report().digest);
    }

    // Output check: every stack's chained digest against the serial
    // reference over the same frames.
    i64 longest = 0;
    for (const auto &[count, digest] : ends) {
        longest = std::max(longest, count);
    }
    const std::vector<std::vector<u64>> ref =
        reference_chains(*s->net, single_config(), {longest}, frame_of);
    for (const auto &[count, digest] : ends) {
        if (digest != ref[0][static_cast<size_t>(count)]) {
            report.error("chained digest after " + std::to_string(count) +
                         " frames differs from the serial reference");
        }
    }
    const std::vector<std::vector<i64>> key_ref =
        key_top1(*s->net, single_config(), clip, 4);
    i64 agree = 0;
    for (const ClosedWindow &w : reps) {
        for (const ClosedRec &r : w.recs) {
            agree += !r.outcome.failed &&
                             r.outcome.top1 ==
                                 key_ref[0][static_cast<size_t>(r.k % kClip)]
                         ? 1
                         : 0;
        }
    }

    if (!args.trace) {
        closed_e2e(report, reps, setup_total, agree, setup_s.median(),
                   rss_mb, memory);
        return;
    }
    const std::vector<Tensor> probe_in(clip[0].begin(),
                                       clip[0].begin() + 32);
    const NetProbe probe =
        net_probe(*s->net, single_config(), probe_in, tracer);
    StageSpans spans(tracer);
    const ReplayResult replay = serial_replay(
        *s->net, single_config(), {&clip[0]}, 2 * kClip, spans, tracer);
    closed_layers(report, reps, traced, probe, open_ms, first_ms, tracer);
    layer_metrics(report, replay, delta, memory, tracer, args);
}

} // namespace perfbench
