/**
 * @file
 * session_churn — 4,096 in-process AlexNet sessions at 64 px under a
 * memory budget of about 60 % of their unconstrained footprint, with
 * LRU hibernation on. Set-up creates every session and runs its first
 * frame; a timed window then revisits sessions in a seeded order,
 * a bounded number of frames in flight, so most visits find their
 * session hibernated and must hydrate it while others are packed
 * away. One untimed pass precedes each window, and clips start at
 * staggered positions, so every pass a window times does the same
 * mix of work however far it gets. The CNN is tiny: session tables,
 * hibernate/hydrate and the RLE pack/unpack do the work.
 */
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>

#include "bench.h"
#include "cnn/model_zoo.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using eva2::Tensor;

constexpr i64 kSessions = 4096;
constexpr i64 kSize = 64;
/** Distinct camera clips; session i plays clip i % kProtos, looped. */
constexpr i64 kProtos = 256;
constexpr i64 kClip = 8;
constexpr i64 kInFlight = 8;
constexpr double kLimitMs = 33.0; ///< One 30 fps interval.

/**
 * The clip position of session frame k for clip p. Clip p starts at
 * position p % kClip, so a pass over the fleet shows every position
 * equally often and the scene cut at the end of a clip (which forces
 * a key frame) falls on a different pass for each clip.
 */
size_t
clip_pos(i64 p, i64 k)
{
    return static_cast<size_t>((k + p % kClip) % kClip);
}

eva2::EngineConfig
churn_config(const std::string &memory)
{
    eva2::EngineConfig c;
    c.policy = "adaptive_error:th=0.05,max_gap=8";
    c.pipeline_depth = 1; // One frame per visit: nothing to pipeline.
    c.num_threads = 4;
    c.memory = memory;
    return c;
}

std::unique_ptr<eva2::Network>
build_net()
{
    eva2::ScaledBuildOptions o;
    o.input = eva2::Shape{1, kSize, kSize};
    return std::make_unique<eva2::Network>(
        eva2::build_scaled(eva2::alexnet_spec(), o));
}

/**
 * The budget: 60 % of the fleet's unconstrained footprint, measured
 * as the mean resident bytes of a session after a whole clip (over
 * the first 64 clips), times the session count.
 */
i64
budget_mb(const eva2::Network &net,
          const std::vector<std::vector<Tensor>> &protos)
{
    constexpr i64 kProbe = 64;
    eva2::Engine engine(net, churn_config("budget_mb:1048576"));
    for (i64 p = 0; p < kProbe; ++p) {
        eva2::Session &s = engine.session("p" + std::to_string(p));
        for (const Tensor &f : protos[static_cast<size_t>(p)]) {
            s.submit(f);
        }
    }
    engine.flush();
    const i64 per =
        engine.resident_manager()->stats().resident_bytes / kProbe;
    return std::max<i64>(1, per * kSessions * 3 / 5 / (1024 * 1024));
}

/** The seeded revisit order: a fresh permutation every pass. */
class Order
{
  public:
    explicit Order(u64 seed) : seed_(seed) {}

    i64
    next()
    {
        if (pos_ == perm_.size()) {
            perm_.resize(static_cast<size_t>(kSessions));
            std::iota(perm_.begin(), perm_.end(), i64{0});
            eva2::Rng rng(seed_ ^ (0x9e3779b97f4a7c15ull *
                                   static_cast<u64>(++pass_)));
            for (size_t i = perm_.size() - 1; i > 0; --i) {
                std::swap(perm_[i], perm_[rng.next_u64() % (i + 1)]);
            }
            pos_ = 0;
        }
        return perm_[pos_++];
    }

  private:
    u64 seed_;
    u64 pass_ = 0;
    std::vector<i64> perm_;
    size_t pos_ = 0;
};

/** The fleet's serving stack; sinks log into members that outlive
 *  the engine. */
struct Stack
{
    OutcomeLog log{kSessions};
    InflightGate gate{kInFlight};
    std::vector<i64> counts = std::vector<i64>(kSessions, 0);
    std::unique_ptr<eva2::Network> net;
    std::unique_ptr<eva2::Engine> engine;
    std::vector<eva2::Session *> sessions;
};

struct SetupResult
{
    double seconds = 0.0;
    Samples open_ms;
    Samples first_ms;
    PhaseCount count;
};

/** Pass 0: create every session and run its first (cold) frame. */
SetupResult
setup(Stack &s, const std::vector<std::vector<Tensor>> &protos, i64 mb,
      Tracer &tracer)
{
    SetupResult r;
    const i64 root = tracer.new_id();
    const TimePoint t0 = Clock::now();
    s.net = build_net();
    const TimePoint t_net = Clock::now();
    tracer.record("setup.network", root, -1, t0, t_net);
    s.engine = std::make_unique<eva2::Engine>(
        *s.net,
        churn_config("budget_mb:" + std::to_string(mb) + ",hibernate=on"));
    std::vector<TimePoint> sent(kSessions);
    for (i64 i = 0; i < kSessions; ++i) {
        const TimePoint a = Clock::now();
        eva2::Session &session = s.engine->session("s" + std::to_string(i));
        const TimePoint b = Clock::now();
        tracer.record("api.session_open", root, i * 100000, a, b);
        r.open_ms.add(ms_between(a, b));
        session.set_outcome_sink(s.log.sink(i, &s.gate));
        s.sessions.push_back(&session);
        s.gate.acquire();
        sent[static_cast<size_t>(i)] = Clock::now();
        session.submit(protos[static_cast<size_t>(i % kProtos)]
                             [clip_pos(i % kProtos, 0)]);
        s.counts[static_cast<size_t>(i)] = 1;
    }
    s.engine->flush();
    s.log.wait_for(kSessions);
    for (i64 i = 0; i < kSessions; ++i) {
        const OutcomeLog::Entry &e = s.log.at(i, 0);
        const TimePoint at = sent[static_cast<size_t>(i)];
        tracer.record("api.first_frame", root, i * 100000, at, e.at);
        r.first_ms.add(ms_between(at, e.at));
        ++r.count.attempted;
        r.count.succeeded += e.outcome.failed ? 0 : 1;
        r.count.failed += e.outcome.failed ? 1 : 0;
    }
    const TimePoint t1 = Clock::now();
    tracer.record("setup", root, -1, -1, t0, t1);
    r.seconds = ms_between(t0, t1) / 1e3;
    return r;
}

/**
 * One untimed pass over the fleet in revisit order: it grows every
 * session to its steady footprint and pushes the fleet over budget,
 * so the window that follows times only passes that hydrate what
 * was evicted. Returns its frame count, so no lost frame vanishes.
 */
PhaseCount
warm_pass(Stack &s, Order &order,
          const std::function<const Tensor &(i64, i64)> &frame_of)
{
    std::vector<std::pair<i64, i64>> sent; ///< Session, frame.
    for (i64 v = 0; v < kSessions; ++v) {
        s.gate.acquire();
        const i64 i = order.next();
        const i64 k = s.counts[static_cast<size_t>(i)]++;
        s.sessions[static_cast<size_t>(i)]->submit(frame_of(i, k));
        sent.emplace_back(i, k);
    }
    s.engine->flush();
    s.log.wait_for(std::accumulate(s.counts.begin(), s.counts.end(), i64{0}));
    PhaseCount c;
    for (const auto &[i, k] : sent) {
        const bool failed = s.log.at(i, k).outcome.failed;
        ++c.attempted;
        c.succeeded += failed ? 0 : 1;
        c.failed += failed ? 1 : 0;
    }
    return c;
}

} // namespace

void
run_session_churn(const Args &args, Report &report)
{
    // Pre-quantized to the Q8.8 grid, so hibernation is lossless and
    // every session, evicted or not, must match the control.
    const std::vector<std::vector<Tensor>> protos =
        camera_streams(args.seed, kProtos, kClip, kSize, true);
    const i64 mb = budget_mb(*build_net(), protos);
    std::printf("session_churn: %lld sessions, %lld px AlexNet, budget "
                "%lld MB, %lld frames in flight\n",
                static_cast<long long>(kSessions),
                static_cast<long long>(kSize), static_cast<long long>(mb),
                static_cast<long long>(kInFlight));
    const auto frame_of = [&protos](i64 session, i64 k) -> const Tensor & {
        return protos[static_cast<size_t>(session % kProtos)]
                     [clip_pos(session % kProtos, k)];
    };
    // Each of kReps stacks is set up, warmed by one untimed pass and
    // measured over one window of measured_s / kReps; rates and medians
    // are the median over stacks (tails and shares pool the samples),
    // so one engine instance's luck does not set a run's figures. A
    // traced run gives half its time to one traced window on the last
    // stack.
    const double measured_s = args.trace ? args.seconds / 2.0 : args.seconds;
    warm_cores(1.0);
    Tracer tracer(args.trace);
    Tracer off(false);

    Samples setup_s;
    Samples open_ms;
    Samples first_ms;
    PhaseCount setup_total;
    setup_total.phase = "setup";
    PhaseCount warm_total;
    warm_total.phase = "untimed pass";
    std::vector<ClosedWindow> reps;
    /** Per stack: every session's frames run and digest. */
    std::vector<std::vector<std::pair<i64, u64>>> ends;
    std::unique_ptr<Stack> s;
    Order order(args.seed);
    const auto next = [&order] { return order.next(); };
    EngineDelta delta;
    eva2::MemoryStats memory;
    i64 evicted = 0;
    const auto finish = [&](Stack &stack) {
        std::vector<std::pair<i64, u64>> row;
        for (i64 i = 0; i < kSessions; ++i) {
            eva2::Session &session = *stack.sessions[static_cast<size_t>(i)];
            evicted += stack.engine->resident_manager()->hibernation_count(
                           session.index()) > 0
                           ? 1
                           : 0;
            row.emplace_back(stack.counts[static_cast<size_t>(i)],
                             session.report().digest);
        }
        ends.push_back(std::move(row));
    };
    for (i64 rep = 0; rep < kReps; ++rep) {
        if (s) {
            finish(*s);
        }
        s.reset();
        s = std::make_unique<Stack>();
        const SetupResult r = setup(*s, protos, mb, tracer);
        setup_s.add(r.seconds);
        open_ms.append(r.open_ms);
        first_ms.append(r.first_ms);
        setup_total.attempted += r.count.attempted;
        setup_total.succeeded += r.count.succeeded;
        setup_total.failed += r.count.failed;
        order = Order(args.seed * static_cast<u64>(kReps) +
                      static_cast<u64>(rep));
        const PhaseCount warm = warm_pass(*s, order, frame_of);
        warm_total.attempted += warm.attempted;
        warm_total.succeeded += warm.succeeded;
        warm_total.failed += warm.failed;
        const eva2::RunReport before = s->engine->report();
        reps.push_back(closed_window(
            "window " + std::to_string(rep + 1), *s->engine, s->sessions,
            s->log, s->gate, s->counts, measured_s / kReps, kLimitMs, 0, off,
            next, frame_of));
        const eva2::RunReport after = s->engine->report();
        delta = engine_delta(before, after);
        memory = after.memory;
        if (delta.hibernations <= 0 || delta.hydrations <= 0) {
            report.error("window " + std::to_string(rep + 1) +
                         " never exercised the hibernate tier (" +
                         std::to_string(delta.hibernations) +
                         " hibernations, " +
                         std::to_string(delta.hydrations) + " hydrations)");
        }
    }
    const double rss_mb = peak_rss_mb();
    report.phase(setup_total);
    report.phase(warm_total);
    for (const ClosedWindow &w : reps) {
        report.phase(w.count);
    }
    ClosedWindow traced;
    if (args.trace) {
        traced = closed_window("window (traced)", *s->engine, s->sessions,
                               s->log, s->gate, s->counts, measured_s,
                               kLimitMs, 0, tracer, next, frame_of);
        report.phase(traced.count);
    }
    finish(*s);

    // Output check: every session of every repetition, hibernated or
    // not, against a memory=off serial control over the same frames.
    std::vector<i64> lengths(kProtos, 0);
    for (const auto &row : ends) {
        for (i64 i = 0; i < kSessions; ++i) {
            i64 &len = lengths[static_cast<size_t>(i % kProtos)];
            len = std::max(len, row[static_cast<size_t>(i)].first);
        }
    }
    const std::vector<std::vector<u64>> ref = reference_chains(
        *s->net, churn_config("off"), lengths,
        [&protos](i64 p, i64 k) -> const Tensor & {
            return protos[static_cast<size_t>(p)][clip_pos(p, k)];
        });
    i64 mismatches = 0;
    for (const auto &row : ends) {
        for (i64 i = 0; i < kSessions; ++i) {
            const auto &[count, digest] = row[static_cast<size_t>(i)];
            mismatches += digest != ref[static_cast<size_t>(i % kProtos)]
                                       [static_cast<size_t>(count)]
                              ? 1
                              : 0;
        }
    }
    if (mismatches > 0) {
        report.error(std::to_string(mismatches) +
                     " session digests differ from the memory=off "
                     "control");
    }
    report.note(std::to_string(evicted) +
                " checked sessions had been hibernated at least once");
    const std::vector<std::vector<i64>> key_ref =
        key_top1(*s->net, churn_config("off"), protos, 4);
    i64 agree = 0;
    for (const ClosedWindow &w : reps) {
        for (const ClosedRec &r : w.recs) {
            agree +=
                !r.outcome.failed &&
                        r.outcome.top1 ==
                            key_ref[static_cast<size_t>(r.session % kProtos)]
                                   [clip_pos(r.session % kProtos, r.k)]
                    ? 1
                    : 0;
        }
    }

    if (!args.trace) {
        // Frames lost in the untimed passes count against ok_frac too.
        PhaseCount untimed = setup_total;
        untimed.attempted += warm_total.attempted;
        untimed.failed += warm_total.failed;
        closed_e2e(report, reps, untimed, agree, setup_s.median(), rss_mb,
                   memory);
        return;
    }
    std::vector<Tensor> probe_in;
    for (i64 k = 0; k < 32; ++k) {
        probe_in.push_back(protos[0][static_cast<size_t>(k % kClip)]);
    }
    const NetProbe probe = net_probe(
        *s->net,
        churn_config("budget_mb:" + std::to_string(mb) + ",hibernate=on"),
        probe_in, tracer);
    StageSpans spans(tracer);
    const ReplayResult replay = serial_replay(
        *s->net, churn_config("off"),
        {&protos[0], &protos[1], &protos[2], &protos[3]}, 2 * kClip, spans,
        tracer);
    closed_layers(report, reps, traced, probe, open_ms, first_ms, tracer);
    layer_metrics(report, replay, delta, memory, tracer, args);
}

} // namespace perfbench
