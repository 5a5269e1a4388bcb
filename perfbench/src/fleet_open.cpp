/**
 * @file
 * fleet_open — the production shape: an open loop of camera frames
 * over loopback TCP. Sixteen FasterM sessions at 128 px send on a
 * fixed, phase-staggered schedule regardless of completions; each
 * frame is timed from the moment it was due, so a stall counts
 * against every frame queued behind it.
 *
 * One sender thread issues frames at their due times; one collector
 * thread polls every session's answer counters and stamps each
 * completion as it is observed, so no session's slow frame delays
 * the timing of another's (no head-of-line bias).
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>

#include "bench.h"
#include "cnn/model_zoo.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/stream_executor.h"
#include "workloads.h"

namespace perfbench {

namespace {

using eva2::Tensor;

constexpr i64 kCameras = 16;
/**
 * Per-camera rate. 16 × 5 fps = 80 frames/s offered, about 35 % of
 * the fleet's closed-loop in-process capacity on a 4-core x86 box
 * (README.md, "Sizes").
 */
constexpr double kCameraFps = 5.0;
constexpr i64 kSize = 128;
constexpr double kDeadlineMs = 33.0; ///< One 30 fps interval.
constexpr i64 kConnections = 2;

eva2::EngineConfig
fleet_config()
{
    eva2::EngineConfig c;
    c.policy = "adaptive_error:th=0.05,max_gap=8";
    c.batch = "auto";
    c.pipeline_depth = 3;
    c.num_threads = 4;
    // Tracking only: a budget no fleet reaches, so bytes per session
    // are counted without hibernation or memory shedding.
    c.memory = "budget_mb:1048576";
    return c;
}

std::unique_ptr<eva2::Network>
build_net()
{
    eva2::ScaledBuildOptions o;
    o.input = eva2::Shape{1, kSize, kSize};
    return std::make_unique<eva2::Network>(
        eva2::build_scaled(eva2::fasterm_spec(), o));
}

double
interval_ms()
{
    return 1000.0 / kCameraFps;
}

/** Frames per camera in a window of `seconds`. */
i64
window_frames(double seconds)
{
    return static_cast<i64>(seconds * kCameraFps);
}

/** One scheduled frame and what became of it. */
struct FrameRec
{
    i64 cam = 0;
    i64 k = 0; ///< Frame index in the camera's stream.
    TimePoint due;
    TimePoint sent;
    TimePoint done;
    u64 seq = 0;
    i64 span = -1;
    bool shed = false;
    bool failed = false;
    i64 top1 = -1;
};

/**
 * Camera c's window frames j = 0..n-1 are due at
 * t0 + (j + c / kCameras) * interval: the fleet's phases are spread
 * evenly, so the offered load is smooth rather than 16-frame bursts.
 */
std::vector<FrameRec>
schedule(TimePoint t0, double seconds, i64 first_k)
{
    std::vector<FrameRec> out;
    const i64 n = window_frames(seconds);
    for (i64 j = 0; j < n; ++j) {
        for (i64 c = 0; c < kCameras; ++c) {
            FrameRec r;
            r.cam = c;
            r.k = first_k + j;
            r.due = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 (static_cast<double>(j) +
                                  static_cast<double>(c) / kCameras) *
                                 interval_ms()));
            out.push_back(r);
        }
    }
    return out;
}

/** What a window's frames add up to. */
struct WindowStats
{
    PhaseCount count;
    Samples latency_ms; ///< Due to completion, successful frames.
    Samples late_ms;    ///< Generator lateness.
    i64 met = 0;
    double fps = 0.0;
    double cpu_s = 0.0;
    double wall_s = 0.0;
};

WindowStats
summarize(const std::string &phase, const std::vector<FrameRec> &recs,
          TimePoint t0, double cpu_s)
{
    WindowStats w;
    w.count.phase = phase;
    TimePoint last = t0;
    for (const FrameRec &r : recs) {
        ++w.count.attempted;
        w.late_ms.add(ms_between(r.due, r.sent));
        if (r.shed) {
            ++w.count.shed;
            continue;
        }
        if (r.failed) {
            ++w.count.failed;
            continue;
        }
        ++w.count.succeeded;
        const double lat = ms_between(r.due, r.done);
        w.latency_ms.add(lat);
        w.met += lat <= kDeadlineMs ? 1 : 0;
        last = std::max(last, r.done);
    }
    w.wall_s = ms_between(t0, last) / 1e3;
    w.fps = static_cast<double>(w.count.succeeded) / w.wall_s;
    w.cpu_s = cpu_s;
    return w;
}

/** Record a window's frame spans (frame ← net.send / api.submit). */
void
frame_spans(Tracer &tracer, const std::vector<FrameRec> &recs)
{
    for (const FrameRec &r : recs) {
        if (!r.shed) {
            tracer.record("frame", r.span, -1, r.cam * 100000 + r.k,
                          r.due, r.done);
        }
    }
}

// ---------------------------------------------------------------------
// Over TCP.

struct TcpFleet
{
    std::unique_ptr<eva2::Network> net;
    std::unique_ptr<eva2::Engine> engine;
    std::unique_ptr<eva2::net::Server> server;
    std::vector<std::unique_ptr<eva2::net::Client>> clients;
    std::vector<eva2::net::ClientSession *> cams;

    TcpFleet() = default;
    TcpFleet(const TcpFleet &) = delete;
    TcpFleet &operator=(const TcpFleet &) = delete;

    ~TcpFleet()
    {
        cams.clear();
        for (auto &c : clients) {
            c->close();
        }
        clients.clear();
        if (server) {
            server->stop();
        }
        server.reset();
        engine.reset();
    }
};

/**
 * Poll every camera's answer counters until `expected` answers have
 * arrived since `base`, stamping completions in arrival order.
 */
void
collect(const std::vector<eva2::net::ClientSession *> &cams,
        const std::vector<i64> &base_done, const std::vector<i64> &base_shed,
        const std::atomic<i64> &expected, const std::atomic<bool> &final,
        const std::atomic<bool> &abandon,
        std::vector<std::vector<TimePoint>> &done)
{
    std::vector<i64> seen = base_done;
    while (!abandon.load()) {
        const bool last = final.load();
        const i64 want = expected.load();
        const TimePoint now = Clock::now();
        i64 answered = 0;
        for (size_t c = 0; c < cams.size(); ++c) {
            const i64 comp = cams[c]->completed_frames();
            for (; seen[c] < comp; ++seen[c]) {
                done[c].push_back(now);
            }
            answered += comp - base_done[c] + cams[c]->shed_frames() -
                        base_shed[c];
        }
        if (last && answered >= want) {
            return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

/** The sender: each frame at its due time, uncredited (open loop). */
void
send_all(TcpFleet &fleet, const std::vector<std::vector<Tensor>> &frames,
         std::vector<FrameRec> &recs, Tracer &tracer,
         std::atomic<i64> &expected)
{
    for (FrameRec &r : recs) {
        std::this_thread::sleep_until(r.due);
        r.sent = Clock::now();
        r.seq = fleet.cams[static_cast<size_t>(r.cam)]->submit_uncredited(
            frames[static_cast<size_t>(r.cam)][static_cast<size_t>(r.k)]);
        if (tracer.on()) {
            r.span = tracer.new_id();
            tracer.record("net.send", r.span, r.cam * 100000 + r.k, r.sent,
                          Clock::now());
        }
        expected.fetch_add(1);
    }
}

/**
 * Send `recs` at their due times from one sender thread while one
 * collector thread times the answers; then fill in each outcome.
 */
void
run_tcp(TcpFleet &fleet, const std::vector<std::vector<Tensor>> &frames,
        std::vector<FrameRec> &recs, Tracer &tracer)
{
    const size_t n = fleet.cams.size();
    std::vector<i64> base_done(n);
    std::vector<i64> base_shed(n);
    for (size_t c = 0; c < n; ++c) {
        base_done[c] = fleet.cams[c]->completed_frames();
        base_shed[c] = fleet.cams[c]->shed_frames();
    }
    std::vector<std::vector<TimePoint>> done(n);
    std::atomic<i64> expected{0};
    std::atomic<bool> final{false};
    std::atomic<bool> abandon{false};
    std::exception_ptr send_error;
    std::thread collector(collect, std::cref(fleet.cams),
                          std::cref(base_done), std::cref(base_shed),
                          std::cref(expected), std::cref(final),
                          std::cref(abandon), std::ref(done));
    std::thread sender([&] {
        try {
            send_all(fleet, frames, recs, tracer, expected);
        } catch (...) {
            // A dead connection: stop collecting, rethrow below.
            send_error = std::current_exception();
            abandon.store(true);
        }
        final.store(true);
    });
    sender.join();
    collector.join();
    if (send_error) {
        std::rethrow_exception(send_error);
    }
    std::vector<size_t> next(n, 0);
    for (FrameRec &r : recs) {
        const size_t c = static_cast<size_t>(r.cam);
        const eva2::net::NetOutcome out = fleet.cams[c]->wait(r.seq);
        r.shed = out.shed;
        r.failed = out.failed;
        r.top1 = out.top1;
        if (!out.shed) {
            // OUTCOMEs of one session arrive in seq order.
            r.done = done[c].at(next[c]++);
        }
    }
}

struct SetupResult
{
    double seconds = 0.0;
    Samples open_ms;
    Samples first_ms;
    PhaseCount count;
    std::vector<i64> lost; ///< Cameras whose first frame was lost.
};

/**
 * Network, engine, server, connections, sessions, and each camera's
 * first frame, frames[c][offset].
 */
SetupResult
setup_tcp(TcpFleet &fleet, const std::vector<std::vector<Tensor>> &frames,
          i64 offset, Tracer &tracer)
{
    SetupResult s;
    s.count.phase = "setup";
    const i64 root = tracer.new_id();
    const TimePoint t0 = Clock::now();
    fleet.net = build_net();
    const TimePoint t_net = Clock::now();
    tracer.record("setup.network", root, -1, t0, t_net);
    fleet.engine = std::make_unique<eva2::Engine>(*fleet.net, fleet_config());
    fleet.server = std::make_unique<eva2::net::Server>(*fleet.engine);
    fleet.server->start();
    for (i64 i = 0; i < kConnections; ++i) {
        fleet.clients.push_back(std::make_unique<eva2::net::Client>(
            "127.0.0.1", fleet.server->port()));
    }
    tracer.record("setup.engine_server", root, -1, t_net, Clock::now());
    for (i64 c = 0; c < kCameras; ++c) {
        const TimePoint a = Clock::now();
        fleet.cams.push_back(
            &fleet.clients[static_cast<size_t>(c % kConnections)]
                 ->open_session("cam" + std::to_string(c)));
        const TimePoint b = Clock::now();
        tracer.record("net.session_open", root, c * 100000, a, b);
        s.open_ms.add(ms_between(a, b));
    }
    // Every camera's first (cold) frame, all at once: the cold-start
    // backlog this can build is part of set-up and stays visible in
    // setup_s and api.first_frame_ms_max.
    std::vector<FrameRec> first;
    const TimePoint due = Clock::now();
    for (i64 c = 0; c < kCameras; ++c) {
        FrameRec r;
        r.cam = c;
        r.k = offset;
        r.due = due;
        first.push_back(r);
    }
    run_tcp(fleet, frames, first, tracer);
    for (const FrameRec &r : first) {
        ++s.count.attempted;
        s.count.shed += r.shed ? 1 : 0;
        s.count.failed += (!r.shed && r.failed) ? 1 : 0;
        if (r.shed || r.failed) {
            s.lost.push_back(r.cam);
        } else {
            ++s.count.succeeded;
            s.first_ms.add(ms_between(r.due, r.done));
            tracer.record("api.first_frame", root, r.cam * 100000, r.due,
                          r.done);
        }
    }
    const TimePoint t1 = Clock::now();
    tracer.record("setup", root, -1, -1, t0, t1);
    s.seconds = ms_between(t0, t1) / 1e3;
    return s;
}

// ---------------------------------------------------------------------
// In process: the same schedule through Session::submit.

/** The in-process stack; sinks log into a member that outlives the
 *  engine. */
struct LocalFleet
{
    OutcomeLog log{kCameras};
    std::unique_ptr<eva2::Network> net;
    std::unique_ptr<eva2::Engine> engine;
    std::vector<eva2::Session *> cams;
    i64 submitted = 0;
    i64 offset = 0; ///< Stream position of each session's frame 0.
};

void
run_local(LocalFleet &fleet, const std::vector<std::vector<Tensor>> &frames,
          std::vector<FrameRec> &recs, Tracer &tracer)
{
    for (FrameRec &r : recs) {
        std::this_thread::sleep_until(r.due);
        r.sent = Clock::now();
        fleet.cams[static_cast<size_t>(r.cam)]->submit(
            frames[static_cast<size_t>(r.cam)][static_cast<size_t>(r.k)]);
        if (tracer.on()) {
            r.span = tracer.new_id();
            tracer.record("api.submit", r.span, r.cam * 100000 + r.k,
                          r.sent, Clock::now());
        }
        ++fleet.submitted;
    }
    fleet.engine->flush();
    fleet.log.wait_for(fleet.submitted);
    for (FrameRec &r : recs) {
        const OutcomeLog::Entry &e = fleet.log.at(r.cam, r.k - fleet.offset);
        r.done = e.at;
        r.failed = e.outcome.failed;
        r.top1 = e.outcome.top1;
    }
}

SetupResult
setup_local(LocalFleet &fleet, const std::vector<std::vector<Tensor>> &frames,
            i64 offset, Tracer &tracer)
{
    fleet.offset = offset;
    SetupResult s;
    s.count.phase = "setup (in-process)";
    const i64 root = tracer.new_id();
    const TimePoint t0 = Clock::now();
    fleet.net = build_net();
    fleet.engine = std::make_unique<eva2::Engine>(*fleet.net, fleet_config());
    for (i64 c = 0; c < kCameras; ++c) {
        const TimePoint a = Clock::now();
        eva2::Session &session =
            fleet.engine->session("cam" + std::to_string(c));
        const TimePoint b = Clock::now();
        tracer.record("api.session_open", root, c * 100000, a, b);
        s.open_ms.add(ms_between(a, b));
        session.set_outcome_sink(fleet.log.sink(c, nullptr));
        fleet.cams.push_back(&session);
    }
    std::vector<FrameRec> first;
    const TimePoint due = Clock::now();
    for (i64 c = 0; c < kCameras; ++c) {
        FrameRec r;
        r.cam = c;
        r.k = offset;
        r.due = due;
        first.push_back(r);
    }
    run_local(fleet, frames, first, tracer);
    for (const FrameRec &r : first) {
        ++s.count.attempted;
        s.count.failed += r.failed ? 1 : 0;
        s.count.succeeded += r.failed ? 0 : 1;
        s.first_ms.add(ms_between(r.due, r.done));
    }
    const TimePoint t1 = Clock::now();
    tracer.record("setup", root, -1, -1, t0, t1);
    s.seconds = ms_between(t0, t1) / 1e3;
    return s;
}

void
teardown_local(LocalFleet &fleet)
{
    fleet.engine->flush();
    for (eva2::Session *s : fleet.cams) {
        s->set_outcome_sink(nullptr);
    }
}

} // namespace

void
run_fleet_open(const Args &args, Report &report)
{
    // Set-up runs kReps times (each stack's cameras start at frame 0);
    // the last stack then measures one window. The open loop spreads
    // its work over every core, so one long window is steadier here
    // than several short ones. A traced run gives a third of its time
    // to the untraced window (A), a third to a traced window (B) on the
    // same stack, and a third to B's frames and schedule again through
    // Session::submit on a fresh in-process engine (C).
    const double window_s = args.trace ? args.seconds / 3.0 : args.seconds;
    const i64 n = window_frames(window_s);
    const i64 per_cam = 1 + (args.trace ? 2 : 1) * n;
    const std::vector<std::vector<Tensor>> frames =
        camera_streams(args.seed, kCameras, per_cam, kSize, false);
    std::printf("fleet_open: %lld cameras x %.1f fps, %lld px FasterM, "
                "%lld frames per camera per window\n",
                static_cast<long long>(kCameras), kCameraFps,
                static_cast<long long>(kSize), static_cast<long long>(n));

    warm_cores(1.0);
    Tracer tracer(args.trace);
    Tracer off(false);
    Samples setup_s;
    Samples first_ms;
    Samples tcp_open_ms;
    PhaseCount setup_total;
    setup_total.phase = "setup";
    std::vector<std::vector<u64>> setup_digests;
    std::vector<i64> first_lost(kCameras, -1);
    std::unique_ptr<TcpFleet> fleet;
    for (i64 rep = 0; rep < kReps; ++rep) {
        fleet.reset();
        fleet = std::make_unique<TcpFleet>();
        const SetupResult s = setup_tcp(*fleet, frames, 0, tracer);
        setup_s.add(s.seconds);
        first_ms.append(s.first_ms);
        tcp_open_ms.append(s.open_ms);
        setup_total.attempted += s.count.attempted;
        setup_total.succeeded += s.count.succeeded;
        setup_total.shed += s.count.shed;
        setup_total.failed += s.count.failed;
        std::vector<u64> digests;
        for (i64 c = 0; c < kCameras; ++c) {
            const bool lost = std::find(s.lost.begin(), s.lost.end(), c) !=
                              s.lost.end();
            digests.push_back(lost ? 0 : fleet->cams[c]->chained_digest());
            if (lost && rep + 1 == kReps) {
                first_lost[c] = 0;
            }
        }
        setup_digests.push_back(std::move(digests));
    }
    report.phase(setup_total);
    const eva2::RunReport before = fleet->server->report();

    std::vector<FrameRec> a =
        schedule(Clock::now() + std::chrono::milliseconds(20), window_s, 1);
    const double cpu0 = cpu_seconds();
    run_tcp(*fleet, frames, a, off);
    const WindowStats wa =
        summarize("window", a, a.front().due, cpu_seconds() - cpu0);
    const eva2::RunReport after = fleet->server->report();
    const double rss_mb = peak_rss_mb();
    report.phase(wa.count);

    std::vector<FrameRec> b;
    WindowStats wb;
    if (args.trace) {
        b = schedule(Clock::now() + std::chrono::milliseconds(20), window_s,
                     1 + n);
        run_tcp(*fleet, frames, b, tracer);
        wb = summarize("window (traced)", b, b.front().due, 0.0);
        frame_spans(tracer, b);
        report.phase(wb.count);
    }
    const eva2::NetStats net_stats = fleet->server->stats();

    // Output check: every camera's chained digest against the serial
    // reference over the frames it was sent. A camera that lost a
    // frame (shed or failed) has other AMC state from then on, so its
    // frames from that point count as failed instead of compared.
    for (const std::vector<FrameRec> *w : {&a, &b}) {
        for (const FrameRec &r : *w) {
            if ((r.shed || r.failed) &&
                (first_lost[r.cam] < 0 || r.k < first_lost[r.cam])) {
                first_lost[r.cam] = r.k;
            }
        }
    }
    // Streams 0..15 are the cameras from frame 0 (every set-up, and
    // windows A and B); streams 16..31 start at frame n (window C).
    std::vector<i64> lengths(kCameras, per_cam);
    if (args.trace) {
        lengths.insert(lengths.end(), kCameras, 1 + n);
    }
    const std::vector<std::vector<u64>> ref = reference_chains(
        *fleet->net, fleet_config(), lengths,
        [&](i64 stream, i64 k) -> const Tensor & {
            const i64 offset = stream < kCameras ? 0 : n;
            return frames[static_cast<size_t>(stream % kCameras)]
                         [static_cast<size_t>(offset + k)];
        });
    const std::vector<std::vector<i64>> key_ref =
        key_top1(*fleet->net, fleet_config(), frames, 4);
    for (i64 c = 0; c < kCameras; ++c) {
        for (const std::vector<u64> &d : setup_digests) {
            if (d[c] != 0 && d[c] != ref[c][1]) {
                report.error("camera " + std::to_string(c) +
                             ": first-frame digest differs from the "
                             "serial reference");
            }
        }
        if (first_lost[c] < 0 &&
            fleet->cams[c]->chained_digest() !=
                ref[c][static_cast<size_t>(per_cam)]) {
            report.error("camera " + std::to_string(c) +
                         ": chained digest differs from the serial "
                         "reference");
        }
    }
    i64 lost = setup_total.shed + setup_total.failed;
    i64 agree = 0;
    i64 unverified = 0;
    for (const std::vector<FrameRec> *w : {&a, &b}) {
        for (const FrameRec &r : *w) {
            const bool dropped = r.shed || r.failed;
            const bool bad = dropped || (first_lost[r.cam] >= 0 &&
                                         r.k >= first_lost[r.cam]);
            unverified += bad && !dropped ? 1 : 0;
            if (w == &a) {
                lost += bad ? 1 : 0;
                agree += !bad && r.top1 == key_ref[r.cam][r.k] ? 1 : 0;
            }
        }
    }
    if (unverified > 0) {
        PhaseCount u;
        u.phase = "unverified";
        u.failed = unverified;
        report.phase(u);
    }
    Samples late = wa.late_ms;
    late.append(wb.late_ms);
    if (late.max() > interval_ms()) {
        report.error("generator fell " + std::to_string(late.max()) +
                     " ms behind, more than one frame interval: run "
                     "invalid");
    }
    const double cores = wa.cpu_s / wa.wall_s;

    if (!args.trace) {
        const double attempted =
            static_cast<double>(setup_total.attempted + wa.count.attempted);
        const double failed_frac = static_cast<double>(lost) / attempted;
        const double met_frac = static_cast<double>(wa.met) /
                                static_cast<double>(wa.count.attempted);
        double used = 0.0;
        report.metric("fps", wa.fps, "1/s");
        report.metric("frame_p50_ms", wa.latency_ms.median(), "ms");
        report.metric("frame_p99_ms", wa.latency_ms.tail(0.99, &used), "ms");
        report.metric("ok_frac", 1.0 - failed_frac, "frac");
        report.metric("deadline_met_frac", met_frac, "frac");
        report.metric("top1_agreement",
                      static_cast<double>(agree) /
                          static_cast<double>(
                              std::max<i64>(wa.count.succeeded, 1)),
                      "frac");
        report.metric("bytes_per_session", after.memory.bytes_per_session(),
                      "bytes");
        report.metric("peak_rss_mb", rss_mb, "MB");
        report.metric("setup_s", setup_s.median(), "s");
        report.note("frame_p99_ms is the p" + std::to_string(used * 100.0) +
                    " of " + std::to_string(wa.latency_ms.size()) +
                    " frames");
        report.note("failed_frac " + std::to_string(failed_frac) +
                    ", deadline_miss_frac " + std::to_string(1.0 - met_frac));
        report.note("gen_late_ms p99 " + std::to_string(late.tail(0.99)) +
                    ", max " + std::to_string(late.max()) +
                    "; runtime.cores_busy " + std::to_string(cores));
        return;
    }
    fleet.reset();

    LocalFleet local;
    const SetupResult ls = setup_local(local, frames, n, tracer);
    first_ms.append(ls.first_ms);
    report.phase(ls.count);
    std::vector<FrameRec> c = schedule(
        Clock::now() + std::chrono::milliseconds(20), window_s, n + 1);
    run_local(local, frames, c, tracer);
    const WindowStats wc =
        summarize("window (in-process)", c, c.front().due, 0.0);
    frame_spans(tracer, c);
    report.phase(wc.count);
    for (i64 cam = 0; cam < kCameras; ++cam) {
        if (local.cams[cam]->report().digest !=
            ref[static_cast<size_t>(kCameras + cam)]
               [static_cast<size_t>(1 + n)]) {
            report.error("in-process camera " + std::to_string(cam) +
                         ": chained digest differs from the serial "
                         "reference");
        }
    }
    teardown_local(local);

    StageSpans spans(tracer);
    const ReplayResult replay = serial_replay(
        *local.net, fleet_config(), {&frames[0], &frames[1]}, 48, spans,
        tracer);
    report.metric("net.overhead_p50_ms",
                  wb.latency_ms.median() - wc.latency_ms.median(), "ms");
    report.metric("net.send_us_p50",
                  tracer.durations_ms("net.send").median() * 1e3, "us");
    report.metric("net.shed_frames",
                  static_cast<double>(net_stats.shed_total()), "count");
    report.metric("net.bytes_per_frame",
                  static_cast<double>(net_stats.bytes_in +
                                      net_stats.bytes_out) /
                      static_cast<double>(net_stats.frames_in),
                  "bytes");
    const Samples submit = tracer.durations_ms("api.submit");
    report.metric("api.submit_us_p50", submit.median() * 1e3, "us");
    report.metric("api.submit_us_p99", submit.tail(0.99) * 1e3, "us");
    report.metric("api.first_frame_ms_max", first_ms.max(), "ms");
    report.metric("api.session_open_ms_p50", ls.open_ms.median(), "ms");
    report.metric("runtime.cores_busy", cores, "cores");
    report.metric("trace.overhead_frac",
                  wb.latency_ms.median() / wa.latency_ms.median() - 1.0,
                  "frac");
    report.metric("gen_late_ms_p99", late.tail(0.99), "ms");
    report.metric("gen_late_ms_max", late.max(), "ms");
    report.note("net session open p50 " +
                std::to_string(tcp_open_ms.median()) + " ms");
    layer_metrics(report, replay, engine_delta(before, after), after.memory,
                  tracer, args);
}

} // namespace perfbench
