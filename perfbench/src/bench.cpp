#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "core/frame_plan.h"
#include "eval/metrics.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/stream_executor.h"
#include "sparse/rle.h"
#include "util/json.h"
#include "video/scenarios.h"

namespace perfbench {

using eva2::Tensor;

double
ms_between(TimePoint a, TimePoint b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Samples.

void
Samples::append(const Samples &o)
{
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
}

double
Samples::rank(double p) const
{
    if (v_.empty()) {
        return 0.0;
    }
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double n = static_cast<double>(s.size());
    const i64 idx = std::clamp<i64>(
        static_cast<i64>(std::ceil(p * n)) - 1, 0,
        static_cast<i64>(s.size()) - 1);
    return s[static_cast<size_t>(idx)];
}

double
Samples::median() const
{
    return rank(0.5);
}

double
Samples::max() const
{
    return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
}

double
Samples::mean() const
{
    if (v_.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const double v : v_) {
        sum += v;
    }
    return sum / static_cast<double>(v_.size());
}

double
Samples::tail(double p, double *used) const
{
    const double n = static_cast<double>(v_.size());
    // Nearest rank leaves n - ceil(p n) samples beyond the value.
    if (n * (1.0 - p) < 10.0) {
        p = std::max(0.5, 1.0 - 10.0 / std::max(n, 1.0));
    }
    if (used != nullptr) {
        *used = p;
    }
    return rank(p);
}

void
warm_cores(double seconds)
{
    const TimePoint end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n; ++t) {
        threads.emplace_back([end] {
            while (Clock::now() < end) {
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
}

double
cpu_seconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec +
                                      u.ru_stime.tv_usec);
}

double
peak_rss_mb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // kB on Linux.
}

// ---------------------------------------------------------------------
// Report.

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        error("metric " + name + " is not finite");
        value = 0.0;
    }
    if (metrics_.count(name) == 0) {
        order_.push_back(name);
    }
    metrics_[name] = Value{value, unit};
}

void
Report::phase(const PhaseCount &count)
{
    phases_.push_back(count);
}

void
Report::error(const std::string &what)
{
    errors_.push_back(what);
}

void
Report::note(const std::string &what)
{
    notes_.push_back(what);
}

void
Report::print(const std::vector<std::string> &names) const
{
    std::printf("%-22s %9s %9s %6s %6s\n", "phase", "attempted",
                "succeeded", "shed", "failed");
    i64 attempted = 0;
    i64 failed = 0;
    for (const PhaseCount &p : phases_) {
        std::printf("%-22s %9lld %9lld %6lld %6lld\n", p.phase.c_str(),
                    static_cast<long long>(p.attempted),
                    static_cast<long long>(p.succeeded),
                    static_cast<long long>(p.shed),
                    static_cast<long long>(p.failed));
        attempted += p.attempted;
        failed += p.shed + p.failed;
    }
    for (const std::string &n : notes_) {
        std::printf("note: %s\n", n.c_str());
    }
    for (const std::string &name : order_) {
        const Value &v = metrics_.at(name);
        std::printf("  %-40s %14.6g %s\n", name.c_str(), v.value,
                    v.unit.c_str());
    }
    std::vector<std::string> errors = errors_;
    for (const std::string &name : names) {
        if (metrics_.count(name) == 0) {
            errors.push_back("metric " + name + " was not measured");
        }
    }
    for (const std::string &e : errors) {
        std::printf("ERROR: %s\n", e.c_str());
    }
    eva2::JsonWriter w(0);
    w.begin_object();
    w.member("correct", errors.empty());
    w.member("attempted", std::max<i64>(attempted, 1));
    w.member("failed", failed);
    w.key("metrics").begin_object();
    for (const std::string &name : names) {
        const auto it = metrics_.find(name);
        w.key(name).begin_object();
        w.member("value", it == metrics_.end() ? 0.0 : it->second.value);
        w.member("unit", it == metrics_.end() ? std::string("")
                                              : it->second.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Tracing.

namespace {

i64
thread_index()
{
    static std::atomic<i64> next{0};
    thread_local const i64 id = next.fetch_add(1);
    return id;
}

const char *
stage_span_name(eva2::AmcStage stage)
{
    static const char *const kNames[eva2::kNumAmcStages] = {
        "core.ingest",  "flow.motion_estimation", "core.motion_field",
        "core.policy",  "cnn.prefix",             "sparse.encode",
        "core.warp",    "cnn.suffix",             "core.commit",
    };
    return kNames[static_cast<size_t>(stage)];
}

double
us_since(TimePoint epoch, TimePoint t)
{
    return std::chrono::duration<double, std::micro>(t - epoch).count();
}

} // namespace

i64
Tracer::new_id()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

void
Tracer::record(const char *name, i64 id, i64 parent, i64 frame,
               TimePoint start, TimePoint end)
{
    if (!enabled_) {
        return;
    }
    const i64 tid = thread_index();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, id, parent, frame, start, end, tid});
}

i64
Tracer::record(const char *name, i64 parent, i64 frame, TimePoint start,
               TimePoint end)
{
    if (!enabled_) {
        return -1;
    }
    const i64 id = new_id();
    record(name, id, parent, frame, start, end);
    return id;
}

Samples
Tracer::durations_ms(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Samples out;
    for (const Span &s : spans_) {
        if (name == s.name) {
            out.add(ms_between(s.start, s.end));
        }
    }
    return out;
}

i64
Tracer::span_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<i64>(spans_.size());
}

std::vector<double>
Tracer::self_ms_locked() const
{
    std::map<i64, std::vector<size_t>> children;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0) {
            children[spans_[i].parent].push_back(i);
        }
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        double covered = 0.0;
        const auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the children's intervals, clipped to the span.
            std::vector<std::pair<TimePoint, TimePoint>> iv;
            for (const size_t c : it->second) {
                const TimePoint a = std::max(spans_[c].start, s.start);
                const TimePoint b = std::min(spans_[c].end, s.end);
                if (a < b) {
                    iv.emplace_back(a, b);
                }
            }
            std::sort(iv.begin(), iv.end());
            TimePoint cur_a{};
            TimePoint cur_b{};
            bool open = false;
            for (const auto &[a, b] : iv) {
                if (open && a <= cur_b) {
                    cur_b = std::max(cur_b, b);
                    continue;
                }
                if (open) {
                    covered += ms_between(cur_a, cur_b);
                }
                cur_a = a;
                cur_b = b;
                open = true;
            }
            if (open) {
                covered += ms_between(cur_a, cur_b);
            }
        }
        self[i] = ms_between(s.start, s.end) - covered;
    }
    return self;
}

std::map<std::string, std::pair<double, i64>>
Tracer::self_times() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<double> self = self_ms_locked();
    std::map<std::string, std::pair<double, i64>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        auto &row = out[spans_[i].name];
        row.first += self[i];
        row.second += 1;
    }
    return out;
}

bool
Tracer::write_chrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<double> self = self_ms_locked();
    eva2::JsonWriter w(0);
    w.begin_object();
    w.member("displayTimeUnit", "ms");
    w.key("traceEvents").begin_array();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.begin_object();
        w.member("name", s.name);
        w.member("ph", "X");
        w.member("pid", static_cast<i64>(1));
        w.member("tid", s.tid);
        w.member("ts", us_since(epoch_, s.start));
        w.member("dur", us_since(s.start, s.end));
        w.key("args").begin_object();
        w.member("frame", s.frame);
        w.member("id", s.id);
        w.member("parent", s.parent);
        w.member("self_us", self[i] * 1e3);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream out(path);
    out << w.str() << "\n";
    return static_cast<bool>(out);
}

void
StageSpans::begin_frame(i64 frame_id, i64 span_id)
{
    frame_ = frame_id;
    parent_ = span_id;
}

void
StageSpans::on_stage(eva2::AmcStage stage, double ms)
{
    const TimePoint end = Clock::now();
    const TimePoint start =
        end - std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(ms));
    tracer_.record(stage_span_name(stage), parent_, frame_, start, end);
    stage_ms_[static_cast<size_t>(stage)].add(ms);
}

// ---------------------------------------------------------------------
// Completion logging and the closed-loop gate.

TimePoint
InflightGate::acquire()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return in_flight_ < limit_; });
    ++in_flight_;
    if (freed_head_ < freed_.size()) {
        return freed_[freed_head_++];
    }
    return Clock::now();
}

void
InflightGate::release()
{
    const TimePoint now = Clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --in_flight_;
        if (freed_head_ == freed_.size()) {
            freed_.clear();
            freed_head_ = 0;
        }
        freed_.push_back(now);
    }
    cv_.notify_one();
}

eva2::Session::OutcomeSink
OutcomeLog::sink(i64 index, InflightGate *gate)
{
    return [this, index, gate](const eva2::FrameOutcome &o) {
        const TimePoint now = Clock::now();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            std::vector<Entry> &v = entries_[static_cast<size_t>(index)];
            if (o.frame >= static_cast<i64>(v.size())) {
                v.resize(static_cast<size_t>(o.frame) + 1);
            }
            v[static_cast<size_t>(o.frame)] = Entry{now, o};
            ++count_;
        }
        cv_.notify_all();
        if (gate != nullptr) {
            gate->release();
        }
    };
}

void
OutcomeLog::wait_for(i64 total)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return count_ >= total; });
}

const OutcomeLog::Entry &
OutcomeLog::at(i64 index, i64 frame) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.at(static_cast<size_t>(index))
        .at(static_cast<size_t>(frame));
}

ClosedWindow
closed_window(const std::string &phase, eva2::Engine &engine,
              const std::vector<eva2::Session *> &sessions, OutcomeLog &log,
              InflightGate &gate, std::vector<i64> &counts, double seconds,
              double limit_ms, i64 period, Tracer &tracer,
              const std::function<i64()> &next,
              const std::function<const Tensor &(i64, i64)> &frame_of)
{
    ClosedWindow w;
    w.count.phase = phase;
    i64 logged = 0;
    for (const i64 c : counts) {
        logged += c;
    }
    const double cpu0 = cpu_seconds();
    const TimePoint t0 = Clock::now();
    const TimePoint end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    for (;;) {
        const TimePoint due = gate.acquire();
        ClosedRec r;
        r.sent = Clock::now();
        if (r.sent >= end) {
            gate.release();
            break;
        }
        r.due = due;
        r.session = next();
        r.k = counts[static_cast<size_t>(r.session)]++;
        sessions[static_cast<size_t>(r.session)]->submit(
            frame_of(r.session, r.k));
        if (tracer.on()) {
            r.span = tracer.new_id();
            tracer.record("api.submit", r.span, r.session * 100000 + r.k,
                          r.sent, Clock::now());
        }
        w.recs.push_back(r);
    }
    engine.flush();
    log.wait_for(logged + static_cast<i64>(w.recs.size()));
    w.cpu_s = cpu_seconds() - cpu0;
    TimePoint last = t0;
    for (ClosedRec &r : w.recs) {
        const OutcomeLog::Entry &e = log.at(r.session, r.k);
        r.done = e.at;
        r.outcome = e.outcome;
        ++w.count.attempted;
        w.late_ms.add(ms_between(r.due, r.sent));
        if (r.outcome.failed) {
            ++w.count.failed;
            continue;
        }
        ++w.count.succeeded;
        last = std::max(last, r.done);
        tracer.record("frame", r.span, -1, r.session * 100000 + r.k, r.sent,
                      r.done);
    }
    w.wall_s = ms_between(t0, last) / 1e3;

    // Rates and latencies over whole loops of the input when it has a
    // period: every run then weighs each part of the clip equally. A
    // loop starts at frame 1, as frame 0 is set-up's cold frame.
    size_t lo = 0;
    size_t hi = w.recs.size();
    if (period > 1) {
        std::vector<size_t> starts;
        for (size_t i = 0; i < w.recs.size(); ++i) {
            if (w.recs[i].k % period == 1) {
                starts.push_back(i);
            }
        }
        if (starts.size() >= 2) {
            lo = starts.front();
            hi = starts.back();
        }
    }
    TimePoint from = lo == 0 ? t0 : w.recs[lo - 1].done;
    TimePoint to = from;
    for (size_t i = lo; i < hi; ++i) {
        const ClosedRec &r = w.recs[i];
        ++w.measured;
        if (r.outcome.failed) {
            continue;
        }
        const double lat = ms_between(r.sent, r.done);
        w.latency_ms.add(lat);
        w.met += lat <= limit_ms ? 1 : 0;
        to = std::max(to, r.done);
    }
    w.fps = static_cast<double>(w.latency_ms.size()) /
            (ms_between(from, to) / 1e3);
    return w;
}

// ---------------------------------------------------------------------
// Inputs and references.

std::vector<std::vector<Tensor>>
camera_streams(u64 seed, i64 count, i64 frames, i64 size, bool q88)
{
    const std::vector<eva2::Sequence> seqs =
        eva2::multi_stream_set(seed, count, frames, size);
    std::vector<std::vector<Tensor>> out(seqs.size());
    for (size_t s = 0; s < seqs.size(); ++s) {
        for (const eva2::LabeledFrame &f : seqs[s].frames) {
            out[s].push_back(q88 ? eva2::quantize_q88(f.image) : f.image);
        }
    }
    return out;
}

eva2::EngineConfig
serial_config(eva2::EngineConfig config)
{
    config.num_threads = 1;
    config.pipeline_depth = 1;
    config.batch = "off";
    config.memory = "off";
    return config;
}

std::vector<std::vector<u64>>
reference_chains(const eva2::Network &net, const eva2::EngineConfig &config,
                 const std::vector<i64> &lengths,
                 const std::function<const Tensor &(i64, i64)> &frame_of)
{
    eva2::Engine engine(net, serial_config(config));
    std::vector<std::vector<u64>> chains(lengths.size());
    for (size_t s = 0; s < lengths.size(); ++s) {
        eva2::Session &session =
            engine.session("reference" + std::to_string(s));
        std::vector<u64> &chain = chains[s];
        chain.push_back(eva2::kDigestSeed);
        for (i64 k = 0; k < lengths[s]; ++k) {
            const eva2::FrameTicket t =
                session.submit(frame_of(static_cast<i64>(s), k));
            const eva2::FrameOutcome out = session.wait(t);
            chain.push_back(
                eva2::digest_combine(chain.back(), out.output_digest));
            if (k % 256 == 255) {
                session.forget_outcomes();
            }
        }
    }
    return chains;
}

std::vector<std::vector<i64>>
key_top1(const eva2::Network &net, const eva2::EngineConfig &config,
         const std::vector<std::vector<Tensor>> &streams, i64 threads)
{
    const eva2::StreamExecutorOptions opts = config.resolve(net);
    std::vector<std::pair<size_t, size_t>> work;
    std::vector<std::vector<i64>> out(streams.size());
    for (size_t s = 0; s < streams.size(); ++s) {
        out[s].assign(streams[s].size(), -1);
        for (size_t k = 0; k < streams[s].size(); ++k) {
            work.emplace_back(s, k);
        }
    }
    std::vector<std::thread> pool;
    for (i64 t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            eva2::FramePlan plan(net, nullptr, opts.amc);
            eva2::ScratchArena arena;
            for (size_t i = static_cast<size_t>(t); i < work.size();
                 i += static_cast<size_t>(threads)) {
                const auto [s, k] = work[i];
                plan.run_front_key(streams[s][k], 0, arena, nullptr);
                out[s][k] = eva2::top1(plan.run_suffix(0, arena, nullptr));
            }
        });
    }
    for (std::thread &t : pool) {
        t.join();
    }
    return out;
}

// ---------------------------------------------------------------------
// Layer measurements.

ReplayResult
serial_replay(const eva2::Network &net, const eva2::EngineConfig &config,
              const std::vector<const std::vector<Tensor> *> &streams,
              i64 frames, StageSpans &spans, Tracer &tracer)
{
    const eva2::StreamExecutorOptions opts = config.resolve(net);
    ReplayResult r;
    r.spans = &spans;
    i64 frame_id = 0;
    for (size_t s = 0; s < streams.size(); ++s) {
        eva2::FramePlan plan(
            net, opts.make_policy ? opts.make_policy(static_cast<i64>(s))
                                  : nullptr,
            opts.amc);
        r.prefix_macs = static_cast<double>(
            net.macs_in_range(0, plan.target_layer() + 1));
        eva2::ScratchArena arena;
        const std::vector<Tensor> &in = *streams[s];
        for (i64 k = 0; k < frames; ++k, ++frame_id) {
            const i64 id = tracer.new_id();
            spans.begin_frame(frame_id, id);
            const TimePoint t0 = Clock::now();
            const eva2::FrontResult fr = plan.run_front(
                in[static_cast<size_t>(k) % in.size()], 0, arena, &spans);
            plan.run_suffix(0, arena, &spans);
            const TimePoint t1 = Clock::now();
            tracer.record("replay.frame", id, -1, frame_id, t0, t1);
            ++r.frames;
            if (fr.is_key) {
                ++r.key_frames;
                r.key_frame_ms.add(ms_between(t0, t1));
                r.key_bytes.add(
                    static_cast<double>(plan.stored_activation_bytes()));
            } else {
                r.pred_frame_ms.add(ms_between(t0, t1));
            }
        }
        // The hibernate tier's read side on this workload's state
        // shape: collapse to the compressed form and rebuild.
        if (opts.amc.quantize_storage) {
            for (i64 c = 0; c < 16; ++c) {
                plan.hibernate();
                const TimePoint t0 = Clock::now();
                plan.hydrate();
                const TimePoint t1 = Clock::now();
                tracer.record("runtime.hydrate", -1, frame_id - 1, t0, t1);
                r.hydrate_us.add(ms_between(t0, t1) * 1e3);
            }
        }
    }
    return r;
}

NetProbe
net_probe(const eva2::Network &net, const eva2::EngineConfig &config,
          const std::vector<Tensor> &frames, Tracer &tracer)
{
    // Both paths stay up side by side and take turns frame by frame,
    // so a slow stretch of the machine lands on both.
    NetProbe probe;
    eva2::Engine tcp_engine(net, config);
    eva2::net::Server server(tcp_engine);
    server.start();
    eva2::Engine engine(net, config);
    eva2::Session &session = engine.session("probe");
    {
        eva2::net::Client client("127.0.0.1", server.port());
        eva2::net::ClientSession &cs = client.open_session("probe");
        for (size_t k = 0; k < frames.size(); ++k) {
            const i64 frame = static_cast<i64>(k);
            i64 id = tracer.new_id();
            TimePoint t0 = Clock::now();
            const u64 seq = cs.submit_uncredited(frames[k]);
            tracer.record("net.send", id, frame, t0, Clock::now());
            const eva2::net::NetOutcome out = cs.wait(seq);
            TimePoint t1 = Clock::now();
            tracer.record("probe.tcp_frame", id, -1, frame, t0, t1);
            probe.tcp_ms.add(ms_between(t0, t1));
            probe.shed += out.shed ? 1 : 0;

            id = tracer.new_id();
            t0 = Clock::now();
            const eva2::FrameTicket t = session.submit(frames[k]);
            tracer.record("probe.submit", id, frame, t0, Clock::now());
            session.wait(t);
            t1 = Clock::now();
            tracer.record("probe.inproc_frame", id, -1, frame, t0, t1);
            probe.inproc_ms.add(ms_between(t0, t1));
        }
        client.close();
    }
    server.stop();
    const eva2::NetStats st = server.stats();
    probe.bytes_per_frame =
        st.frames_in == 0 ? 0.0
                          : static_cast<double>(st.bytes_in + st.bytes_out) /
                                static_cast<double>(st.frames_in);
    return probe;
}

namespace {

/** Total ms and calls of one stage in a report (zeros if absent). */
std::pair<double, i64>
stage_totals(const eva2::RunReport &r, const std::string &stage)
{
    for (const eva2::StageReport &s : r.stages) {
        if (s.stage == stage) {
            return {s.total_ms, s.calls};
        }
    }
    return {0.0, 0};
}

double
stage_mean_delta(const eva2::RunReport &before,
                 const eva2::RunReport &after, const std::string &stage)
{
    const auto a = stage_totals(before, stage);
    const auto b = stage_totals(after, stage);
    const i64 calls = b.second - a.second;
    return calls == 0 ? 0.0
                      : (b.first - a.first) / static_cast<double>(calls);
}

} // namespace

EngineDelta
engine_delta(const eva2::RunReport &before, const eva2::RunReport &after)
{
    EngineDelta d;
    d.frames = after.frames - before.frames;
    d.key_frames = after.key_frames - before.key_frames;
    d.me_add_ops = after.me_add_ops - before.me_add_ops;
    d.suffix_mean_ms = stage_mean_delta(before, after, "suffix");
    d.me_mean_ms = stage_mean_delta(before, after, "motion_estimation");
    const i64 items = after.batching.items - before.batching.items;
    const i64 batches = after.batching.batches - before.batching.batches;
    // Without the batcher every suffix runs as a batch of one.
    d.batch_mean = batches == 0 ? 1.0
                                : static_cast<double>(items) /
                                      static_cast<double>(batches);
    d.hibernations = after.memory.hibernations - before.memory.hibernations;
    d.hydrations = after.memory.hydrations - before.memory.hydrations;
    return d;
}

void
layer_metrics(Report &report, const ReplayResult &replay,
              const EngineDelta &delta, const eva2::MemoryStats &memory,
              Tracer &tracer, const Args &args)
{
    using eva2::AmcStage;
    const StageSpans &sp = *replay.spans;
    const double frames = static_cast<double>(std::max<i64>(delta.frames, 1));
    report.metric("core.key_frac",
                  static_cast<double>(delta.key_frames) / frames, "frac");
    report.metric("core.pred_over_key",
                  replay.pred_frame_ms.mean() / replay.key_frame_ms.mean(),
                  "ratio");
    report.metric("core.warp_ms_p50", sp.stage(AmcStage::kWarp).median(),
                  "ms");
    report.metric("flow.rfbme_ms_p50",
                  sp.stage(AmcStage::kMotionEstimation).median(), "ms");
    report.metric("flow.add_ops_per_frame",
                  static_cast<double>(delta.me_add_ops) / frames, "count");
    const double prefix_ms = sp.stage(AmcStage::kPrefix).median();
    report.metric("cnn.prefix_ms_p50", prefix_ms, "ms");
    report.metric("cnn.prefix_gmacs_per_s",
                  replay.prefix_macs / (prefix_ms * 1e-3) / 1e9, "GMAC/s");
    report.metric("cnn.suffix_ms_p50", sp.stage(AmcStage::kSuffix).median(),
                  "ms");
    report.metric("sparse.encode_ms_p50",
                  sp.stage(AmcStage::kEncode).median(), "ms");
    report.metric("sparse.key_bytes", replay.key_bytes.mean(), "bytes");
    report.metric("runtime.stage_inflation.suffix",
                  delta.suffix_mean_ms / sp.stage(AmcStage::kSuffix).mean(),
                  "ratio");
    report.metric("runtime.stage_inflation.motion_estimation",
                  delta.me_mean_ms /
                      sp.stage(AmcStage::kMotionEstimation).mean(),
                  "ratio");
    report.metric("runtime.batch_mean", delta.batch_mean, "count");
    report.metric("runtime.hibernations_per_frame",
                  static_cast<double>(delta.hibernations) / frames, "count");
    report.metric("runtime.hydrations_per_frame",
                  static_cast<double>(delta.hydrations) / frames, "count");
    // Where the engine never hydrated, the replay's own hibernate →
    // hydrate cycles measure the same code on this workload's state.
    report.metric("runtime.hydrate_p99_us",
                  memory.hydrations > 0 ? memory.hydrate_p99_us
                                        : replay.hydrate_us.tail(0.99),
                  "us");
    report.metric("runtime.resident_peak_mb",
                  static_cast<double>(memory.peak_resident_bytes) /
                      (1024.0 * 1024.0),
                  "MB");

    std::printf("self time by span (ms total, spans):\n");
    for (const auto &[name, row] : tracer.self_times()) {
        std::printf("  %-28s %12.3f %8lld\n", name.c_str(), row.first,
                    static_cast<long long>(row.second));
    }
    if (!args.trace_out.empty()) {
        if (tracer.write_chrome(args.trace_out)) {
            std::printf("trace: %lld spans written to %s\n",
                        static_cast<long long>(tracer.span_count()),
                        args.trace_out.c_str());
        } else {
            report.error("cannot write trace file " + args.trace_out);
        }
    }
}

} // namespace perfbench
