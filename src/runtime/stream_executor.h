/**
 * @file
 * Output digests and the resolved engine configuration.
 *
 * Every execution shape in the system — inline or pooled, pipelined
 * or not, batched or not, in-process or over TCP — proves that it
 * computed the same thing by folding each frame's output digest into
 * a per-stream chain, and the per-stream chains into a run chain.
 * This header holds that digest arithmetic and the struct an
 * EngineConfig resolves into.
 *
 * The file keeps its historical name (and the resolved struct its
 * historical `StreamExecutorOptions` name, after the per-stream
 * executor that used to consume it) because the repository benchmark
 * under perfbench/ includes it. The execution itself lives in
 * api/engine.h: every frame reaches its outcome through a Session's
 * StageScheduler.
 */
#ifndef EVA2_RUNTIME_STREAM_EXECUTOR_H
#define EVA2_RUNTIME_STREAM_EXECUTOR_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/amc_pipeline.h"
#include "runtime/resident_set.h"
#include "runtime/suffix_batcher.h"
#include "runtime/thread_pool.h"
#include "video/frame.h"

namespace eva2 {

/** FNV-1a digest of a tensor's shape and raw float bit patterns. */
u64 tensor_digest(const Tensor &t);

/** Seed for the chained frame/stream digests (FNV offset basis). */
constexpr u64 kDigestSeed = 1469598103934665603ull;

/**
 * Fold digest `b` into chain `a`. Both the per-stream frame chain and
 * the run-level stream chain use this, so any layer that processes
 * the same frames in the same order — Engine::run, frame-level
 * Session submission, or a client over TCP — reproduces the same
 * digest.
 */
u64 digest_combine(u64 a, u64 b);

/**
 * An EngineConfig resolved against the registries and the network:
 * every spec string parsed and validated once.
 */
struct StreamExecutorOptions
{
    /** Pipeline options applied to every stream. */
    AmcOptions amc;
    /**
     * Per-stream key-frame policy factory (policies are stateful and
     * owned, so each stream needs its own instance). Null selects the
     * pipeline's default every-frame static policy.
     */
    std::function<std::unique_ptr<KeyFramePolicy>(i64 stream_index)>
        make_policy;
    /**
     * Worker threads. 1 runs every stage inline on the submitting
     * thread; 0 selects ThreadPool::default_num_threads().
     */
    i64 num_threads = 0;
    /**
     * Frames of one stream in flight at once (runtime/stage_scheduler).
     * <= 1 runs every frame's stages strictly in order.
     */
    i64 pipeline_depth = 3;
    /** Cross-stream suffix batching (runtime/suffix_batcher.h). */
    SuffixBatchOptions suffix_batch;
    /** Resident-session memory budget (runtime/resident_set.h). */
    MemoryBudget memory;
};

} // namespace eva2

#endif // EVA2_RUNTIME_STREAM_EXECUTOR_H
