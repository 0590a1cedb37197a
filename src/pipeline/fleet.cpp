#include "pipeline/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/stage.hpp"
#include "common/aligned_buffer.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "pipeline/mpmc_queue.hpp"
#include "pipeline/stream_link.hpp"
#include "pipeline/turnstile.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"

namespace htims::pipeline {

namespace {

/// One closed frame on its way from a stream consumer to decode. The frame
/// lies in its stream's buffer `index` mod the buffer count.
struct DispatchJob {
    std::uint32_t stream = 0;
    std::size_t index = 0;         ///< frame index within the stream
    std::uint64_t dispatch_ns = 0; ///< when the consumer handed it on
};

/// One of a stream's frame buffers. The CPU backend accumulates into
/// `frame` and decodes it in place; the FPGA backend accumulates inside
/// its model, detaches the frame into `capture`, and decodes that into
/// `frame`.
struct FrameBuffer {
    Frame frame;
    FpgaCapture capture;
};

/// One thread's decoder for one stream: the backend the stream uses.
struct Decoder {
    std::unique_ptr<CpuBackend> cpu;
    std::unique_ptr<FpgaPipeline> fpga;
};

Decoder make_decoder(const FleetStream& spec, std::size_t cpu_threads) {
    const auto& cfg = spec.config;
    Decoder d;
    if (cfg.backend == BackendKind::kFpga) {
        d.fpga = std::make_unique<FpgaPipeline>(spec.sequence, spec.layout, cfg.fpga);
    } else {
        d.cpu = std::make_unique<CpuBackend>(spec.sequence, spec.layout, cpu_threads);
        if (cfg.faults != nullptr) d.cpu->set_faults(cfg.faults);
    }
    return d;
}

/// Per-stream frame-latency shard. Cache-line-aligned so neighbouring
/// streams' hot emission counters never share a line (SNIPPETS.md's
/// sharded-counter lesson: unsharded fleet counters collapse under worker
/// contention).
struct alignas(kCacheLine) StreamShard {
    explicit StreamShard(const std::atomic<bool>* enabled) : latency(enabled) {}
    telemetry::LogHistogram latency;  ///< ns, dispatch -> ordered emission
    std::atomic<std::uint64_t> frames_emitted{0};
};

/// Everything one stream owns for the duration of run(). Heap-held (the
/// shard and ring are neither movable nor copyable); thread roles:
/// the producer thread writes producer_stall_s; the consumer (its own
/// thread, or the caller's for the last stream) owns own/totals/
/// decode_wait_s/failure; last_frame / fpga / last_emit_ns are written only
/// inside the turnstile-serialized emission section (the release-advance/
/// acquire-observe edge orders them thread-to-thread, and the final join
/// publishes them to the caller). Frame k's buffer belongs to the consumer
/// from the emission of frame k - buffers.size() until k is handed off,
/// then to the thread that decodes and emits k: the dispatch queue carries
/// the first hand-over, the turnstile's advance/wait_until edge the second.
struct StreamState {
    StreamState(const FleetStream& s, std::uint32_t index,
                const std::atomic<bool>* stats)
        : spec(s), id(index), ring(s.config.ring_records), shard(stats) {}

    const FleetStream& spec;
    const std::uint32_t id;
    SpscRing<Block> ring;
    LinkParams link{};

    OrderTurnstile<> turnstile;
    StreamShard shard;
    std::vector<FrameBuffer> buffers;  ///< decode_workers + 1

    // Producer-thread-owned.
    double producer_stall_s = 0.0;

    // Consumer-owned (read by the caller after the joins).
    Decoder own;  ///< built before any thread starts: the FPGA capture
                  ///< side, and the CPU decoder too when decode is inline
    ConsumeTotals totals{};
    double decode_wait_s = 0.0;
    std::exception_ptr failure;

    // Emission-section-owned (turnstile-serialized).
    Frame last_frame;
    FpgaCycleReport fpga{};
    std::uint64_t last_emit_ns = 0;
};

/// Decode one closed frame and emit it in stream order: the step every pool
/// worker and every inline consumer runs.
void decode_and_emit(StreamState& st, const DispatchJob& job, Decoder& dec,
                     telemetry::LogHistogram& agg_latency) {
    auto& tel = telemetry::Registry::global();
    static auto& c_frames = tel.counter("hybrid.frames");
    static auto& h_decode = tel.histogram("hybrid.decode_overlap_ns");
    static auto& h_frame = tel.histogram("hybrid.frame_ns");
    static const auto kStageDecode = tel.intern("hybrid.decode_worker");
    static const auto kStageFrame = tel.intern("hybrid.frame");
    const auto& cfg = st.spec.config;

    FrameBuffer& buf = st.buffers[job.index % st.buffers.size()];
    const std::uint64_t t0 = telemetry::now_ns();
    {
        auto decode_span = tel.span(kStageDecode);
        if (dec.fpga)
            buf.frame = dec.fpga->finalize_frame(buf.capture, std::move(buf.frame));
        else
            dec.cpu->deconvolve(buf.frame, buf.frame);
    }
    h_decode.observe(telemetry::now_ns() - t0);
    if (!st.turnstile.wait_turn(job.index)) return;  // the pool died
    if (dec.fpga) st.fpga = dec.fpga->report();
    if (cfg.frame_sink) cfg.frame_sink(job.index, buf.frame);
    if (cfg.analysis) cfg.analysis->analyze(st.id, job.index, buf.frame);
    if (job.index + 1 == cfg.frames) st.last_frame = std::move(buf.frame);
    const std::uint64_t now = telemetry::now_ns();
    st.shard.latency.observe(now - job.dispatch_ns);
    agg_latency.observe(now - job.dispatch_ns);
    st.shard.frames_emitted.fetch_add(1, std::memory_order_relaxed);
    c_frames.increment();
    h_frame.observe(now - st.last_emit_ns);
    if (telemetry::kCompiledIn && tel.enabled())
        tel.trace().record(telemetry::SpanEvent{kStageFrame, telemetry::thread_slot(),
                                                1, st.last_emit_ns, now});
    st.last_emit_ns = now;
    st.turnstile.advance();
}

}  // namespace

void validate_stream(const FleetStream& stream, const std::string& who) {
    const auto& cfg = stream.config;
    if (cfg.frames == 0 || cfg.averages == 0)
        throw ConfigError(who + " needs frames >= 1 and averages >= 1");
    if (stream.layout.mz_bins == 0 || stream.layout.drift_bins == 0)
        throw ConfigError(who + ": stream layout is empty");
    const std::uint64_t expected = static_cast<std::uint64_t>(cfg.frames) *
                                   cfg.averages * stream.layout.drift_bins;
    if (stream.source != nullptr) {
        if (stream.source->total_records() != expected)
            throw ConfigError(who + ": record source delivers " +
                              std::to_string(stream.source->total_records()) +
                              " records; the configured run streams " +
                              std::to_string(expected));
    } else if (stream.period_samples.size() != stream.layout.cells()) {
        throw ConfigError(who +
                          ": period sample template must have "
                          "layout.cells() entries");
    }
}

void append_fleet_scalars(telemetry::RunMeta& meta, const FleetReport& report,
                          const std::string& prefix) {
    using Fields = std::initializer_list<std::pair<const char*, double>>;
    const auto n = [](std::uint64_t count) { return static_cast<double>(count); };
    const auto put = [&](const std::string& key, Fields fields,
                         const telemetry::HistogramSummary& ns) {
        for (const auto& [field, value] : fields)
            meta.scalars.emplace_back(key + "." + field, value);
        for (const auto& [field, value] :
             Fields{{"count", n(ns.count)}, {"min", n(ns.min)}, {"max", n(ns.max)},
                    {"mean", ns.mean}, {"p50", ns.p50}, {"p95", ns.p95}, {"p99", ns.p99}})
            meta.scalars.emplace_back(key + ".frame_latency_ns." + field, value);
    };
    put(prefix,
        {{"streams", n(report.streams.size())}, {"wall_seconds", report.wall_seconds},
         {"frames", n(report.frames)}, {"samples", n(report.samples)},
         {"sample_rate", report.sample_rate},
         {"records_dropped", n(report.records_dropped)},
         {"frames_degraded", n(report.frames_degraded)}},
        report.frame_latency);
    for (std::size_t i = 0; i < report.streams.size(); ++i) {
        const HybridReport& r = report.streams[i].report;
        put(prefix + ".stream" + std::to_string(i),
            {{"frames", n(r.frames)}, {"samples", n(r.samples)},
             {"wall_seconds", r.wall_seconds}, {"sample_rate", r.sample_rate},
             {"records_dropped", n(r.records_dropped)},
             {"frames_degraded", n(r.frames_degraded)},
             {"cpu_task_retries", n(r.cpu_task_retries)},
             {"producer_stall_seconds", r.producer_stall_seconds},
             {"consumer_idle_seconds", r.consumer_idle_seconds},
             {"decode_wait_seconds", r.decode_wait_seconds}},
            report.streams[i].frame_latency);
    }
}

FleetRunner::FleetRunner(std::vector<FleetStream> streams,
                         const FleetConfig& config)
    : streams_(std::move(streams)), templates_(streams_.size()), config_(config) {
    if (streams_.empty())
        throw ConfigError("a fleet needs at least one stream");
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        auto& spec = streams_[i];
        const std::string tag = "fleet stream " + std::to_string(i);
        validate_stream(spec, tag);
        if (spec.config.decode_workers != 0)
            throw ConfigError(tag + ": decode_workers belongs to FleetConfig");
        if (spec.source == nullptr) {
            templates_[i] = std::make_unique<PeriodTemplateSource>(
                std::move(spec.period_samples), spec.layout, spec.config.frames,
                spec.config.averages);
            spec.source = templates_[i].get();
        }
    }
}

FleetReport FleetRunner::run() {
    auto& tel = telemetry::Registry::global();
    static auto& g_queue = tel.gauge("hybrid.decode_queue_depth");
    static auto& h_queue = tel.histogram("hybrid.decode_queue_depth");
    static auto& h_wait = tel.histogram("hybrid.decode_wait_ns");
    static const auto kStageRun = tel.intern("hybrid.run");
    auto run_span = tel.span(kStageRun);

    const std::size_t n = streams_.size();
    const std::size_t workers_n = config_.decode_workers;
    std::atomic<bool> stats_on{true};
    telemetry::LogHistogram agg_latency(&stats_on);

    // --- Per-stream setup -------------------------------------------------
    std::vector<std::unique_ptr<StreamState>> states;
    states.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto& spec = streams_[i];
        const auto& cfg = spec.config;
        auto st = std::make_unique<StreamState>(
            spec, static_cast<std::uint32_t>(i), &stats_on);

        const std::size_t records_per_period = spec.layout.drift_bins;
        const std::uint64_t records_total =
            static_cast<std::uint64_t>(cfg.frames) * cfg.averages *
            records_per_period;
        HTIMS_CHECK(spec.source->total_records() == records_total,
                    "record source matches the configured stream");
        // The producer stages up to batch_cap records per ring publication
        // and the consumer pops the same amount per protocol round trip.
        const std::size_t batch_cap =
            std::min(kLinkBatchRecords, st->ring.capacity());
        // Ring capacity + the producer's staged batch + the consumer's
        // popped batch + the blocks in either thread's hands: the most
        // record spans ever outstanding at once.
        spec.source->set_window(st->ring.capacity() + 2 * batch_cap + 2);
        st->link = LinkParams{spec.layout.mz_bins,
                              records_per_period,
                              records_total,
                              static_cast<std::uint64_t>(cfg.averages) *
                                  records_per_period,
                              cfg.frames,
                              batch_cap,
                              cfg.ring_policy,
                              cfg.faults};

        if (cfg.backend == BackendKind::kFpga || workers_n == 0)
            st->own = make_decoder(spec, cfg.cpu_threads);
        if (st->own.fpga && cfg.faults != nullptr) st->own.fpga->set_faults(cfg.faults);

        // One buffer per frame in flight: one per worker plus the one the
        // consumer fills. A CPU buffer is allocated here; an FPGA buffer's
        // capture and frame on first use (capture_frame, finalize_frame).
        st->buffers.resize(workers_n + 1);
        if (cfg.backend == BackendKind::kCpu)
            for (auto& buf : st->buffers) buf.frame = Frame(spec.layout);
        states.push_back(std::move(st));
    }

    // The dispatch queue holds every buffer of every stream, so it never
    // fills: a consumer waits only for a buffer.
    std::optional<MpmcQueue<DispatchJob>> queue;
    if (workers_n > 0) queue.emplace(n * (workers_n + 1));

    // Consumers still running; workers exit once this hits zero AND the
    // queue is drained. Each consumer decrements with release after its
    // last enqueue, so a worker's acquire read of zero also sees every
    // published slot ticket — no job can be missed.
    std::atomic<std::size_t> active{n};
    std::mutex failure_mutex;
    std::exception_ptr pool_failure;
    std::atomic<bool> decode_down{false};

    WallTimer wall;
    const std::uint64_t run_start_ns = telemetry::now_ns();
    for (auto& st : states) st->last_emit_ns = run_start_ns;

    // --- Consumer body, one run per stream --------------------------------
    const auto consume = [&](StreamState* st) {
        bool down = false;  // the decode pool died: drain without dispatch
        // Frame `index`'s buffer, once the emission of its last user, frame
        // index - buffers, frees it (inline decode emitted that frame
        // already); none once the pool died.
        const auto claim = [&](std::size_t index) -> FrameBuffer* {
            const std::size_t buffers = st->buffers.size();
            if (queue) {
                WallTimer wait;
                down = !st->turnstile.wait_until(std::max(index + 1, buffers) - buffers);
                const double waited = wait.seconds();
                st->decode_wait_s += waited;
                h_wait.observe(static_cast<std::uint64_t>(waited * 1e9));
                if (down) return nullptr;
            }
            return &st->buffers[index % buffers];
        };
        // Hand a closed frame on: decode it here, or queue it for the
        // pool. The queue never fills, but a push can still meet the one
        // slot a worker has claimed a lap back and not yet recycled (the
        // ticket protocol's recycle window, mpmc_queue.hpp); with two or
        // more streams and workers, other streams' frames can lap a
        // descheduled worker there, so wait the window out.
        const auto hand_off = [&](std::size_t index) {
            DispatchJob job{st->id, index, telemetry::now_ns()};
            if (!queue) {
                decode_and_emit(*st, job, st->own, agg_latency);
                return;
            }
            while (!queue->try_push(std::move(job))) std::this_thread::yield();
            const auto depth = static_cast<std::int64_t>(queue->size());
            g_queue.set(depth);
            h_queue.observe(static_cast<std::uint64_t>(depth));
        };
        try {
            if (st->own.fpga) {
                FpgaPipeline& fpga = *st->own.fpga;
                consume_stream(
                    st->ring, st->link, st->totals,
                    [&](const Block& block) {
                        if (down) return;
                        fpga.push_samples(std::span(block.data, block.size));
                    },
                    [&](std::size_t index, bool /*more_frames*/) {
                        if (down) return;
                        FrameBuffer* buf = claim(index);
                        if (buf == nullptr) return;
                        // The spent capture's bins go back to the model.
                        buf->capture = fpga.capture_frame(std::move(buf->capture));
                        hand_off(index);
                    });
            } else {
                // The frame being accumulated, zeroed first.
                Frame* frame = nullptr;
                const auto next = [&](std::size_t index) {
                    if (FrameBuffer* buf = claim(index)) {
                        frame = &buf->frame;
                        frame->fill(0.0);
                    }
                };
                next(0);
                const std::size_t records_per_period =
                    st->link.records_per_period;
                consume_stream(
                    st->ring, st->link, st->totals,
                    [&](const Block& block) {
                        if (down) return;  // the frame was handed off
                        const std::size_t record_in_period =
                            static_cast<std::size_t>(block.seq %
                                                     records_per_period);
                        auto row = frame->record(record_in_period);
                        for (std::size_t i = 0; i < block.size; ++i)
                            row[i] += static_cast<double>(block.data[i]);
                    },
                    [&](std::size_t index, bool more_frames) {
                        if (down) return;
                        hand_off(index);
                        if (more_frames) next(index + 1);
                    });
            }
        } catch (...) {
            st->failure = std::current_exception();
            // The producer only exits after delivering the sentinel:
            // drain this stream's link (discarding records) so it can.
            if (!st->totals.stream_done) {
                for (;;) {
                    auto block = st->ring.try_pop();
                    if (!block) {
                        std::this_thread::yield();
                        continue;
                    }
                    if (block->end) break;
                }
            }
        }
        active.fetch_sub(1, std::memory_order_release);
    };

    // --- Threads: producers, then consumers, then the decode pool ---------
    std::vector<std::thread> producers;
    producers.reserve(n);
    for (auto& stp : states) {
        producers.emplace_back([st = stp.get()] {
            st->producer_stall_s =
                produce_stream(st->ring, *st->spec.source, st->link);
        });
    }
    std::vector<std::thread> consumers;
    consumers.reserve(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i)
        consumers.emplace_back(consume, states[i].get());

    // Per-(worker, stream) decoders, created on the first frame a worker
    // sees from a stream. Decode is a pure function of the closed frame for
    // both backends, so worker routing cannot change a stream's bits; only
    // retry/cycle accounting is per-decoder (summed per stream after the
    // joins). Each CPU decoder gets its share of the stream's cpu_threads
    // (hardware concurrency when 0), at least one.
    std::vector<std::vector<Decoder>> decoders(workers_n);
    for (auto& row : decoders) row.resize(n);

    std::vector<std::thread> workers;
    workers.reserve(workers_n);
    for (std::size_t w = 0; w < workers_n; ++w) {
        workers.emplace_back([&, w] {
            std::vector<Decoder>& local = decoders[w];
            for (;;) {
                auto job = queue->try_pop();
                if (!job) {
                    if (active.load(std::memory_order_acquire) == 0) {
                        // Every consumer has finished; one more pop cannot
                        // miss a job (see the `active` comment).
                        job = queue->try_pop();
                        if (!job) break;
                    } else {
                        std::this_thread::yield();
                        continue;
                    }
                }
                if (decode_down.load(std::memory_order_relaxed)) continue;
                StreamState& st = *states[job->stream];
                try {
                    Decoder& dec = local[job->stream];
                    if (!dec.cpu && !dec.fpga) {
                        const std::size_t threads =
                            st.spec.config.cpu_threads > 0
                                ? st.spec.config.cpu_threads
                                : std::thread::hardware_concurrency();
                        dec = make_decoder(
                            st.spec, std::max<std::size_t>(1, threads / workers_n));
                    }
                    decode_and_emit(st, *job, dec, agg_latency);
                } catch (...) {
                    {
                        std::lock_guard lock(failure_mutex);
                        if (!pool_failure) pool_failure = std::current_exception();
                    }
                    decode_down.store(true, std::memory_order_relaxed);
                    // Release every stream: waiting emitters and consumers
                    // waiting for a buffer get false and stop. The pool
                    // keeps popping, and skipping, until the queue drains.
                    for (auto& s : states) s->turnstile.abort();
                }
            }
        });
    }

    // The last stream's consumer runs here, on the thread that would
    // otherwise only wait to join: a solo run is its producer plus the
    // caller. It starts last, after the pool it may wait on.
    consume(states.back().get());

    for (auto& t : producers) t.join();
    for (auto& t : consumers) t.join();
    for (auto& t : workers) t.join();

    // Fleet-level (decode pool) failures take precedence: they explain any
    // per-stream fallout. Otherwise the first failing stream's error.
    if (pool_failure) std::rethrow_exception(pool_failure);
    for (const auto& st : states)
        if (st->failure) std::rethrow_exception(st->failure);

    // --- Report -----------------------------------------------------------
    FleetReport out;
    out.wall_seconds = wall.seconds();
    out.frame_latency = agg_latency.summarize();
    out.streams.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        StreamState& st = *states[i];
        const auto& cfg = st.spec.config;
        // Lossless-handoff postconditions per stream, degraded-mode aware:
        // the ring fully drained, every configured frame was closed and
        // emitted once, and nothing was dropped unless the stream runs
        // DropNewest (under Block a forced overrun waits like a full ring).
        HTIMS_CHECK(st.ring.empty(), "stream fully drained at end of run");
        HTIMS_CHECK(st.totals.frames_closed == cfg.frames,
                    "every configured frame of every stream was closed");
        HTIMS_CHECK(st.shard.frames_emitted.load(std::memory_order_relaxed) ==
                        cfg.frames,
                    "every closed frame was decoded and emitted exactly once");
        HTIMS_CHECK(st.totals.records_dropped == 0 ||
                        cfg.ring_policy != RingFullPolicy::kBlock,
                    "Block policy never drops records");

        FleetStreamReport sr;
        HybridReport& r = sr.report;
        r.frames = st.totals.frames_closed;
        r.samples = st.link.records_total * st.link.record_len;
        r.records_dropped = st.totals.records_dropped;
        r.frames_degraded = st.totals.frames_degraded;
        r.producer_stall_seconds = st.producer_stall_s;
        r.consumer_idle_seconds = st.totals.idle_s;
        r.decode_wait_seconds = st.decode_wait_s;
        r.last_frame = std::move(st.last_frame);
        r.fpga = st.fpga;
        // A stream's wall clock runs to its last ordered emission.
        r.wall_seconds = st.last_emit_ns > run_start_ns
                             ? static_cast<double>(st.last_emit_ns - run_start_ns) * 1e-9
                             : out.wall_seconds;
        r.sample_rate = r.wall_seconds > 0.0
                            ? static_cast<double>(r.samples) / r.wall_seconds
                            : 0.0;
        r.cpu_task_retries = st.own.cpu ? st.own.cpu->task_retries() : 0;
        for (const auto& d : decoders)
            if (d[i].cpu) r.cpu_task_retries += d[i].cpu->task_retries();
        if (cfg.faults != nullptr) r.faults = cfg.faults->counts();
        sr.frame_latency = st.shard.latency.summarize();

        out.frames += r.frames;
        out.samples += r.samples;
        out.records_dropped += r.records_dropped;
        out.frames_degraded += r.frames_degraded;
        out.streams.push_back(std::move(sr));
    }
    out.sample_rate = out.wall_seconds > 0.0
                          ? static_cast<double>(out.samples) / out.wall_seconds
                          : 0.0;
    return out;
}

}  // namespace htims::pipeline
