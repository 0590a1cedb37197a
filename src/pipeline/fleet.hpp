// fleet.hpp — the streaming engine: N instrument streams over one decode
// pool.
//
// A production deployment runs many instruments against one processing
// host. FleetRunner models that: N independent streams — each with its own
// layout, configuration, seed, fault plan, and record source (live period
// template or frame-store replay) — ingest concurrently through per-stream
// SPSC rings (pipeline/stream_link.hpp). With FleetConfig::decode_workers
// = 0 each stream's consumer decodes its own frames inline; with M >= 1
// every closed frame travels through ONE bounded lock-free MPMC dispatch
// queue (pipeline/mpmc_queue.hpp) to a shared pool of M decode workers,
// and per-stream ordered-emission turnstiles (pipeline/turnstile.hpp)
// restore frame order within each stream. HybridPipeline is this engine
// run with one stream, so a stream's output is bit-identical whether it
// runs solo or in a fleet — the fleet-parity digest matrix in
// tests/test_fleet.cpp pins exactly that, across mixed CPU/FPGA backends,
// mixed live/replay sources, and worker counts.
//
// Identity comes from structure, not luck:
//   * there is one transport and one decode-and-emit step: pool workers and
//     inline consumers run the same code;
//   * frames are dispatched in frame order per stream and the MPMC queue is
//     FIFO, so the lowest undecoded frame index of a stream is always held
//     by some worker — ordered emission never deadlocks;
//   * decode is a pure function of the closed frame (pinned for both
//     backends by the inline-vs-pool digest tests), so which thread decodes
//     a frame cannot change its bits.
//
// Failure isolation: a fault plan on stream k degrades (or, on a terminal
// error, fails) stream k alone; other streams' digests and counters are
// untouched. Per-stream frame latency is sharded (cache-line-padded
// shards, no cross-stream false sharing) and aggregated into the
// FleetReport, whose JSON rendering (fleet_report_json) carries per-stream
// and aggregate p99 frame latency — the E16 bench protocol's scaling
// evidence. The registry's hybrid.* instruments hold sums across streams.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/frame.hpp"
#include "pipeline/hybrid.hpp"
#include "telemetry/histogram.hpp"

namespace htims::pipeline {

/// One instrument stream of a fleet. `config` is a full HybridConfig
/// except `decode_workers`, which must stay 0: the pool size belongs to
/// FleetConfig. `decode_buffers` bounds this stream's frames in flight
/// when the fleet has decode workers.
struct FleetStream {
    prs::OversampledPrs sequence;  ///< this stream's PRS (seed included)
    FrameLayout layout;
    HybridConfig config;
    /// Live source: one period of samples replayed averages x frames times
    /// (ignored when `source` is set).
    std::vector<std::uint32_t> period_samples;
    /// External source (e.g. store::ReplaySource); must outlive run() and
    /// deliver exactly frames x averages x drift_bins records.
    RecordSource* source = nullptr;
};

/// Fleet-wide knobs.
struct FleetConfig {
    /// Shared decode pool size. 0 decodes every frame inline on its
    /// stream's consumer: no queue, no workers, no spare buffers.
    std::size_t decode_workers = 2;
    /// Dispatch queue depth in frames; 0 sizes it so a queue-full condition
    /// is impossible (the per-stream buffer pools bound the in-flight total).
    /// Smaller values exercise dispatch backpressure: a stream whose frames
    /// meet a full queue stalls its consumer, which fills its ring and
    /// stalls its producer — never its neighbours'.
    std::size_t dispatch_depth = 0;
};

/// Per-stream outcome: the solo-compatible report plus the stream's
/// close-to-emission frame latency distribution.
struct FleetStreamReport {
    HybridReport report;
    telemetry::HistogramSummary frame_latency;  ///< ns, dispatch -> emission
};

/// Fleet outcome: per-stream reports and the cross-stream aggregates.
struct FleetReport {
    std::vector<FleetStreamReport> streams;
    double wall_seconds = 0.0;         ///< whole-fleet wall time
    std::uint64_t frames = 0;          ///< frames closed, all streams
    std::uint64_t samples = 0;         ///< samples streamed, all streams
    double sample_rate = 0.0;          ///< aggregate samples/second
    std::uint64_t records_dropped = 0;
    std::uint64_t frames_degraded = 0;
    telemetry::HistogramSummary frame_latency;  ///< ns, all streams pooled
};

/// Render a fleet report as a standalone JSON document (schema
/// "htims.fleet.v1"): aggregate scalars plus one entry per stream with its
/// throughput, degradation counters, and p50/p95/p99 frame latency.
std::string fleet_report_json(const FleetReport& report);

/// The one config check for solo runs and fleet streams: throws ConfigError,
/// its message starting with `who`, unless `stream` can run with
/// `decode_workers` pool workers. `stream.config.decode_workers` is not
/// read; each caller has its own rule for it.
void validate_stream(const FleetStream& stream, std::size_t decode_workers,
                     const std::string& who);

/// The streaming engine. Owns every thread for the duration of run(): one
/// producer per stream, a consumer thread per stream but the last (whose
/// consumer runs on the calling thread), plus the shared decode pool.
class FleetRunner {
public:
    /// Validates every stream's configuration eagerly (ConfigError on a bad
    /// one, naming the stream) and builds each live stream's template
    /// source once, from its moved-in period samples.
    explicit FleetRunner(std::vector<FleetStream> streams,
                         const FleetConfig& config = {});

    std::size_t stream_count() const { return streams_.size(); }

    /// Execute all streams to completion; blocking. A terminal error on one
    /// stream still runs every other stream to completion, then rethrows
    /// the first failure (fleet-level decode-pool failures take precedence).
    FleetReport run();

private:
    std::vector<FleetStream> streams_;  ///< every `source` set after construction
    std::vector<std::unique_ptr<PeriodTemplateSource>> templates_;
    FleetConfig config_;
};

}  // namespace htims::pipeline
