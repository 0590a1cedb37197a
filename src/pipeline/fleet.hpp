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
// Each frame lies in one buffer from its first record to its emission: a
// stream owns FleetConfig::decode_workers + 1 of them, the consumer
// accumulates into one, and whichever thread decodes the frame does so in
// that buffer (the CPU backend in place, the FPGA model from the buffer's
// capture into the buffer's frame) — the paper's FPGA, which accumulates
// and deconvolves each frame in its own on-chip store, does the same.
//
// Identity comes from structure, not luck:
//   * there is one transport and one decode-and-emit step: pool workers and
//     inline consumers run the same code;
//   * frames are dispatched in frame order per stream and the MPMC queue is
//     FIFO, so the lowest undecoded frame index of a stream is always held
//     by some worker — ordered emission never deadlocks, and a consumer
//     waiting for a buffer waits only on frames it has already dispatched;
//   * decode is a pure function of the closed frame (pinned for both
//     backends by the inline-vs-pool digest tests), so which thread decodes
//     a frame cannot change its bits.
//
// Failure isolation: a fault plan on stream k degrades (or, on a terminal
// error, fails) stream k alone; other streams' digests and counters are
// untouched. Per-stream frame latency is sharded (cache-line-padded
// shards, no cross-stream false sharing) and aggregated into the
// FleetReport; append_fleet_scalars writes it into an htims.telemetry.v1
// run report as scalars, per stream and aggregate — the E16 bench
// protocol's scaling evidence. The registry's hybrid.* instruments hold
// sums across streams.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/frame.hpp"
#include "pipeline/hybrid.hpp"
#include "telemetry/histogram.hpp"

namespace htims::telemetry {
struct RunMeta;
}

namespace htims::pipeline {

/// One instrument stream of a fleet. `config` is a full HybridConfig
/// except `decode_workers`, which must stay 0: the pool size belongs to
/// FleetConfig.
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
    /// Shared decode pool size. Every stream gets decode_workers + 1 frame
    /// buffers; frame k uses buffer k mod (decode_workers + 1) once frame
    /// k - (decode_workers + 1) has been emitted. 0 decodes every frame
    /// inline on its stream's consumer, in its one buffer: no queue, no
    /// workers. With M >= 1 the dispatch queue holds every buffer of every
    /// stream, so it never fills; a stream whose buffers all hold frames
    /// not yet emitted stalls its own consumer, which fills its ring and
    /// stalls its producer — never its neighbours'.
    std::size_t decode_workers = 2;
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

/// Append `report` to a run report as scalars: the aggregate figures as
/// `<prefix>.<field>`, then stream i's as `<prefix>.stream<i>.<field>`;
/// each latency summary (ns) becomes `.count/.min/.max/.mean/.p50/.p95/
/// .p99` under its `frame_latency_ns` key.
void append_fleet_scalars(telemetry::RunMeta& meta, const FleetReport& report,
                          const std::string& prefix);

/// The one config check for solo runs and fleet streams: throws ConfigError,
/// its message starting with `who`, unless `stream` can run.
/// `stream.config.decode_workers` is not read; each caller has its own rule
/// for it.
void validate_stream(const FleetStream& stream, const std::string& who);

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
