// stream_link.hpp — the per-stream ingest protocol of the streaming engine.
//
// One instrument stream is: a producer thread replaying a RecordSource into
// a bounded SPSC ring (batch-staged, line-rate paced, fault-injected, with
// the ring-full policy), and a consumer loop that drains the ring in
// batches, closes frames by watching the sequence tags, and accounts
// drops/degradation. The producer reads its source only through
// record_block — faulted and paced records ask for one row, the rest for
// up to a batch — and stages every row through the same code; one batch
// size (kLinkBatchRecords, clamped to the ring) bounds both its
// publications and the consumer's pops. FleetRunner (pipeline/fleet.cpp)
// drives one of these per stream; HybridPipeline is a one-stream fleet, so
// a stream runs the same transport code whether it runs solo or beside
// others — the fleet-parity digest matrix in tests/test_fleet.cpp pins
// that.
//
// Accounting: each body returns (producer) or fills in place (consumer) its
// stream's figures for the run report, and publishes the same events to the
// registry's hybrid.* instruments — per stall, idle or drop event and per
// popped batch, never per record — so the registry holds sums across every
// stream of a run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "pipeline/hybrid.hpp"
#include "pipeline/spsc_ring.hpp"
#include "telemetry/telemetry.hpp"

namespace htims::pipeline {

/// One streamed block: a view into the record source's backing storage,
/// tagged with its global record index so the consumer can close frames
/// correctly even when records were dropped upstream. `end` marks the
/// stream sentinel the producer always delivers (never dropped).
struct Block {
    const std::uint32_t* data = nullptr;
    std::size_t size = 0;
    std::uint64_t seq = 0;
    bool end = false;
};

/// Records per producer publication and per consumer pop, clamped to the
/// ring's capacity: the acquire/release protocol cost is paid per span of
/// up to this many records instead of per ~32-byte record.
inline constexpr std::size_t kLinkBatchRecords = 32;

/// The per-stream transport parameters both protocol bodies share.
struct LinkParams {
    std::size_t record_len = 0;           ///< samples per TOF record (mz_bins)
    std::size_t records_per_period = 0;   ///< drift_bins
    std::uint64_t records_total = 0;      ///< frames x averages x drift_bins
    std::uint64_t records_per_frame = 0;  ///< averages x drift_bins
    std::size_t frames = 0;
    std::size_t batch_cap = 1;  ///< records per producer publication and
                                ///< per consumer pop
    RingFullPolicy policy = RingFullPolicy::kBlock;
    fault::FaultInjector* faults = nullptr;
};

/// What the consumer loop counted, filled in place so a caller unwinding
/// from an exception mid-consume still sees how far the stream got.
/// `frames_closed` equals params.frames on a complete run (the engine's
/// postcondition); `stream_done` tells whether the end sentinel was seen,
/// i.e. whether the link still needs draining for the producer to finish.
struct ConsumeTotals {
    double idle_s = 0.0;  ///< time starved on an empty ring
    std::uint64_t records_dropped = 0;
    std::uint64_t frames_degraded = 0;
    std::uint64_t frames_closed = 0;
    bool stream_done = false;
};

/// The producer body: stream every record of `source` into `ring`, batch-
/// staged and line-rate paced, with fault injection and the ring-full
/// policy applied per record, then deliver the end sentinel (always,
/// whatever the policy). Runs on the producer thread.
/// Returns the time spent blocked on a full ring.
inline double produce_stream(SpscRing<Block>& ring, RecordSource& source,
                             const LinkParams& p) {
    auto& tel = telemetry::Registry::global();
    static auto& c_stalls = tel.counter("hybrid.producer_stalls");
    static auto& c_jitter = tel.counter("hybrid.link_jitter_events");
    static auto& h_stall = tel.histogram("hybrid.producer_stall_ns");
    double stalled_total = 0.0;
    const auto stalled = [&](double seconds) {
        stalled_total += seconds;
        c_stalls.increment();
        h_stall.observe(static_cast<std::uint64_t>(seconds * 1e9));
    };

    // Blocking push with stall accounting.
    const auto push_blocking = [&](const Block& block) {
        WallTimer stall;
        while (!ring.try_push(Block{block})) std::this_thread::yield();
        const double waited = stall.seconds();
        if (waited > 0.0) stalled(waited);
    };

    // Per-record slow path: a record that met a full (or fault-forced
    // "full") link goes through the configured policy. A dropped record
    // is accounted by the consumer via the seq gap.
    const auto push_policy = [&](const Block& block) {
        if (p.policy == RingFullPolicy::kBlock) push_blocking(block);
    };

    // Batch staging: consecutive unpaced, unfaulted records accumulate here
    // and publish with one ring operation (one release-store).
    std::vector<Block> stage;
    stage.reserve(p.batch_cap);
    const auto flush_stage = [&] {
        std::size_t off = 0;
        while (off < stage.size()) {
            const std::size_t pushed =
                ring.push_batch(std::span(stage).subspan(off));
            if (pushed == 0) break;
            off += pushed;
        }
        // Records that met a full ring go through the policy one at a
        // time, so whether a record is dropped or waited for does not
        // depend on how it was staged.
        for (; off < stage.size(); ++off) {
            if (ring.try_push(Block{stage[off]})) continue;
            push_policy(stage[off]);
        }
        stage.clear();
    };

    WallTimer stream_clock;  // release_ns pacing is relative to here
    std::uint64_t seq = 0;
    while (seq < p.records_total) {
        // Line-rate pacing: sleep off the bulk of the wait, then spin the
        // sub-scheduler-quantum tail so release jitter stays small. Earlier
        // records must reach the link before this one waits.
        const std::uint64_t release = source.release_ns(seq);
        if (release > 0) {
            flush_stage();
            for (;;) {
                const double remain_s =
                    static_cast<double>(release) * 1e-9 - stream_clock.seconds();
                if (remain_s <= 0.0) break;
                if (remain_s > 200e-6)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(remain_s - 100e-6));
                else
                    std::this_thread::yield();
            }
        }

        // Stage a contiguous run of records, cut at the batch size and the
        // frame boundary (publications stay frame-local). Batch a run only
        // when its *last* record releases immediately — release times are
        // non-decreasing, so the whole run does; paced streams fall back to
        // record-at-a-time with the wait above.
        std::uint64_t want = 1;
        bool overrun = false;
        if (p.faults != nullptr) {
            // Faulted runs go record at a time so the injector sees one
            // event per record, in order (jitter, then overrun).
            const auto jitter = p.faults->decide(fault::Site::kLinkJitter);
            if (jitter.fire) {
                // A short, plan-determined transport hiccup (10..80 us).
                const auto us = 10 * (1 + p.faults->draw_below(
                                              fault::Site::kLinkJitter,
                                              jitter.event, 8));
                std::this_thread::sleep_for(std::chrono::microseconds(us));
                c_jitter.increment();
            }
            overrun = p.faults->should_fire(fault::Site::kLinkOverrun);
        } else {
            const std::uint64_t frame_end =
                (seq / p.records_per_frame + 1) * p.records_per_frame;
            want = std::min(static_cast<std::uint64_t>(p.batch_cap - stage.size()),
                            frame_end - seq);
            if (want > 1 && source.release_ns(seq + want - 1) > 0) want = 1;
        }
        const auto rows = source.record_block(seq, static_cast<std::size_t>(want));
        const std::size_t k = rows.size() / p.record_len;
        HTIMS_DCHECK(k >= 1 && k <= want && rows.size() == k * p.record_len,
                     "record_block returns 1..max_records whole rows");
        if (overrun) {
            // Forced overrun: straight to the policy, behind everything
            // staged before it.
            flush_stage();
            push_policy(Block{rows.data(), p.record_len, seq, false});
        } else {
            for (std::size_t j = 0; j < k; ++j)
                stage.push_back(Block{rows.data() + j * p.record_len,
                                      p.record_len, seq + j, false});
        }
        seq += k;
        if (stage.size() >= p.batch_cap || seq % p.records_per_frame == 0)
            flush_stage();
    }
    flush_stage();
    // Stream-end sentinel: always delivered, whatever the policy.
    push_blocking(Block{nullptr, 0, p.records_total, true});
    return stalled_total;
}

/// The consumer body: drain the ring in batches until the end sentinel,
/// folding records with `accumulate(block)` and finishing frames with
/// `close_frame(index, more_frames)`. Frames are closed by watching the
/// sequence tags, so frames whose trailing records were dropped still close
/// (as degraded frames).
template <typename Accumulate, typename CloseFrame>
void consume_stream(SpscRing<Block>& ring, const LinkParams& p,
                    ConsumeTotals& totals, Accumulate&& accumulate,
                    CloseFrame&& close_frame) {
    auto& tel = telemetry::Registry::global();
    static auto& c_records = tel.counter("hybrid.records");
    static auto& c_idles = tel.counter("hybrid.consumer_idles");
    static auto& c_dropped = tel.counter("hybrid.records_dropped");
    static auto& c_degraded = tel.counter("hybrid.frames_degraded");
    static auto& g_ring = tel.gauge("hybrid.ring_occupancy");
    static auto& h_ring = tel.histogram("hybrid.ring_occupancy");
    static auto& h_idle = tel.histogram("hybrid.consumer_idle_ns");
    static auto& h_batch = tel.histogram("hybrid.batch_size");
    const bool tel_on = telemetry::kCompiledIn && tel.enabled();
    std::uint64_t next_seq = 0;  // next record index expected

    // Per-frame degradation flags (a frame is degraded when at least one of
    // its records was dropped anywhere on the link).
    std::vector<std::uint8_t> degraded(p.frames, 0);
    const auto mark_dropped_range = [&](std::uint64_t first, std::uint64_t last) {
        // Records in [first, last) were lost; mark their frames.
        totals.records_dropped += last - first;
        c_dropped.add(static_cast<std::int64_t>(last - first));
        for (std::uint64_t f = first / p.records_per_frame;
             f <= (last - 1) / p.records_per_frame; ++f)
            degraded[static_cast<std::size_t>(f)] = 1;
    };
    const auto close_through = [&](std::uint64_t frame_limit) {
        while (totals.frames_closed < frame_limit) {
            close_frame(static_cast<std::size_t>(totals.frames_closed),
                        totals.frames_closed < p.frames - 1);
            if (degraded[static_cast<std::size_t>(totals.frames_closed)] != 0) {
                ++totals.frames_degraded;
                c_degraded.increment();
            }
            ++totals.frames_closed;
        }
    };

    // Batch pop: drain up to batch_cap blocks per protocol round trip;
    // the per-block bookkeeping below is unchanged from per-record.
    std::vector<Block> popped(p.batch_cap);
    while (!totals.stream_done) {
        std::size_t got = ring.pop_batch(std::span(popped));
        if (got == 0) {
            WallTimer idle;
            while ((got = ring.pop_batch(std::span(popped))) == 0)
                std::this_thread::yield();
            const double idled = idle.seconds();
            totals.idle_s += idled;
            c_idles.increment();
            h_idle.observe(static_cast<std::uint64_t>(idled * 1e9));
        }
        if (tel_on) {
            // Ring occupancy as the consumer pops: the reading the paper's
            // backpressure argument cares about.
            const auto depth = static_cast<std::int64_t>(ring.size());
            g_ring.set(depth);
            h_ring.observe(static_cast<std::uint64_t>(depth));
            h_batch.observe(got);
        }
        std::int64_t accumulated = 0;
        for (std::size_t b = 0; b < got; ++b) {
            const Block& block = popped[b];
            if (block.end) {
                // The sentinel is the stream's last block by construction;
                // nothing follows it in this batch.
                totals.stream_done = true;
                break;
            }
            if (block.seq > next_seq) mark_dropped_range(next_seq, block.seq);
            next_seq = block.seq + 1;
            close_through(block.seq / p.records_per_frame);
            ++accumulated;
            accumulate(block);
        }
        c_records.add(accumulated);
    }
    if (next_seq < p.records_total) mark_dropped_range(next_seq, p.records_total);
    close_through(p.frames);
}

}  // namespace htims::pipeline
