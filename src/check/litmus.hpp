// litmus.hpp — the litmus-unit registry shared by tests/test_model.cpp and
// tools/modelcheck.
//
// Each unit is a small concurrent program over the *production* protocol
// templates (SpscRing, OrderTurnstile, BasicTraceBuffer) instantiated with
// the model-checking atomics policy. Run through check(), a unit proves a
// protocol property over EVERY interleaving and every allowed weak-memory
// read. Units paired with a mutant policy (src/check/mutants.hpp) also act
// as soundness probes: the same body under the mutant must produce a
// failing interleaving, or the `model` gate fails.
//
// Litmus bodies make a bounded number of attempts (no unbounded spinning:
// a spin loop would give the DFS an unbounded schedule tree) and assert
// order/visibility properties conditionally on what an interleaving
// delivered. Visibility bugs surface as data races on the plain payload
// slots (model::var is vector-clock race checked), which is what lets a
// demoted release publish be caught even when every asserted *value* still
// comes out right.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "check/model.hpp"
#include "check/mutants.hpp"
#include "pipeline/mpmc_queue.hpp"
#include "pipeline/spsc_ring.hpp"
#include "pipeline/turnstile.hpp"
#include "telemetry/trace.hpp"

namespace htims::check {

// ---- litmus bodies (templated over the atomics policy) --------------------

/// Single push/pop at capacity 2: slot handoff + FIFO for single-record ops.
template <typename P>
void litmus_ring_single_push_pop() {
    pipeline::SpscRing<std::uint64_t, P> ring(2);
    thread producer([&] {
        MODEL_ASSERT(ring.try_push(11));  // empty ring: must fit
        MODEL_ASSERT(ring.try_push(22));  // one consumer pop at most: fits
    });
    std::uint64_t expect = 11;
    for (int attempt = 0; attempt < 2; ++attempt) {
        auto v = ring.try_pop();
        if (v.has_value()) {
            MODEL_ASSERT(*v == expect);
            expect += 11;
        }
    }
    producer.join();
}

/// push_batch/pop_batch across the wrap boundary at capacity 2: the batch
/// is published with one release store, so a concurrent pop_batch sees all
/// of it or none of it.
template <typename P>
void litmus_ring_batch_wrap() {
    pipeline::SpscRing<std::uint64_t, P> ring(2);
    // Advance head to the wrap point single-threaded: the batch below then
    // spans slots [1, 0].
    MODEL_ASSERT(ring.try_push(1));
    MODEL_ASSERT(ring.try_pop().has_value());
    thread producer([&] {
        std::array<std::uint64_t, 2> in{7, 8};
        MODEL_ASSERT(ring.push_batch(std::span(in)) == 2);  // ring is empty
    });
    std::array<std::uint64_t, 2> out{};
    const std::size_t got = ring.pop_batch(std::span(out));
    MODEL_ASSERT(got == 0 || got == 2);  // single-store publish: no half batch
    if (got == 2) {
        MODEL_ASSERT(out[0] == 7);
        MODEL_ASSERT(out[1] == 8);
    }
    producer.join();
}

/// Mixed single/batch traffic at capacity 2: FIFO with no loss or
/// duplication whatever the interleaving delivers.
template <typename P>
void litmus_ring_mixed_ops() {
    pipeline::SpscRing<std::uint64_t, P> ring(2);
    thread producer([&] {
        MODEL_ASSERT(ring.try_push(1));
        std::array<std::uint64_t, 2> in{2, 3};
        ring.push_batch(std::span(in));  // 0..2 fit depending on the consumer
    });
    std::uint64_t expect = 1;
    std::array<std::uint64_t, 2> out{};
    const std::size_t got = ring.pop_batch(std::span(out));
    for (std::size_t i = 0; i < got; ++i) {
        MODEL_ASSERT(out[i] == expect);
        ++expect;
    }
    auto v = ring.try_pop();
    if (v.has_value()) {
        MODEL_ASSERT(*v == expect);
        ++expect;
    }
    producer.join();
}

/// Cached-peer-index staleness: a full ring, a concurrent pop, and a third
/// push that can only proceed by refreshing the producer's tail cache —
/// the refresh must also acquire the consumer's read of the recycled slot.
template <typename P>
void litmus_ring_cached_peer_staleness() {
    pipeline::SpscRing<std::uint64_t, P> ring(2);
    MODEL_ASSERT(ring.try_push(1));
    MODEL_ASSERT(ring.try_push(2));  // full: producer's tail cache is stale
    thread consumer([&] {
        auto v = ring.try_pop();
        MODEL_ASSERT(v.has_value() && *v == 1);
    });
    // Reuses slot 0 (which the consumer reads) iff the refreshed cache
    // proves the pop completed.
    const bool pushed = ring.try_push(3);
    consumer.join();
    auto a = ring.try_pop();
    MODEL_ASSERT(a.has_value() && *a == 2);
    auto b = ring.try_pop();
    MODEL_ASSERT(b.has_value() == pushed);
    if (pushed) MODEL_ASSERT(*b == 3);
}

/// N workers emit through the turnstile in frame order; a shared plain cell
/// written by each emission pins both the ordering and the inter-emission
/// happens-before edge (a demoted order turns it into a data race).
template <typename P>
void litmus_turnstile_ordered(std::size_t workers) {
    pipeline::OrderTurnstile<P> ts;
    typename P::template var<std::uint64_t> shared{0};
    std::vector<thread> pool;
    for (std::size_t i = 0; i < workers; ++i) {
        pool.emplace_back([&ts, &shared, i] {
            MODEL_ASSERT(ts.wait_turn(i));
            MODEL_ASSERT(shared.load_plain() == i);  // emissions in frame order
            shared.store_plain(i + 1);
            ts.advance();
        });
    }
    for (auto& t : pool) t.join();
    MODEL_ASSERT(shared.load_plain() == workers);
}

template <typename P>
void litmus_turnstile_ordered_2() {
    litmus_turnstile_ordered<P>(2);
}

template <typename P>
void litmus_turnstile_ordered_3() {
    litmus_turnstile_ordered<P>(3);
}

/// abort() releases a waiter blocked on a turn that will never come, and a
/// late advance() cannot resurrect the turnstile.
template <typename P>
void litmus_turnstile_abort() {
    pipeline::OrderTurnstile<P> ts;
    thread waiter([&] {
        MODEL_ASSERT(!ts.wait_turn(1));  // turn 1 is never granted
    });
    ts.abort();
    waiter.join();
    ts.advance();  // racing/late advance stays inside the aborted band
    MODEL_ASSERT(!ts.wait_turn(2));
    MODEL_ASSERT(!ts.wait_until(3));  // a consumer waiting for a buffer too
}

/// Buffer reuse: a worker decodes frame 0 in its buffer (reads and writes
/// it), emits, and advances; the consumer refills the same buffer for the
/// next frame once wait_until(1) returns. The emitter's buffer traffic must
/// happen-before the refill (a demoted advance is a data race on it).
template <typename P>
void litmus_turnstile_slot_reuse() {
    pipeline::OrderTurnstile<P> ts;
    typename P::template var<std::uint64_t> buffer{7};  // frame 0, accumulated
    thread worker([&] {
        MODEL_ASSERT(ts.wait_turn(0));
        buffer.store_plain(buffer.load_plain() + 1);  // decode in place
        ts.advance();
    });
    MODEL_ASSERT(ts.wait_until(1));  // frame 0 emitted: its buffer is free
    buffer.store_plain(0);           // zero it for the next frame
    worker.join();
    MODEL_ASSERT(buffer.load_plain() == 0);
}

/// Two turnstiles (two fleet streams) sharing a worker pool never
/// cross-release: each instance's waiter is released only by that
/// instance's advance, and the advance→observe edge carries the emitting
/// stream's payload writes across workers — per instance, even while the
/// other turnstile churns concurrently.
template <typename P>
void litmus_turnstile_per_stream_independence() {
    pipeline::OrderTurnstile<P> a;
    pipeline::OrderTurnstile<P> b;
    typename P::template var<std::uint64_t> a_val{0};
    typename P::template var<std::uint64_t> b_val{0};
    thread w1([&] {
        MODEL_ASSERT(a.wait_turn(0));
        a_val.store_plain(1);
        a.advance();
        MODEL_ASSERT(b.wait_turn(1));  // released only by w2's b.advance()
        MODEL_ASSERT(b_val.load_plain() == 1);
    });
    thread w2([&] {
        MODEL_ASSERT(b.wait_turn(0));
        b_val.store_plain(1);
        b.advance();
        MODEL_ASSERT(a.wait_turn(1));  // released only by w1's a.advance()
        MODEL_ASSERT(a_val.load_plain() == 1);
    });
    w1.join();
    w2.join();
}

/// MPMC dispatch: one producer hands one element to a concurrent consumer.
/// The consumer's payload move-out must be ordered after the producer's
/// payload write by the slot ticket alone (a demoted publish is a data race
/// on the payload slot).
template <typename P>
void litmus_mpmc_single_handoff() {
    pipeline::MpmcQueue<std::uint64_t, P> q(2);
    thread producer([&] { MODEL_ASSERT(q.try_push(7)); });
    for (int attempt = 0; attempt < 2; ++attempt) {
        auto v = q.try_pop();
        if (v.has_value()) {
            MODEL_ASSERT(*v == 7);
            break;
        }
    }
    producer.join();
}

/// The empty↔non-empty boundary: a concurrent pop either misses the push
/// (empty) or gets the whole element; after the join exactly one element
/// total was delivered, and the queue reads empty again.
template <typename P>
void litmus_mpmc_empty_boundary() {
    pipeline::MpmcQueue<std::uint64_t, P> q(2);
    thread producer([&] { MODEL_ASSERT(q.try_push(5)); });
    auto v1 = q.try_pop();  // concurrent: empty or {5}
    if (v1.has_value()) MODEL_ASSERT(*v1 == 5);
    producer.join();
    auto v2 = q.try_pop();
    MODEL_ASSERT(v1.has_value() != v2.has_value());  // exactly one delivery
    if (v2.has_value()) MODEL_ASSERT(*v2 == 5);
    MODEL_ASSERT(!q.try_pop().has_value());
}

/// The full↔free boundary across the slot-recycle edge: a full queue, a
/// concurrent pop, and a third push that can only land in the recycled
/// slot — the producer's ticket read must also acquire the consumer's
/// drain of that slot (mirrors ring_cached_peer_staleness).
template <typename P>
void litmus_mpmc_full_wrap() {
    pipeline::MpmcQueue<std::uint64_t, P> q(2);
    MODEL_ASSERT(q.try_push(1));
    MODEL_ASSERT(q.try_push(2));  // full
    thread consumer([&] {
        auto v = q.try_pop();
        MODEL_ASSERT(v.has_value() && *v == 1);
    });
    const bool pushed = q.try_push(3);  // lands iff slot 0 was recycled
    consumer.join();
    auto a = q.try_pop();
    MODEL_ASSERT(a.has_value() && *a == 2);  // FIFO preserved
    auto b = q.try_pop();
    MODEL_ASSERT(b.has_value() == pushed);
    if (pushed) MODEL_ASSERT(*b == 3);
}

/// Two concurrent producers: head-CAS arbitration gives each a distinct
/// slot — both elements arrive, neither is lost or duplicated, and the
/// queue is exactly drained afterwards (enqueue linearizability).
template <typename P>
void litmus_mpmc_two_producers() {
    pipeline::MpmcQueue<std::uint64_t, P> q(2);
    thread p1([&] { MODEL_ASSERT(q.try_push(1)); });
    thread p2([&] { MODEL_ASSERT(q.try_push(2)); });
    p1.join();
    p2.join();
    auto a = q.try_pop();
    auto b = q.try_pop();
    MODEL_ASSERT(a.has_value() && b.has_value());
    std::uint64_t seen = 0;
    seen |= std::uint64_t{1} << *a;
    seen |= std::uint64_t{1} << *b;
    MODEL_ASSERT(seen == 0b110);  // exactly {1, 2}, any order
    MODEL_ASSERT(!q.try_pop().has_value());
}

/// Two concurrent consumers over a pre-filled queue: tail-CAS arbitration
/// gives each a distinct element (dequeue linearizability — no element
/// vanishes, none is delivered twice).
template <typename P>
void litmus_mpmc_two_consumers() {
    pipeline::MpmcQueue<std::uint64_t, P> q(2);
    MODEL_ASSERT(q.try_push(1));
    MODEL_ASSERT(q.try_push(2));
    typename P::template var<std::uint64_t> got1{0};
    typename P::template var<std::uint64_t> got2{0};
    thread c1([&] {
        auto v = q.try_pop();
        if (v.has_value()) got1.store_plain(*v);
    });
    thread c2([&] {
        auto v = q.try_pop();
        if (v.has_value()) got2.store_plain(*v);
    });
    c1.join();
    c2.join();
    const std::uint64_t a = got1.load_plain();
    const std::uint64_t b = got2.load_plain();
    // Both elements were published before the consumers started, so each
    // pop wins a distinct one.
    MODEL_ASSERT(a != 0 && b != 0);
    MODEL_ASSERT(a + b == 3);
    MODEL_ASSERT(!q.try_pop().has_value());
}

/// Two producers against two consumers (main is the second consumer) at
/// capacity 2: whatever the interleaving, the multiset of delivered
/// elements is exactly the multiset pushed. One pop attempt per consumer —
/// enough for every push/pop pairing to interleave while keeping the state
/// space exhaustively explorable.
template <typename P>
void litmus_mpmc_two_producers_two_consumers() {
    pipeline::MpmcQueue<std::uint64_t, P> q(2);
    typename P::template var<std::uint64_t> got{0};
    thread p1([&] { MODEL_ASSERT(q.try_push(1)); });
    thread p2([&] { MODEL_ASSERT(q.try_push(2)); });
    thread c1([&] {
        auto v = q.try_pop();
        if (v.has_value()) got.store_plain(*v);
    });
    std::uint64_t mine = 0;
    if (auto v = q.try_pop()) mine = *v;
    p1.join();
    p2.join();
    c1.join();
    std::uint64_t sum = mine + got.load_plain();
    while (auto v = q.try_pop()) sum += *v;  // leftovers (bounded: <= 2)
    MODEL_ASSERT(sum == 3);
}

/// Two writers record spans while a reader snapshots mid-flight: the
/// snapshot sees only fully-published events, never a torn slot.
template <typename P>
void litmus_trace_snapshot_during_record() {
    telemetry::BasicTraceBuffer<P> buf(2);
    auto make_event = [](std::uint32_t k) {
        telemetry::SpanEvent ev;
        ev.name_id = k;
        ev.thread = k;
        ev.start_ns = k;
        ev.end_ns = k;
        return ev;
    };
    thread w1([&] { buf.record(make_event(1)); });
    thread w2([&] { buf.record(make_event(2)); });
    const auto mid = buf.events();  // concurrent with both writers
    MODEL_ASSERT(mid.size() <= 2);
    for (const auto& ev : mid)
        MODEL_ASSERT(ev.name_id >= 1 && ev.name_id <= 2 &&
                     ev.start_ns == ev.name_id);
    w1.join();
    w2.join();
    MODEL_ASSERT(buf.events().size() == 2);
    MODEL_ASSERT(buf.dropped() == 0);
}

/// Pins the audited conclusion that events() may read next_ relaxed: the
/// per-slot acquire flag alone carries the happens-before for the payload,
/// and a stale next_ can only undercount the scan. Exhaustive over one
/// writer vs one mid-flight snapshot.
template <typename P>
void litmus_trace_relaxed_next_audit() {
    telemetry::BasicTraceBuffer<P> buf(1);
    thread writer([&] {
        telemetry::SpanEvent ev;
        ev.name_id = 1;
        ev.start_ns = 1;
        ev.end_ns = 1;
        buf.record(ev);
    });
    const auto mid = buf.events();
    MODEL_ASSERT(mid.size() <= 1);
    if (!mid.empty()) MODEL_ASSERT(mid[0].name_id == 1 && mid[0].start_ns == 1);
    writer.join();
    MODEL_ASSERT(buf.events().size() == 1);
}

// ---- registry -------------------------------------------------------------

/// One registered litmus unit: the healthy body must PASS exhaustively; the
/// mutated body (when present) must produce a failing interleaving.
struct LitmusUnit {
    std::string name;
    std::string mutant;  ///< empty when the unit has no paired mutant
    std::function<void()> healthy;
    std::function<void()> mutated;  ///< null when the unit has no mutant
    /// Per-unit preemption-bound cap, applied on top of the driver's bound
    /// (the tighter one wins); -1 = follow the driver unchanged. Only for
    /// units whose full schedule tree is intractable (4+ threads): every
    /// seeded mutant in this registry is caught within 2 preemptions, so a
    /// cap of 3 still covers the bug class with headroom while keeping the
    /// exhaustive `model` stage minutes, not hours.
    int preemption_cap = -1;
};

/// The effective preemption bound for a unit: the tighter of the driver's
/// bound and the unit's cap (-1 = unbounded on either side).
inline int litmus_effective_bound(int driver_bound, int unit_cap) {
    if (unit_cap < 0) return driver_bound;
    if (driver_bound < 0) return unit_cap;
    return driver_bound < unit_cap ? driver_bound : unit_cap;
}

inline const std::vector<LitmusUnit>& litmus_units() {
    static const std::vector<LitmusUnit> units = {
        {"ring_single_push_pop", "ring_publish_relaxed",
         litmus_ring_single_push_pop<ModelAtomics>,
         litmus_ring_single_push_pop<MutantRingPublishRelaxed>},
        {"ring_batch_wrap", "ring_publish_relaxed",
         litmus_ring_batch_wrap<ModelAtomics>,
         litmus_ring_batch_wrap<MutantRingPublishRelaxed>},
        {"ring_mixed_ops", "",
         litmus_ring_mixed_ops<ModelAtomics>, nullptr},
        {"ring_cached_peer_staleness", "ring_peer_relaxed",
         litmus_ring_cached_peer_staleness<ModelAtomics>,
         litmus_ring_cached_peer_staleness<MutantRingPeerRelaxed>},
        {"turnstile_ordered_2", "turnstile_advance_relaxed",
         litmus_turnstile_ordered_2<ModelAtomics>,
         litmus_turnstile_ordered_2<MutantTurnstileAdvanceRelaxed>},
        {"turnstile_ordered_3", "turnstile_observe_relaxed",
         litmus_turnstile_ordered_3<ModelAtomics>,
         litmus_turnstile_ordered_3<MutantTurnstileObserveRelaxed>},
        {"turnstile_abort", "",
         litmus_turnstile_abort<ModelAtomics>, nullptr},
        {"turnstile_per_stream_independence", "",
         litmus_turnstile_per_stream_independence<ModelAtomics>, nullptr},
        {"turnstile_slot_reuse", "turnstile_advance_relaxed",
         litmus_turnstile_slot_reuse<ModelAtomics>,
         litmus_turnstile_slot_reuse<MutantTurnstileAdvanceRelaxed>},
        {"mpmc_single_handoff", "mpmc_slot_publish_relaxed",
         litmus_mpmc_single_handoff<ModelAtomics>,
         litmus_mpmc_single_handoff<MutantMpmcSlotPublishRelaxed>},
        {"mpmc_empty_boundary", "mpmc_slot_acquire_relaxed",
         litmus_mpmc_empty_boundary<ModelAtomics>,
         litmus_mpmc_empty_boundary<MutantMpmcSlotAcquireRelaxed>},
        {"mpmc_full_wrap", "mpmc_slot_acquire_relaxed",
         litmus_mpmc_full_wrap<ModelAtomics>,
         litmus_mpmc_full_wrap<MutantMpmcSlotAcquireRelaxed>},
        {"mpmc_two_producers", "",
         litmus_mpmc_two_producers<ModelAtomics>, nullptr},
        {"mpmc_two_consumers", "",
         litmus_mpmc_two_consumers<ModelAtomics>, nullptr},
        {"mpmc_2p2c", "",
         litmus_mpmc_two_producers_two_consumers<ModelAtomics>, nullptr,
         /*preemption_cap=*/3},
        {"trace_snapshot_during_record", "trace_publish_relaxed",
         litmus_trace_snapshot_during_record<ModelAtomics>,
         litmus_trace_snapshot_during_record<MutantTracePublishRelaxed>},
        {"trace_relaxed_next_audit", "trace_acquire_relaxed",
         litmus_trace_relaxed_next_audit<ModelAtomics>,
         litmus_trace_relaxed_next_audit<MutantTraceAcquireRelaxed>},
    };
    return units;
}

}  // namespace htims::check
