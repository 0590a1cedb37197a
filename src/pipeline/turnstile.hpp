// turnstile.hpp — sequence-ordered emission turnstile for multi-worker
// decode.
//
// Workers decode frames concurrently, then emit (report fields, frame_sink,
// the frame marker) one at a time in frame order: wait_turn(i) blocks until
// every emission before frame i has advanced the turnstile. The protocol is
// a single monotonic atomic turn counter:
//
//   * advance() publishes with a release fetch_add, so the *next* emitter's
//     acquire observation of the new turn value synchronizes-with it — every
//     write the previous emission made to shared report state is visible to
//     the next emitter without further locking (the happens-before edge the
//     old mutex hand-off provided, now carried by the counter itself);
//   * the same edge frees frame buffers: the engine (pipeline/fleet.cpp)
//     keeps one buffer per frame in flight, and a stream's consumer refills
//     frame k's buffer only after wait_until(k + 1) observes k's advance,
//     so every read the emitter made of it happens-before the refill;
//   * waiting uses C++20 atomic wait/notify, so a worker whose turn is far
//     off sleeps in the kernel instead of burning a core while earlier
//     frames are still decoding;
//   * abort() jumps the counter into a terminal "aborted" band (>= half the
//     index space, unreachable by real frame indices), which both wakes
//     every waiter through the same futex and keeps a racing advance()
//     harmless — an increment of an aborted counter stays in the band.
//
// Templatized over the atomics policy (common/atomics_policy.hpp) so the
// model checker instantiates this exact protocol; litmus units
// `turnstile_*` in src/check/litmus.hpp exhaustively verify the ordered-
// emission, buffer-reuse and abort paths, and the seeded mutants demote the
// two named orders below. Note one model limitation documented in DESIGN.md: the
// checker treats wait() as value-watching, so a *missing* notify (a lost-
// wakeup bug) is outside its scope — the TSan stress suite covers that
// path with real futexes.
#pragma once

#include <cstddef>
#include <limits>

#include "common/atomics_policy.hpp"
#include "common/contracts.hpp"

namespace htims::pipeline {

/// Sequence-ordered reassembly turnstile. Turn indices are dense from 0;
/// any number of threads may wait, one wait_turn per index (wait_until has
/// no such limit), and each index is advanced exactly once (by the thread
/// that emitted it). abort() may be called by any thread, more than once.
///
/// One turnstile serves ONE stream: the dense-from-0 contract means frame
/// indices of different streams must never share an instance (stream B's
/// frame 0 would wait forever behind stream A's). The fleet layer
/// (pipeline/fleet.cpp) therefore keeps one turnstile per stream, and
/// workers from the shared decode pool route each job to its stream's
/// instance; wait_turn detects the misrouting signature (a turn that has
/// already passed, which would otherwise dead-block the waiter) with a
/// debug check. The litmus unit `turnstile_per_stream_independence` pins
/// that two instances on a shared pool never cross-release.
template <typename Atomics = common::StdAtomics>
class OrderTurnstile {
public:
    /// Turn values at or past this floor mean "aborted"; real frame indices
    /// can never reach it (it would take half the index space of frames).
    static constexpr std::size_t kAbortFloor =
        (std::numeric_limits<std::size_t>::max() >> 1) + 1;

    /// Returns true when it is index's turn to emit; false after abort()
    /// (skip emission).
    bool wait_turn(std::size_t index) {
        std::size_t cur = next_.load(Atomics::turnstile_observe);
        while (cur != index) {
            if (cur >= kAbortFloor) return false;
            // A turn that already passed can never come again: either two
            // waiters claimed the same index, or a job from another stream
            // was routed to this turnstile (each stream must own its own
            // instance — see the class comment).
            HTIMS_DCHECK(cur < index,
                         "turn already passed: duplicate index or a job "
                         "misrouted across streams");
            next_.wait(cur, Atomics::turnstile_observe);
            cur = next_.load(Atomics::turnstile_observe);
        }
        return true;
    }

    /// Blocks until the first `turn` indices have all advanced; false after
    /// abort(). A stream's consumer calls it before it refills the buffer
    /// of frame `turn` - 1: the acquire observation pairs with that frame's
    /// release advance, so every read the emitter made of the buffer
    /// happens-before the refill.
    bool wait_until(std::size_t turn) {
        std::size_t cur = next_.load(Atomics::turnstile_observe);
        while (cur < turn) {
            next_.wait(cur, Atomics::turnstile_observe);
            cur = next_.load(Atomics::turnstile_observe);
        }
        return cur < kAbortFloor;
    }

    /// Hand the turn to the next index. Only the thread whose wait_turn just
    /// returned true may call this (once).
    void advance() {
        next_.fetch_add(1, Atomics::turnstile_advance);
        next_.notify_all();
    }

    /// Release every waiter (present and future) with a false return.
    void abort() {
        std::size_t cur = next_.load(std::memory_order_relaxed);
        while (cur < kAbortFloor &&
               !next_.compare_exchange_weak(cur, kAbortFloor,
                                            std::memory_order_acq_rel)) {
        }
        next_.notify_all();
    }

private:
    typename Atomics::template atomic<std::size_t> next_{0};
};

}  // namespace htims::pipeline
