// fault_drill — the degraded-mode acceptance drill behind the `faults`
// stage of scripts/check.sh.
//
// Runs the hybrid streaming pipeline under a canned fault plan (~1% frame
// corruption on the replay link, ~1% forced link overrun, occasional jitter
// and a scheduled transient CPU failure) and asserts, exiting nonzero on
// any violation:
//
//   1. the run completes every configured frame without aborting;
//   2. drops are exactly accounted: records_dropped matches the injected
//      link overruns (DropNewest policy, link deeper than the stream);
//   3. a second run of the same plan reproduces the injection counts and
//      degradation figures bit-for-bit (seed determinism end to end);
//   4. the frame_io corruption loop detects-or-recovers every injected
//      fault: injected corruptions == frames lost, and the intact frames
//      round-trip byte-identically.
#include <cstring>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/htims.hpp"

using namespace htims;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (ok) {
        std::cout << "  ok: " << what << "\n";
    } else {
        std::cerr << "  FAIL: " << what << "\n";
        ++failures;
    }
}

pipeline::HybridReport run_hybrid(const fault::FaultPlan& plan) {
    const prs::OversampledPrs seq(6, 1, prs::GateMode::kPulsed);
    const pipeline::FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 16,
                                       .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells());
    for (std::size_t i = 0; i < period.size(); ++i)
        period[i] = static_cast<std::uint32_t>(i % 13);

    fault::FaultInjector faults(plan);
    pipeline::HybridConfig cfg;
    cfg.backend = pipeline::BackendKind::kCpu;
    cfg.frames = 6;
    cfg.averages = 4;
    cfg.cpu_threads = 2;
    // Link deeper than the whole stream: every "full link" event is
    // fault-forced, so drops are exactly the injected overruns. DropNewest
    // keeps the drill fully deterministic: the dropped record *is* the
    // forced one, so the degraded-frame set reproduces from the seed.
    cfg.ring_records = 2048;
    cfg.ring_policy = pipeline::RingFullPolicy::kDropNewest;
    cfg.faults = &faults;
    return pipeline::HybridPipeline(seq, layout, period, cfg).run();
}

void drill_hybrid() {
    std::cout << "== hybrid degraded-mode drill ==\n";
    const auto plan = fault::FaultPlan::parse(
        "seed=1337,link.overrun=0.01,link.jitter=0.002,cpu.fail@2");
    const auto first = run_hybrid(plan);
    const auto second = run_hybrid(plan);

    expect(first.frames == 6, "run completed every configured frame");
    const auto overruns = first.faults.injected_at(fault::Site::kLinkOverrun);
    expect(overruns > 0, "the plan injected link overruns (" +
                             std::to_string(overruns) + ")");
    expect(first.records_dropped == overruns,
           "records_dropped (" + std::to_string(first.records_dropped) +
               ") exactly matches injected overruns");
    expect(first.frames_degraded > 0, "degraded frames were flagged");
    expect(first.cpu_task_retries == 1,
           "the scheduled transient CPU failure was retried once");
    expect(first.faults == second.faults,
           "same seed reproduces injection counts exactly");
    expect(first.records_dropped == second.records_dropped &&
               first.frames_degraded == second.frames_degraded,
           "same seed reproduces degradation figures exactly");
}

void drill_frame_io() {
    std::cout << "== frame_io corruption drill ==\n";
    const pipeline::FrameLayout layout{.drift_bins = 16, .mz_bins = 16,
                                       .drift_bin_width_s = 1e-4};
    constexpr int kFrames = 200;
    std::vector<pipeline::Frame> originals;
    std::ostringstream os(std::ios::binary);
    fault::FaultInjector faults(
        fault::FaultPlan::parse("seed=99,frame_io.corrupt=0.01"));
    for (int k = 0; k < kFrames; ++k) {
        pipeline::Frame f(layout);
        for (std::size_t i = 0; i < f.data().size(); ++i)
            f.data()[i] = static_cast<double>((i * 31 + k * 7) % 997);
        pipeline::write_frame(os, f, &faults);
        originals.push_back(std::move(f));
    }
    const auto injected = faults.injected(fault::Site::kFrameCorrupt);
    expect(injected > 0, "the plan corrupted frames on the link (" +
                             std::to_string(injected) + " of " +
                             std::to_string(kFrames) + ")");

    pipeline::FrameStreamReader reader(os.str());
    std::size_t delivered = 0, matched = 0, next = 0;
    while (auto f = reader.next()) {
        ++delivered;
        // Each delivered frame must be byte-identical to the next intact
        // original (corrupted ones are skipped, order preserved).
        while (next < originals.size()) {
            const auto& want = originals[next];
            ++next;
            if (f->layout() == want.layout() &&
                std::memcmp(f->data().data(), want.data().data(),
                            want.data().size() * sizeof(double)) == 0) {
                ++matched;
                break;
            }
        }
    }
    const auto& stats = reader.stats();
    expect(delivered == matched, "every recovered frame is byte-identical");
    expect(stats.frames_lost == injected,
           "every injected corruption was detected (" +
               std::to_string(stats.frames_lost) + " lost)");
    expect(stats.frames_ok == kFrames - injected,
           "every intact frame was recovered");
    expect(stats.resyncs > 0, "the reader re-locked after losses");
}

}  // namespace

int main() {
    try {
        drill_hybrid();
        drill_frame_io();
    } catch (const Error& e) {
        std::cerr << "FAIL: drill aborted: " << e.what() << "\n";
        return 1;
    }
    if (failures == 0) {
        std::cout << "== fault_drill: all green ==\n";
        return 0;
    }
    std::cerr << "== fault_drill: " << failures << " failure(s) ==\n";
    return 1;
}
