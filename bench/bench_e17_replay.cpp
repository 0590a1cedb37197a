// E17 — frame store replay: serving an archived run at ingest speed.
//
// The data-service question behind the store subsystem: once a run is
// recorded in the mmap frame store, can it be served back (a) faster than
// the live link delivered it, (b) straight out of the page cache with no
// deserialization copy, and (c) to several readers at once over a single
// mapping? Four measurements:
//
//   cold scan     sequential validated pass after dropping the page cache
//                 (posix_fadvise DONTNEED) — disk/page-fault bound
//   warm scan     the same pass again — memory-bandwidth bound
//   fan-out       K threads scanning the same FrameStoreReader concurrently
//   replay        a full hybrid-pipeline run fed by ReplaySource, compared
//                 against the identical live run fed by the period template
//                 (digests must match bit for bit; rates are compared over
//                 alternating pairs)
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/htims.hpp"
#include "store/frame_store.hpp"
#include "store/replay.hpp"

#include "bench_report.hpp"

using namespace htims;

namespace {

constexpr const char* kStorePath = "bench_e17.htstore";

/// One validated pass over every frame; returns bytes parsed.
std::uint64_t scan_bytes(const store::FrameStoreReader& reader) {
    std::uint64_t bytes = 0;
    auto scan = reader.scan();
    while (auto frame = scan.next())
        bytes += pipeline::frame_container_bytes(*frame);
    return bytes;
}

}  // namespace

int main() {
    const std::size_t mz_bins = 256;
    const std::size_t frames = 8;
    const std::size_t averages = 4;

    telemetry::Registry::global().reset();
    telemetry::RunMeta meta;
    meta.bench = "bench_e17_replay";
    meta.labels.emplace_back("experiment", "E17");
    meta.labels.emplace_back("paper_ref", "data service");

    const prs::OversampledPrs seq(8, 2, prs::GateMode::kPulsed);
    pipeline::FrameLayout layout{
        .drift_bins = seq.length(),
        .mz_bins = mz_bins,
        .drift_bin_width_s = 15e-3 / static_cast<double>(seq.length())};

    // A synthetic period template (deterministic), recorded once per frame
    // exactly like a live `--record` run.
    std::vector<std::uint32_t> period(layout.cells());
    Rng rng(4242);
    for (auto& s : period) s = static_cast<std::uint32_t>(rng.below(4096));

    {
        store::StoreMeta smeta{layout, averages};
        store::FrameStoreWriter writer(kStorePath, smeta);
        const auto streamed = store::period_to_frame(layout, period);
        for (std::uint64_t f = 0; f < frames; ++f) writer.append(streamed, f);
        writer.finalize();
    }

    store::FrameStoreReader reader(kStorePath);
    const double store_mb =
        static_cast<double>(reader.mapped().size()) / 1048576.0;

    Table table("E17: frame store replay throughput");
    table.set_header({"pass", "readers", "MB", "ms", "GB_per_s"});
    table.set_precision(2);
    const auto row = [&](const std::string& pass, std::int64_t readers,
                         std::uint64_t bytes, double secs) {
        const double gb_s = secs > 0.0
                                ? static_cast<double>(bytes) / 1e9 / secs
                                : 0.0;
        table.add_row({pass, readers,
                       static_cast<double>(bytes) / 1048576.0, secs * 1e3,
                       gb_s});
        return gb_s;
    };

    // Cold: evict the store's pages, then one validated sequential pass.
    // fadvise is best-effort (dirty or shared pages stay resident), so this
    // is an upper bound on cache warmth, not a guaranteed disk read.
    reader.advise_dont_need();
    WallTimer cold_timer;
    const std::uint64_t cold_bytes = scan_bytes(reader);
    const double cold_s = cold_timer.seconds();
    const double cold_gb_s = row("cold_scan", 1, cold_bytes, cold_s);

    WallTimer warm_timer;
    const std::uint64_t warm_bytes = scan_bytes(reader);
    const double warm_s = warm_timer.seconds();
    const double warm_gb_s = row("warm_scan", 1, warm_bytes, warm_s);

    // Fan-out: K threads over ONE reader (frame() is const; the mapping is
    // immutable). Aggregate bytes over the slowest thread's wall time.
    for (const std::size_t k : {2u, 4u}) {
        std::vector<std::thread> readers;
        readers.reserve(k);
        std::vector<std::uint64_t> bytes(k, 0);
        WallTimer fan_timer;
        for (std::size_t t = 0; t < k; ++t)
            readers.emplace_back(
                [&, t] { bytes[t] = scan_bytes(reader); });
        for (auto& r : readers) r.join();
        const double fan_s = fan_timer.seconds();
        std::uint64_t total = 0;
        for (const auto b : bytes) total += b;
        const double gb_s =
            row("fanout", static_cast<std::int64_t>(k), total, fan_s);
        meta.scalars.emplace_back(
            "fanout.k" + std::to_string(k) + "_gb_per_s", gb_s);
    }

    // Live vs replay through the full hybrid pipeline, digests compared.
    pipeline::HybridConfig hcfg;
    hcfg.backend = pipeline::BackendKind::kCpu;
    hcfg.frames = frames;
    hcfg.averages = averages;
    hcfg.ring_records = 64;
    std::vector<std::uint64_t> live_digests, replay_digests;
    hcfg.frame_sink = [&](std::size_t, const pipeline::Frame& f) {
        live_digests.push_back(pipeline::frame_digest(f));
    };
    (void)pipeline::HybridPipeline(seq, layout, period, hcfg).run();
    hcfg.frame_sink = [&](std::size_t, const pipeline::Frame& f) {
        replay_digests.push_back(pipeline::frame_digest(f));
    };
    {
        store::ReplaySource source(reader, store::ReplayConfig{0.0});
        (void)pipeline::HybridPipeline(seq, layout, source, hcfg).run();
    }
    const bool digests_match = live_digests == replay_digests;
    hcfg.frame_sink = nullptr;

    // Replay vs live ingest: the unpaced replay against the live template
    // stream, both without a frame sink, in kPairs pairs that alternate
    // which side goes first. Each run is a few milliseconds, so a single
    // pair says little; vs_live_x is the median pair ratio and each side's
    // rate its median.
    constexpr std::size_t kPairs = 15;
    std::vector<double> rates[2];  // live, replay
    std::vector<double> pair_x;
    for (std::size_t pair = 0; pair < kPairs; ++pair) {
        for (std::size_t k = 0; k < 2; ++k) {
            const std::size_t side = (pair + k) % 2;
            if (side == 0) {
                pipeline::HybridPipeline live(seq, layout, period, hcfg);
                rates[0].push_back(live.run().sample_rate);
            } else {
                store::ReplaySource pair_source(reader, store::ReplayConfig{0.0});
                pipeline::HybridPipeline replay(seq, layout, pair_source, hcfg);
                rates[1].push_back(replay.run().sample_rate);
            }
        }
        pair_x.push_back(rates[1].back() / rates[0].back());
    }
    const double live_rate = percentile(rates[0], 50.0);
    const double replay_rate = percentile(rates[1], 50.0);
    const double replay_vs_live = percentile(pair_x, 50.0);
    const auto [vs_live_min, vs_live_max] =
        std::minmax_element(pair_x.begin(), pair_x.end());

    // Same run with the resident cache disabled (cap 0): frames convert on
    // first touch as the slot window slides — the cost profile of replaying
    // a run too large to hold in memory.
    double windowed_rate = 0.0;
    {
        store::ReplayConfig wcfg;
        wcfg.resident_cap_bytes = 0;
        store::ReplaySource windowed(reader, wcfg);
        pipeline::HybridPipeline replay(seq, layout, windowed, hcfg);
        windowed_rate = replay.run().sample_rate;
    }

    // Paced replay: rate_x = 8 over the recorded line rate; the achieved
    // multiple should land close to the request (pacing is producer-side
    // sleep+spin, so it can only run at or below the asked rate).
    store::ReplaySource paced(reader, store::ReplayConfig{8.0});
    double paced_x = 0.0;
    {
        pipeline::HybridPipeline replay(seq, layout, paced, hcfg);
        const auto report = replay.run();
        const double recorded_s =
            static_cast<double>(frames * averages) * layout.period_s();
        paced_x = report.wall_seconds > 0.0
                      ? recorded_s / report.wall_seconds
                      : 0.0;
    }

    table.print(std::cout);
    std::cout << "store: " << format_double(store_mb, 2) << " MB, "
              << reader.frames() << " frames, indexed "
              << (reader.indexed() ? "yes" : "no") << "\n"
              << "replay vs live ingest, medians of " << kPairs << " pairs: "
              << format_double(replay_rate / 1e6, 2) << " vs "
              << format_double(live_rate / 1e6, 2) << " Msamples/s, x"
              << format_double(replay_vs_live, 2) << " ["
              << format_double(*vs_live_min, 2) << "-"
              << format_double(*vs_live_max, 2) << "]; digests "
              << (digests_match ? "MATCH" : "MISMATCH") << "\n"
              << "windowed replay (no resident cache): "
              << format_double(windowed_rate / 1e6, 2) << " Msamples/s\n"
              << "paced replay (asked x8.00): achieved x"
              << format_double(paced_x, 2) << "\n";

    meta.scalars.emplace_back("store_mb", store_mb);
    meta.scalars.emplace_back("scan.cold_gb_per_s", cold_gb_s);
    meta.scalars.emplace_back("scan.warm_gb_per_s", warm_gb_s);
    meta.scalars.emplace_back("scan.cold_seconds", cold_s);
    meta.scalars.emplace_back("scan.warm_seconds", warm_s);
    meta.scalars.emplace_back("replay.sample_rate", replay_rate);
    meta.scalars.emplace_back("replay.windowed_sample_rate", windowed_rate);
    meta.scalars.emplace_back("live.sample_rate", live_rate);
    meta.scalars.emplace_back("replay.vs_live_x", replay_vs_live);
    meta.scalars.emplace_back("replay.vs_live_x_min", *vs_live_min);
    meta.scalars.emplace_back("replay.vs_live_x_max", *vs_live_max);
    meta.scalars.emplace_back("replay.digests_match",
                              digests_match ? 1.0 : 0.0);
    meta.scalars.emplace_back("replay.paced_x_achieved", paced_x);
    (void)warm_bytes;

    bench::write_report("BENCH_E17.json", meta);
    std::remove(kStorePath);

    std::cout << "\nShape check: warm_scan runs at memory bandwidth (GB/s,\n"
                 "far above any link rate) and fan-out scales it until the\n"
                 "memory bus saturates — the one-mapping-many-readers story.\n"
                 "replay.vs_live_x ~ 1 or above: serving the archived run\n"
                 "through the same ring is no slower than the live template\n"
                 "stream, and digests MATCH is the bit-identical contract.\n"
                 "cold_scan is only as cold as fadvise(DONTNEED) can make it\n"
                 "on this host. paced x8 lands at or just under 8 (pacing\n"
                 "never overshoots; scheduler jitter trims it).\n";
    return digests_match ? 0 : 1;
}
