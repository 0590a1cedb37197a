#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "analysis/library.hpp"
#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "instrument/peptide_library.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fleet.hpp"
#include "pipeline/frame_io.hpp"
#include "store/frame_store.hpp"
#include "store/replay.hpp"
#include "transform/enhanced.hpp"

namespace perfbench {

namespace analysis = htims::analysis;
namespace store = htims::store;

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

Shape make_shape(const std::string& name, bool tiny, std::size_t nproc) {
    Shape s;
    s.name = name;
    if (name == "live") {
        s.kind = WorkloadKind::kLive;
        s.cpu_threads = nproc > 3 ? nproc - 2 : 1;
        s.threads = 2 + s.cpu_threads;  // producer, consumer, decode pool
        if (tiny) {
            s.order = 6;
            s.mz_bins = 256;
            s.averages = 2;
            s.templates = 3;
            s.frames = 8;
            s.verify_frames = 4;
            s.min_frames = 8;
        }
    } else if (name == "paced") {
        s.kind = WorkloadKind::kPaced;
        s.order = 8;
        s.mz_bins = 256;
        s.averages = 1;
        s.frames = 1000;
        s.verify_frames = 32;
        s.min_frames = 1000;
        s.decode_workers = 2;
        s.rate_x = 4.0;
        s.threads = 2 + s.decode_workers;  // producer, consumer, workers
        if (tiny) {
            s.order = 6;
            s.templates = 3;
            s.frames = 40;
            s.verify_frames = 8;
            s.min_frames = 40;
        }
    } else if (name == "replay") {
        s.kind = WorkloadKind::kReplay;
        s.order = 8;
        s.mz_bins = 256;
        s.averages = 4;
        s.frames = 64;
        s.min_frames = 100;
        s.backend = pipeline::BackendKind::kFpga;
        s.analysis = false;
        s.threads = 2;  // producer, consumer
        s.resident_cap_bytes = std::size_t{4} << 20;
        if (tiny) {
            s.order = 6;
            s.mz_bins = 32;
            s.averages = 2;
            s.templates = 3;
            s.frames = 8;
            s.min_frames = 8;
            s.resident_cap_bytes = 4096;
        }
        s.verify_frames = s.frames;  // a replay serves the whole archive
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (live, paced or replay)");
    }
    // Set-up takes ~15 ms on live and paced, so those time it more often;
    // replay's (~200 ms, mostly archive validation) is steadier.
    s.setup_samples = tiny ? 2 : s.kind == WorkloadKind::kReplay ? 7 : 21;
    return s;
}

namespace {

/// bench_e3's synthetic_raw, seeded per template: a few drift peaks per m/z
/// channel, encoded through the PRS.
pipeline::Frame synthetic_raw(const prs::OversampledPrs& seq,
                              const pipeline::FrameLayout& layout,
                              std::uint64_t seed) {
    htims::transform::EnhancedDeconvolver enc(seq);
    auto ws = enc.make_workspace();
    pipeline::Frame raw(layout);
    htims::AlignedVector<double> x(layout.drift_bins, 0.0), y(layout.drift_bins);
    htims::Rng rng(seed);
    for (std::size_t m = 0; m < layout.mz_bins; ++m) {
        std::fill(x.begin(), x.end(), 0.0);
        for (int k = 0; k < 4; ++k)
            x[rng.below(layout.drift_bins * 3 / 4)] = rng.uniform(10.0, 200.0);
        enc.encode_fast(x, y, ws);
        raw.set_drift_profile(m, y);
    }
    return raw;
}

analysis::AnalysisConfig analysis_config(const Shape& shape) {
    analysis::AnalysisConfig cfg;
    cfg.encoder.dim = shape.dim;
    cfg.encoder.mz_bins = shape.mz_bins;
    return cfg;
}

/// The live instrument: frame f streams template assignment[f], `averages`
/// periods of it, released at `rate_x` times the line rate (0 = unpaced).
class TemplateSource final : public pipeline::RecordSource {
public:
    TemplateSource(const Inputs& in, std::size_t frames, std::size_t averages,
                   double rate_x)
        : in_(in),
          frames_(frames),
          records_per_frame_(averages * in.layout.drift_bins),
          record_period_ns_(rate_x > 0.0
                                ? in.layout.drift_bin_width_s * 1e9 / rate_x
                                : 0.0) {}

    std::uint64_t total_records() const override {
        return static_cast<std::uint64_t>(frames_ * records_per_frame_);
    }
    std::span<const std::uint32_t> record(std::uint64_t seq) override {
        return record_block(seq, 1);
    }
    std::span<const std::uint32_t> record_block(std::uint64_t seq,
                                                std::size_t max_records) override {
        const auto& period =
            in_.templates[in_.assignment[static_cast<std::size_t>(
                seq / records_per_frame_)]];
        const std::size_t drift = in_.layout.drift_bins;
        const std::size_t mz = in_.layout.mz_bins;
        const auto row = static_cast<std::size_t>(seq % drift);
        const std::size_t k = std::min(max_records, drift - row);
        return std::span<const std::uint32_t>(period.data() + row * mz, k * mz);
    }
    std::uint64_t release_ns(std::uint64_t seq) const override {
        return static_cast<std::uint64_t>(static_cast<double>(seq) *
                                          record_period_ns_);
    }

private:
    const Inputs& in_;
    std::size_t frames_;
    std::size_t records_per_frame_;
    double record_period_ns_;
};

/// Wraps the workload's record source and stamps, from outside, when each
/// frame's first and last record were handed to the producer, how late the
/// producer asked for paced records, and (traced) every call as a span.
/// Only the producer thread calls it; the stamps are read after run() joins.
class StampedSource final : public pipeline::RecordSource {
public:
    StampedSource(const pipeline::FrameLayout& layout, std::size_t frames,
                  std::size_t averages, bool paced, SpanLog* spans)
        : mz_(layout.mz_bins),
          records_per_frame_(averages * layout.drift_bins),
          paced_(paced),
          spans_(spans),
          first_ns_(frames, 0),
          served_ns_(frames, 0) {
        if (paced_) lag_ms.reserve(frames * records_per_frame_);
    }

    void set_inner(pipeline::RecordSource* inner) { inner_ = inner; }

    std::uint64_t total_records() const override {
        return inner_->total_records();
    }
    void set_window(std::size_t records) override { inner_->set_window(records); }
    std::uint64_t release_ns(std::uint64_t seq) const override {
        // The producer's pacing clock starts right before its first call.
        if (t0_ == 0) t0_ = now_ns();
        return inner_->release_ns(seq);
    }
    std::span<const std::uint32_t> record(std::uint64_t seq) override {
        return serve(seq, 1, true);
    }
    std::span<const std::uint32_t> record_block(std::uint64_t seq,
                                                std::size_t max_records) override {
        return serve(seq, max_records, false);
    }

    std::uint64_t t0() const { return t0_; }
    std::uint64_t first_ns(std::size_t f) const { return first_ns_[f]; }
    std::uint64_t served_ns(std::size_t f) const { return served_ns_[f]; }
    /// When frame f's last record was due: its scheduled release when
    /// paced, the moment it was handed out otherwise.
    std::uint64_t due_ns(std::size_t f) const {
        if (!paced_) return served_ns_[f];
        return t0_ + inner_->release_ns((f + 1) * records_per_frame_ - 1);
    }

    std::uint64_t served_records = 0;
    std::uint64_t calls = 0;
    std::uint64_t busy_ns = 0;
    std::vector<double> lag_ms;

private:
    std::span<const std::uint32_t> serve(std::uint64_t seq, std::size_t max_records,
                                         bool single) {
        const bool traced = spans_ != nullptr;
        const std::uint64_t t_in = (paced_ || traced) ? now_ns() : 0;
        if (t0_ == 0) t0_ = t_in != 0 ? t_in : now_ns();
        const auto rows = single ? inner_->record(seq)
                                 : inner_->record_block(seq, max_records);
        const std::uint64_t k = rows.size() / mz_;
        const auto f = static_cast<std::size_t>(seq / records_per_frame_);
        const bool opens = seq % records_per_frame_ == 0;
        const bool closes = (seq + k) % records_per_frame_ == 0;
        const std::uint64_t t_out = (traced || closes) ? now_ns() : 0;
        if (closes) served_ns_[f] = t_out;
        if (paced_) {
            const std::uint64_t due = t0_ + inner_->release_ns(seq);
            lag_ms.push_back(t_in > due ? static_cast<double>(t_in - due) * 1e-6
                                         : 0.0);
        }
        ++calls;
        served_records += k;
        if (traced) {
            if (opens) first_ns_[f] = t_out;
            busy_ns += t_out - t_in;
            spans_->record(SpanLog::kProducer, SpanKind::kSourceCall, f,
                           SpanLog::frame_id(f), t_in, t_out);
        }
        return rows;
    }

    pipeline::RecordSource* inner_ = nullptr;
    std::size_t mz_;
    std::size_t records_per_frame_;
    bool paced_;
    SpanLog* spans_;
    mutable std::uint64_t t0_ = 0;
    std::vector<std::uint64_t> first_ns_;
    std::vector<std::uint64_t> served_ns_;
};

bool same_cycles(const pipeline::FpgaCycleReport& a,
                 const pipeline::FpgaCycleReport& b) {
    return a.capture_cycles == b.capture_cycles &&
           a.deconv_cycles == b.deconv_cycles && a.cycle_budget == b.cycle_budget &&
           a.accumulator_saturations == b.accumulator_saturations &&
           a.bram_bytes_used == b.bram_bytes_used && a.fits_bram == b.fits_bram &&
           a.budget_overrun == b.budget_overrun &&
           a.channels_decoded == b.channels_decoded;
}

bool same_verdict(const analysis::FrameVerdict& a, const analysis::FrameVerdict& b) {
    return a.stream == b.stream && a.frame == b.frame && a.cluster == b.cluster &&
           a.cluster_distance == b.cluster_distance &&
           a.library_entry == b.library_entry &&
           a.library_distance == b.library_distance && a.searched == b.searched;
}

/// Re-read a finalized output archive: the index must validate, every
/// frame must pass its CRC, and digests land at their seq tag.
void reread_archive(const std::string& path, std::size_t frames, RepStats& st) {
    st.digests.assign(frames, 0);
    st.archive_intact = true;
    try {
        const store::FrameStoreReader reader(path);
        if (!reader.indexed() || reader.frames() != frames) st.archive_intact = false;
        for (std::size_t i = 0; i < reader.frames(); ++i) {
            try {
                const pipeline::Frame frame = reader.frame(i);
                const std::uint64_t seq = reader.entry(i).seq;
                if (seq < frames) st.digests[seq] = pipeline::frame_digest(frame);
            } catch (const htims::Error&) {
                st.archive_intact = false;
            }
        }
    } catch (const htims::Error&) {
        st.archive_intact = false;
    }
}

/// Copy `path` with one payload byte of the first frame flipped.
std::string corrupted_copy(const std::string& path) {
    const std::string copy = path + ".corrupt";
    std::filesystem::copy_file(path, copy,
                               std::filesystem::copy_options::overwrite_existing);
    std::uint64_t offset = 0;
    {
        const store::FrameStoreReader reader(path);
        offset = reader.entry(0).offset + 64 + 8 * 7;
    }
    std::fstream f(copy, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(byte ^ 0x40));
    return copy;
}

}  // namespace

Inputs make_inputs(const Shape& shape, std::uint64_t seed,
                   const std::string& work_dir) {
    prs::OversampledPrs sequence(shape.order, shape.oversampling,
                                 prs::GateMode::kPulsed);
    const pipeline::FrameLayout layout{
        .drift_bins = sequence.length(),
        .mz_bins = shape.mz_bins,
        .drift_bin_width_s = shape.period_s / static_cast<double>(sequence.length())};
    Inputs in{std::move(sequence), layout, {}, {}, {}, {}, {}};

    htims::Rng pick(seed ^ 0x5DEECE66DULL);
    for (std::size_t k = 0; k < shape.templates; ++k) {
        const pipeline::Frame raw =
            synthetic_raw(in.sequence, layout, seed * 0x9E3779B97F4A7C15ULL + k);
        in.templates.push_back(pipeline::to_period_samples(raw, 1));
    }
    for (std::size_t f = 0; f < shape.frames; ++f)
        in.assignment.push_back(static_cast<std::size_t>(pick.below(shape.templates)));

    htims::instrument::PeptideLibraryConfig lib;
    lib.count = shape.library_size;
    lib.seed = seed;
    in.mixture = htims::instrument::make_tryptic_digest(lib);

    if (shape.kind == WorkloadKind::kReplay) {
        in.archive_path = work_dir + "/replay-input.htms";
        in.output_path = work_dir + "/replay-output.htms";
        store::FrameStoreWriter writer(in.archive_path,
                                       store::StoreMeta{layout, shape.averages});
        for (std::size_t f = 0; f < shape.frames; ++f)
            writer.append(store::period_to_frame(
                              layout, in.templates[in.assignment[f]]),
                          f);
        writer.finalize();
    }
    return in;
}

Oracle make_oracle(const Shape& shape, const Inputs& in) {
    Oracle oracle;
    std::vector<pipeline::Frame> decoded;
    for (const auto& period : in.templates) {
        if (shape.backend == pipeline::BackendKind::kCpu) {
            pipeline::Frame accum(in.layout);
            for (std::size_t a = 0; a < shape.averages; ++a)
                for (std::size_t i = 0; i < period.size(); ++i)
                    accum.data()[i] += static_cast<double>(period[i]);
            pipeline::CpuBackend cpu(in.sequence, in.layout, 1);
            decoded.push_back(cpu.deconvolve_scalar(accum));
        } else {
            pipeline::FpgaPipeline fpga(in.sequence, in.layout, pipeline::FpgaConfig{});
            fpga.begin_frame();
            for (std::size_t a = 0; a < shape.averages; ++a) fpga.push_samples(period);
            decoded.push_back(fpga.end_frame());
            oracle.template_fpga.push_back(fpga.report());
        }
        oracle.template_digest.push_back(pipeline::frame_digest(decoded.back()));
    }
    if (shape.analysis) {
        analysis::AnalysisStage stage(analysis_config(shape));
        const analysis::SpectralLibrary library(stage.encoder(), in.mixture);
        stage.set_library(&library);
        for (std::size_t f = 0; f < shape.frames; ++f) {
            stage.analyze(0, f, decoded[in.assignment[f]]);
            if (f + 1 == shape.verify_frames) oracle.verify_verdict_digest = stage.digest();
        }
        oracle.verdicts = stage.report().verdicts;
        oracle.verdict_digest = stage.digest();
    }
    return oracle;
}

std::size_t check_rep(const Shape& shape, const Inputs& in, const Oracle& oracle,
                      const RepStats& rep, std::vector<std::string>& notes) {
    std::vector<std::uint8_t> bad(rep.emit_fault);
    const auto note = [&notes](const std::string& line) {
        if (std::find(notes.begin(), notes.end(), line) == notes.end())
            notes.push_back(line);
    };
    for (std::size_t f = 0; f < rep.frames; ++f)
        if (rep.emit_fault[f] != 0) note("frame not emitted exactly once, in order");
    for (std::size_t f = 0; f < rep.digests.size(); ++f) {
        if (rep.digests[f] != oracle.template_digest[in.assignment[f]]) {
            bad[f] = 1;
            note(shape.kind == WorkloadKind::kReplay
                     ? "output archive frame missing or digest differs from the oracle"
                     : "frame_digest differs from the oracle");
        }
    }
    if (!rep.archive_intact) note("output archive does not re-read intact");
    if (shape.analysis) {
        for (std::size_t f = 0; f < rep.frames; ++f) {
            if (f >= rep.verdicts.size() || !same_verdict(rep.verdicts[f], oracle.verdicts[f])) {
                bad[f] = 1;
                note("verdict differs from the oracle stage");
            }
        }
        const std::uint64_t want =
            rep.verify ? oracle.verify_verdict_digest : oracle.verdict_digest;
        if (rep.verdict_digest != want) note("verdict digest differs from the oracle stage");
        if (rep.clusters < 2) note("analysis formed fewer than two clusters");
    }
    if (shape.backend == pipeline::BackendKind::kFpga &&
        !same_cycles(rep.fpga, oracle.template_fpga[in.assignment[rep.frames - 1]])) {
        bad[rep.frames - 1] = 1;
        note("FPGA cycle report differs from the standalone model");
    }
    if (rep.records_dropped != 0 || rep.frames_degraded != 0)
        note("records dropped or frames degraded under the block policy");
    const auto failed = static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
    return std::min(rep.frames, failed + static_cast<std::size_t>(rep.frames_degraded));
}

namespace {

/// Everything one repetition's set-up builds.
struct Rep {
    std::unique_ptr<analysis::AnalysisStage> stage;
    std::unique_ptr<analysis::SpectralLibrary> library;
    std::unique_ptr<store::FrameStoreReader> reader;
    std::unique_ptr<store::ReplaySource> replay;
    std::unique_ptr<store::FrameStoreWriter> writer;
    std::unique_ptr<pipeline::HybridPipeline> hybrid;
    std::unique_ptr<pipeline::FleetRunner> fleet;
    double library_build_ms = 0.0;
    double replay_open_ms = 0.0;
};

/// Program set-up before the first record: encoder basis, library build,
/// ReplaySource validation, output archive creation, pipeline or fleet
/// construction.
void set_up(Rep& rep, const Shape& shape, const Inputs& in,
            StampedSource& source, const pipeline::HybridConfig& cfg) {
    if (shape.analysis) {
        rep.stage = std::make_unique<analysis::AnalysisStage>(analysis_config(shape));
        const std::uint64_t t = now_ns();
        rep.library = std::make_unique<analysis::SpectralLibrary>(rep.stage->encoder(),
                                                                  in.mixture);
        rep.library_build_ms = static_cast<double>(now_ns() - t) * 1e-6;
        rep.stage->set_library(rep.library.get());
    }
    if (shape.kind == WorkloadKind::kReplay) {
        rep.reader = std::make_unique<store::FrameStoreReader>(in.archive_path);
        store::ReplayConfig rcfg;
        rcfg.resident_cap_bytes = shape.resident_cap_bytes;
        const std::uint64_t t = now_ns();
        rep.replay = std::make_unique<store::ReplaySource>(*rep.reader, rcfg);
        rep.replay_open_ms = static_cast<double>(now_ns() - t) * 1e-6;
        source.set_inner(rep.replay.get());
        rep.writer = std::make_unique<store::FrameStoreWriter>(
            in.output_path, store::StoreMeta{in.layout, shape.averages});
    }
    if (shape.kind == WorkloadKind::kPaced) {
        std::vector<pipeline::FleetStream> streams;
        streams.push_back(pipeline::FleetStream{in.sequence, in.layout, cfg, {}, &source});
        pipeline::FleetConfig fcfg;
        fcfg.decode_workers = shape.decode_workers;
        rep.fleet = std::make_unique<pipeline::FleetRunner>(std::move(streams), fcfg);
    } else {
        rep.hybrid = std::make_unique<pipeline::HybridPipeline>(in.sequence, in.layout,
                                                                source, cfg);
    }
}

pipeline::HybridConfig base_config(const Shape& shape, std::size_t frames) {
    pipeline::HybridConfig cfg;
    cfg.backend = shape.backend;
    cfg.frames = frames;
    cfg.averages = shape.averages;
    cfg.cpu_threads = shape.cpu_threads;
    return cfg;
}

}  // namespace

WorkloadRunner::WorkloadRunner(const Shape& shape, const Inputs& in, bool corrupt)
    : shape_(shape), in_(in), corrupt_(corrupt) {}

double WorkloadRunner::setup_only() {
    const std::size_t frames = shape_.frames;
    TemplateSource live(in_, frames, shape_.averages, shape_.rate_x);
    StampedSource source(in_.layout, frames, shape_.averages, false, nullptr);
    source.set_inner(&live);
    pipeline::HybridConfig cfg = base_config(shape_, frames);
    cfg.frame_sink = [](std::size_t, const pipeline::Frame&) {};
    double seconds = 0.0;
    {
        Rep rep;
        const std::uint64_t t = now_ns();
        set_up(rep, shape_, in_, source, cfg);
        seconds = static_cast<double>(now_ns() - t) * 1e-9;
    }
    if (!in_.output_path.empty()) std::filesystem::remove(in_.output_path);
    return seconds;
}

RepStats WorkloadRunner::run_rep(bool verify, SpanLog* spans) {
    const bool traced = spans != nullptr;
    const bool replay = shape_.kind == WorkloadKind::kReplay;
    const std::size_t frames = verify ? shape_.verify_frames : shape_.frames;
    RepStats st;
    st.verify = verify;
    st.frames = frames;
    st.emit_fault.assign(frames, 0);
    if (verify && !replay) st.digests.assign(frames, 0);

    std::vector<std::uint64_t> done(frames, 0), sink_in(frames, 0);
    std::vector<std::uint32_t> emitted(frames, 0);
    std::size_t next_emit = 0;

    TemplateSource live(in_, frames, shape_.averages, shape_.rate_x);
    StampedSource source(in_.layout, frames, shape_.averages, shape_.rate_x > 0.0,
                         spans);
    if (!replay) source.set_inner(&live);

    Rep rep;
    pipeline::HybridConfig cfg = base_config(shape_, frames);
    // The ordered emission point: the pipelines serialize these calls in
    // frame order, which is where HybridConfig::analysis would run too.
    cfg.frame_sink = [&](std::size_t index, const pipeline::Frame& frame) {
        const std::uint64_t t_in = now_ns();
        if (index >= frames) return;
        ++emitted[index];
        if (index != next_emit) st.emit_fault[index] = 1;
        next_emit = index + 1;
        const std::uint64_t emit_span =
            traced ? spans->begin(SpanLog::kEmitter, SpanKind::kEmit, index,
                                  SpanLog::frame_id(index), t_in)
                   : 0;
        if (verify && !replay) {
            if (corrupt_ && index == 0) {
                pipeline::Frame copy = frame;
                copy.data()[copy.data().size() / 2] += 1.0;
                st.digests[index] = pipeline::frame_digest(copy);
            } else {
                st.digests[index] = pipeline::frame_digest(frame);
            }
        }
        const std::uint64_t t_call = traced ? now_ns() : 0;
        if (rep.stage) rep.stage->analyze(0, index, frame);
        if (rep.writer) rep.writer->append(frame, index);
        const std::uint64_t t_done = now_ns();
        done[index] = t_done;
        sink_in[index] = t_in;
        if (traced) {
            const SpanKind kind = rep.writer ? SpanKind::kAppend : SpanKind::kAnalyze;
            spans->record(SpanLog::kEmitter, kind, index, emit_span, t_call, t_done);
            spans->end(emit_span, t_done);
            (rep.writer ? st.append_ms : st.analyze_ms)
                .push_back(static_cast<double>(t_done - t_call) * 1e-6);
        }
    };

    const std::uint64_t t_rep = now_ns();
    const std::uint64_t rep_span =
        traced ? spans->begin(SpanLog::kMain, SpanKind::kRep, Span::kNoFrame, 0, t_rep)
               : 0;
    set_up(rep, shape_, in_, source, cfg);
    const std::uint64_t t_setup = now_ns();
    st.setup_s = static_cast<double>(t_setup - t_rep) * 1e-9;
    st.library_build_ms = rep.library_build_ms;
    st.replay_open_ms = rep.replay_open_ms;
    if (traced)
        spans->record(SpanLog::kMain, SpanKind::kSetup, Span::kNoFrame, rep_span,
                      t_rep, t_setup);

    const std::uint64_t run_span =
        traced ? spans->begin(SpanLog::kMain, SpanKind::kRun, Span::kNoFrame,
                              rep_span, now_ns())
               : 0;
    pipeline::HybridReport report;
    if (rep.fleet) {
        report = rep.fleet->run().streams.at(0).report;
    } else {
        report = rep.hybrid->run();
    }
    std::uint64_t t_end = now_ns();
    if (traced) spans->end(run_span, t_end);
    if (rep.writer) {
        rep.writer->finalize();
        const std::uint64_t t_fin = now_ns();
        st.finalize_ms = static_cast<double>(t_fin - t_end) * 1e-6;
        if (traced)
            spans->record(SpanLog::kMain, SpanKind::kFinalize, Span::kNoFrame,
                          rep_span, t_end, t_fin);
        t_end = t_fin;
    } else {
        t_end = *std::max_element(done.begin(), done.end());
    }
    if (traced) spans->end(rep_span, t_end);

    st.wall_s = static_cast<double>(t_end - source.t0()) * 1e-9;
    st.samples = static_cast<double>(frames * shape_.averages * in_.layout.cells());
    st.producer_stall_ms = report.producer_stall_seconds * 1e3;
    st.consumer_idle_ms = report.consumer_idle_seconds * 1e3;
    st.decode_wait_ms = report.decode_wait_seconds * 1e3;
    st.records_dropped = report.records_dropped;
    st.frames_degraded = report.frames_degraded;
    st.cpu_task_retries = report.cpu_task_retries;
    st.fpga = report.fpga;
    if (rep.replay) st.frames_skipped = rep.replay->skipped();
    st.source_records = source.served_records;
    st.source_calls = source.calls;
    st.source_busy_ms = static_cast<double>(source.busy_ns) * 1e-6;
    st.generator_lag_ms = std::move(source.lag_ms);

    st.latency_ms.reserve(frames);
    for (std::size_t f = 0; f < frames; ++f) {
        if (emitted[f] != 1) {
            st.emit_fault[f] = 1;
            continue;
        }
        const std::uint64_t due = source.due_ns(f);
        st.latency_ms.push_back(done[f] > due ? static_cast<double>(done[f] - due) * 1e-6
                                              : 0.0);
        if (traced) {
            st.close_to_emit_ms.push_back(
                static_cast<double>(sink_in[f] - source.served_ns(f)) * 1e-6);
            spans->record_frame(f, run_span, source.first_ns(f), done[f]);
        }
    }
    if (rep.stage) {
        const analysis::AnalysisReport ar = rep.stage->report();
        st.verdicts = ar.verdicts;
        st.clusters = ar.clusters;
        st.verdict_digest = rep.stage->digest();
    }
    if (replay) {
        rep.writer.reset();
        if (verify && corrupt_) {
            const std::string copy = corrupted_copy(in_.output_path);
            reread_archive(copy, frames, st);
            std::filesystem::remove(copy);
        } else {
            reread_archive(in_.output_path, frames, st);
        }
        std::filesystem::remove(in_.output_path);
    }
    return st;
}

}  // namespace perfbench
