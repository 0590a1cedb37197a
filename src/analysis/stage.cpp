#include "analysis/stage.hpp"

#include "pipeline/frame.hpp"
#include "telemetry/registry.hpp"

namespace htims::analysis {

AnalysisStage::AnalysisStage(const AnalysisConfig& config)
    : config_(config), encoder_(config.encoder),
      radius_bits_(static_cast<std::uint64_t>(
          config.cluster_radius * static_cast<double>(config.encoder.dim))) {}

FrameVerdict AnalysisStage::analyze(std::uint32_t stream,
                                    std::uint64_t frame_index,
                                    const pipeline::Frame& frame) {
    auto& tel = telemetry::Registry::global();
    static auto& frames_c = tel.counter("analysis.frames");
    static auto& clusters_c = tel.counter("analysis.clusters");
    static auto& lib_h = tel.histogram("analysis.library_distance_bits");
    static auto& cluster_h = tel.histogram("analysis.cluster_distance_bits");
    static const auto profile_id = tel.intern("analysis.profile");
    static const auto encode_id = tel.intern("analysis.encode");
    static const auto search_id = tel.intern("analysis.search");

    FrameVerdict verdict;
    verdict.stream = stream;
    verdict.frame = frame_index;

    // Profile, encode and library search touch only immutable state — keep
    // them outside the lock so streams overlap.
    std::vector<double> profile;
    {
        auto span = tel.span(profile_id);
        profile = mz_intensity_profile(frame);
    }
    Hypervector hv;
    {
        auto span = tel.span(encode_id);
        hv = encoder_.encode(profile);
    }
    if (library_ != nullptr && library_->size() > 0) {
        auto span = tel.span(search_id);
        const Match m = library_->nearest(hv);
        verdict.library_entry = m.index;
        verdict.library_distance = m.distance;
        verdict.searched = true;
        lib_h.observe(m.distance);
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        StreamState& st = streams_[stream];
        std::size_t best = st.leaders.size();
        std::uint64_t best_d = 0;
        for (std::size_t i = 0; i < st.leaders.size(); ++i) {
            const std::uint64_t d = distance(st.leaders[i], hv);
            if (best == st.leaders.size() || d < best_d) {
                best = i;
                best_d = d;
            }
        }
        if (best < st.leaders.size() && best_d <= radius_bits_) {
            verdict.cluster = best;
            verdict.cluster_distance = best_d;
        } else {
            verdict.cluster = st.leaders.size();
            verdict.cluster_distance = 0;
            st.leaders.push_back(std::move(hv));
            ++clusters_total_;
            clusters_c.add(1);
        }
        cluster_h.observe(verdict.cluster_distance);
        st.verdicts.push_back(verdict);
    }
    frames_c.add(1);
    return verdict;
}

AnalysisReport AnalysisStage::report() const {
    std::lock_guard<std::mutex> lock(mutex_);
    AnalysisReport report;
    report.clusters = clusters_total_;
    for (const auto& [stream, st] : streams_) {
        report.frames += st.verdicts.size();
        report.verdicts.insert(report.verdicts.end(), st.verdicts.begin(),
                               st.verdicts.end());
    }
    return report;
}

std::uint64_t AnalysisStage::digest() const {
    const AnalysisReport report = this->report();
    std::uint64_t h = 14695981039346656037ULL;
    const auto fold = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (byte * 8)) & 0xffu;
            h *= 1099511628211ULL;
        }
    };
    for (const FrameVerdict& v : report.verdicts) {
        fold(v.stream);
        fold(v.frame);
        fold(v.cluster);
        fold(v.cluster_distance);
        fold(v.searched ? v.library_entry : ~std::uint64_t{0});
        fold(v.searched ? v.library_distance : 0);
    }
    return h;
}

}  // namespace htims::analysis
