#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::uint32_t this_tid() {
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t tid = next.fetch_add(1);
    return tid;
}

}  // namespace

const char* span_name(SpanKind kind) {
    switch (kind) {
        case SpanKind::kRep: return "rep";
        case SpanKind::kSetup: return "setup";
        case SpanKind::kRun: return "pipeline.run";
        case SpanKind::kFrame: return "frame";
        case SpanKind::kSourceCall: return "source.call";
        case SpanKind::kEmit: return "emit.frame_sink";
        case SpanKind::kAnalyze: return "analysis.analyze";
        case SpanKind::kAppend: return "store.append";
        case SpanKind::kFinalize: return "store.finalize";
        case SpanKind::kCount: break;
    }
    return "?";
}

std::uint64_t SpanLog::begin(Lane lane, SpanKind kind, std::uint64_t frame,
                             std::uint64_t parent, std::uint64_t start_ns) {
    auto& spans = lanes_[lane];
    const std::uint64_t id =
        (static_cast<std::uint64_t>(lane) << 40) | (spans.size() + 1);
    spans.push_back(
        Span{id, parent, frame, start_ns, start_ns, 0, this_tid(), kind});
    return id;
}

void SpanLog::end(std::uint64_t id, std::uint64_t end_ns) {
    const std::uint64_t lane = id >> 40;
    const std::uint64_t index = (id & ((std::uint64_t{1} << 40) - 1)) - 1;
    lanes_[lane][index].end_ns = end_ns;
}

void SpanLog::record_frame(std::uint64_t f, std::uint64_t parent,
                           std::uint64_t start_ns, std::uint64_t end_ns) {
    lanes_[kFrames].push_back(Span{frame_id(f), parent, f, start_ns, end_ns, 0,
                                   this_tid(), SpanKind::kFrame});
}

std::vector<Span> SpanLog::merged() const {
    std::vector<Span> all;
    std::size_t total = 0;
    for (const auto& lane : lanes_) total += lane.size();
    all.reserve(total);
    for (const auto& lane : lanes_) all.insert(all.end(), lane.begin(), lane.end());
    return all;
}

void SpanLog::clear() {
    for (auto& lane : lanes_) lane.clear();
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto it = index.find(spans[i].parent);
        if (spans[i].parent != 0 && it != index.end())
            children[it->second].push_back(i);
    }

    std::vector<SelfTime> out(static_cast<std::size_t>(SpanKind::kCount));
    for (std::size_t k = 0; k < out.size(); ++k)
        out[k].kind = static_cast<SpanKind>(k);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
        // Union of the children's intervals, clipped to the parent.
        covered.clear();
        for (const std::size_t c : children[i]) {
            const std::uint64_t a = std::max(spans[c].start_ns, s.start_ns);
            const std::uint64_t b = std::min(spans[c].end_ns, s.end_ns);
            if (b > a) covered.emplace_back(a, b);
        }
        std::sort(covered.begin(), covered.end());
        std::uint64_t child_ns = 0, reach = 0;
        for (const auto& [a, b] : covered) {
            const std::uint64_t from = std::max(a, reach);
            if (b > from) child_ns += b - from;
            reach = std::max(reach, b);
        }
        SelfTime& t = out[static_cast<std::size_t>(s.kind)];
        ++t.count;
        t.total_ms += static_cast<double>(dur) * 1e-6;
        t.self_ms += static_cast<double>(dur - std::min(dur, child_ns)) * 1e-6;
    }
    return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& workload, std::size_t max_events) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    std::uint64_t origin = ~std::uint64_t{0};
    for (const Span& s : spans) origin = std::min(origin, s.start_ns);
    const auto us = [origin](std::uint64_t ns) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(ns - origin) * 1e-3);
        return std::string(buf);
    };

    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
           "\"htims perfbench: "
        << workload << "\"}}";
    std::size_t written = 0, omitted = 0;
    for (const Span& s : spans) {
        const bool frame = s.kind == SpanKind::kFrame;
        if (!frame && written >= max_events) {
            ++omitted;
            continue;
        }
        char args[160];
        std::snprintf(args, sizeof args,
                      "{\"stream\":%u,\"frame\":%lld,\"id\":%llu,\"parent\":%llu}",
                      s.stream,
                      s.frame == Span::kNoFrame ? -1LL
                                                : static_cast<long long>(s.frame),
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent));
        if (frame) {
            out << ",\n{\"ph\":\"b\",\"cat\":\"frame\",\"name\":\"frame\",\"pid\":1,"
                   "\"tid\":0,\"id\":"
                << s.id << ",\"ts\":" << us(s.start_ns) << ",\"args\":" << args
                << "}";
            out << ",\n{\"ph\":\"e\",\"cat\":\"frame\",\"name\":\"frame\",\"pid\":1,"
                   "\"tid\":0,\"id\":"
                << s.id << ",\"ts\":" << us(s.end_ns) << "}";
            continue;
        }
        ++written;
        out << ",\n{\"ph\":\"X\",\"cat\":\"layer\",\"name\":\"" << span_name(s.kind)
            << "\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << us(s.start_ns)
            << ",\"dur\":"
            << us(origin + (s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0))
            << ",\"args\":" << args << "}";
    }
    out << "\n],\"otherData\":{\"spans_written\":" << written
        << ",\"spans_omitted\":" << omitted << "}}\n";
    if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
