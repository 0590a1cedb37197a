// spans.hpp — the benchmark's own span log for the traced run.
//
// One span per call the benchmark makes into a layer (a source call, the
// ordered frame sink, AnalysisStage::analyze, FrameStoreWriter::append /
// finalize, set-up), tagged with stream id, frame id and parent span. The
// spans stay in memory while the workload runs and are written at the end
// as Chrome trace-event JSON, which Perfetto and chrome://tracing load.
// Per-layer self time is a span's duration minus the part of it that its
// child spans cover.
//
// Recording takes no lock: each lane is written by one thread at a time.
// The producer lane holds source calls (the producer thread is the only
// caller of a RecordSource); the emitter lane holds frame-sink spans, and
// the pipelines serialize every sink call through their ordered emission
// point; the main lane is the benchmark's own thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
    kRep,         ///< one repetition: set-up, run, finalize
    kSetup,       ///< program set-up before the first record
    kRun,         ///< HybridPipeline::run / FleetRunner::run
    kFrame,       ///< first record served -> result complete
    kSourceCall,  ///< one RecordSource call by the producer
    kEmit,        ///< one frame_sink call
    kAnalyze,     ///< AnalysisStage::analyze
    kAppend,      ///< FrameStoreWriter::append
    kFinalize,    ///< FrameStoreWriter::finalize
    kCount,
};

const char* span_name(SpanKind kind);

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t frame = kNoFrame;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t stream = 0;
    std::uint32_t tid = 0;
    SpanKind kind = SpanKind::kRep;

    static constexpr std::uint64_t kNoFrame = ~std::uint64_t{0};
};

class SpanLog {
public:
    enum Lane : std::uint64_t { kMain = 0, kProducer, kEmitter, kFrames, kLanes };

    /// Open a span on `lane` (closed by end()); returns its id, which child
    /// spans name as their parent.
    std::uint64_t begin(Lane lane, SpanKind kind, std::uint64_t frame,
                        std::uint64_t parent, std::uint64_t start_ns);
    void end(std::uint64_t id, std::uint64_t end_ns);

    /// Append a finished span to `lane`; returns its id.
    std::uint64_t record(Lane lane, SpanKind kind, std::uint64_t frame,
                         std::uint64_t parent, std::uint64_t start_ns,
                         std::uint64_t end_ns) {
        const std::uint64_t id = begin(lane, kind, frame, parent, start_ns);
        end(id, end_ns);
        return id;
    }

    /// Id of frame `f`'s span, fixed before the frame starts so source calls
    /// and sink calls can name it as their parent. Frame spans go to their
    /// own lane through record_frame().
    static std::uint64_t frame_id(std::uint64_t f) {
        return (static_cast<std::uint64_t>(kFrames) << 40) | (f + 1);
    }
    void record_frame(std::uint64_t f, std::uint64_t parent,
                      std::uint64_t start_ns, std::uint64_t end_ns);

    std::vector<Span> merged() const;
    void clear();

private:
    std::vector<Span> lanes_[kLanes];
};

/// Per-kind totals over a span set.
struct SelfTime {
    SpanKind kind = SpanKind::kRep;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

std::vector<SelfTime> self_times(const std::vector<Span>& spans);

/// Write `spans` as a Chrome trace-event JSON document. Frame spans overlap
/// each other, so they become async (b/e) events; the rest are complete (X)
/// events on the thread that made the call. At most `max_events` layer
/// spans are written; the file says how many were left out.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& workload, std::size_t max_events);

}  // namespace perfbench
