#include "pipeline/frame_io.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "fault/fault.hpp"
#include "telemetry/telemetry.hpp"

namespace htims::pipeline {

namespace {

constexpr std::uint32_t kMagic = 0x48544D53;  // "HTMS"
constexpr std::uint32_t kVersion = 2;         // v2: header_crc added

// 64-byte fixed header, all fields little-endian. Explicitly packed by
// construction (only fixed-width members, naturally aligned). header_crc is
// the CRC-32 of the header bytes with the header_crc field zeroed, so a flip
// in *any* header byte — including reserved padding — is detectable.
struct Header {
    std::uint32_t magic;
    std::uint32_t version;
    std::uint64_t drift_bins;
    std::uint64_t mz_bins;
    double drift_bin_width_s;
    std::uint32_t payload_crc;
    std::uint32_t header_crc;
    std::uint64_t reserved1[3];
};
static_assert(sizeof(Header) == 64, "frame header must be 64 bytes");

std::uint32_t header_crc_of(Header header) {
    header.header_crc = 0;
    return crc32(&header, sizeof(header));
}

Header make_header(const Frame& frame, std::uint64_t seq) {
    const auto payload = frame.data();
    Header header{};
    header.magic = kMagic;
    header.version = kVersion;
    header.drift_bins = frame.layout().drift_bins;
    header.mz_bins = frame.layout().mz_bins;
    header.drift_bin_width_s = frame.layout().drift_bin_width_s;
    header.payload_crc = crc32(payload.data(), payload.size() * sizeof(double));
    header.reserved1[0] = seq;  // covered by the header CRC below
    header.header_crc = header_crc_of(header);
    return header;
}

/// Every test a header alone can fail: magic, version, header CRC and a
/// plausible layout. Returns the layout it describes.
FrameLayout checked_layout(const Header& header) {
    if (header.magic != kMagic) throw Error("frame read failed: bad magic");
    if (header.version != kVersion)
        throw Error("frame read failed: unsupported version " +
                    std::to_string(header.version));
    if (header_crc_of(header) != header.header_crc)
        throw Error("frame read failed: header CRC mismatch");
    if (header.drift_bins == 0 || header.mz_bins == 0 ||
        header.drift_bins > (1u << 24) || header.mz_bins > (1u << 24))
        throw Error("frame read failed: implausible layout");
    return FrameLayout{.drift_bins = static_cast<std::size_t>(header.drift_bins),
                       .mz_bins = static_cast<std::size_t>(header.mz_bins),
                       .drift_bin_width_s = header.drift_bin_width_s};
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes, std::uint64_t seed) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ULL;
    }
    return h;
}

std::uint64_t frame_digest(const Frame& frame, double quantization) {
    HTIMS_EXPECTS(quantization > 0.0);
    const std::uint64_t dims[2] = {frame.layout().drift_bins,
                                   frame.layout().mz_bins};
    std::uint64_t h = fnv1a64(dims, sizeof(dims));
    for (double v : frame.data()) {
        const std::int64_t q = std::llround(v * quantization);
        h = fnv1a64(&q, sizeof(q), h);
    }
    return h;
}

std::size_t frame_container_bytes(const FrameLayout& layout) {
    return sizeof(Header) + layout.cells() * sizeof(double);
}

std::size_t frame_container_bytes(const Frame& frame) {
    return frame_container_bytes(frame.layout());
}

std::size_t serialize_frame(const Frame& frame, std::span<std::byte> dst,
                            std::uint64_t seq) {
    const std::size_t total = frame_container_bytes(frame);
    HTIMS_EXPECTS(dst.size() >= total);
    const Header header = make_header(frame, seq);
    const auto payload = frame.data();
    std::memcpy(dst.data(), &header, sizeof(header));
    std::memcpy(dst.data() + sizeof(header), payload.data(),
                payload.size() * sizeof(double));
    return total;
}

FrameLayout check_frame(std::span<const std::byte> bytes, std::size_t* consumed,
                        std::uint64_t* seq) {
    if (bytes.size() < sizeof(Header))
        throw Error("frame read failed: truncated header");
    Header header{};
    std::memcpy(&header, bytes.data(), sizeof(header));
    const FrameLayout layout = checked_layout(header);
    const std::size_t payload_bytes = layout.cells() * sizeof(double);
    if (bytes.size() - sizeof(Header) < payload_bytes)
        throw Error("frame read failed: truncated payload");
    if (crc32(bytes.data() + sizeof(Header), payload_bytes) != header.payload_crc)
        throw Error("frame read failed: payload CRC mismatch");
    *consumed = sizeof(Header) + payload_bytes;
    if (seq != nullptr) *seq = header.reserved1[0];
    return layout;
}

Frame parse_frame(std::span<const std::byte> bytes, std::size_t* consumed,
                  std::uint64_t* seq) {
    Frame frame(check_frame(bytes, consumed, seq));
    const auto cells = frame.data();
    HTIMS_DCHECK(sizeof(Header) + cells.size_bytes() == *consumed,
                 "decoded frame storage matches the validated header");
    std::memcpy(cells.data(), bytes.data() + sizeof(Header), cells.size_bytes());
    return frame;
}

void write_frame(std::ostream& os, const Frame& frame) {
    const Header header = make_header(frame, 0);
    const auto payload = frame.data();
    os.write(reinterpret_cast<const char*>(&header), sizeof(header));
    os.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size() * sizeof(double)));
    if (!os) throw Error("frame write failed");
}

void write_frame(std::ostream& os, const Frame& frame,
                 fault::FaultInjector* faults) {
    if (faults == nullptr ||
        (!faults->plan().site(fault::Site::kFrameCorrupt).active() &&
         !faults->plan().site(fault::Site::kFrameTruncate).active())) {
        // No injector, or one with neither frame site armed: serialize
        // header + payload in one pass with no intermediate buffer.
        write_frame(os, frame);
        return;
    }
    std::string bytes(frame_container_bytes(frame), '\0');
    serialize_frame(frame,
                    std::span(reinterpret_cast<std::byte*>(bytes.data()),
                              bytes.size()));

    const auto corrupt = faults->decide(fault::Site::kFrameCorrupt);
    if (corrupt.fire) {
        const std::uint64_t offset = faults->draw_below(
            fault::Site::kFrameCorrupt, corrupt.event, bytes.size());
        const auto mask = static_cast<char>(1 + faults->draw_below(
            fault::Site::kFrameCorrupt, corrupt.event, 255, /*salt=*/1));
        bytes[static_cast<std::size_t>(offset)] ^= mask;
    }
    const auto truncate = faults->decide(fault::Site::kFrameTruncate);
    if (truncate.fire) {
        const std::uint64_t keep = faults->draw_below(
            fault::Site::kFrameTruncate, truncate.event, bytes.size());
        bytes.resize(static_cast<std::size_t>(keep));
    }
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os) throw Error("frame write failed");
}

Frame read_frame(std::istream& is) {
    std::array<char, sizeof(Header)> header_bytes{};
    is.read(header_bytes.data(), sizeof(Header));
    if (!is) throw Error("frame read failed: truncated header");
    Header header{};
    std::memcpy(&header, header_bytes.data(), sizeof(header));
    Frame frame(checked_layout(header));
    const std::size_t payload_bytes = frame.data().size() * sizeof(double);
    is.read(reinterpret_cast<char*>(frame.data().data()),
            static_cast<std::streamsize>(payload_bytes));
    if (!is || static_cast<std::size_t>(is.gcount()) != payload_bytes)
        throw Error("frame read failed: truncated payload");
    if (crc32(frame.data().data(), payload_bytes) != header.payload_crc)
        throw Error("frame read failed: payload CRC mismatch");
    return frame;
}

namespace {

/// The one open/validate path both convenience wrappers (and any future
/// file-level helper) go through: binary mode, failure surfaced as Error.
template <typename StreamT>
StreamT open_binary(const std::string& path, const char* what) {
    StreamT stream(path, std::ios::binary);
    if (!stream) throw Error("cannot open " + path + " for " + what);
    return stream;
}

}  // namespace

void save_frame(const std::string& path, const Frame& frame) {
    auto os = open_binary<std::ofstream>(path, "writing");
    write_frame(os, frame);
}

Frame load_frame(const std::string& path) {
    auto is = open_binary<std::ifstream>(path, "reading");
    return read_frame(is);
}

FrameStreamReader::FrameStreamReader(std::span<const std::byte> bytes,
                                     RecoveryMode mode)
    : view_(bytes), mode_(mode) {}

FrameStreamReader::FrameStreamReader(std::istream& is, RecoveryMode mode)
    : mode_(mode) {
    std::ostringstream slurp;
    slurp << is.rdbuf();
    owned_ = std::move(slurp).str();
    view_ = std::span(reinterpret_cast<const std::byte*>(owned_.data()),
                      owned_.size());
}

FrameStreamReader::FrameStreamReader(std::string bytes, RecoveryMode mode)
    : owned_(std::move(bytes)), mode_(mode) {
    view_ = std::span(reinterpret_cast<const std::byte*>(owned_.data()),
                      owned_.size());
}

std::optional<Frame> FrameStreamReader::next() {
    auto& tel = telemetry::Registry::global();
    static auto& c_crc = tel.counter("frame_io.crc_failures");
    static auto& c_resync = tel.counter("frame_io.frames_resynced");
    static auto& c_skipped = tel.counter("frame_io.bytes_skipped");

    if (pos_ >= view_.size()) return std::nullopt;
    std::size_t consumed = 0;
    try {
        Frame frame = parse_frame(view_.subspan(pos_), &consumed, &last_seq_);
        pos_ += consumed;
        ++stats_.frames_ok;
        return frame;
    } catch (const Error&) {
        if (mode_ == RecoveryMode::kThrow) throw;
    }

    // Recovery: the bytes at pos_ are not a valid frame. Count one loss,
    // then scan forward for the next magic that parses clean. Overlapping
    // candidates are fine — a candidate that fails validation just moves
    // the scan one byte past its magic.
    ++stats_.frames_lost;
    c_crc.increment();
    static const std::array<char, 4> kMagicBytes = {0x53, 0x4D, 0x54, 0x48};
    const std::size_t lost_at = pos_;
    std::size_t scan = pos_ + 1;
    while (scan + kMagicBytes.size() <= view_.size()) {
        const auto* hit = static_cast<const std::byte*>(
            std::memchr(view_.data() + scan,
                        static_cast<unsigned char>(kMagicBytes[0]),
                        view_.size() - scan));
        if (hit == nullptr) break;
        const auto candidate = static_cast<std::size_t>(hit - view_.data());
        if (candidate + kMagicBytes.size() > view_.size()) break;
        if (std::memcmp(hit, kMagicBytes.data(), kMagicBytes.size()) == 0) {
            try {
                Frame frame = parse_frame(view_.subspan(candidate), &consumed,
                                          &last_seq_);
                stats_.bytes_skipped += candidate - lost_at;
                c_skipped.add(static_cast<std::int64_t>(candidate - lost_at));
                ++stats_.resyncs;
                c_resync.increment();
                ++stats_.frames_ok;
                pos_ = candidate + consumed;
                return frame;
            } catch (const Error&) {
                // Spurious or damaged header; keep scanning.
            }
        }
        scan = candidate + 1;
    }
    // No recoverable frame remains; the tail is discarded.
    stats_.bytes_skipped += view_.size() - lost_at;
    c_skipped.add(static_cast<std::int64_t>(view_.size() - lost_at));
    pos_ = view_.size();
    return std::nullopt;
}

}  // namespace htims::pipeline
