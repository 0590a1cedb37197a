// frame_io.hpp — binary serialization of frames, with degraded-mode reads.
//
// The platform's companion work on efficient MS data formats (Shah et al.,
// #17) motivates a compact binary container for frames: fixed 64-byte
// header (magic, version, layout, payload CRC32, header CRC32) followed by
// the row-major float64 payload. Little-endian on-disk layout; integrity is
// verified on read. Used by the CLI example to persist acquisitions and by
// replay tooling to feed the pipeline from disk.
//
// Container v2 adds a header CRC (over the header bytes with the CRC field
// zeroed), so *every* single-byte flip anywhere in a stream is detectable —
// including flips in fields the payload CRC never covered. The corruption
// sweep test pins that property down exhaustively.
//
// Degraded-mode reading: a real replay cannot abort a whole LC gradient
// because one frame arrived corrupt. FrameStreamReader reads a
// concatenated-frame stream and, in kResync mode, treats a corrupt or
// truncated frame as a *loss*, scanning forward for the next plausible
// frame header instead of throwing — every detection/recovery is counted in
// its stats and mirrored into telemetry (frame_io.crc_failures,
// frame_io.frames_resynced, frame_io.bytes_skipped).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>

#include "pipeline/frame.hpp"

namespace htims::fault {
class FaultInjector;
}

namespace htims::pipeline {

/// FNV-1a 64-bit hash of a byte buffer; the digest primitive golden
/// regression fixtures pin in-source.
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = 0xCBF29CE484222325ULL);

/// Order-sensitive digest of a frame: layout dimensions plus every cell
/// quantized as llround(value * quantization). Built on exact integer
/// arithmetic so it is bit-stable across build types for pipelines whose
/// cell values are exactly representable (integer-count domains).
std::uint64_t frame_digest(const Frame& frame, double quantization = 256.0);

/// Exact byte size of a frame (or layout) in the v2 container: the fixed
/// 64-byte header plus the row-major float64 payload.
std::size_t frame_container_bytes(const FrameLayout& layout);
std::size_t frame_container_bytes(const Frame& frame);

/// Serialize header + payload directly into `dst` (one pass, no intermediate
/// buffer) — the primitive both stream writes and the mmap frame store share;
/// the store hands in a view of its mapping, so frames are written in place.
/// `seq` is an application sequence tag carried in a header reserved word
/// (covered by the header CRC, ignored by readers that don't ask for it).
/// Requires dst.size() >= frame_container_bytes(frame); returns bytes written.
std::size_t serialize_frame(const Frame& frame, std::span<std::byte> dst,
                            std::uint64_t seq = 0);

/// Validate one v2 container at the start of `bytes` in place, copying
/// nothing. Throws htims::Error on bad magic, unsupported version, header
/// CRC mismatch, implausible layout, truncated payload, or payload CRC
/// mismatch. On success returns the frame's layout; `*consumed` receives
/// the container byte count and, when non-null, `*seq` the sequence tag the
/// frame was written with.
FrameLayout check_frame(std::span<const std::byte> bytes, std::size_t* consumed,
                        std::uint64_t* seq = nullptr);

/// check_frame(), then a copy of the payload into a new Frame.
Frame parse_frame(std::span<const std::byte> bytes, std::size_t* consumed,
                  std::uint64_t* seq = nullptr);

/// Serialize a frame (header + payload) to a stream. Throws htims::Error on
/// stream failure.
void write_frame(std::ostream& os, const Frame& frame);

/// Fault-injected variant: serializes, then applies any kFrameCorrupt
/// (single-byte XOR at a plan-determined offset) and kFrameTruncate
/// (plan-determined cut) faults before writing — the deterministic stand-in
/// for a lossy transport. `faults` may be null (plain write).
void write_frame(std::ostream& os, const Frame& frame,
                 fault::FaultInjector* faults);

/// Deserialize a frame written by write_frame. Throws htims::Error on bad
/// magic, unsupported version, header CRC mismatch, implausible layout,
/// truncated payload, or payload CRC mismatch.
Frame read_frame(std::istream& is);

/// Convenience file wrappers.
void save_frame(const std::string& path, const Frame& frame);
Frame load_frame(const std::string& path);

/// What a FrameStreamReader does when a frame fails validation.
enum class RecoveryMode {
    kThrow,   ///< propagate the error (read_frame semantics)
    kResync,  ///< count the loss, scan to the next frame header, continue
};

/// Activity counters for one reader.
struct FrameStreamStats {
    std::uint64_t frames_ok = 0;       ///< frames decoded and verified
    std::uint64_t frames_lost = 0;     ///< corrupt/truncated frames skipped
    std::uint64_t resyncs = 0;         ///< losses recovered by re-locking
    std::uint64_t bytes_skipped = 0;   ///< bytes discarded while scanning
};

/// Sequential reader over a stream of concatenated frames with optional
/// skip-and-resync recovery. The zero-copy constructor scans a caller-owned
/// region in place (how the mmap frame store recovers a stored run without
/// ever copying it); the slurp constructors delegate to it after buffering
/// streams whose bytes the caller doesn't hold.
class FrameStreamReader {
public:
    /// Zero-copy: scan `bytes` in place. The region must outlive the reader.
    explicit FrameStreamReader(std::span<const std::byte> bytes,
                               RecoveryMode mode = RecoveryMode::kResync);
    explicit FrameStreamReader(std::istream& is,
                               RecoveryMode mode = RecoveryMode::kResync);
    explicit FrameStreamReader(std::string bytes,
                               RecoveryMode mode = RecoveryMode::kResync);

    /// Next verified frame, or nullopt at end of stream. In kThrow mode a
    /// bad frame throws htims::Error; in kResync mode it is counted and
    /// skipped (so nullopt means "no more recoverable frames").
    std::optional<Frame> next();

    /// True once the reader has consumed or discarded every byte.
    bool exhausted() const { return pos_ >= view_.size(); }

    /// Byte offset of the next unconsumed byte — after a successful next(),
    /// the returned frame's container ends exactly here (its start is
    /// offset() - frame_container_bytes(frame)), which is how the frame
    /// store rebuilds an index from a resync scan.
    std::size_t offset() const { return pos_; }

    /// Sequence tag of the last frame next() returned (0 before the first).
    std::uint64_t last_seq() const { return last_seq_; }

    const FrameStreamStats& stats() const { return stats_; }

private:
    std::string owned_;                 ///< backing bytes for slurp ctors
    std::span<const std::byte> view_;   ///< the region being scanned
    std::size_t pos_ = 0;
    RecoveryMode mode_;
    std::uint64_t last_seq_ = 0;
    FrameStreamStats stats_;
};

}  // namespace htims::pipeline
