#include "store/frame_store.hpp"

#include <cstring>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "telemetry/telemetry.hpp"

namespace htims::store {

namespace {

constexpr std::uint32_t kStoreMagic = 0x48545353;   // "HTSS"
constexpr std::uint32_t kFooterMagic = 0x48544958;  // "HTIX"
constexpr std::uint32_t kStoreVersion = 1;

/// Superblock, the first 64 bytes of page 0 (rest of the page is zero).
/// crc is CRC-32 of the struct with the crc field zeroed.
struct Superblock {
    std::uint32_t magic;
    std::uint32_t version;
    std::uint32_t page_bytes;
    std::uint32_t reserved0;
    std::uint64_t drift_bins;
    std::uint64_t mz_bins;
    double drift_bin_width_s;
    std::uint64_t averages;
    std::uint64_t reserved1;
    std::uint32_t reserved2;
    std::uint32_t crc;
};
static_assert(sizeof(Superblock) == 64, "superblock must be 64 bytes");

/// Packed on-disk index record.
struct DiskEntry {
    std::uint64_t offset;
    std::uint64_t bytes;
    std::uint64_t seq;
    std::uint64_t reserved;
};
static_assert(sizeof(DiskEntry) == 32, "index entry must be 32 bytes");

/// Footer, the last 64 bytes of a finalized store. footer_crc is CRC-32 of
/// the struct with the footer_crc field zeroed; index_crc covers the packed
/// entry array.
struct Footer {
    std::uint32_t magic;
    std::uint32_t version;
    std::uint64_t frame_count;
    std::uint64_t index_offset;
    std::uint64_t data_end;
    std::uint32_t index_crc;
    std::uint32_t footer_crc;
    std::uint64_t reserved[3];
};
static_assert(sizeof(Footer) == 64, "footer must be 64 bytes");

std::size_t page_align(std::size_t bytes) {
    return (bytes + kStorePageBytes - 1) / kStorePageBytes * kStorePageBytes;
}

std::uint32_t superblock_crc(Superblock sb) {
    sb.crc = 0;
    return crc32(&sb, sizeof(sb));
}

std::uint32_t footer_crc_of(Footer footer) {
    footer.footer_crc = 0;
    return crc32(&footer, sizeof(footer));
}

telemetry::Gauge& bytes_mapped_gauge() {
    static auto& gauge =
        telemetry::Registry::global().gauge("store.bytes_mapped");
    return gauge;
}

telemetry::Counter& page_faults_counter() {
    static auto& counter =
        telemetry::Registry::global().counter("store.page_faults_est");
    return counter;
}

telemetry::Counter& frames_lost_counter() {
    static auto& counter =
        telemetry::Registry::global().counter("store.frames_lost");
    return counter;
}

}  // namespace

FrameStoreWriter::FrameStoreWriter(const std::string& path, const StoreMeta& meta,
                                   fault::FaultInjector* faults)
    : meta_(meta), faults_(faults) {
    if (meta.layout.cells() == 0)
        throw ConfigError("frame store needs a non-empty layout");
    if (meta.averages == 0)
        throw ConfigError("frame store needs averages >= 1");
    // One page of superblock plus room for the first frame slot.
    const std::size_t initial = kStorePageBytes +
        page_align(pipeline::frame_container_bytes(meta.layout));
    map_ = MappedFile::create(path, initial);

    Superblock sb{};
    sb.magic = kStoreMagic;
    sb.version = kStoreVersion;
    sb.page_bytes = static_cast<std::uint32_t>(kStorePageBytes);
    sb.drift_bins = meta.layout.drift_bins;
    sb.mz_bins = meta.layout.mz_bins;
    sb.drift_bin_width_s = meta.layout.drift_bin_width_s;
    sb.averages = meta.averages;
    sb.crc = superblock_crc(sb);
    std::memcpy(map_.data(), &sb, sizeof(sb));
    bytes_mapped_gauge().set(static_cast<std::int64_t>(map_.size()));
}

void FrameStoreWriter::append(const pipeline::Frame& frame, std::uint64_t seq) {
    HTIMS_EXPECTS(!finalized_);
    if (!(frame.layout() == meta_.layout))
        throw ConfigError("appended frame does not match the store layout");
    if (!entries_.empty() && seq < entries_.back().seq)
        throw ConfigError("frame store appends must be in seq order");

    const std::size_t bytes = pipeline::frame_container_bytes(frame);
    const std::size_t offset = page_align(static_cast<std::size_t>(data_end_));
    const std::size_t slot = page_align(bytes);
    map_.grow(offset + slot);
    bytes_mapped_gauge().set(static_cast<std::int64_t>(map_.size()));

    // Arena write: serialize header + payload straight into the mapping —
    // the in-place path; no staging buffer exists to copy from.
    std::byte* dst = map_.data() + offset;
    pipeline::serialize_frame(frame, std::span(dst, slot), seq);
    if (slot > bytes) std::memset(dst + bytes, 0, slot - bytes);

    if (faults_ != nullptr) {
        const auto torn = faults_->decide(fault::Site::kStoreTornPage);
        if (torn.fire) {
            // A power cut mid-append: pages from a plan-determined boundary
            // onward never reach disk. Boundary 0 loses the whole frame
            // (resync skips the slot); a later boundary leaves a header
            // whose payload CRC fails — both are counted losses on read.
            const std::uint64_t pages = slot / kStorePageBytes;
            const std::uint64_t boundary = faults_->draw_below(
                fault::Site::kStoreTornPage, torn.event, pages);
            const std::size_t torn_from =
                static_cast<std::size_t>(boundary) * kStorePageBytes;
            std::memset(dst + torn_from, 0, bytes - std::min(bytes, torn_from));
        }
    }

    entries_.push_back(FrameEntry{static_cast<std::uint64_t>(offset),
                                  static_cast<std::uint64_t>(bytes), seq});
    data_end_ = static_cast<std::uint64_t>(offset + bytes);
}

void FrameStoreWriter::finalize() {
    if (finalized_) return;
    finalized_ = true;

    // Data first: every arena page is durable before the index that points
    // at it exists — the ordering that makes a crash leave a recoverable
    // prefix instead of an index referencing unwritten pages.
    map_.sync(0, static_cast<std::size_t>(data_end_));

    const std::size_t index_offset = page_align(static_cast<std::size_t>(data_end_));
    const std::size_t index_bytes = entries_.size() * sizeof(DiskEntry);
    const std::size_t footer_offset = index_offset + index_bytes;
    const std::size_t total = footer_offset + sizeof(Footer);
    map_.grow(total);
    bytes_mapped_gauge().set(static_cast<std::int64_t>(map_.size()));

    std::byte* index_dst = map_.data() + index_offset;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const DiskEntry de{entries_[i].offset, entries_[i].bytes,
                           entries_[i].seq, 0};
        std::memcpy(index_dst + i * sizeof(DiskEntry), &de, sizeof(de));
    }

    if (faults_ != nullptr) {
        const auto torn = faults_->decide(fault::Site::kStoreIndexTorn);
        if (torn.fire) {
            // Finalize dies mid-index: keep a plan-determined prefix of the
            // index region and never write the footer. The reader must fall
            // back to the resync scan.
            const std::uint64_t keep = faults_->draw_below(
                fault::Site::kStoreIndexTorn, torn.event,
                index_bytes + sizeof(Footer));
            map_.close_truncated(index_offset + static_cast<std::size_t>(keep));
            return;
        }
    }

    Footer footer{};
    footer.magic = kFooterMagic;
    footer.version = kStoreVersion;
    footer.frame_count = entries_.size();
    footer.index_offset = index_offset;
    footer.data_end = data_end_;
    footer.index_crc = crc32(index_dst, index_bytes);
    footer.footer_crc = footer_crc_of(footer);
    std::memcpy(map_.data() + footer_offset, &footer, sizeof(footer));

    // Index + footer last, synced, then the file cut to exact size.
    map_.sync(index_offset, index_bytes + sizeof(Footer));
    map_.close_truncated(total);
}

FrameStoreReader::FrameStoreReader(const std::string& path) {
    map_ = MappedFile::open_readonly(path);
    const auto bytes = map_.span();
    if (bytes.size() < kStorePageBytes)
        throw Error("frame store '" + path + "' is too small to hold a superblock");

    Superblock sb{};
    std::memcpy(&sb, bytes.data(), sizeof(sb));
    if (sb.magic != kStoreMagic || sb.version != kStoreVersion ||
        sb.page_bytes != kStorePageBytes || superblock_crc(sb) != sb.crc)
        throw Error("frame store '" + path + "' has a damaged superblock");
    meta_.layout = pipeline::FrameLayout{
        .drift_bins = static_cast<std::size_t>(sb.drift_bins),
        .mz_bins = static_cast<std::size_t>(sb.mz_bins),
        .drift_bin_width_s = sb.drift_bin_width_s};
    meta_.averages = sb.averages;
    bytes_mapped_gauge().set(static_cast<std::int64_t>(bytes.size()));

    // Try the O(1) path: a valid footer at EOF whose index checksums.
    if (bytes.size() >= kStorePageBytes + sizeof(Footer)) {
        Footer footer{};
        std::memcpy(&footer, bytes.data() + bytes.size() - sizeof(Footer),
                    sizeof(footer));
        const std::size_t index_bytes = footer.frame_count * sizeof(DiskEntry);
        if (footer.magic == kFooterMagic && footer.version == kStoreVersion &&
            footer_crc_of(footer) == footer.footer_crc &&
            footer.index_offset >= kStorePageBytes &&
            footer.index_offset + index_bytes + sizeof(Footer) == bytes.size() &&
            footer.data_end <= footer.index_offset &&
            crc32(bytes.data() + footer.index_offset, index_bytes) ==
                footer.index_crc) {
            bool entries_ok = true;
            entries_.reserve(footer.frame_count);
            for (std::uint64_t i = 0; i < footer.frame_count; ++i) {
                DiskEntry de{};
                std::memcpy(&de,
                            bytes.data() + footer.index_offset +
                                i * sizeof(DiskEntry),
                            sizeof(de));
                if (de.offset < kStorePageBytes || de.bytes == 0 ||
                    de.offset + de.bytes > footer.data_end ||
                    (!entries_.empty() && de.seq < entries_.back().seq)) {
                    entries_ok = false;
                    break;
                }
                entries_.push_back(FrameEntry{de.offset, de.bytes, de.seq});
            }
            if (entries_ok) {
                indexed_ = true;
                return;
            }
            entries_.clear();
        }
    }

    // Degraded path: no trustworthy index. Rebuild it with the v2 resync
    // scan over the arena — zero-copy over the mapping via the span reader.
    pipeline::FrameStreamReader scan(bytes.subspan(kStorePageBytes),
                                     pipeline::RecoveryMode::kResync);
    while (auto frame = scan.next()) {
        const std::uint64_t bytes_used = pipeline::frame_container_bytes(*frame);
        const std::uint64_t end = kStorePageBytes + scan.offset();
        entries_.push_back(
            FrameEntry{end - bytes_used, bytes_used, scan.last_seq()});
    }
    recovery_stats_ = scan.stats();
    if (recovery_stats_.frames_lost > 0)
        frames_lost_counter().add(
            static_cast<std::int64_t>(recovery_stats_.frames_lost));
}

pipeline::FrameLayout FrameStoreReader::verify(std::size_t i) const {
    const FrameEntry& e = entry(i);
    const auto bytes = map_.span();
    if (e.offset >= bytes.size())
        throw Error("frame store: entry " + std::to_string(i) +
                    " lies beyond the mapped file (truncated store)");
    page_faults_counter().add(static_cast<std::int64_t>(
        (e.bytes + kStorePageBytes - 1) / kStorePageBytes));
    std::size_t consumed = 0;
    std::uint64_t seq = 0;
    const pipeline::FrameLayout layout = pipeline::check_frame(
        bytes.subspan(e.offset, std::min<std::size_t>(e.bytes, bytes.size() - e.offset)),
        &consumed, &seq);
    if (consumed != e.bytes || seq != e.seq)
        throw Error("frame store: entry " + std::to_string(i) +
                    " does not match its indexed identity");
    return layout;
}

pipeline::Frame FrameStoreReader::frame(std::size_t i) const {
    pipeline::Frame frame(verify(i));
    // verify() matched the slot's size to the container, so the payload is
    // the last cells-worth of bytes of the slot.
    const auto cells = frame.data();
    const FrameEntry& e = entry(i);
    std::memcpy(cells.data(),
                map_.span().data() + e.offset + e.bytes - cells.size_bytes(),
                cells.size_bytes());
    return frame;
}

std::span<const double> FrameStoreReader::payload(std::size_t i) const {
    const FrameEntry& e = entry(i);
    const std::size_t cells = meta_.layout.cells();
    const std::size_t header_bytes =
        pipeline::frame_container_bytes(meta_.layout) - cells * sizeof(double);
    const auto bytes = map_.span();
    if (e.offset + e.bytes > bytes.size() ||
        e.bytes != header_bytes + cells * sizeof(double))
        throw Error("frame store: entry " + std::to_string(i) +
                    " has no complete payload in the mapping");
    return {reinterpret_cast<const double*>(bytes.data() + e.offset +
                                            header_bytes),
            cells};
}

std::optional<std::size_t> FrameStoreReader::find_seq(std::uint64_t seq) const {
    std::size_t lo = 0, hi = entries_.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (entries_[mid].seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < entries_.size() && entries_[lo].seq == seq) return lo;
    return std::nullopt;
}

std::optional<pipeline::Frame> FrameStoreScan::next() {
    while (next_entry_ < reader_->frames()) {
        const std::size_t i = next_entry_++;
        try {
            pipeline::Frame frame = reader_->frame(i);
            last_seq_ = reader_->entry(i).seq;
            ++stats_.frames_ok;
            return frame;
        } catch (const Error&) {
            ++stats_.frames_lost;
            frames_lost_counter().increment();
        }
    }
    return std::nullopt;
}

}  // namespace htims::store
