// Log-structured segment staging (dm-writeboost style, adapted to the KDD
// cache): committed DAZ/DEZ pages and metadata-log pages accumulate in a
// RAM segment instead of being written to the SSD one page at a time. When
// the segment fills (or a barrier forces it), it is *sealed* — a header page
// carrying a monotonic segment id, the list of target SSD LBAs and a
// whole-segment CRC over the payload bytes — and flushed as ONE vectored
// sequential SSD write (BlockDevice::write_multi), header first.
//
// Why this is meant to be crash-safe even though the segment lives in plain
// RAM: the KDD write path keeps RAID data members current *before* any delta
// or page is staged toward the SSD (acked durability never depends on cache
// contents), and the NVRAM staging/metadata buffers survive independently.
// Losing an unsealed segment should therefore lose only cache state that
// recovery can retire: the header-first write order plus the sector-prefix
// torn-write model guarantee that whenever any payload page reached the
// media, the header did too, so recovery can enumerate *exactly* the affected
// pages, validate the whole-segment CRC, and either accept the segment (fully
// persisted) or discard precisely its page list — subsuming the metadata
// log's per-entry CRC-8 torn-tail handling with a single coarser check.
//
// Known gap: a power cut before the seal can currently lose parity debt
// too. The likely cause is that MetadataLog releases its NVRAM entries when
// a page is *staged* rather than when its segment seals. That is why
// segment_staging defaults off (docs/fault_model.md).
//
// The stager itself is a passive in-RAM structure (buffering, coalescing,
// header serialisation, CRC); CacheSsd drives the device I/O and recovery
// (src/cache/backend.*), so this class is unit-testable without a device.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/bytes.hpp"
#include "common/units.hpp"

namespace kdd {

struct SegmentConfig {
  std::uint64_t segment_pages = 64;  ///< payload pages per sealed segment
  std::uint64_t ring_pages = 4;      ///< header ring slots (id % ring_pages)
  Lba ring_base = 0;                 ///< absolute SSD LBA of the header ring
};

/// Counters exported as kdd_segment_* metrics (owned by CacheSsd, which
/// drives the I/O; the stager only buffers).
struct SegmentStats {
  std::uint64_t seals = 0;            ///< segments flushed
  std::uint64_t forced_seals = 0;     ///< partial segments sealed by a barrier
  std::uint64_t pages_sealed = 0;     ///< payload pages flushed via seals
  std::uint64_t pages_staged = 0;     ///< stage() calls accepted
  std::uint64_t pages_coalesced = 0;  ///< stage() overwrote a pending page
  std::uint64_t write_ops = 0;        ///< host write commands issued by seals
  std::uint64_t fallback_page_writes = 0;  ///< per-page retries after a failed batch
  std::uint64_t lost_pages = 0;       ///< pages abandoned after retries failed
  std::uint64_t recovered_segments = 0;  ///< recovery accepted the in-flight segment
  std::uint64_t discarded_segments = 0;  ///< recovery discarded the unsealed segment
  std::uint64_t discarded_pages = 0;     ///< pages invalidated by that discard
};

class SegmentStager {
 public:
  /// "KDDSEG02" — the header magic. Bumped whenever the CRC function
  /// changes, so a header sealed under another one is never accepted.
  static constexpr std::uint64_t kMagic = 0x4b44445345473032ull;
  static constexpr std::size_t kHeaderFixedBytes = 40;
  static constexpr std::size_t kMaxEntries =
      (kPageSize - kHeaderFixedBytes) / sizeof(std::uint64_t);

  SegmentStager(const SegmentConfig& config, bool counter_mode);

  const SegmentConfig& config() const { return config_; }

  /// Stages `data` (empty in counter mode) destined for absolute SSD LBA
  /// `ssd_lba`, coalescing an already-pending write to the same LBA in
  /// place. Returns true when the segment is full and must be sealed.
  bool stage(Lba ssd_lba, std::span<const std::uint8_t> data);

  bool pending(Lba ssd_lba) const;
  /// Read-through for pending pages (prototype mode). Returns false when the
  /// LBA is not pending or carries no bytes.
  bool read_pending(Lba ssd_lba, std::span<std::uint8_t> out) const;
  /// Trim: forgets a pending page (it will not be written at seal).
  void drop(Lba ssd_lba);

  bool empty() const { return live_ == 0; }
  std::size_t live_pages() const { return live_; }
  bool full() const;

  std::uint64_t open_segment_id() const { return id_; }
  void set_open_segment_id(std::uint64_t id) { id_ = id; }
  /// Ring slot the open segment's header will occupy.
  Lba header_slot() const { return config_.ring_base + id_ % config_.ring_pages; }
  static Lba header_slot_for(const SegmentConfig& config, std::uint64_t id) {
    return config.ring_base + id % config.ring_pages;
  }

  /// Serialises the header for the current live set into `*header` and
  /// returns the write batch, header page FIRST (the order is load-bearing:
  /// prefix persistence means a readable header whenever any payload
  /// persisted). Data spans reference stager-owned memory valid until
  /// finish_seal(). Counter mode produces LBAs with empty payload spans.
  std::vector<PageWrite> build_seal(Page* header) const;

  /// Target LBAs of the current live set, in write order.
  std::vector<Lba> live_lbas() const;

  /// Completes a seal: clears the segment and advances the open segment id.
  void finish_seal();

  /// Discards all staged pages without sealing (the backing device was
  /// replaced, so the staged contents belong to dead media). The open
  /// segment id is unchanged — it stays monotonic across device swaps.
  void abandon();

  // ---- Header format helpers (shared with CacheSsd recovery) --------------

  /// Parses and validates a header page (magic + header CRC). On success
  /// fills the segment id, the payload LBA list and the whole-segment
  /// payload CRC: the kern::page_hash chain from kern::kPageHashSeed over
  /// the payload pages in list order. Returns false for garbage, torn or
  /// foreign pages.
  static bool parse_header(std::span<const std::uint8_t> page, std::uint64_t* id,
                           std::vector<Lba>* lbas, std::uint64_t* payload_crc);

 private:
  struct Entry {
    Lba lba = kInvalidLba;
    bool dead = false;
    Page data;  ///< empty in counter mode
  };

  SegmentConfig config_;
  bool counter_mode_;
  std::uint64_t id_ = 0;
  std::vector<Entry> entries_;                  ///< staging order, incl. dead
  std::unordered_map<Lba, std::size_t> index_;  ///< lba -> entries_ slot
  std::size_t live_ = 0;
};

}  // namespace kdd
