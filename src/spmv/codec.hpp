// Per-block compression codec for serialized CSR/SELL matrix payloads —
// the CPU-for-I/O-bandwidth trade of the out-of-core hot path (DFOGraph's
// lever, ROADMAP item 2). A compressed block is a self-describing frame
// with its own magic word, so it slots into the existing magic-sniffed
// wire layer: blocks on disk, in flight over dooc::net frames, or handed
// between mixed-configuration processes are either a raw CSR/SELL payload
// or a codec frame, and every consumer can tell which with the first
// 8 bytes.
//
// Frame layout (little-endian, 8-byte aligned):
//   u64 magic       'DCODBLK1'
//   u64 endian      0x0102030405060708 (readers reject foreign byte order)
//   u64 raw_bytes   decoded payload size (validated against a caller cap
//                   BEFORE any allocation — ratio-bomb defense)
//   u64 body_bytes  encoded section stream size following the header
//   u64 flags       bit 0: delta+varint index sections present
//                   bit 1: byte-shuffled + RLE value sections present
//                   bits 8..15: inner format tag (1 = CSR, 2 = SELL)
//   u64 crc         low 32: CRC-32 of the body; high 32: CRC-32 of the
//                   raw (decoded) payload — end-to-end integrity
//
// The body is a sequence of sections, each `varint raw_len | u8 encoding |
// varint enc_len | enc_len bytes`, concatenating to exactly raw_bytes on
// decode. Section encodings:
//   0 raw        verbatim bytes
//   1 delta-u64  monotone u64 array (row_ptr/chunk_ptr): first value then
//                LEB128 varint gaps
//   2 zigzag-u32 u32 array (col_idx/perm incl. pad words): successive
//                differences, zigzag-mapped, LEB128 varint
//   3 shuffle-rle f64 array: bytes transposed into per-byte-plane lanes,
//                then run-length encoded (exponent/sign planes repeat)
//
// Decoding is hostile-input hardened in the same spirit as
// CsrView/SellView::from_bytes: every count is validated against the real
// buffer size with overflow-latched arithmetic, truncated varints and CRC
// mismatches surface as typed CodecError, and the declared raw size is
// capped before allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/buffer.hpp"
#include "common/error.hpp"

namespace dooc::spmv::codec {

constexpr std::uint64_t kCodecMagic = 0x44434F44'424C4B31ull;  // "DCODBLK1"
constexpr std::uint64_t kCodecHeaderWords = 6;
constexpr std::uint64_t kCodecHeaderBytes = kCodecHeaderWords * 8;

/// A codec frame that cannot be decoded: truncated varint stream, body or
/// raw CRC mismatch, ratio-bomb header (declared raw size above the
/// caller's cap), malformed section stream. Subtype of IoError so existing
/// storage retry/failover treats a corrupt frame like any other bad read.
class CodecError : public IoError {
 public:
  explicit CodecError(const std::string& what) : IoError(what) {}
};

enum class Mode {
  Off,       ///< never encode; decode still works (mixed-config interop)
  On,        ///< encode every matrix block, even when it grows
  Adaptive,  ///< encode, keep raw when achieved ratio < min_ratio
};

/// Runtime codec policy, settable programmatically or via the DOOC_CODEC
/// environment variable (see parse()).
struct CodecConfig {
  Mode mode = Mode::Off;
  /// Adaptive gate: store raw unless raw_bytes/encoded_bytes >= min_ratio.
  double min_ratio = 1.05;
  /// Attempt the byte-shuffle + RLE pass on f64 value sections (taken only
  /// when it shrinks the section; incompressible values stay raw either way).
  bool shuffle_values = true;
  /// Storage read path: attempt O_DIRECT block reads (graceful fallback to
  /// buffered pread when the filesystem or alignment refuses).
  bool direct_io = false;
  /// Storage read path: double-buffered read-ahead depth — enqueue_read of
  /// block k also stages up to this many following blocks, so decode of
  /// block k overlaps the read of block k+1. 0 = off.
  int read_ahead = 0;

  [[nodiscard]] bool enabled() const noexcept { return mode != Mode::Off; }

  /// Parse a `key=value,...` spec (common/spec grammar):
  /// `mode=on|off|adaptive` (a bare leading `on|off|adaptive` token is also
  /// accepted), `min_ratio=<float>=1>`, `shuffle=0|1`, `direct_io=0|1`,
  /// `read_ahead=<int in [0,64]>`.
  /// Throws InvalidArgument on unknown keys or malformed values.
  static CodecConfig parse(const std::string& spec);

  /// CodecConfig from the DOOC_CODEC environment variable; defaults
  /// (mode=off) when unset or empty.
  static CodecConfig from_env();
};

[[nodiscard]] const char* mode_name(Mode m) noexcept;

/// Outcome of one encode, for the adaptive policy's sampling and the
/// compression-ratio gauges.
struct EncodeStats {
  std::uint64_t raw_bytes = 0;
  std::uint64_t encoded_bytes = 0;        ///< full frame size (header + body)
  std::uint64_t index_raw_bytes = 0;      ///< row_ptr/chunk_ptr/col_idx/perm
  std::uint64_t index_encoded_bytes = 0;  ///< their section-stream footprint
  std::uint64_t value_raw_bytes = 0;
  std::uint64_t value_encoded_bytes = 0;

  [[nodiscard]] double ratio() const noexcept {
    return encoded_bytes > 0 ? static_cast<double>(raw_bytes) / static_cast<double>(encoded_bytes)
                             : 1.0;
  }
  [[nodiscard]] double index_ratio() const noexcept {
    return index_encoded_bytes > 0 ? static_cast<double>(index_raw_bytes) /
                                         static_cast<double>(index_encoded_bytes)
                                   : 1.0;
  }
};

/// True when `bytes` starts with a codec frame magic.
[[nodiscard]] bool is_encoded(std::span<const std::byte> bytes) noexcept;

/// Validated declared decoded size of a codec frame. Throws CodecError on a
/// bad header or a declared size above `cap` (ratio-bomb defense) — callers
/// pass the size they are prepared to allocate (block bytes, frame cap).
[[nodiscard]] std::uint64_t decoded_bytes(std::span<const std::byte> bytes, std::uint64_t cap);

/// Header-only peek for directory scans: given just the first
/// kCodecHeaderBytes of a file plus the file's total size, return the
/// declared decoded size. Throws CodecError unless the header is well
/// formed, the declared size is within `cap`, and header + body account for
/// exactly `file_bytes`.
[[nodiscard]] std::uint64_t probe_frame(std::span<const std::byte> head, std::uint64_t file_bytes,
                                        std::uint64_t cap);

/// Encode a serialized CSR/SELL payload. Returns nullopt when the payload
/// carries neither matrix magic (unknown payloads travel raw), when
/// cfg.mode == Off, or when mode == Adaptive and the achieved ratio falls
/// below cfg.min_ratio. The encoded frame decodes bitwise-identically to
/// `raw`.
[[nodiscard]] std::optional<DataBuffer> encode_block(std::span<const std::byte> raw,
                                                     const CodecConfig& cfg,
                                                     EncodeStats* stats = nullptr);

/// Decode a codec frame into a fresh buffer of exactly decoded_bytes(...,
/// cap) bytes. Throws CodecError on any malformation (see class docs).
[[nodiscard]] DataBuffer decode_block(std::span<const std::byte> bytes, std::uint64_t cap);

/// Decode if encoded, pass through otherwise — the transparent-interop
/// helper every consumer of possibly-compressed bytes calls.
[[nodiscard]] DataBuffer decode_if_encoded(const DataBuffer& bytes, std::uint64_t cap);

/// Offline ratio prediction for `dooc_matinfo --codec-estimate`: samples
/// column-index deltas and scores their entropy to predict the varint
/// index-stream ratio without running the encoder. Cheap (samples at most
/// ~64Ki deltas) and format-aware (CSR and SELL payloads).
struct CodecEstimate {
  double index_ratio = 1.0;       ///< predicted raw/encoded for index bytes
  double overall_ratio = 1.0;     ///< predicted whole-payload ratio
  double delta_entropy_bits = 0;  ///< sampled entropy of varint byte widths
  std::uint64_t sampled_deltas = 0;
};
[[nodiscard]] CodecEstimate estimate_block(std::span<const std::byte> raw);

}  // namespace dooc::spmv::codec
