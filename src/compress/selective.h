// Block-by-block selective compression container — the paper's Fig. 10
// scheme, and (with an always-compress policy) the plain chunked "zlib"
// stream used for interleaved downloading.
//
// Layout:
//   magic | varint original_size | crc32 | varint block_size |
//   varint n_blocks | n × ( flag byte | varint payload_size | payload )
// where flag 0 = raw bytes, 1 = framed deflate member.
//
// Each block is independently decodable, which is what lets the receiver
// interleave decompression of block i with the download of block i+1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "compress/codec.h"
#include "util/crc32.h"

namespace ecomp::compress {

inline constexpr std::uint16_t kSelectiveMagic = 0xE004;

/// Matches the paper's compression buffer assumption of 0.128 MB.
inline constexpr std::size_t kDefaultBlockSize = 128 * 1024;

/// Decision policy for Fig. 10. `energy_test(raw, comp)` returns true
/// when shipping `comp` compressed bytes (for `raw` original bytes) is
/// predicted to cost less energy than shipping raw (Eq. 6); blocks
/// smaller than `min_block_bytes` skip compression outright (the paper's
/// 3900-byte threshold).
///
/// In parallel mode (threads > 1) the energy_test is called from pool
/// worker threads, possibly concurrently — it must be thread-safe
/// (pure functions of its two arguments, like the built-ins, trivially
/// are).
struct SelectivePolicy {
  std::size_t min_block_bytes = 3900;
  std::function<bool(std::size_t raw_size, std::size_t compressed_size)>
      energy_test;

  /// Compress every block that shrinks at all (the plain zlib role).
  static SelectivePolicy always();
  /// Never compress (raw container, used for baselines and tests).
  static SelectivePolicy never();
};

/// Per-block outcome, exposed for benches and the transfer simulator.
struct BlockInfo {
  std::size_t raw_size = 0;
  std::size_t payload_size = 0;  ///< bytes stored in the container
  bool compressed = false;
};

struct SelectiveResult {
  Bytes container;
  std::vector<BlockInfo> blocks;
};

/// Compress `input` block by block per the policy: a SelectiveStreamEncoder
/// (below) drained into one buffer. `level` is the deflate effort for
/// compressed blocks. With `threads` > 1 the blocks are compressed
/// concurrently on a par::ThreadPool and reassembled in order; because
/// each block is encoded independently and deterministically, the
/// container is byte-identical to the serial (threads == 1) output at
/// any thread count.
SelectiveResult selective_compress(ByteSpan input,
                                   const SelectivePolicy& policy,
                                   std::size_t block_size = kDefaultBlockSize,
                                   int level = 9, unsigned threads = 1);

/// Full decode with CRC verification: a strict SelectiveStreamDecoder
/// with `threads` (below) fed the container in slices, so with
/// `threads` > 1 the independently decodable blocks inflate on a pool.
Bytes selective_decompress(ByteSpan container, unsigned threads = 1);

/// Parse the container's block table without decoding payloads.
std::vector<BlockInfo> selective_block_info(ByteSpan container);

/// What a tolerant decode of a damaged container managed to recover.
/// Because blocks are independently decodable, one corrupted payload
/// loses one block, not the file: the decoder skips to the next block
/// boundary and zero-fills the gap so every surviving byte keeps its
/// original offset. Only when the framing itself (a flag byte's varint
/// or a payload length) is destroyed does the remaining tail go with it.
struct RecoveryReport {
  std::size_t blocks_total = 0;      ///< blocks the framing declared
  std::size_t blocks_recovered = 0;  ///< decoded and inserted verbatim
  std::size_t blocks_lost = 0;       ///< zero-filled or missing
  std::size_t bytes_recovered = 0;
  std::size_t bytes_lost = 0;        ///< zero-filled + missing tail
  bool framing_truncated = false;    ///< block table broke before the end
  bool crc_ok = false;               ///< container CRC verified
  /// True only for an undamaged container (salvage found nothing wrong).
  bool complete() const {
    return blocks_lost == 0 && !framing_truncated && crc_ok;
  }
};

struct SalvageResult {
  /// Reconstructed data, original_size bytes unless the tail was lost;
  /// lost blocks are zero-filled so offsets are preserved.
  Bytes data;
  RecoveryReport report;
};

/// Best-effort decode of a corrupted or truncated selective container:
/// a tolerant SelectiveStreamDecoder run over it. Never throws
/// on damaged content: whatever blocks still decode are salvaged and
/// the report says what was lost. (A container whose header is
/// unreadable or implausible yields zero bytes and a fully-lost report.)
SalvageResult selective_salvage(ByteSpan container);

/// The container header's fields (the layout above, up to the blocks).
struct SelectiveHeader {
  std::uint64_t original_size = 0;
  std::uint32_t crc = 0;
  std::uint64_t block_size = 0;
  std::uint64_t n_blocks = 0;
};

/// Push-based streaming decoder — the receiving half of the paper's
/// interleaving scheme (§4.1), and the one decoder every stream of the
/// container goes through (downloads, uploads, decompress, salvage).
/// feed() appends received bytes; poll() returns the next fully
/// received, decoded block, or nullopt until more bytes arrive. Its
/// state carries across sources, so a resumed transfer keeps decoding
/// where the broken one stopped.
class SelectiveStreamDecoder {
 public:
  /// With `threads` >= 2 the compressed blocks that have arrived
  /// inflate on a pool of min(threads, n_blocks) workers while later
  /// blocks arrive; poll() still hands every block out in order, and
  /// every outcome (blocks, errors, block_infos(), recovery(),
  /// bytes_fed()) is the one threads 1 gives, where poll() decodes
  /// inline.
  explicit SelectiveStreamDecoder(unsigned threads = 1);
  ~SelectiveStreamDecoder();
  SelectiveStreamDecoder(SelectiveStreamDecoder&&) noexcept;
  SelectiveStreamDecoder& operator=(SelectiveStreamDecoder&&) noexcept;

  void feed(ByteSpan chunk);

  /// Decode the next complete block if its payload has fully arrived.
  /// Throws if it fails to decode or decodes to any size but the one
  /// the header implies (tolerant mode: see set_tolerant()).
  /// With a pool, poll() frames every block that has arrived and
  /// returns nullopt while the next one is still decoding — unless
  /// `wait` (the caller has no more input) or no more input could help
  /// (every frame is in, or the framing broke); then it waits for it.
  std::optional<Bytes> poll(bool wait = false);

  /// Tolerant mode (salvage's rules): a block whose payload fails to
  /// decode (bad flag, inflate error, member-CRC mismatch, wrong size)
  /// is zero-filled to its expected size instead of throwing, so the
  /// stream skips to the next block boundary and keeps going; the
  /// stream ends once original_size bytes are out; verify() records the
  /// CRC outcome in recovery() instead of throwing. Framing damage
  /// still throws — a destroyed boundary ends the stream either way —
  /// and so does a lost block larger than kMaxExpansion times the
  /// bytes fed so far could encode (a damaged header's zero-fill bomb).
  void set_tolerant(bool on) { tolerant_ = on; }

  /// What was lost and recovered so far (meaningful in tolerant mode).
  const RecoveryReport& recovery() const { return recovery_; }

  /// True once every block of the container has been decoded (tolerant
  /// mode: or once original_size bytes have).
  bool finished() const { return ends_stream(blocks_done_, decoded_); }

  /// True once a poll() or verify() threw: the stream is poisoned, and
  /// only a fresh decoder can start it over.
  bool failed() const { return failed_; }

  /// Container bytes fed so far — where a resumed transfer picks up.
  /// Once failed(), the bytes fed when the failing block had arrived.
  std::uint64_t bytes_fed() const { return fed_; }

  /// The container header, once it has arrived.
  const std::optional<SelectiveHeader>& header() const { return header_; }

  /// Verify the container CRC over everything decoded so far; call once
  /// finished(). Throws on mismatch or if not finished (tolerant mode
  /// records the outcome in recovery().crc_ok instead of throwing).
  void verify();

  /// Close the stream out after its last byte: verify() a finished
  /// stream; otherwise strict mode throws, and tolerant mode books
  /// every undelivered block and byte as lost (framing_truncated), the
  /// way salvage accounts a missing tail. Call once.
  const RecoveryReport& finish();

  /// Per-block sizes/decisions observed so far (one entry per block
  /// already returned by poll()); feeds the transfer simulator.
  const std::vector<BlockInfo>& block_infos() const { return infos_; }

 private:
  /// A block whose frame has arrived, with what it is checked against;
  /// fixed when the frame is read, so at every thread count.
  struct Frame {
    std::uint8_t flag = 0;
    std::size_t payload_size = 0;
    std::uint64_t expected = 0;  ///< the size it must decode to
    std::uint64_t fed = 0;       ///< bytes fed by then
  };
  struct Pool;  // threads >= 2: the workers + the framed blocks in order

  /// True once `blocks` blocks that decode to `bytes` end the stream.
  bool ends_stream(std::uint64_t blocks, std::uint64_t bytes) const;
  std::optional<Frame> next_frame(ByteSpan& payload);
  std::optional<Bytes> poll_pool(bool wait);
  Bytes settle(const Frame& frame, std::optional<Bytes> block);

  unsigned threads_;
  Bytes buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::uint64_t fed_ = 0;
  std::optional<SelectiveHeader> header_;
  std::uint64_t framed_ = 0;      // blocks whose frame has been read
  std::uint64_t framed_out_ = 0;  // bytes those blocks decode to
  std::uint64_t blocks_done_ = 0;
  std::uint64_t decoded_ = 0;
  Crc32 running_crc_;
  std::vector<BlockInfo> infos_;
  bool tolerant_ = false;
  bool failed_ = false;
  RecoveryReport recovery_;
  std::unique_ptr<Pool> pool_;
};

/// Incremental producer of a selective container: emits the header,
/// then one encoded block per pull. This is the proxy side of §5's
/// compression-on-demand overlap — the server ships block i while
/// block i+1 is still being compressed. The input must stay alive for
/// the encoder's lifetime.
/// With `threads` > 1 the encoder keeps a lookahead window of blocks
/// compressing on a pool while next_chunk() hands out finished ones in
/// order, so the proxy genuinely compresses block i+1..i+w while block
/// i is on the wire — and the chunk sequence stays byte-identical to
/// the serial encoder's.
class SelectiveStreamEncoder {
 public:
  SelectiveStreamEncoder(ByteSpan input, SelectivePolicy policy,
                         std::size_t block_size = kDefaultBlockSize,
                         int level = 9, unsigned threads = 1);
  ~SelectiveStreamEncoder();
  SelectiveStreamEncoder(const SelectiveStreamEncoder&) = delete;
  SelectiveStreamEncoder& operator=(const SelectiveStreamEncoder&) = delete;

  /// False once every chunk (header + all blocks) has been produced.
  bool done() const { return header_sent_ && offset_ >= input_.size(); }

  /// Produce the next wire chunk: first call returns the container
  /// header, each further call one encoded block. Empty when done.
  Bytes next_chunk();

  /// Decisions for the blocks produced so far.
  const std::vector<BlockInfo>& blocks() const { return blocks_; }

 private:
  struct Pipeline;  // pool + in-flight block futures (parallel mode)

  ByteSpan input_;
  SelectivePolicy policy_;
  std::size_t block_size_;
  int level_;
  bool header_sent_ = false;
  std::size_t offset_ = 0;   ///< raw bytes already delivered as chunks
  std::vector<BlockInfo> blocks_;
  std::unique_ptr<Pipeline> pipeline_;
};

}  // namespace ecomp::compress
