// The receiving half of the paper's interleaving scheme (§4.1): block i
// is decompressed while block i+1 is still arriving. The streaming
// decoder itself lives with the container format (compress/selective.h);
// InterleavedDownloader is the one loop that feeds it from a byte source.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "compress/selective.h"
#include "sim/transfer.h"
#include "util/bytes.h"

namespace ecomp::core {

using compress::SelectiveStreamDecoder;

/// Pulls chunks from `read_chunk` (returning the number of bytes it
/// produced; 0 = end of stream), feeding a SelectiveStreamDecoder and
/// collecting decoded blocks. run() returns the reassembled original
/// data, CRC-verified. `read_chunk` and `on_block` both run on the
/// calling thread; with a decoder of threads >= 2 the blocks inflate on
/// its pool while the next chunks are read (the paper's §4.1 overlap),
/// and the results (bytes, block infos, errors, recovery report) are
/// threads 1's.
class InterleavedDownloader {
 public:
  using ChunkSource =
      std::function<std::size_t(std::uint8_t* dst, std::size_t max)>;
  using BlockSink = std::function<void(ByteSpan block)>;

  struct Options {
    std::size_t chunk_bytes = 16 * 1024;
    /// The decoder run() builds: >= 2 inflates blocks on a pool.
    unsigned threads = 1;
    /// Tolerant decode: damaged blocks zero-fill instead of throwing,
    /// a truncated stream returns what arrived; recovery() reports the
    /// damage (mirrors SelectiveStreamDecoder::set_tolerant).
    bool tolerant = false;
  };

  explicit InterleavedDownloader(std::size_t chunk_bytes = 16 * 1024) {
    opt_.chunk_bytes = chunk_bytes;
  }
  explicit InterleavedDownloader(const Options& opt) : opt_(opt) {}

  /// Run to completion: a fresh decoder, feed(), then its finish().
  /// `on_block` (optional) observes each decoded block in order — this
  /// is where an application consumes data before the download has
  /// finished. `infos` (optional) receives the per-block sizes/decisions.
  Bytes run(const ChunkSource& read_chunk,
            const BlockSink& on_block = nullptr,
            std::vector<compress::BlockInfo>* infos = nullptr) const;

  /// run() without the close-out: drain `read_chunk` into `dec` until
  /// the source ends or the container is complete, appending each
  /// decoded block to `out`. The caller owns the decoder, so one decoder
  /// can span several sources (a resumed transfer) before finish().
  /// When the source ends or throws, every block that had arrived is
  /// still handed out first, as threads 1 would have.
  void feed(SelectiveStreamDecoder& dec, const ChunkSource& read_chunk,
            Bytes& out, const BlockSink& on_block = nullptr) const;

  /// What the last run() lost and recovered (meaningful in tolerant
  /// mode, after run() returned).
  const compress::RecoveryReport& recovery() const { return recovery_; }

 private:
  Options opt_;
  mutable compress::RecoveryReport recovery_;
};

/// Convert the per-block sizes/decisions of a decoded selective
/// container into the transfer simulator's MB-denominated blocks.
std::vector<sim::BlockTransfer> to_block_transfers(
    const std::vector<compress::BlockInfo>& infos);

/// Replay a decoded selective stream through the transfer simulator:
/// the attributed timeline (and per-component energy breakdown) for
/// exactly the container that was just decoded, block for block.
sim::TransferResult simulate_decoded_stream(
    const std::vector<compress::BlockInfo>& infos,
    const sim::TransferSimulator& sim, const std::string& codec,
    const sim::TransferOptions& opt);

}  // namespace ecomp::core
