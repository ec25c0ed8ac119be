#include "compress/selective.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>

#include "compress/container.h"
#include "compress/deflate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "util/crc32.h"

namespace ecomp::compress {
namespace {

/// One fully framed wire chunk (flag | varint payload_size | payload)
/// plus its decision record — the unit both the serial path and the
/// parallel reorder buffer hand out, so the two are byte-identical by
/// construction.
struct EncodedBlock {
  Bytes chunk;
  BlockInfo info;
};

/// Encode one block. Safe to call concurrently: the codec's compress()
/// is const-thread-safe and the policy is required to be (see
/// SelectivePolicy docs).
EncodedBlock encode_block(const DeflateCodec& codec,
                          const SelectivePolicy& policy, ByteSpan block) {
  ECOMP_SLIDING_TIMER("selective.encode_block_us");
  const std::size_t len = block.size();

  // Fig. 10: small blocks ship raw; otherwise compress and keep the
  // compressed form only if the energy test passes.
  bool use_compressed = false;
  Bytes compressed;
  if (len >= policy.min_block_bytes) {
    compressed = codec.compress(block);
    use_compressed = policy.energy_test(len, compressed.size());
  }
  // Note: the name passed to ECOMP_COUNT must be a fixed literal (the
  // macro caches the instrument per call site).
  if (use_compressed)
    ECOMP_COUNT("selective.blocks_compressed");
  else
    ECOMP_COUNT("selective.blocks_raw");

  EncodedBlock eb;
  eb.info.raw_size = len;
  eb.info.compressed = use_compressed;
  eb.chunk.push_back(use_compressed ? 1 : 0);
  if (use_compressed) {
    eb.info.payload_size = compressed.size();
    put_varint(eb.chunk, compressed.size());
    eb.chunk.insert(eb.chunk.end(), compressed.begin(), compressed.end());
  } else {
    eb.info.payload_size = len;
    put_varint(eb.chunk, len);
    eb.chunk.insert(eb.chunk.end(), block.begin(), block.end());
  }
  return eb;
}

}  // namespace

SelectivePolicy SelectivePolicy::always() {
  SelectivePolicy p;
  p.min_block_bytes = 0;
  p.energy_test = [](std::size_t raw, std::size_t comp) {
    return comp < raw;
  };
  return p;
}

SelectivePolicy SelectivePolicy::never() {
  SelectivePolicy p;
  p.min_block_bytes = 0;
  p.energy_test = [](std::size_t, std::size_t) { return false; };
  return p;
}

SelectiveResult selective_compress(ByteSpan input,
                                   const SelectivePolicy& policy,
                                   std::size_t block_size, int level,
                                   unsigned threads) {
  ECOMP_TRACE_SPAN("selective.compress", "codec");
  SelectiveStreamEncoder enc(input, policy, block_size, level, threads);
  SelectiveResult res;
  while (!enc.done()) {
    const Bytes chunk = enc.next_chunk();
    res.container.insert(res.container.end(), chunk.begin(), chunk.end());
  }
  res.blocks = enc.blocks();
  return res;
}

namespace {

/// Read a varint at `pos`; nullopt (pos untouched) until all of it has
/// arrived.
std::optional<std::uint64_t> try_varint(ByteSpan in, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  std::size_t p = pos;
  while (true) {
    if (p >= in.size()) return std::nullopt;
    if (shift >= 64) throw Error("selective: varint overflow");
    const std::uint8_t b = in[p++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
  }
  pos = p;
  return v;
}

/// Read the container header at `pos`, advancing past it; nullopt (pos
/// untouched) until all of it has arrived. Throws on a wrong magic.
std::optional<SelectiveHeader> read_selective_header(ByteSpan in,
                                                     std::size_t& pos) {
  // magic(2) | varint size | crc(4) | varint block_size | varint n_blocks
  std::size_t p = pos;
  if (in.size() - p < 2) return std::nullopt;
  if ((in[p] | in[p + 1] << 8) != kSelectiveMagic)
    throw Error("selective: bad container magic");
  p += 2;
  SelectiveHeader h;
  const auto size = try_varint(in, p);
  if (!size || in.size() - p < 4) return std::nullopt;
  h.original_size = *size;
  for (int i = 0; i < 4; ++i)
    h.crc |= static_cast<std::uint32_t>(in[p + i]) << (8 * i);
  p += 4;
  const auto block_size = try_varint(in, p);
  if (!block_size) return std::nullopt;
  const auto n_blocks = try_varint(in, p);
  if (!n_blocks) return std::nullopt;
  h.block_size = *block_size;
  h.n_blocks = *n_blocks;
  pos = p;
  return h;
}

struct BlockFrame {
  std::uint8_t flag = 0;
  ByteSpan payload;
};

/// Read the block frame (flag | varint payload_size | payload) at `pos`,
/// advancing past it; nullopt (pos untouched) until its whole payload
/// has arrived. A flag other than 0/1 throws as soon as it arrives,
/// unless `tolerant` (the caller then writes the block off).
std::optional<BlockFrame> read_block_frame(ByteSpan in, std::size_t& pos,
                                           bool tolerant) {
  std::size_t p = pos;
  if (p >= in.size()) return std::nullopt;
  BlockFrame f;
  f.flag = in[p++];
  if (f.flag > 1 && !tolerant) throw Error("selective: bad block flag");
  const auto payload_size = try_varint(in, p);
  if (!payload_size || in.size() - p < *payload_size) return std::nullopt;
  f.payload = in.subspan(p, static_cast<std::size_t>(*payload_size));
  pos = p + f.payload.size();
  return f;
}

/// Feed `container` to `dec` in 1 MiB slices, as a socket would feed it
/// (the decoder then holds about a block and a slice, not a second copy
/// of the container), appending every block to `out`. The header's
/// size claim reserves `out` only as far as the container can back it.
void decode_slices(SelectiveStreamDecoder& dec, ByteSpan container,
                   Bytes& out) {
  const auto take = [&](bool wait) {
    while (auto block = dec.poll(wait)) {
      if (out.capacity() == 0)
        out.reserve(reserve_hint(dec.header()->original_size,
                                 container.size()));
      out.insert(out.end(), block->begin(), block->end());
    }
  };
  constexpr std::size_t kSlice = std::size_t{1} << 20;
  for (std::size_t off = 0; off < container.size() && !dec.finished();
       off += kSlice) {
    dec.feed(container.subspan(off, std::min(kSlice, container.size() - off)));
    take(false);
  }
  take(true);
}

/// Decode one block's payload, checked against the size the header
/// implies: strict mode throws on any failure (a bad flag has thrown
/// already), tolerant mode returns nullopt — the block is lost.
std::optional<Bytes> decode_block(std::uint8_t flag, ByteSpan payload,
                                  std::uint64_t expected, bool tolerant) {
  if (flag > 1) return std::nullopt;
  ECOMP_SLIDING_TIMER("selective.decode_block_us");
  try {
    Bytes block = flag == 1 ? DeflateCodec().decompress(payload)
                            : Bytes(payload.begin(), payload.end());
    if (block.size() != expected)
      throw Error("selective: block decodes to the wrong size");
    return block;
  } catch (const Error&) {
    if (!tolerant) throw;
    return std::nullopt;
  }
}

}  // namespace

Bytes selective_decompress(ByteSpan container, unsigned threads) {
  ECOMP_TRACE_SPAN("selective.decompress", "codec");
  SelectiveStreamDecoder dec(threads);
  Bytes out;
  decode_slices(dec, container, out);
  dec.finish();  // throws unless every block arrived and the CRC holds
  return out;
}

std::vector<BlockInfo> selective_block_info(ByteSpan container) {
  std::size_t pos = 0;
  const auto header = read_selective_header(container, pos);
  if (!header) throw Error("selective: truncated header");
  std::vector<BlockInfo> infos;
  std::uint64_t raw_total = 0;
  for (std::uint64_t b = 0; b < header->n_blocks; ++b) {
    const auto frame = read_block_frame(container, pos, false);
    if (!frame) throw Error("selective: truncated block payload");
    BlockInfo info{frame->payload.size(), frame->payload.size(),
                   frame->flag == 1};
    // Raw size: the payload's own for raw blocks, the member header's
    // for compressed ones — which must not claim an impossible ratio.
    if (info.compressed) {
      info.raw_size = read_header(frame->payload, kDeflateMagic).original_size;
      if (info.raw_size / kMaxExpansion > info.payload_size)
        throw Error("selective: block claims an impossible size");
    }
    raw_total += info.raw_size;
    infos.push_back(info);
  }
  if (raw_total != header->original_size)
    throw Error("selective: block sizes disagree with header");
  return infos;
}

SalvageResult selective_salvage(ByteSpan container) {
  ECOMP_TRACE_SPAN("selective.salvage", "codec");
  SalvageResult res;
  std::size_t pos = 0;
  std::optional<SelectiveHeader> h;
  try {
    h = read_selective_header(container, pos);
  } catch (const Error&) {
  }
  // A corrupted header varint can claim an absurd size; don't let it
  // drive zero-fill allocations.
  if (!h || h->block_size == 0 || h->n_blocks > container.size() ||
      h->original_size / kMaxExpansion > container.size()) {
    res.report.framing_truncated = true;
    return res;
  }
  SelectiveStreamDecoder dec;
  dec.set_tolerant(true);
  try {
    decode_slices(dec, container, res.data);
  } catch (const Error&) {
    // Framing destroyed: every boundary after it is gone with it, and
    // finish() books the tail as lost.
  }
  res.report = dec.finish();
  return res;
}

/// Threads >= 2: the blocks framed but not yet handed out, in stream
/// order, each with its decode_block() outcome to come — compressed
/// ones from the pool. A full window holds poll() back, as the
/// encoder's does, so memory stays bounded however small the blocks.
struct SelectiveStreamDecoder::Pool {
  std::deque<std::pair<Frame, std::future<std::optional<Bytes>>>> window;
  par::ThreadPool pool;  // last member: joins before the window dies

  explicit Pool(unsigned workers) : pool(workers) {}
};

SelectiveStreamDecoder::SelectiveStreamDecoder(unsigned threads)
    : threads_(threads) {}
SelectiveStreamDecoder::~SelectiveStreamDecoder() = default;
SelectiveStreamDecoder::SelectiveStreamDecoder(
    SelectiveStreamDecoder&&) noexcept = default;
SelectiveStreamDecoder& SelectiveStreamDecoder::operator=(
    SelectiveStreamDecoder&&) noexcept = default;

void SelectiveStreamDecoder::feed(ByteSpan chunk) {
  // Reclaim the consumed prefix once it is at least half the buffer:
  // compaction then costs O(1) per byte however the input arrives.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), chunk.begin(), chunk.end());
  fed_ += chunk.size();
}

bool SelectiveStreamDecoder::ends_stream(std::uint64_t blocks,
                                         std::uint64_t bytes) const {
  return header_ && (blocks == header_->n_blocks ||
                     (tolerant_ && bytes >= header_->original_size));
}

std::optional<SelectiveStreamDecoder::Frame>
SelectiveStreamDecoder::next_frame(ByteSpan& payload) {
  if (ends_stream(framed_, framed_out_)) return std::nullopt;
  const auto frame = read_block_frame(buf_, pos_, tolerant_);
  if (!frame) return std::nullopt;
  payload = frame->payload;
  // What this block must decode to for downstream offsets to line up —
  // the zero-fill size when a damaged block is skipped in tolerant mode.
  const std::uint64_t expected = std::min<std::uint64_t>(
      header_->block_size, header_->original_size > framed_out_
                               ? header_->original_size - framed_out_
                               : 0);
  ++framed_;
  framed_out_ += expected;
  return Frame{frame->flag, payload.size(), expected, fed_};
}

std::optional<Bytes> SelectiveStreamDecoder::poll(bool wait) {
  try {
    if (!header_) {
      header_ = read_selective_header(buf_, pos_);
      if (!header_) return std::nullopt;
      const auto workers = static_cast<unsigned>(
          std::min<std::uint64_t>(threads_, header_->n_blocks));
      if (workers > 1) pool_ = std::make_unique<Pool>(workers);
    }
    if (pool_) return poll_pool(wait);
    ByteSpan payload;
    const auto frame = next_frame(payload);
    if (!frame) return std::nullopt;
    return settle(*frame, decode_block(frame->flag, payload, frame->expected,
                                       tolerant_));
  } catch (...) {
    failed_ = true;
    throw;
  }
}

std::optional<Bytes> SelectiveStreamDecoder::poll_pool(bool wait) {
  Pool& p = *pool_;
  // Up to two blocks per worker in flight, as the encoder keeps.
  const std::size_t window = 2 * static_cast<std::size_t>(p.pool.size());
  bool broken = false;
  try {
    ByteSpan payload;
    std::optional<Frame> frame;
    while (p.window.size() < window && (frame = next_frame(payload))) {
      // The block owns a copy of its payload: feed() compacts buf_
      // underneath it. A raw block is just that copy, not worth a task;
      // it decodes when its turn comes.
      auto decode = [f = *frame, tolerant = tolerant_,
                     own = Bytes(payload.begin(), payload.end())] {
        return decode_block(f.flag, own, f.expected, tolerant);
      };
      p.window.emplace_back(*frame, frame->flag == 1
                                        ? p.pool.async(std::move(decode))
                                        : std::async(std::launch::deferred,
                                                     std::move(decode)));
    }
  } catch (const Error&) {
    // Threads 1 throws this once the blocks before the frame are out;
    // until then every poll() reads the broken frame again.
    if (p.window.empty()) throw;
    broken = true;
  }
  if (p.window.empty()) return std::nullopt;
  // Hand back for more input only while it could be framed (room in
  // the window, frames still to come, framing intact) and the caller
  // has some; otherwise wait for the next block.
  if (!wait && !broken && p.window.size() < window &&
      !ends_stream(framed_, framed_out_) &&
      p.window.front().second.wait_for(std::chrono::seconds(0)) ==
          std::future_status::timeout)
    return std::nullopt;
  auto [frame, outcome] = std::move(p.window.front());
  p.window.pop_front();
  try {
    return settle(frame, outcome.get());
  } catch (...) {
    fed_ = frame.fed;  // where threads 1 stopped
    throw;
  }
}

Bytes SelectiveStreamDecoder::settle(const Frame& frame,
                                     std::optional<Bytes> block) {
  // A damaged header must not turn a lost block into a giant
  // zero-fill: the bytes fed so far bound what it could have held.
  if (!block && (decoded_ + frame.expected) / kMaxExpansion > frame.fed)
    throw Error("selective: lost block larger than the stream can hold");
  ++recovery_.blocks_total;
  if (block) {
    ++recovery_.blocks_recovered;
    recovery_.bytes_recovered += block->size();
  } else {
    block.emplace(static_cast<std::size_t>(frame.expected), 0);
    ++recovery_.blocks_lost;
    recovery_.bytes_lost += frame.expected;
  }
  ++blocks_done_;
  decoded_ += block->size();
  running_crc_.update(*block);
  infos_.push_back({block->size(), frame.payload_size, frame.flag == 1});
  return std::move(*block);
}

void SelectiveStreamDecoder::verify() {
  if (!finished()) throw Error("selective: verify before stream finished");
  recovery_.crc_ok = decoded_ == header_->original_size &&
                     running_crc_.value() == header_->crc;
  if (tolerant_ || recovery_.crc_ok) return;
  failed_ = true;
  throw Error(decoded_ != header_->original_size
                  ? "selective: decoded size mismatch"
                  : "selective: CRC mismatch");
}

const RecoveryReport& SelectiveStreamDecoder::finish() {
  if (finished() && (!tolerant_ || decoded_ == header_->original_size)) {
    verify();  // tolerant mode records crc_ok instead of throwing
    return recovery_;
  }
  if (!tolerant_) throw Error("selective: stream ended early");
  recovery_.framing_truncated = true;
  recovery_.crc_ok = false;
  if (header_) {
    recovery_.blocks_total = header_->n_blocks;
    recovery_.blocks_lost += header_->n_blocks - blocks_done_;
    if (header_->original_size > decoded_)
      recovery_.bytes_lost += header_->original_size - decoded_;
  }
  return recovery_;
}

/// Parallel-mode state: the codec the workers share, the pool, and the
/// lookahead window of in-flight block futures (the reorder buffer —
/// chunks are handed out strictly in submission order).
struct SelectiveStreamEncoder::Pipeline {
  DeflateCodec codec;
  std::size_t submit_off = 0;  ///< next block offset to enqueue
  std::deque<std::future<EncodedBlock>> inflight;
  par::ThreadPool pool;  // last member: joins before futures/codec die

  Pipeline(int level, unsigned workers) : codec(level), pool(workers) {}
};

SelectiveStreamEncoder::SelectiveStreamEncoder(ByteSpan input,
                                               SelectivePolicy policy,
                                               std::size_t block_size,
                                               int level, unsigned threads)
    : input_(input),
      policy_(std::move(policy)),
      block_size_(block_size),
      level_(level) {
  if (block_size_ == 0) throw Error("selective: block_size must be > 0");
  if (!policy_.energy_test)
    throw Error("selective: policy requires an energy_test");
  const std::size_t n_blocks = (input_.size() + block_size_ - 1) / block_size_;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, n_blocks));
  if (workers > 1) pipeline_ = std::make_unique<Pipeline>(level_, workers);
}

SelectiveStreamEncoder::~SelectiveStreamEncoder() = default;

Bytes SelectiveStreamEncoder::next_chunk() {
  if (!header_sent_) {
    header_sent_ = true;
    Bytes header;
    write_header(header, kSelectiveMagic, input_.size(), crc32(input_));
    put_varint(header, block_size_);
    put_varint(header, (input_.size() + block_size_ - 1) / block_size_);
    return header;
  }
  if (offset_ >= input_.size()) return {};

  if (pipeline_) {
    // Keep up to 2 blocks per worker compressing ahead of the wire.
    Pipeline& pl = *pipeline_;
    const std::size_t window = 2 * static_cast<std::size_t>(pl.pool.size());
    while (pl.submit_off < input_.size() && pl.inflight.size() < window) {
      const std::size_t len =
          std::min(block_size_, input_.size() - pl.submit_off);
      const ByteSpan block = input_.subspan(pl.submit_off, len);
      pl.submit_off += len;
      pl.inflight.push_back(pl.pool.async([this, &pl, block] {
        return encode_block(pl.codec, policy_, block);
      }));
    }
    EncodedBlock eb = pl.inflight.front().get();
    pl.inflight.pop_front();
    offset_ += eb.info.raw_size;
    blocks_.push_back(eb.info);
    return std::move(eb.chunk);
  }

  const std::size_t len = std::min(block_size_, input_.size() - offset_);
  const ByteSpan block = input_.subspan(offset_, len);
  offset_ += len;
  EncodedBlock eb = encode_block(DeflateCodec(level_), policy_, block);
  blocks_.push_back(eb.info);
  return std::move(eb.chunk);
}

}  // namespace ecomp::compress
