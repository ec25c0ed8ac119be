#include "compress/selective.h"

#include <algorithm>
#include <cstring>
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

struct ParsedBlock {
  BlockInfo info;
  ByteSpan payload;
};

struct ParsedContainer {
  SelectiveHeader header;
  std::vector<ParsedBlock> blocks;
};

/// The whole-buffer block table (selective_decompress, block_info).
ParsedContainer parse(ByteSpan container) {
  ParsedContainer pc;
  std::size_t pos = 0;
  const auto header = read_selective_header(container, pos);
  if (!header) throw Error("selective: truncated header");
  pc.header = *header;
  std::uint64_t raw_total = 0;
  for (std::uint64_t b = 0; b < pc.header.n_blocks; ++b) {
    const auto frame = read_block_frame(container, pos, false);
    if (!frame) throw Error("selective: truncated block payload");
    ParsedBlock blk{{frame->payload.size(), frame->payload.size(),
                     frame->flag == 1},
                    frame->payload};
    // Raw size: the payload's own for raw blocks, the member header's
    // for compressed ones — which must not claim an impossible ratio.
    if (blk.info.compressed) {
      blk.info.raw_size =
          read_header(blk.payload, kDeflateMagic).original_size;
      if (blk.info.raw_size / kMaxExpansion > blk.info.payload_size)
        throw Error("selective: block claims an impossible size");
    }
    raw_total += blk.info.raw_size;
    pc.blocks.push_back(blk);
  }
  if (raw_total != pc.header.original_size)
    throw Error("selective: block sizes disagree with header");
  return pc;
}

}  // namespace

Bytes selective_decompress(ByteSpan container, unsigned threads) {
  ECOMP_TRACE_SPAN("selective.decompress", "codec");
  const ParsedContainer pc = parse(container);
  const Header h{pc.header.original_size, pc.header.crc};
  const DeflateCodec codec;

  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(threads, pc.blocks.size()));
  if (workers <= 1) {
    Bytes out;
    out.reserve(h.original_size);
    for (const auto& blk : pc.blocks) {
      if (blk.info.compressed) {
        const Bytes raw = codec.decompress(blk.payload);
        out.insert(out.end(), raw.begin(), raw.end());
      } else {
        out.insert(out.end(), blk.payload.begin(), blk.payload.end());
      }
    }
    check_crc(h, out);
    return out;
  }

  // Parallel mode: the block table gives every block's output offset up
  // front (prefix sum of raw sizes), so workers inflate straight into
  // disjoint slices of the final buffer; raw blocks are plain copies.
  Bytes out(h.original_size);
  std::vector<std::future<void>> pending;
  pending.reserve(pc.blocks.size());
  par::ThreadPool pool(workers);
  std::size_t off = 0;
  for (const auto& blk : pc.blocks) {
    const ByteSpan payload = blk.payload;
    std::uint8_t* dst = out.data() + off;
    const std::size_t expect = blk.info.raw_size;
    off += expect;
    if (!blk.info.compressed) {
      if (!payload.empty()) std::memcpy(dst, payload.data(), payload.size());
      continue;
    }
    pending.push_back(pool.async([&codec, payload, dst, expect] {
      const Bytes raw = codec.decompress(payload);
      if (raw.size() != expect)
        throw Error("selective: block decoded to unexpected size");
      std::memcpy(dst, raw.data(), raw.size());
    }));
  }
  for (auto& fut : pending) fut.get();
  check_crc(h, out);
  return out;
}

std::vector<BlockInfo> selective_block_info(ByteSpan container) {
  const ParsedContainer pc = parse(container);
  std::vector<BlockInfo> infos;
  infos.reserve(pc.blocks.size());
  for (const auto& blk : pc.blocks) infos.push_back(blk.info);
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
  res.data.reserve(h->original_size);
  try {
    // Fed in slices, as a socket would feed it: the decoder then holds
    // about a block and a slice, not a second copy of the container.
    constexpr std::size_t kSlice = std::size_t{1} << 20;
    for (std::size_t off = 0; off < container.size() && !dec.finished();
         off += kSlice) {
      dec.feed(container.subspan(off,
                                 std::min(kSlice, container.size() - off)));
      while (auto block = dec.poll())
        res.data.insert(res.data.end(), block->begin(), block->end());
    }
  } catch (const Error&) {
    // Framing destroyed: every boundary after it is gone with it, and
    // finish() books the tail as lost.
  }
  res.report = dec.finish();
  return res;
}

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

bool SelectiveStreamDecoder::finished() const {
  return header_ && (blocks_done_ == header_->n_blocks ||
                     (tolerant_ && decoded_ >= header_->original_size));
}

std::optional<Bytes> SelectiveStreamDecoder::poll() {
  try {
    const ByteSpan in(buf_);
    if (!header_) {
      header_ = read_selective_header(in, pos_);
      if (!header_) return std::nullopt;
    }
    if (finished()) return std::nullopt;
    const auto frame = read_block_frame(in, pos_, tolerant_);
    if (!frame) return std::nullopt;
    // What this block must decode to for downstream offsets to line up —
    // the zero-fill size when a damaged block is skipped in tolerant mode.
    const std::uint64_t expected = std::min<std::uint64_t>(
        header_->block_size, header_->original_size > decoded_
                                 ? header_->original_size - decoded_
                                 : 0);
    Bytes block;
    bool ok = frame->flag <= 1;
    if (ok) {
      ECOMP_SLIDING_TIMER("selective.decode_block_us");
      try {
        block = frame->flag == 1
                    ? DeflateCodec().decompress(frame->payload)
                    : Bytes(frame->payload.begin(), frame->payload.end());
        if (block.size() != expected)
          throw Error("selective: block decodes to the wrong size");
      } catch (const Error&) {
        if (!tolerant_) throw;
        ok = false;
      }
    }
    // A damaged header must not turn a lost block into a giant
    // zero-fill: the bytes fed so far bound what it could have held.
    if (!ok && (decoded_ + expected) / kMaxExpansion > fed_)
      throw Error("selective: lost block larger than the stream can hold");
    ++recovery_.blocks_total;
    if (ok) {
      ++recovery_.blocks_recovered;
      recovery_.bytes_recovered += block.size();
    } else {
      block.assign(static_cast<std::size_t>(expected), 0);
      ++recovery_.blocks_lost;
      recovery_.bytes_lost += expected;
    }
    ++blocks_done_;
    decoded_ += block.size();
    running_crc_.update(block);
    infos_.push_back({block.size(), frame->payload.size(), frame->flag == 1});
    return block;
  } catch (...) {
    failed_ = true;
    throw;
  }
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
