#include "core/interleave.h"

namespace ecomp::core {

Bytes InterleavedDownloader::run(const ChunkSource& read_chunk,
                                 const BlockSink& on_block,
                                 std::vector<compress::BlockInfo>* infos)
    const {
  SelectiveStreamDecoder dec(opt_.threads);
  dec.set_tolerant(opt_.tolerant);
  Bytes out;
  feed(dec, read_chunk, out, on_block);
  recovery_ = dec.finish();
  if (infos) *infos = dec.block_infos();
  return out;
}

void InterleavedDownloader::feed(SelectiveStreamDecoder& dec,
                                 const ChunkSource& read_chunk, Bytes& out,
                                 const BlockSink& on_block) const {
  if (!read_chunk) throw Error("InterleavedDownloader: null source");
  // Hand out every block that is ready — with `wait`, also those still
  // decoding; true once the container is complete.
  const auto drain = [&](bool wait) {
    while (auto block = dec.poll(wait)) {
      if (on_block) on_block(*block);
      out.insert(out.end(), block->begin(), block->end());
    }
    return dec.finished();
  };
  Bytes chunk(opt_.chunk_bytes);
  try {
    while (!drain(false)) {
      const std::size_t n = read_chunk(chunk.data(), chunk.size());
      if (n == 0) break;
      if (n > chunk.size())
        throw Error("InterleavedDownloader: source overran buffer");
      dec.feed(ByteSpan(chunk.data(), n));
    }
  } catch (...) {
    // A dead source still delivers what arrived before it; a decode
    // error among those blocks surfaces instead, as it would have first.
    if (!dec.failed()) drain(true);
    throw;
  }
  drain(true);
}

std::vector<sim::BlockTransfer> to_block_transfers(
    const std::vector<compress::BlockInfo>& infos) {
  std::vector<sim::BlockTransfer> blocks;
  blocks.reserve(infos.size());
  for (const auto& info : infos) {
    sim::BlockTransfer b;
    b.raw_mb = static_cast<double>(info.raw_size) / 1e6;
    b.payload_mb = static_cast<double>(info.payload_size) / 1e6;
    b.compressed = info.compressed;
    blocks.push_back(b);
  }
  return blocks;
}

sim::TransferResult simulate_decoded_stream(
    const std::vector<compress::BlockInfo>& infos,
    const sim::TransferSimulator& sim, const std::string& codec,
    const sim::TransferOptions& opt) {
  return sim.download_selective(to_block_transfers(infos), codec, opt);
}

}  // namespace ecomp::core
