#include "core/interleave.h"

#include <exception>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/spsc_queue.h"

namespace ecomp::core {

Bytes InterleavedDownloader::run(const ChunkSource& read_chunk,
                                 const BlockSink& on_block,
                                 std::vector<compress::BlockInfo>* infos)
    const {
  SelectiveStreamDecoder dec;
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
  // Decode every block that is already complete (this is the work the
  // pipelined mode overlaps with the next receive for real); true once
  // the container is.
  const auto drain = [&] {
    while (auto block = dec.poll()) {
      if (on_block) on_block(*block);
      out.insert(out.end(), block->begin(), block->end());
    }
    return dec.finished();
  };

  if (opt_.threads < 2) {
    Bytes chunk(opt_.chunk_bytes);
    while (!drain()) {
      const std::size_t n = read_chunk(chunk.data(), chunk.size());
      if (n == 0) return;
      if (n > chunk.size())
        throw Error("InterleavedDownloader: source overran buffer");
      dec.feed(ByteSpan(chunk.data(), n));
    }
    return;
  }

  ECOMP_TRACE_SPAN("interleave.pipelined", "core");
  par::SpscQueue<Bytes> queue(opt_.queue_chunks);
  std::exception_ptr feed_error;  // read only after join()

  // Feed thread: the "network half" of §4.1 — it keeps receiving while
  // the calling thread decodes. It stops on EOF, on a source error, or
  // when the consumer closes the queue after a decode failure. Note it
  // may read a bounded distance ahead of the decoder, so the source
  // must return EOF (0) once the stream ends rather than block forever.
  std::thread feeder([&] {
    try {
      while (true) {
        Bytes chunk(opt_.chunk_bytes);
        const std::size_t n = read_chunk(chunk.data(), chunk.size());
        if (n == 0) break;
        if (n > chunk.size())
          throw Error("InterleavedDownloader: source overran buffer");
        chunk.resize(n);
        ECOMP_COUNT("interleave.chunks_fed");
        if (!queue.push(std::move(chunk))) return;  // consumer bailed
      }
    } catch (...) {
      feed_error = std::current_exception();
    }
    queue.close();
  });

  try {
    while (!drain()) {
      auto chunk = queue.pop();
      if (!chunk) break;  // EOF (or feeder failed; sorted out below)
      dec.feed(*chunk);
    }
  } catch (...) {
    queue.close();
    feeder.join();
    throw;
  }
  queue.close();
  feeder.join();
  if (feed_error) std::rethrow_exception(feed_error);
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
