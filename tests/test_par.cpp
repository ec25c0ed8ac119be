// The parallel block pipeline: the thread pool, the determinism
// guarantee of the parallel selective codec (byte-identical containers
// at any thread count, and one decoder that gives threads 1's bytes at
// any thread count), the threaded interleaved downloader against its
// serial twin, and the LZ77 hot-path copy loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "compress/lz77.h"
#include "compress/selective.h"
#include "core/interleave.h"
#include "net/proxy.h"
#include "par/thread_pool.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace ecomp {
namespace {

// ------------------------------------------------------------ primitives

TEST(ThreadPool, AsyncReturnsValues) {
  par::ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.async([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  par::ThreadPool pool(2);
  auto f = pool.async([]() -> int { throw Error("boom"); });
  EXPECT_THROW(f.get(), Error);
}

TEST(ThreadPool, BoundedQueueBlocksInsteadOfDropping) {
  // A tiny queue forces submit() to block; every task must still run.
  par::ThreadPool pool(2, 2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.async([&] { ++ran; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    par::ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) pool.submit([&] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 32);
}

// --------------------------------------------- parallel selective codec

Bytes corpus_bytes(workload::FileKind kind, std::size_t size,
                   std::uint64_t seed) {
  return workload::generate_kind(kind, size, seed, 0.2);
}

TEST(ParallelSelective, ContainerByteIdenticalAcrossThreadCounts) {
  // The determinism guarantee: corpora x policies x levels x threads,
  // every parallel container must match the serial bytes exactly.
  compress::SelectivePolicy energy_like;
  energy_like.min_block_bytes = 1000;
  energy_like.energy_test = [](std::size_t raw, std::size_t comp) {
    return comp * 10 < raw * 9;  // pure -> trivially thread-safe
  };
  const std::vector<compress::SelectivePolicy> policies = {
      compress::SelectivePolicy::always(),
      compress::SelectivePolicy::never(), energy_like};
  const std::vector<Bytes> corpora = {
      corpus_bytes(workload::FileKind::TarMixed, 220000, 1),
      corpus_bytes(workload::FileKind::Xml, 180000, 2),
      corpus_bytes(workload::FileKind::Media, 150000, 3)};
  constexpr std::size_t kBlock = 16 * 1024;
  for (std::size_t c = 0; c < corpora.size(); ++c) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      for (const int level : {1, 9}) {
        const auto serial = compress::selective_compress(
            corpora[c], policies[p], kBlock, level, 1);
        for (const unsigned threads : {2u, 4u, 8u}) {
          const auto par = compress::selective_compress(
              corpora[c], policies[p], kBlock, level, threads);
          EXPECT_EQ(par.container, serial.container)
              << "corpus " << c << " policy " << p << " level " << level
              << " threads " << threads;
          EXPECT_EQ(par.blocks.size(), serial.blocks.size());
        }
      }
    }
  }
}

TEST(ParallelSelective, DecompressMatchesAtEveryThreadCount) {
  // Containers of compressed blocks, of raw blocks, and of both.
  Bytes mixed = corpus_bytes(workload::FileKind::Xml, 150000, 17);
  const Bytes noise = corpus_bytes(workload::FileKind::Media, 100000, 18);
  mixed.insert(mixed.end(), noise.begin(), noise.end());
  compress::SelectivePolicy shrinks_a_tenth;
  shrinks_a_tenth.min_block_bytes = 1000;
  shrinks_a_tenth.energy_test = [](std::size_t raw, std::size_t comp) {
    return comp * 10 < raw * 9;
  };
  const Bytes input = corpus_bytes(workload::FileKind::TarMixed, 300000, 4);
  const std::vector<std::pair<Bytes, Bytes>> cases = {
      {input, compress::selective_compress(
                  input, compress::SelectivePolicy::always(), 16 * 1024)
                  .container},
      {mixed, compress::selective_compress(
                  mixed, compress::SelectivePolicy::never(), 16 * 1024)
                  .container},
      {mixed,
       compress::selective_compress(mixed, shrinks_a_tenth, 16 * 1024)
           .container}};
  const auto infos = compress::selective_block_info(cases[2].second);
  ASSERT_TRUE(std::any_of(infos.begin(), infos.end(),
                          [](const auto& b) { return b.compressed; }));
  ASSERT_TRUE(std::any_of(infos.begin(), infos.end(),
                          [](const auto& b) { return !b.compressed; }));
  for (std::size_t c = 0; c < cases.size(); ++c)
    for (const unsigned threads : {1u, 2u, 4u, 8u})
      EXPECT_EQ(compress::selective_decompress(cases[c].second, threads),
                cases[c].first)
          << "case " << c << " threads " << threads;
}

TEST(ParallelSelective, DecompressEdgeCases) {
  // An empty container and a one-block container: the pool never
  // engages (min(threads, n_blocks) <= 1) at any thread count.
  for (const Bytes& input :
       {Bytes{}, corpus_bytes(workload::FileKind::Xml, 500, 5)}) {
    const auto res = compress::selective_compress(
        input, compress::SelectivePolicy::always());
    ASSERT_EQ(res.blocks.size(), input.empty() ? 0u : 1u);
    for (const unsigned threads : {1u, 2u, 4u, 8u})
      EXPECT_EQ(compress::selective_decompress(res.container, threads), input)
          << threads;
  }
}

TEST(ParallelSelective, StreamEncoderChunksIdenticalToSerial) {
  const Bytes input = corpus_bytes(workload::FileKind::TarMixed, 200000, 6);
  const auto policy = compress::SelectivePolicy::always();
  constexpr std::size_t kBlock = 16 * 1024;

  compress::SelectiveStreamEncoder serial(input, policy, kBlock, 9, 1);
  std::vector<Bytes> serial_chunks;
  while (!serial.done()) serial_chunks.push_back(serial.next_chunk());

  for (const unsigned threads : {2u, 4u}) {
    compress::SelectiveStreamEncoder par(input, policy, kBlock, 9, threads);
    std::vector<Bytes> chunks;
    while (!par.done()) chunks.push_back(par.next_chunk());
    EXPECT_EQ(chunks, serial_chunks) << threads;
    ASSERT_EQ(par.blocks().size(), serial.blocks().size());
    for (std::size_t i = 0; i < par.blocks().size(); ++i)
      EXPECT_EQ(par.blocks()[i].payload_size,
                serial.blocks()[i].payload_size);
  }
}

TEST(ParallelSelective, AbandonedStreamEncoderShutsDownCleanly) {
  // Destroying the encoder with blocks still in flight must join the
  // pool without touching freed state.
  const Bytes input = corpus_bytes(workload::FileKind::TarMixed, 200000, 7);
  compress::SelectiveStreamEncoder enc(
      input, compress::SelectivePolicy::always(), 16 * 1024, 9, 4);
  enc.next_chunk();  // header
  enc.next_chunk();  // first block; the lookahead window is now full
}

// ------------------------------------------- threaded interleaving

/// Feed `wire` in deterministically varying chunk sizes.
core::InterleavedDownloader::ChunkSource stuttering_source(
    const Bytes& wire, std::uint64_t seed) {
  auto off = std::make_shared<std::size_t>(0);
  auto rng = std::make_shared<Rng>(seed);
  return [&wire, off, rng](std::uint8_t* dst,
                           std::size_t max) -> std::size_t {
    if (*off >= wire.size()) return 0;
    const std::size_t want =
        1 + static_cast<std::size_t>(rng->uniform() * 2000);
    const std::size_t n =
        std::min({max, want, wire.size() - *off});
    std::copy_n(wire.data() + *off, n, dst);
    *off += n;
    return n;
  };
}

TEST(ThreadedInterleave, PipelinedMatchesSerial) {
  const Bytes input = corpus_bytes(workload::FileKind::TarMixed, 250000, 8);
  const auto res = compress::selective_compress(
      input, compress::SelectivePolicy::always(), 16 * 1024);

  core::InterleavedDownloader serial_dl(4096);
  std::vector<compress::BlockInfo> serial_infos;
  Bytes serial_blocks;
  const Bytes serial_out = serial_dl.run(
      stuttering_source(res.container, 42),
      [&](ByteSpan b) {
        serial_blocks.insert(serial_blocks.end(), b.begin(), b.end());
      },
      &serial_infos);
  EXPECT_EQ(serial_out, input);
  EXPECT_EQ(serial_blocks, input);

  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    core::InterleavedDownloader::Options opt;
    opt.chunk_bytes = 4096;
    opt.threads = threads;
    core::InterleavedDownloader pipe_dl(opt);
    std::vector<compress::BlockInfo> pipe_infos;
    Bytes pipe_blocks;
    const Bytes pipe_out = pipe_dl.run(
        stuttering_source(res.container, 42),
        [&](ByteSpan b) {
          pipe_blocks.insert(pipe_blocks.end(), b.begin(), b.end());
        },
        &pipe_infos);
    EXPECT_EQ(pipe_out, serial_out);
    EXPECT_EQ(pipe_blocks, serial_blocks);
    ASSERT_EQ(pipe_infos.size(), serial_infos.size());
    for (std::size_t i = 0; i < pipe_infos.size(); ++i) {
      EXPECT_EQ(pipe_infos[i].raw_size, serial_infos[i].raw_size);
      EXPECT_EQ(pipe_infos[i].payload_size, serial_infos[i].payload_size);
    }
  }
}

void expect_same_recovery(const compress::RecoveryReport& a,
                          const compress::RecoveryReport& b) {
  EXPECT_EQ(a.blocks_total, b.blocks_total);
  EXPECT_EQ(a.blocks_recovered, b.blocks_recovered);
  EXPECT_EQ(a.blocks_lost, b.blocks_lost);
  EXPECT_EQ(a.bytes_recovered, b.bytes_recovered);
  EXPECT_EQ(a.bytes_lost, b.bytes_lost);
  EXPECT_EQ(a.framing_truncated, b.framing_truncated);
  EXPECT_EQ(a.crc_ok, b.crc_ok);
}

TEST(ThreadedInterleave, TolerantTruncationMatchesSerial) {
  const Bytes input = corpus_bytes(workload::FileKind::Xml, 200000, 9);
  const auto res = compress::selective_compress(
      input, compress::SelectivePolicy::always(), 16 * 1024);
  const Bytes truncated(res.container.begin(),
                        res.container.begin() +
                            static_cast<std::ptrdiff_t>(
                                res.container.size() * 3 / 5));

  core::InterleavedDownloader::Options serial_opt;
  serial_opt.chunk_bytes = 4096;
  serial_opt.tolerant = true;
  core::InterleavedDownloader serial_dl(serial_opt);
  const Bytes serial_out =
      serial_dl.run(stuttering_source(truncated, 7));
  EXPECT_TRUE(serial_dl.recovery().framing_truncated);
  EXPECT_FALSE(serial_dl.recovery().crc_ok);
  EXPECT_GT(serial_dl.recovery().blocks_recovered, 0u);

  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    core::InterleavedDownloader::Options pipe_opt = serial_opt;
    pipe_opt.threads = threads;
    core::InterleavedDownloader pipe_dl(pipe_opt);
    const Bytes pipe_out = pipe_dl.run(stuttering_source(truncated, 7));
    EXPECT_EQ(pipe_out, serial_out);
    expect_same_recovery(pipe_dl.recovery(), serial_dl.recovery());
  }
}

TEST(ThreadedInterleave, TolerantCorruptBlockMatchesSerial) {
  const Bytes input = corpus_bytes(workload::FileKind::TarMixed, 180000, 10);
  const auto res = compress::selective_compress(
      input, compress::SelectivePolicy::always(), 16 * 1024);
  // Damage a byte deep inside a compressed payload (middle of the
  // container is well past the header and inside some block's body).
  Bytes damaged = res.container;
  damaged[damaged.size() / 2] ^= 0xff;

  auto run_mode = [&](unsigned threads) {
    core::InterleavedDownloader::Options opt;
    opt.chunk_bytes = 4096;
    opt.tolerant = true;
    opt.threads = threads;
    core::InterleavedDownloader dl(opt);
    Bytes out;
    compress::RecoveryReport rep;
    bool threw = false;
    try {
      out = dl.run(stuttering_source(damaged, 11));
      rep = dl.recovery();
    } catch (const Error&) {
      threw = true;  // framing byte hit: tolerant mode still throws
    }
    return std::make_tuple(threw, out, rep);
  };
  const auto [serial_threw, serial_out, serial_rep] = run_mode(1);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(threads);
    const auto [pipe_threw, pipe_out, pipe_rep] = run_mode(threads);
    EXPECT_EQ(pipe_threw, serial_threw);
    EXPECT_EQ(pipe_out, serial_out);
    if (!serial_threw) expect_same_recovery(pipe_rep, serial_rep);
  }
}

TEST(ThreadedInterleave, PrematureEofThrowsInBothModes) {
  const Bytes input = corpus_bytes(workload::FileKind::Xml, 100000, 12);
  const auto res = compress::selective_compress(
      input, compress::SelectivePolicy::always(), 16 * 1024);
  const Bytes truncated(res.container.begin(),
                        res.container.begin() +
                            static_cast<std::ptrdiff_t>(
                                res.container.size() / 2));
  for (const unsigned threads : {1u, 2u}) {
    core::InterleavedDownloader::Options opt;
    opt.chunk_bytes = 4096;
    opt.threads = threads;
    core::InterleavedDownloader dl(opt);
    EXPECT_THROW(dl.run(stuttering_source(truncated, 13)), Error)
        << threads;
  }
}

TEST(ThreadedInterleave, ThreadedProxyAndClientMatchSerialWire) {
  // Server compresses on a pool, client inflates on the decoder's pool
  // — over real sockets, the bytes must match the serial pair.
  const Bytes input = corpus_bytes(workload::FileKind::TarMixed, 200000, 16);
  net::FileStore store;
  store.put("f", input);
  net::ProxyServer server(std::move(store),
                          compress::SelectivePolicy::always(), 16 * 1024,
                          /*precompress=*/false, /*threads=*/2);

  net::DownloadStats serial_stats;
  const Bytes serial_out =
      net::download(server.port(), "f", "selective", &serial_stats, 1);
  EXPECT_EQ(serial_out, input);

  net::DownloadStats pipe_stats;
  const Bytes pipe_out =
      net::download(server.port(), "f", "selective", &pipe_stats, 2);
  EXPECT_EQ(pipe_out, input);
  EXPECT_EQ(pipe_stats.bytes_on_wire, serial_stats.bytes_on_wire);
  EXPECT_EQ(pipe_stats.blocks, serial_stats.blocks);

  net::TransferPolicy tp;
  tp.threads = 4;
  const auto outcome =
      net::download_resilient(server.port(), "f", "selective", tp);
  EXPECT_EQ(outcome.data, input);
  EXPECT_TRUE(outcome.complete);
}

TEST(ThreadedInterleave, SourceErrorPropagatesFromFeedThread) {
  core::InterleavedDownloader::Options opt;
  opt.threads = 2;
  core::InterleavedDownloader dl(opt);
  EXPECT_THROW(
      dl.run([](std::uint8_t*, std::size_t) -> std::size_t {
        throw Error("socket died");
      }),
      Error);
}

// ------------------------------------------------------- LZ77 hot path

Bytes reconstruct_reference(const std::vector<compress::Lz77Token>& tokens) {
  Bytes out;
  for (const auto& t : tokens) {
    if (t.length == 0) {
      out.push_back(t.literal);
      continue;
    }
    const std::size_t start = out.size() - t.distance;
    for (std::size_t i = 0; i < t.length; ++i)
      out.push_back(out[start + i]);
  }
  return out;
}

TEST(Lz77Reconstruct, OverlappedCopiesMatchReference) {
  // Every overlap regime of the chunked copy: distance < 8 (byte loop),
  // distance in [8, length) (strided doubling), distance >= length
  // (single memcpy) — across lengths that straddle each stride boundary.
  for (int distance : {1, 2, 3, 5, 7, 8, 9, 12, 16, 31, 64, 200}) {
    for (int length : {3, 7, 8, 9, 15, 16, 17, 100, 258}) {
      std::vector<compress::Lz77Token> tokens;
      for (int i = 0; i < std::max(distance, 4); ++i)
        tokens.push_back({0, 0, static_cast<std::uint8_t>('a' + i % 23)});
      tokens.push_back({static_cast<std::uint16_t>(length),
                        static_cast<std::uint16_t>(distance), 0});
      EXPECT_EQ(compress::lz77_reconstruct(tokens),
                reconstruct_reference(tokens))
          << "distance " << distance << " length " << length;
    }
  }
}

TEST(Lz77Reconstruct, RoundTripsPeriodicData) {
  const auto params = compress::Lz77Params::for_level(9);
  for (const std::size_t period : {1u, 3u, 8u, 13u, 64u}) {
    Bytes input;
    for (std::size_t i = 0; i < 50000; ++i)
      input.push_back(static_cast<std::uint8_t>((i % period) * 37 + 11));
    const auto tokens = compress::lz77_tokenize(input, params);
    EXPECT_EQ(compress::lz77_reconstruct(tokens), input) << period;
  }
}

TEST(Lz77Tokenize, ScratchReuseStaysDeterministic) {
  // Back-to-back tokenizations on the same thread reuse the arena; the
  // token stream must not depend on what ran before.
  const auto params = compress::Lz77Params::for_level(9);
  const Bytes a = corpus_bytes(workload::FileKind::TarMixed, 60000, 14);
  const Bytes b = corpus_bytes(workload::FileKind::Xml, 40000, 15);
  const auto first = compress::lz77_tokenize(a, params);
  compress::lz77_tokenize(b, params);  // pollute the scratch
  const auto again = compress::lz77_tokenize(a, params);
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(again[i].length, first[i].length);
    EXPECT_EQ(again[i].distance, first[i].distance);
    EXPECT_EQ(again[i].literal, first[i].literal);
  }
}

}  // namespace
}  // namespace ecomp
