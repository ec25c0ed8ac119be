// Loopback proxy/client integration: real sockets, framed protocol,
// on-demand compression, streaming interleaved decode.
#include <gtest/gtest.h>

#include <thread>

#include "core/planner.h"
#include "net/proxy.h"
#include "workload/generator.h"

namespace ecomp::net {
namespace {

using workload::FileKind;

class ProxyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    xml_ = workload::generate_kind(FileKind::Xml, 300000, 1, 0.4);
    media_ = workload::generate_kind(FileKind::Media, 200000, 2, 0.0);
    tiny_ = workload::generate_kind(FileKind::Mail, 1500, 3, 0.0);
    FileStore store;
    store.put("page.xml", xml_);
    store.put("video.bin", media_);
    store.put("note.txt", tiny_);
    server_ = std::make_unique<ProxyServer>(
        std::move(store),
        core::make_selective_policy(core::EnergyModel::paper_11mbps()));
  }

  Bytes xml_, media_, tiny_;
  std::unique_ptr<ProxyServer> server_;
};

TEST_F(ProxyFixture, RawDownloadIsByteIdentical) {
  DownloadStats st;
  EXPECT_EQ(download(server_->port(), "page.xml", "raw", &st), xml_);
  EXPECT_EQ(st.bytes_on_wire, xml_.size());
}

TEST_F(ProxyFixture, FullCompressionShrinksWire) {
  DownloadStats st;
  EXPECT_EQ(download(server_->port(), "page.xml", "full", &st), xml_);
  EXPECT_LT(st.bytes_on_wire, xml_.size() / 2);
  EXPECT_GT(st.factor(), 2.0);
}

TEST_F(ProxyFixture, SelectiveDecodesBlockwise) {
  DownloadStats st;
  EXPECT_EQ(download(server_->port(), "page.xml", "selective", &st), xml_);
  EXPECT_GT(st.blocks, 1u);
  ASSERT_EQ(st.block_infos.size(), st.blocks);
  for (const auto& b : st.block_infos) EXPECT_TRUE(b.compressed);
}

TEST_F(ProxyFixture, SelectiveShipsIncompressibleRaw) {
  DownloadStats st;
  EXPECT_EQ(download(server_->port(), "video.bin", "selective", &st),
            media_);
  for (const auto& b : st.block_infos) EXPECT_FALSE(b.compressed);
  // Wire cost within a whisker of raw.
  EXPECT_LT(st.bytes_on_wire, media_.size() + 64);
}

TEST_F(ProxyFixture, SelectiveShipsTinyFilesRaw) {
  // 1.5 KB < 3900 B threshold: single raw block.
  DownloadStats st;
  EXPECT_EQ(download(server_->port(), "note.txt", "selective", &st), tiny_);
  ASSERT_EQ(st.block_infos.size(), 1u);
  EXPECT_FALSE(st.block_infos[0].compressed);
}

TEST_F(ProxyFixture, MissingFileReportsError) {
  EXPECT_THROW(download(server_->port(), "nope.bin", "raw"), Error);
}

TEST_F(ProxyFixture, BadModeReportsError) {
  EXPECT_THROW(download(server_->port(), "page.xml", "gzip"), Error);
}

TEST_F(ProxyFixture, ServesSequentialRequests) {
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(download(server_->port(), "page.xml", "selective"), xml_);
}

TEST_F(ProxyFixture, ConcurrentClients) {
  // The worker pool serves these concurrently (tests/test_load.cpp
  // pushes this to 100 clients); here we just want four correct copies.
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      const Bytes got = download(server_->port(), "page.xml", "full");
      if (got == xml_) ++ok;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 4);
}

TEST_F(ProxyFixture, StopIsIdempotent) {
  server_->stop();
  server_->stop();
}

TEST(FileStoreTest, PutGetContains) {
  FileStore fs;
  fs.put("a", {1, 2, 3});
  EXPECT_TRUE(fs.contains("a"));
  EXPECT_FALSE(fs.contains("b"));
  EXPECT_EQ(*fs.get("a"), (Bytes{1, 2, 3}));
  EXPECT_THROW(fs.get("b"), Error);
}

TEST_F(ProxyFixture, UploadStoresAndRedownloads) {
  const Bytes data = workload::generate_kind(FileKind::Xml, 250000, 9, 0.4);
  const auto policy =
      core::make_selective_policy(core::EnergyModel::paper_11mbps());
  const std::size_t wire = upload(server_->port(), "uploaded.xml", data,
                                  policy);
  // Compressible data travels compressed.
  EXPECT_LT(wire, data.size() / 2);
  EXPECT_EQ(download(server_->port(), "uploaded.xml", "raw"), data);
}

TEST_F(ProxyFixture, UploadIncompressibleShipsRaw) {
  const Bytes noise = workload::generate_kind(FileKind::Random, 80000, 10,
                                              0.0);
  const auto policy =
      core::make_selective_policy(core::EnergyModel::paper_11mbps());
  const std::size_t wire =
      upload(server_->port(), "noise.bin", noise, policy);
  EXPECT_LT(wire, noise.size() + 128);   // tiny container overhead
  EXPECT_GE(wire, noise.size());         // but nothing compressed
  EXPECT_EQ(download(server_->port(), "noise.bin", "raw"), noise);
}

TEST_F(ProxyFixture, UploadOverwritesExisting) {
  const Bytes v2 = workload::generate_kind(FileKind::Mail, 3000, 11, 0.0);
  const auto policy = compress::SelectivePolicy::always();
  upload(server_->port(), "page.xml", v2, policy);
  EXPECT_EQ(download(server_->port(), "page.xml", "raw"), v2);
}

TEST(ProxyPrecompressed, ServesIdenticalContentFromCache) {
  // §3's "compressed a priori" proxy vs §5's on-demand proxy must be
  // indistinguishable on the wire.
  const Bytes xml = workload::generate_kind(FileKind::Xml, 200000, 30, 0.4);
  const auto policy =
      core::make_selective_policy(core::EnergyModel::paper_11mbps());

  FileStore a;
  a.put("f.xml", xml);
  ProxyServer ondemand(std::move(a), policy,
                       compress::kDefaultBlockSize, false);
  FileStore b;
  b.put("f.xml", xml);
  ProxyServer cached(std::move(b), policy, compress::kDefaultBlockSize,
                     true);

  for (const std::string mode : {"raw", "full", "selective"}) {
    DownloadStats sa, sb;
    EXPECT_EQ(download(ondemand.port(), "f.xml", mode, &sa), xml) << mode;
    EXPECT_EQ(download(cached.port(), "f.xml", mode, &sb), xml) << mode;
    EXPECT_EQ(sa.bytes_on_wire, sb.bytes_on_wire) << mode;
  }
}

TEST(ProxyPrecompressed, UploadInvalidatesCache) {
  const Bytes v1 = workload::generate_kind(FileKind::Xml, 100000, 31, 0.4);
  const Bytes v2 = workload::generate_kind(FileKind::Log, 120000, 32, 0.0);
  const auto policy =
      core::make_selective_policy(core::EnergyModel::paper_11mbps());
  FileStore store;
  store.put("f", v1);
  ProxyServer server(std::move(store), policy,
                     compress::kDefaultBlockSize, true);
  EXPECT_EQ(download(server.port(), "f", "selective"), v1);
  upload(server.port(), "f", v2, compress::SelectivePolicy::always());
  EXPECT_EQ(download(server.port(), "f", "selective"), v2);
  EXPECT_EQ(download(server.port(), "f", "full"), v2);
}

TEST(SocketFraming, RoundTripsFrames) {
  Listener listener(0);
  std::thread server([&] {
    Socket c = listener.accept();
    const Bytes req = recv_frame(c);
    send_frame(c, req);  // echo
  });
  Socket s = connect_local(listener.port());
  const Bytes msg = to_bytes("hello framing");
  send_frame(s, msg);
  EXPECT_EQ(recv_frame(s), msg);
  server.join();
}

TEST(SocketFraming, PeerCloseMidMessageThrows) {
  Listener listener(0);
  std::thread server([&] {
    Socket c = listener.accept();
    send_frame_header(c, 100);   // promise 100 bytes
    c.send_all(Bytes(10, 'x'));  // deliver 10, then close
  });
  Socket s = connect_local(listener.port());
  EXPECT_THROW(recv_frame(s), Error);
  server.join();
}

}  // namespace
}  // namespace ecomp::net
