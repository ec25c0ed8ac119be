// The ecomp command-line tool, driven through the cli library.
#include "cli/cli.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "workload/generator.h"

namespace ecomp::cli {
namespace {

namespace fs = std::filesystem;

class CliFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ecomp_cli_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    input_ = workload::generate_kind(workload::FileKind::Xml, 200000,
                                     /*seed=*/1, 0.3);
    in_path_ = (dir_ / "input.xml").string();
    write_file(in_path_, input_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_cli(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return run(args, out_, err_);
  }

  fs::path dir_;
  Bytes input_;
  std::string in_path_;
  std::ostringstream out_, err_;
};

TEST_F(CliFixture, CompressDecompressRoundTripPerCodec) {
  for (const std::string codec :
       {"deflate", "lzw", "bwt", "selective", "gz", "Z", "bz2"}) {
    const std::string packed = (dir_ / (codec + ".ec")).string();
    const std::string restored = (dir_ / (codec + ".out")).string();
    ASSERT_EQ(run_cli({"compress", "-c", codec, in_path_, packed}), 0)
        << err_.str();
    EXPECT_NE(out_.str().find("factor"), std::string::npos);
    ASSERT_EQ(run_cli({"decompress", packed, restored}), 0) << err_.str();
    EXPECT_EQ(read_file(restored), input_);
  }
}

TEST_F(CliFixture, LevelReachesDeflateAndBwt) {
  // -l is deflate's effort and BWT's block size (in 100 KB, as bzip2's
  // -1..-9): levels 1 and 9 write different containers, both lossless.
  for (const std::string codec : {"deflate", "bwt"}) {
    Bytes packed[2];
    for (const int i : {0, 1}) {
      const std::string level = i ? "9" : "1";
      const std::string path = (dir_ / (codec + level + ".ec")).string();
      const std::string restored = (dir_ / (codec + level + ".out")).string();
      ASSERT_EQ(run_cli({"compress", "-c", codec, "-l", level, in_path_, path}),
                0)
          << err_.str();
      ASSERT_EQ(run_cli({"decompress", path, restored}), 0) << err_.str();
      EXPECT_EQ(read_file(restored), input_) << codec << " -l " << level;
      packed[i] = read_file(path);
    }
    EXPECT_NE(packed[0], packed[1]) << codec;
  }
}

TEST_F(CliFixture, DecompressSniffsMagic) {
  // Same decompress invocation handles every container type (previous
  // test already proves it); here check a wrong file is rejected.
  const std::string junk = (dir_ / "junk").string();
  write_file(junk, Bytes{9, 9, 9, 9, 9, 9});
  EXPECT_EQ(run_cli({"decompress", junk, (dir_ / "x").string()}), 2);
  EXPECT_NE(err_.str().find("magic"), std::string::npos);
}

TEST_F(CliFixture, InspectSelectiveListsBlocks) {
  const std::string packed = (dir_ / "sel.ec").string();
  ASSERT_EQ(run_cli({"compress", "-c", "selective", "-b", "32768", in_path_,
                     packed}),
            0);
  ASSERT_EQ(run_cli({"inspect", packed}), 0) << err_.str();
  const std::string text = out_.str();
  EXPECT_NE(text.find("container: selective"), std::string::npos);
  EXPECT_NE(text.find("block 0"), std::string::npos);
  EXPECT_NE(text.find("original bytes: 200000"), std::string::npos);
}

TEST_F(CliFixture, PlanGivesAdvice) {
  ASSERT_EQ(run_cli({"plan", in_path_}), 0) << err_.str();
  const std::string text = out_.str();
  EXPECT_NE(text.find("sampled factors"), std::string::npos);
  EXPECT_NE(text.find("advice:"), std::string::npos);
  // Compressible XML must not be shipped raw.
  EXPECT_EQ(text.find("no compression"), std::string::npos);
}

TEST_F(CliFixture, PlanAt2Mbps) {
  ASSERT_EQ(run_cli({"plan", "-r", "2", in_path_}), 0) << err_.str();
  EXPECT_NE(out_.str().find("advice:"), std::string::npos);
}

TEST_F(CliFixture, CorpusMaterializesFiles) {
  const std::string outdir = (dir_ / "corpus").string();
  ASSERT_EQ(run_cli({"corpus", "-s", "0.002", outdir}), 0) << err_.str();
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(outdir))
    ++count;
  EXPECT_EQ(count, 37u);
  EXPECT_TRUE(fs::exists(fs::path(outdir) / "news96.xml"));
}

TEST_F(CliFixture, UsageErrors) {
  EXPECT_EQ(run_cli({}), 1);
  EXPECT_EQ(run_cli({"frobnicate"}), 1);
  EXPECT_EQ(run_cli({"compress", in_path_}), 2);  // missing OUT
  EXPECT_EQ(run_cli({"compress", "-x", in_path_, "y"}), 1);
  EXPECT_EQ(run_cli({"compress", "-c"}), 1);  // missing value
  EXPECT_NE(err_.str().find("usage"), std::string::npos);
}

TEST_F(CliFixture, MissingInputFileFails) {
  EXPECT_EQ(run_cli({"compress", (dir_ / "nope").string(),
                     (dir_ / "out").string()}),
            2);
}

TEST_F(CliFixture, BadCodecNameFails) {
  EXPECT_EQ(
      run_cli({"compress", "-c", "zstd", in_path_, (dir_ / "o").string()}),
      2);
}

// ------------------------------------------------- corrupt-input handling
// decompress/inspect on damaged containers must report exit 2 with a
// clear message — never crash, never succeed silently (except benign
// byte flips a format can't detect, which may still round-trip).

TEST_F(CliFixture, TruncatedContainersFailCleanly) {
  // ".Z" is absent: the real compress(1) format carries no length or
  // checksum, so a cut at a code boundary decodes cleanly by design
  // (it is covered by the byte-flip test below instead).
  for (const std::string codec :
       {"deflate", "lzw", "bwt", "selective", "gz", "bz2"}) {
    const std::string packed = (dir_ / (codec + ".ec")).string();
    ASSERT_EQ(run_cli({"compress", "-c", codec, in_path_, packed}), 0)
        << err_.str();
    const Bytes full = read_file(packed);
    // Cut at a spread of points: inside the magic, inside the header,
    // and at several places in the payload.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7},
          full.size() / 4, full.size() / 2, full.size() - 1}) {
      if (keep >= full.size()) continue;
      const std::string cut = (dir_ / "cut.bin").string();
      write_file(cut, Bytes(full.begin(), full.begin() + keep));
      const int code =
          run_cli({"decompress", cut, (dir_ / "cut.out").string()});
      EXPECT_EQ(code, 2) << codec << " truncated to " << keep
                         << " bytes: exit " << code << "\n"
                         << err_.str();
      EXPECT_FALSE(err_.str().empty()) << codec << " @" << keep;
      EXPECT_EQ(run_cli({"inspect", cut}), 2) << codec << " @" << keep;
    }
  }
}

TEST_F(CliFixture, CorruptedMagicFailsCleanly) {
  for (const std::string codec : {"selective", "gz", "Z", "bz2"}) {
    const std::string packed = (dir_ / (codec + ".ec")).string();
    ASSERT_EQ(run_cli({"compress", "-c", codec, in_path_, packed}), 0);
    Bytes data = read_file(packed);
    data[0] ^= 0xff;  // break the magic
    const std::string bad = (dir_ / "bad.bin").string();
    write_file(bad, data);
    EXPECT_EQ(run_cli({"decompress", bad, (dir_ / "bad.out").string()}), 2)
        << codec;
    EXPECT_FALSE(err_.str().empty());
    EXPECT_EQ(run_cli({"inspect", bad}), 2) << codec;
  }
}

TEST_F(CliFixture, PayloadByteFlipsNeverCrash) {
  // Deeper damage: flip bytes throughout the container. Formats with
  // checksums must reject (2); at worst a flip is benign and the file
  // still round-trips (0) — but no exit code other than 0/2 and no
  // crash is acceptable.
  for (const std::string codec : {"selective", "gz", "bz2", "Z"}) {
    const std::string packed = (dir_ / (codec + ".ec")).string();
    ASSERT_EQ(run_cli({"compress", "-c", codec, in_path_, packed}), 0);
    const Bytes full = read_file(packed);
    for (std::size_t i = 1; i < full.size(); i += full.size() / 13 + 1) {
      Bytes data = full;
      data[i] ^= 0x5a;
      const std::string bad = (dir_ / "flip.bin").string();
      write_file(bad, data);
      const int code =
          run_cli({"decompress", bad, (dir_ / "flip.out").string()});
      EXPECT_TRUE(code == 0 || code == 2)
          << codec << " flip @" << i << ": exit " << code << "\n"
          << err_.str();
    }
  }
}

// --------------------------------------------------- telemetry emission

TEST_F(CliFixture, TraceAndMetricsFlagsWriteJson) {
  const std::string packed = (dir_ / "out.ec").string();
  const std::string trace = (dir_ / "trace.json").string();
  const std::string metrics = (dir_ / "metrics.json").string();
  ASSERT_EQ(run_cli({"compress", "--trace", trace, "--metrics", metrics,
                     in_path_, packed}),
            0)
      << err_.str();
  const std::string tj = to_string(read_file(trace));
  EXPECT_NE(tj.find("\"traceEvents\""), std::string::npos);
  const std::string mj = to_string(read_file(metrics));
  EXPECT_NE(mj.find("\"counters\""), std::string::npos);
  // Span/counter content only exists when instrumentation is compiled in.
  if (obs::kObsEnabled) {
    EXPECT_NE(tj.find("\"compress\""), std::string::npos);
    EXPECT_NE(mj.find("\"cli.bytes_in\""), std::string::npos);
  }
}

TEST_F(CliFixture, TraceEnvFallback) {
  const std::string trace = (dir_ / "env_trace.json").string();
  ::setenv("ECOMP_TRACE", trace.c_str(), 1);
  const int code =
      run_cli({"compress", in_path_, (dir_ / "out.ec").string()});
  ::unsetenv("ECOMP_TRACE");
  ASSERT_EQ(code, 0) << err_.str();
  EXPECT_NE(to_string(read_file(trace)).find("\"traceEvents\""),
            std::string::npos);
}

TEST_F(CliFixture, UnwritableTelemetryPathsRejectedUpFront) {
  // --trace and --metrics destinations are probed before any work runs:
  // exit 2, a clear message, and no output artifact is produced.
  const std::string packed = (dir_ / "out.ec").string();
  EXPECT_EQ(run_cli({"compress", "--trace", "/nonexistent-dir/t.json",
                     in_path_, packed}),
            2);
  EXPECT_NE(err_.str().find("cannot open for writing"), std::string::npos)
      << err_.str();
  EXPECT_FALSE(fs::exists(packed));
  EXPECT_EQ(run_cli({"compress", "--metrics", "/nonexistent-dir/m.json",
                     in_path_, packed}),
            2);
  EXPECT_NE(err_.str().find("cannot open for writing"), std::string::npos)
      << err_.str();
  EXPECT_FALSE(fs::exists(packed));
}

TEST_F(CliFixture, UnwritableProbeLeavesExistingFilesIntact) {
  // The probe opens in append mode, so pointing --trace at an existing
  // file must not clobber it when the command later fails.
  const std::string trace = (dir_ / "keep.json").string();
  write_file(trace, Bytes{'x', 'y', 'z'});
  EXPECT_EQ(run_cli({"compress", "--trace", trace, (dir_ / "nope").string(),
                     (dir_ / "out.ec").string()}),
            2);  // input missing -> command fails after the probe
  // The failed run still flushes a (valid) trace; the probe itself must
  // not have truncated the file before that point. Easiest check: run a
  // command that fails argument parsing, where nothing is flushed.
  write_file(trace, Bytes{'x', 'y', 'z'});
  EXPECT_EQ(run_cli({"compress", "--trace", trace, "-c"}), 1);
  EXPECT_EQ(read_file(trace), (Bytes{'x', 'y', 'z'}));
}

// --------------------------------------------------- energy attribution

TEST_F(CliFixture, EnergyReportsSavingsForCompressibleInput) {
  ASSERT_EQ(run_cli({"energy", in_path_}), 0) << err_.str();
  const std::string text = out_.str();
  EXPECT_NE(text.find("scenario: interleaved(deflate) at 11 Mb/s"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("saves"), std::string::npos);
  // Plain run prints no per-component table.
  EXPECT_EQ(text.find("component"), std::string::npos);
}

TEST_F(CliFixture, EnergyBreakdownPrintsTheComponentTree) {
  ASSERT_EQ(run_cli({"energy", "--breakdown", "-r", "2", "-c", "lzw",
                     in_path_}),
            0)
      << err_.str();
  const std::string text = out_.str();
  EXPECT_NE(text.find("scenario: interleaved(lzw) at 2 Mb/s"),
            std::string::npos)
      << text;
  // The table prints the tree with indented short names: a "radio" root
  // with "recv"/"startup" children, the codec under "decompress", and a
  // closing total row.
  EXPECT_NE(text.find("component"), std::string::npos) << text;
  EXPECT_NE(text.find("radio"), std::string::npos) << text;
  EXPECT_NE(text.find("recv"), std::string::npos) << text;
  EXPECT_NE(text.find("startup"), std::string::npos) << text;
  EXPECT_NE(text.find("decompress"), std::string::npos) << text;
  EXPECT_NE(text.find("lzw"), std::string::npos) << text;
  EXPECT_NE(text.find("total"), std::string::npos) << text;
}

TEST_F(CliFixture, EnergyJsonCarriesAValidatedLedger) {
  ASSERT_EQ(run_cli({"energy", "--json", in_path_}), 0) << err_.str();
  const auto doc = obs::parse_json(out_.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("scenario")->string, "interleaved(deflate)");
  EXPECT_DOUBLE_EQ(doc.number_or("rate_mbps", 0.0), 11.0);
  EXPECT_NEAR(doc.number_or("original_mb", 0.0), 0.2, 1e-12);
  const obs::JsonValue* ledger = doc.find("ledger");
  ASSERT_NE(ledger, nullptr);
  const double total = ledger->number_or("total_energy_j", -1.0);
  EXPECT_GT(total, 0.0);
  EXPECT_LT(total, doc.number_or("raw_energy_j", 0.0));
  // Root components sum to the total (the ledger invariant, end to end).
  const obs::JsonValue* comps = ledger->find("components");
  ASSERT_NE(comps, nullptr);
  double roots = 0.0;
  for (const auto& [path, node] : comps->object)
    if (path.find('/') == std::string::npos)
      roots += node.number_or("energy_j", 0.0);
  EXPECT_NEAR(roots, total, 1e-9);
}

TEST_F(CliFixture, EnergyReplaysSelectiveContainers) {
  const std::string packed = (dir_ / "sel.ec").string();
  ASSERT_EQ(run_cli({"compress", "-c", "selective", "-b", "32768", in_path_,
                     packed}),
            0);
  ASSERT_EQ(run_cli({"energy", packed}), 0) << err_.str();
  EXPECT_NE(out_.str().find("selective-replay(7 blocks)"), std::string::npos)
      << out_.str();
}

TEST_F(CliFixture, EnergyUsageErrors) {
  EXPECT_EQ(run_cli({"energy"}), 2);                      // missing IN
  EXPECT_EQ(run_cli({"energy", "-r", "5", in_path_}), 2); // bad rate
  EXPECT_EQ(run_cli({"energy", (dir_ / "nope").string()}), 2);
}

}  // namespace
}  // namespace ecomp::cli
