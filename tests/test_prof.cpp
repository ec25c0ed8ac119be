// Profiling suite (`ctest -L profiling`): the ecomp::prof subsystem —
// exact self-time accounting, SIGPROF sampling with folded-stack
// output, allocation accounting, the flight recorder ring, and the
// crash-safe post-mortem path.
//
// The headline acceptance tests:
//  * a deterministic synthetic workload profiled in-process yields
//    non-empty folded stacks whose hottest frames are the known hot
//    codec stages (bwt.forward dominating a bwt run);
//  * a fault-injected child `ecomp download` (ECOMP_PROF_TEST_CRASH)
//    dies on SIGSEGV mid-transfer and leaves a parseable JSONL crash
//    dump carrying the last flight-recorder events — active trace id
//    included — while its JSONL event log stays line-parseable (the
//    one-write()-per-line crash-safety contract).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "compress/codec.h"
#include "compress/lz77.h"
#include "compress/selective.h"
#include "net/proxy.h"
#include "obs/events.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "prof/crash.h"
#include "prof/flight.h"
#include "prof/profiler.h"
#include "prof/zone.h"
#include "workload/generator.h"

namespace ecomp {
namespace {

namespace fs = std::filesystem;

/// Deterministic 1 MiB text-like input shared by the profiling tests.
const Bytes& xml_input() {
  static const Bytes data = workload::generate_kind(
      workload::FileKind::Xml, 1 << 20, /*seed=*/21, 0.2);
  return data;
}

/// Parse a JSONL blob; every non-empty line must be valid JSON.
std::vector<obs::JsonValue> parse_jsonl(const std::string& text) {
  std::vector<obs::JsonValue> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out.push_back(obs::parse_json(line));
  }
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --------------------------------------------------- exact self time

TEST(ProfTiming, SelfTableRanksKnownHotStage) {
  prof::ProfilerOptions opt;
  opt.sampling = false;  // exact timing only: deterministic ranking
  opt.timing = true;
  ASSERT_TRUE(prof::Profiler::global().start(opt));
  EXPECT_TRUE(prof::Profiler::global().running());
  EXPECT_FALSE(prof::Profiler::global().start(opt));  // one at a time

  const auto codec = compress::make_codec("bwt");
  const Bytes back = codec->decompress(codec->compress(xml_input()));
  const prof::ProfileReport report = prof::Profiler::global().stop();
  EXPECT_FALSE(prof::Profiler::global().running());
  ASSERT_EQ(back, xml_input());

  ASSERT_FALSE(report.self.empty());
  EXPECT_GT(report.total_self_ns, 0u);
  // The suffix sort is the known hot stage of a bwt round trip; every
  // instrumented stage showed up at all.
  EXPECT_GT(report.self_pct("bwt.forward"), 30.0);
  EXPECT_GT(report.self_pct("bwt.forward"), report.self_pct("mtf"));
  EXPECT_GT(report.self_pct("bwt.forward"),
            report.self_pct("huffman.encode"));
  for (const char* stage :
       {"bwt.forward", "mtf", "huffman.encode", "huffman.decode",
        "bwt.inverse", "crc32"})
    EXPECT_GT(report.self_pct(stage), 0.0) << stage;
  EXPECT_EQ(report.self_pct("no.such.zone"), 0.0);

  const std::string table = report.to_table();
  EXPECT_NE(table.find("bwt.forward"), std::string::npos);
}

TEST(ProfTiming, StartRejectsNoModeOptions) {
  prof::ProfilerOptions opt;
  opt.sampling = false;
  opt.timing = false;
  EXPECT_FALSE(prof::Profiler::global().start(opt));
  EXPECT_FALSE(prof::Profiler::global().running());
}

// ------------------------------------------------------- sampling

TEST(ProfSampling, FoldedStacksTopFramesMatchHotFunctions) {
  prof::ProfilerOptions opt;
  opt.hz = 997;
  opt.sampling = true;
  opt.timing = false;
  ASSERT_TRUE(prof::Profiler::global().start(opt));
  EXPECT_TRUE(prof::Profiler::sampler_active());

  // Deterministic workload; loop until the sampler has a solid base
  // (ITIMER_PROF fires against CPU time, so the iteration count needed
  // varies with host/sanitizer speed — the workload itself does not).
  const auto codec = compress::make_codec("bwt");
  const std::uint64_t before = prof::Profiler::lifetime_samples();
  for (int i = 0;
       i < 40 && prof::Profiler::lifetime_samples() - before < 300; ++i) {
    const Bytes packed = codec->compress(xml_input());
    ASSERT_FALSE(packed.empty());
  }
  const prof::ProfileReport report = prof::Profiler::global().stop();
  EXPECT_FALSE(prof::Profiler::sampler_active());
  EXPECT_GE(prof::Profiler::lifetime_samples() - before, report.samples);

  ASSERT_GT(report.samples, 0u);
  ASSERT_FALSE(report.folded.empty());
  // Aggregate leaf-frame sample counts across stacks.
  std::map<std::string, std::uint64_t> leaf;
  for (const auto& [stack, count] : report.folded) {
    const auto semi = stack.rfind(';');
    leaf[semi == std::string::npos ? stack : stack.substr(semi + 1)] +=
        count;
  }
  std::vector<std::pair<std::uint64_t, std::string>> ranked;
  for (const auto& [frame, count] : leaf) ranked.push_back({count, frame});
  std::sort(ranked.rbegin(), ranked.rend());

  // Top-2 frames are known hot functions of the bwt compress path; the
  // suffix sort leads outright.
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].second, "bwt.forward");
  const std::set<std::string> hot = {"bwt.forward", "mtf",
                                     "huffman.encode", "bwt.compress",
                                     "crc32", "ecomp"};
  EXPECT_TRUE(hot.count(ranked[1].second)) << ranked[1].second;

  // Folded text is FlameGraph-shaped, rooted at the process frame, and
  // lexicographically sorted for byte-stable output.
  const std::string text = report.to_folded();
  EXPECT_NE(text.find("bwt.forward"), std::string::npos);
  std::vector<std::string> stacks;
  for (const auto& [stack, count] : report.folded) {
    EXPECT_GT(count, 0u);
    EXPECT_EQ(stack.rfind("ecomp", 0), 0u) << stack;
    stacks.push_back(stack);
  }
  EXPECT_TRUE(std::is_sorted(stacks.begin(), stacks.end()));
}

TEST(ProfSampling, WriteFoldedRoundTripsThroughDisk) {
  prof::ProfilerOptions opt;
  opt.sampling = true;
  opt.timing = true;
  ASSERT_TRUE(prof::Profiler::global().start(opt));
  const auto codec = compress::make_codec("deflate");
  const Bytes packed = codec->compress(xml_input());
  ASSERT_FALSE(packed.empty());
  const prof::ProfileReport report = prof::Profiler::global().stop();

  const fs::path path =
      fs::temp_directory_path() /
      ("ecomp_prof_folded_" + std::to_string(::getpid()) + ".txt");
  prof::write_folded(path.string(), report);
  EXPECT_EQ(read_file(path), report.to_folded());
  fs::remove(path);

  EXPECT_THROW(prof::write_folded("/nonexistent-dir/x/y.folded", report),
               std::runtime_error);
}

// ------------------------------------------------ alloc accounting

/// Registry counter deltas across `fn`.
template <typename Fn>
std::map<std::string, std::uint64_t> counter_deltas(Fn&& fn) {
  const auto before = obs::Registry::global().counter_values();
  fn();
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : obs::Registry::global().counter_values()) {
    const auto it = before.find(name);
    out[name] = v - (it == before.end() ? 0 : it->second);
  }
  return out;
}

TEST(ProfAlloc, BooksBytesCountsAndPeakPerComponent) {
  // Arena bookings are registry counters: bytes and booking events per
  // component. A fresh thread starts with empty match arenas, so one
  // tokenize call books both of them (the 32 K-entry head table, then
  // one prev entry per input byte) and its token vector.
  constexpr std::size_t n = 90000;
  const auto d = counter_deltas([&] {
    std::thread([&] {
      compress::lz77_tokenize(ByteSpan(xml_input().data(), n),
                              compress::Lz77Params::for_level(6));
    }).join();
  });
  EXPECT_EQ(d.at("prof.alloc.lz77.tokens.bytes"),
            n / 3 * sizeof(compress::Lz77Token));
  EXPECT_EQ(d.at("prof.alloc.lz77.tokens.allocs"), 1u);
  EXPECT_EQ(d.at("prof.alloc.lz77.scratch.bytes"),
            (32768 + n) * sizeof(std::int32_t));
  EXPECT_EQ(d.at("prof.alloc.lz77.scratch.allocs"), 2u);
  // Nothing is ever released, so there is no peak to repeat the total.
  EXPECT_EQ(obs::Registry::global().to_json().find(".peak\""),
            std::string::npos);
}

TEST(ProfAlloc, ScopedAccountingNamesTheCaller) {
  // Each booking names its component in the counter itself, so the
  // CLI's --metrics dump carries it with no publish step, next to the
  // prof.rss_peak_kb gauge and the sliding lz77.chain_len histogram.
  const fs::path dir = fs::temp_directory_path() /
                       ("ecomp_prof_metrics_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  constexpr std::size_t n = 200000;
  cli::write_file((dir / "in.xml").string(), ByteSpan(xml_input().data(), n));
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"compress", "-c", "deflate", "--metrics",
                      (dir / "m.json").string(), (dir / "in.xml").string(),
                      (dir / "out.ec").string()},
                     out, err),
            0)
      << err.str();
  const auto doc = obs::parse_json(read_file(dir / "m.json"));
  fs::remove_all(dir);
  const auto* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->number_or("prof.alloc.lz77.tokens.bytes", 0),
            static_cast<double>(n / 3 * sizeof(compress::Lz77Token)));
  EXPECT_GE(counters->number_or("prof.alloc.lz77.tokens.allocs", 0), 1.0);
  ASSERT_NE(doc.find("gauges"), nullptr);
  EXPECT_GT(doc.find("gauges")->number_or("prof.rss_peak_kb", 0), 0.0);
  EXPECT_GT(prof::rss_peak_kb(), 0);  // VmHWM is readable on Linux
  EXPECT_EQ(doc.find("histograms"), nullptr);
  // One chain_len observation per match find.
  ASSERT_NE(doc.find("sliding"), nullptr);
  const auto* chain = doc.find("sliding")->find("lz77.chain_len");
  ASSERT_NE(chain, nullptr);
  EXPECT_GT(chain->number_or("count", 0), 0.0);
  EXPECT_EQ(chain->number_or("count", -1),
            counters->number_or("lz77.match_finds", -2));
}

TEST(ProfAlloc, CodecScratchArenasAreInstrumented) {
  const auto codec = compress::make_codec("deflate");
  const auto d = counter_deltas([&] {
    std::thread([&] {
      EXPECT_FALSE(codec->compress(xml_input()).empty());
    }).join();
  });
  EXPECT_GE(d.at("prof.alloc.lz77.scratch.allocs"), 2u);
  EXPECT_GT(d.at("prof.alloc.lz77.scratch.bytes"), 0u);
  EXPECT_GE(d.at("prof.alloc.lz77.tokens.allocs"), 1u);
  EXPECT_GT(d.at("prof.alloc.lz77.tokens.bytes"), 0u);
}

// ------------------------------------------------ flight recorder

TEST(FlightRecorderRing, WrapsPastCapacityAndDumpsParseableTail) {
  auto& fr = prof::FlightRecorder::global();
  fr.clear();
  ASSERT_EQ(fr.recorded(), 0u);

  constexpr int kNotes = 300;  // past kCapacity: oldest 44 roll off
  for (int i = 0; i < kNotes; ++i)
    fr.note("stage" + std::to_string(i % 7), "detail " + std::to_string(i),
            /*trace_id=*/0x1000 + static_cast<std::uint64_t>(i),
            /*a=*/i, /*b=*/1);
  EXPECT_EQ(fr.recorded(), static_cast<std::uint64_t>(kNotes));

  const auto lines = parse_jsonl(fr.dump_string());
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(
                              prof::FlightRecorder::kCapacity));
  // Oldest-first, contiguous ordinals ending at the newest note.
  EXPECT_EQ(lines.front().number_or("seq", -1),
            kNotes - prof::FlightRecorder::kCapacity);
  EXPECT_EQ(lines.back().number_or("seq", -1), kNotes - 1);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_TRUE(lines[i].is_object());
    ASSERT_NE(lines[i].find("stage"), nullptr);
    ASSERT_NE(lines[i].find("trace"), nullptr);
    EXPECT_EQ(lines[i].find("trace")->string.size(), 16u);
    EXPECT_EQ(lines[i].number_or("attempt", -1), 1.0);
  }
  EXPECT_EQ(lines.back().find("stage")->string,
            "stage" + std::to_string((kNotes - 1) % 7));

  // dump_to_file is the async-signal-safe path the crash handler uses.
  const fs::path path =
      fs::temp_directory_path() /
      ("ecomp_prof_flight_" + std::to_string(::getpid()) + ".jsonl");
  ASSERT_TRUE(fr.dump_to_file(path.string().c_str()));
  EXPECT_EQ(parse_jsonl(read_file(path)).size(), lines.size());
  fs::remove(path);
  fr.clear();
  EXPECT_EQ(fr.recorded(), 0u);
  EXPECT_TRUE(fr.dump_string().empty());
}

TEST(FlightRecorderRing, MirrorsEventLogEmissions) {
  auto& fr = prof::FlightRecorder::global();
  fr.clear();
  prof::attach_flight_mirror();
  obs::Event e;
  e.stage = "stream";
  e.name = "file.bin";
  e.mode = "selective";
  e.trace_id = 0xdeadbeef;
  e.bytes_wire = 123;
  e.attempt = 2;
  obs::EventLog::global().emit(e);  // no file open: mirror still fires
  ASSERT_GE(fr.recorded(), 1u);
  const auto lines = parse_jsonl(fr.dump_string());
  ASSERT_FALSE(lines.empty());
  const auto& last = lines.back();
  EXPECT_EQ(last.find("stage")->string, "stream");
  EXPECT_EQ(last.find("trace")->string, "00000000deadbeef");
  EXPECT_NE(last.find("detail")->string.find("name=file.bin"),
            std::string::npos);
  EXPECT_EQ(last.number_or("bytes_wire", -1), 123.0);
  fr.clear();
}

// ------------------------------------------------ crash post-mortem

/// A fault-injected child `ecomp download` raises SIGSEGV after the
/// first payload bytes arrive (ECOMP_PROF_TEST_CRASH); the crash
/// handler must leave a parseable post-mortem dump whose flight events
/// carry the active trace id, and the child's JSONL event log must
/// parse line-by-line even though the process died mid-stream.
TEST(CrashDump, ChildCrashLeavesParseablePostMortemWithTraceId) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("ecomp_prof_crash_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path dump = dir / "crash.jsonl";
  const fs::path client_log = dir / "client.jsonl";
  const fs::path out_file = dir / "out.bin";

  net::FileStore store;
  store.put("f", workload::generate_kind(workload::FileKind::Xml, 200000,
                                         /*seed=*/7, 0.3));
  net::ProxyServer server(store, compress::SelectivePolicy::always());

  const std::string cmd =
      "ECOMP_CRASH_DUMP=" + dump.string() +
      " ECOMP_EVENTS=" + client_log.string() +
      " ECOMP_PROF_TEST_CRASH=1 " ECOMP_BIN " download --port " +
      std::to_string(server.port()) + " -m selective f " +
      out_file.string() + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  server.stop();

  // The shell reports a signal death as 128 + signo.
  ASSERT_NE(rc, -1);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 128 + SIGSEGV);

  // Post-mortem artifact: JSON header line naming the signal, then the
  // flight ring oldest-first.
  ASSERT_TRUE(fs::exists(dump));
  const auto lines = parse_jsonl(read_file(dump));
  ASSERT_GE(lines.size(), 2u);
  const auto& header = lines.front();
  ASSERT_NE(header.find("fatal"), nullptr);
  EXPECT_TRUE(header.find("fatal")->boolean);
  EXPECT_EQ(header.number_or("signal", -1),
            static_cast<double>(SIGSEGV));

  std::set<std::string> dump_traces, dump_stages;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    ASSERT_TRUE(lines[i].is_object());
    if (const auto* t = lines[i].find("trace"))
      dump_traces.insert(t->string);
    if (const auto* s = lines[i].find("stage"))
      dump_stages.insert(s->string);
  }
  // The transfer got far enough to mint a trace and log lifecycle
  // stages before dying.
  EXPECT_FALSE(dump_traces.empty());
  EXPECT_TRUE(dump_stages.count("connect") || dump_stages.count("request"))
      << "stages: " << dump_stages.size();

  // Crash-safe event log: every line the child managed to write is a
  // complete JSON object (one write(2) per line + fatal-signal fsync),
  // and the dump's trace ids come from those same events.
  ASSERT_TRUE(fs::exists(client_log));
  const auto events = parse_jsonl(read_file(client_log));
  ASSERT_FALSE(events.empty());
  std::set<std::string> log_traces;
  for (const auto& e : events) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("stage"), nullptr);
    if (const auto* t = e.find("trace")) log_traces.insert(t->string);
  }
  bool intersects = false;
  for (const auto& t : log_traces)
    if (dump_traces.count(t)) intersects = true;
  EXPECT_TRUE(intersects);

  fs::remove_all(dir);
}

/// fatal_dump covers non-signal deaths (uncaught CLI exceptions): same
/// artifact, "reason" instead of "signal".
TEST(CrashDump, FatalDumpWritesReasonHeader) {
  const fs::path dump =
      fs::temp_directory_path() /
      ("ecomp_prof_fatal_" + std::to_string(::getpid()) + ".jsonl");
  fs::remove(dump);
  prof::install_crash_handler(dump.string());
  EXPECT_TRUE(prof::crash_handler_installed());
  EXPECT_EQ(prof::crash_dump_path(), dump.string());

  prof::FlightRecorder::global().note("fatal-test", "before the throw",
                                      0x42);
  ASSERT_TRUE(prof::fatal_dump("unrecognized container magic"));
  const auto lines = parse_jsonl(read_file(dump));
  ASSERT_GE(lines.size(), 2u);
  EXPECT_TRUE(lines.front().find("fatal")->boolean);
  EXPECT_EQ(lines.front().find("reason")->string,
            "unrecognized container magic");
  bool saw_note = false;
  for (const auto& l : lines)
    if (const auto* s = l.find("stage"))
      if (s->string == "fatal-test") saw_note = true;
  EXPECT_TRUE(saw_note);
  fs::remove(dump);
}

}  // namespace
}  // namespace ecomp
