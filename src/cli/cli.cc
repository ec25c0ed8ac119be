#include "cli/cli.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <sstream>
#include <thread>

#include "compress/bwt_codec.h"
#include "compress/bz2_format.h"
#include "compress/container.h"
#include "compress/deflate.h"
#include "compress/gzip_format.h"
#include "compress/lzw.h"
#include "compress/selective.h"
#include "compress/z_format.h"
#include "compress/zlib_format.h"
#include "core/energy_model.h"
#include "core/interleave.h"
#include "core/planner.h"
#include "net/proxy.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "sim/channel.h"
#include "sim/energy_ledger.h"
#include "sim/packet.h"
#include "workload/corpus.h"

#if defined(ECOMP_OBS_ENABLED)
#include "obs/rules.h"
#include "prof/crash.h"
#include "prof/flight.h"
#include "prof/profiler.h"
#endif

namespace ecomp::cli {
namespace {

constexpr const char* kUsage =
    "usage:\n"
    "  ecomp compress   [-c deflate|lzw|bwt|selective|gz|Z|bz2|zz] [-l LEVEL]"
    " [-b BYTES]\n"
    "                   [--threads N] IN OUT\n"
    "  ecomp decompress [--threads N] IN OUT\n"
    "  ecomp inspect    [--salvage] IN [OUT]\n"
    "  ecomp plan       [-r 11|2] [--loss P] IN\n"
    "  ecomp energy     [-r 11|2] [-c CODEC] [--loss P] [--breakdown]"
    " [--json] IN\n"
    "  ecomp download   --port PORT [-m raw|full|selective] [--resume]\n"
    "                   [--max-retries N] [--timeout-ms MS] [--salvage]\n"
    "                   [--threads N] NAME OUT\n"
    "  ecomp stats      --port PORT [--json|--prom] [--watch]\n"
    "                   [--interval-ms MS] [--count N] [--out FILE]\n"
    "                   (--watch in text mode prints per-interval counter\n"
    "                   deltas and rates, not raw totals)\n"
    "  ecomp top        --port PORT [--interval-ms MS] [--count N]\n"
    "                   live terminal dashboard: sparklines over the\n"
    "                   proxy's monitored time series + recent alerts\n"
    "  ecomp monitor    --port PORT --rules FILE [--interval-ms MS]\n"
    "                   [--count N] [-r 11|2] [--loss P]\n"
    "                   headless watchdog over proxy stats; exits 4 on\n"
    "                   SLO breach (rule syntax: docs/MONITORING.md)\n"
    "  ecomp serve      [--port PORT] [--workers N] [--max-conns K]\n"
    "                   [--busy-retry-ms MS] [--drain-ms MS]\n"
    "                   [--io-timeout-ms MS] [--precompress] [-b BYTES]\n"
    "                   [--threads N] [--duration-ms MS] DIR\n"
    "                   serve DIR's files over the proxy protocol with a\n"
    "                   worker pool + admission control; K=0 never sheds\n"
    "                   (over K: BUSY <retry-after-ms>; past the load\n"
    "                   watermarks replies degrade to cheaper/no\n"
    "                   compression first — see docs/ROBUSTNESS.md)\n"
    "  ecomp corpus     [-s SCALE] OUTDIR\n"
    "  ecomp profile    COMMAND [args...]   run any command under the\n"
    "                   sampling profiler and print a self-time table\n"
    "parallelism (compress/decompress/download, selective containers):\n"
    "  --threads N      worker threads; 0 = one per hardware thread"
    " (default)\n"
    "observability (any command):\n"
    "  --trace FILE     write a Chrome trace-event JSON (Perfetto-loadable);\n"
    "                   the ECOMP_TRACE env var sets a default path\n"
    "  --metrics FILE   write the metrics registry snapshot as JSON\n"
    "  --events FILE    write a JSONL connection-lifecycle event log;\n"
    "                   the ECOMP_EVENTS env var sets a default path\n"
    "  --events-max-mb N  rotate the event log past N MB (default 64;\n"
    "                   0 = never; old generation kept as FILE.1)\n"
    "profiling (any command; see docs/PROFILING.md):\n"
    "  --profile FILE   sample this run and write collapsed stacks\n"
    "                   (flamegraph.pl / inferno-flamegraph compatible)\n"
    "  --profile-hz N   sampling rate for --profile / profile (default"
    " 997)\n"
    "  --crash-dump FILE install a fatal-signal handler that dumps the\n"
    "                   flight recorder; ECOMP_CRASH_DUMP sets a default\n";

struct ArgParser {
  std::vector<std::string> positional;
  std::string codec = "deflate";
  int level = 9;
  std::size_t block = compress::kDefaultBlockSize;
  double scale = 0.05;
  int rate = 11;
  std::string trace_path;    // --trace / ECOMP_TRACE
  std::string metrics_path;  // --metrics
  std::string events_path;   // --events / ECOMP_EVENTS
  std::string out_path;      // stats: --out snapshot destination
  std::string rules_path;    // monitor: --rules watchdog rule file
  int events_max_mb = 64;    // --events-max-mb rotation cap (0 = off)
  std::string profile_path;  // --profile folded-stack destination
  int profile_hz = 997;      // --profile-hz sampling rate
  std::string crash_dump_path;  // --crash-dump / ECOMP_CRASH_DUMP
  bool breakdown = false;    // energy: per-component ledger table
  bool json = false;         // energy/stats: machine-readable output
  bool prom = false;         // stats: Prometheus exposition
  bool watch = false;        // stats: repeat until --count is reached
  int interval_ms = 1000;    // stats: --watch polling period
  int count = 0;             // stats: snapshots under --watch (0 = forever)
  std::string mode = "selective";  // download: -m wire mode
  int port = 0;                    // download: --port
  int max_retries = 4;             // download: --max-retries
  std::uint32_t timeout_ms = 2000; // download: --timeout-ms
  bool resume = false;             // download: --resume
  bool salvage = false;            // download/inspect: --salvage
  int workers = 4;                 // serve: --workers pool size
  int max_conns = 0;               // serve: --max-conns admission cap
  int busy_retry_ms = 50;          // serve: BUSY retry-after hint
  int drain_ms = 5000;             // serve: --drain-ms stop() deadline
  int io_timeout_ms = 0;           // serve: per-conn socket deadline
  bool precompress = false;        // serve: build containers at startup
  int duration_ms = 0;             // serve: exit after MS (0 = forever)
  double loss = 0.0;               // plan/energy: --loss packet-loss rate
  int threads = 0;                 // --threads; 0 = auto (hw concurrency)

  /// The worker-thread count the commands actually use.
  unsigned resolved_threads() const {
    return threads <= 0 ? par::default_threads()
                        : static_cast<unsigned>(threads);
  }

  /// Returns empty string on success, or an error message.
  std::string parse(const std::vector<std::string>& args, std::size_t from) {
    for (std::size_t i = from; i < args.size(); ++i) {
      const std::string& a = args[i];
      auto value = [&](const char* flag) -> std::string {
        if (++i >= args.size())
          throw Error(std::string("missing value for ") + flag);
        return args[i];
      };
      try {
        if (a == "-c") {
          codec = value("-c");
        } else if (a == "-l") {
          level = std::stoi(value("-l"));
        } else if (a == "-b") {
          block = static_cast<std::size_t>(std::stoull(value("-b")));
        } else if (a == "-s") {
          scale = std::stod(value("-s"));
        } else if (a == "-r") {
          rate = std::stoi(value("-r"));
        } else if (a == "--trace") {
          trace_path = value("--trace");
        } else if (a == "--metrics") {
          metrics_path = value("--metrics");
        } else if (a == "--events") {
          events_path = value("--events");
        } else if (a == "--events-max-mb") {
          events_max_mb = std::stoi(value("--events-max-mb"));
        } else if (a == "--rules") {
          rules_path = value("--rules");
        } else if (a == "--out") {
          out_path = value("--out");
        } else if (a == "--profile") {
          profile_path = value("--profile");
        } else if (a == "--profile-hz") {
          profile_hz = std::stoi(value("--profile-hz"));
        } else if (a == "--crash-dump") {
          crash_dump_path = value("--crash-dump");
        } else if (a == "--breakdown") {
          breakdown = true;
        } else if (a == "--json") {
          json = true;
        } else if (a == "--prom") {
          prom = true;
        } else if (a == "--watch") {
          watch = true;
        } else if (a == "--interval-ms") {
          interval_ms = std::stoi(value("--interval-ms"));
        } else if (a == "--count") {
          count = std::stoi(value("--count"));
        } else if (a == "-m") {
          mode = value("-m");
        } else if (a == "--port") {
          port = std::stoi(value("--port"));
        } else if (a == "--max-retries") {
          max_retries = std::stoi(value("--max-retries"));
        } else if (a == "--timeout-ms") {
          timeout_ms =
              static_cast<std::uint32_t>(std::stoul(value("--timeout-ms")));
        } else if (a == "--workers") {
          workers = std::stoi(value("--workers"));
        } else if (a == "--max-conns") {
          max_conns = std::stoi(value("--max-conns"));
        } else if (a == "--busy-retry-ms") {
          busy_retry_ms = std::stoi(value("--busy-retry-ms"));
        } else if (a == "--drain-ms") {
          drain_ms = std::stoi(value("--drain-ms"));
        } else if (a == "--io-timeout-ms") {
          io_timeout_ms = std::stoi(value("--io-timeout-ms"));
        } else if (a == "--precompress") {
          precompress = true;
        } else if (a == "--duration-ms") {
          duration_ms = std::stoi(value("--duration-ms"));
        } else if (a == "--resume") {
          resume = true;
        } else if (a == "--salvage") {
          salvage = true;
        } else if (a == "--loss") {
          loss = std::stod(value("--loss"));
        } else if (a == "--threads") {
          threads = std::stoi(value("--threads"));
        } else if (!a.empty() && a[0] == '-') {
          return "unknown flag: " + a;
        } else {
          positional.push_back(a);
        }
      } catch (const std::exception& e) {
        return std::string("bad argument: ") + e.what();
      }
    }
    if (trace_path.empty())
      if (const char* env = std::getenv("ECOMP_TRACE")) trace_path = env;
    if (events_path.empty())
      if (const char* env = std::getenv("ECOMP_EVENTS")) events_path = env;
    if (crash_dump_path.empty())
      if (const char* env = std::getenv("ECOMP_CRASH_DUMP"))
        crash_dump_path = env;
    return "";
  }
};

std::uint16_t sniff_magic(ByteSpan data) {
  if (data.size() < 2) throw Error("input too short to identify");
  return static_cast<std::uint16_t>(data[0] | (data[1] << 8));
}

core::EnergyModel model_for_rate(int rate) {
  if (rate == 11) return core::EnergyModel::paper_11mbps();
  if (rate == 2)
    return core::EnergyModel::from_device(sim::DeviceModel::ipaq_2mbps());
  throw Error("rate must be 11 or 2 (Mb/s)");
}

int cmd_compress(const ArgParser& p, std::ostream& out) {
  if (p.positional.size() != 2) throw Error("compress needs IN and OUT");
  const Bytes input = [&] {
    ECOMP_TRACE_SPAN("read_input", "cli");
    return read_file(p.positional[0]);
  }();
  ECOMP_COUNT_N("cli.bytes_in", input.size());
  ECOMP_TRACE_SPAN("compress", "cli");
  Bytes packed;
  if (p.codec == "gz") {
    packed = compress::gzip_compress(input, p.level);
  } else if (p.codec == "Z") {
    packed = compress::z_compress(input);
  } else if (p.codec == "bz2") {
    packed = compress::bz2_compress(input, p.level);
  } else if (p.codec == "zz") {
    packed = compress::zlib_compress(input, p.level);
  } else if (p.codec == "selective") {
    const auto model = core::EnergyModel::paper_11mbps();
    const auto res = compress::selective_compress(
        input, core::make_selective_policy(model), p.block, p.level,
        p.resolved_threads());
    packed = res.container;
    std::size_t raw = 0;
    for (const auto& b : res.blocks)
      if (!b.compressed) ++raw;
    out << "selective: " << res.blocks.size() << " blocks, " << raw
        << " shipped raw\n";
  } else {
    packed = compress::make_codec(p.codec, p.level)->compress(input);
  }
  ECOMP_COUNT_N("cli.bytes_out", packed.size());
  {
    ECOMP_TRACE_SPAN("write_output", "cli");
    write_file(p.positional[1], packed);
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "%zu -> %zu bytes (factor %.3f)\n",
                input.size(), packed.size(),
                packed.empty() ? 1.0
                               : static_cast<double>(input.size()) /
                                     static_cast<double>(packed.size()));
  out << buf;
  return 0;
}

int cmd_decompress(const ArgParser& p, std::ostream& out) {
  if (p.positional.size() != 2) throw Error("decompress needs IN and OUT");
  const Bytes input = read_file(p.positional[0]);
  Bytes decoded;
  if (compress::looks_like_gzip(input)) {
    decoded = compress::gzip_decompress(input);
    write_file(p.positional[1], decoded);
    out << decoded.size() << " bytes restored (gzip member)\n";
    return 0;
  }
  if (compress::looks_like_z(input)) {
    decoded = compress::z_decompress(input);
    write_file(p.positional[1], decoded);
    out << decoded.size() << " bytes restored (compress .Z)\n";
    return 0;
  }
  if (compress::looks_like_bz2(input)) {
    decoded = compress::bz2_decompress(input);
    write_file(p.positional[1], decoded);
    out << decoded.size() << " bytes restored (bzip2 .bz2)\n";
    return 0;
  }
  if (compress::looks_like_zlib(input)) {
    decoded = compress::zlib_decompress(input);
    write_file(p.positional[1], decoded);
    out << decoded.size() << " bytes restored (zlib stream)\n";
    return 0;
  }
  switch (sniff_magic(input)) {
    case compress::kDeflateMagic:
      decoded = compress::DeflateCodec().decompress(input);
      break;
    case compress::kLzwMagic:
      decoded = compress::LzwCodec().decompress(input);
      break;
    case compress::kBwtMagic:
      decoded = compress::BwtCodec().decompress(input);
      break;
    case compress::kSelectiveMagic:
      decoded = compress::selective_decompress(input, p.resolved_threads());
      break;
    default:
      throw Error("unrecognized container magic");
  }
  write_file(p.positional[1], decoded);
  out << decoded.size() << " bytes restored\n";
  return 0;
}

/// Shared report printer for inspect --salvage and download --salvage.
void print_recovery(const compress::RecoveryReport& rep, std::ostream& out) {
  out << "salvage: " << rep.blocks_recovered << "/" << rep.blocks_total
      << " blocks recovered, " << rep.bytes_recovered << " bytes ("
      << rep.bytes_lost << " lost"
      << (rep.framing_truncated ? ", tail truncated" : "")
      << (rep.crc_ok ? ", crc ok" : ", crc FAILED") << ")\n";
}

int cmd_inspect(const ArgParser& p, std::ostream& out) {
  if (p.salvage) {
    // Tolerant path: never throws on damaged content; reports what a
    // best-effort decode can pull out of the container.
    if (p.positional.empty() || p.positional.size() > 2)
      throw Error("inspect --salvage needs IN [OUT]");
    const Bytes input = read_file(p.positional[0]);
    const auto sr = compress::selective_salvage(input);
    print_recovery(sr.report, out);
    if (p.positional.size() == 2) write_file(p.positional[1], sr.data);
    if (sr.report.complete()) return 0;
    return sr.report.bytes_recovered > 0 ? 3 : 2;
  }
  if (p.positional.size() != 1) throw Error("inspect needs IN");
  const Bytes input = read_file(p.positional[0]);
  const std::uint16_t magic = sniff_magic(input);
  const char* kind = magic == compress::kDeflateMagic     ? "deflate"
                     : magic == compress::kLzwMagic       ? "lzw"
                     : magic == compress::kBwtMagic       ? "bwt"
                     : magic == compress::kSelectiveMagic ? "selective"
                                                          : nullptr;
  if (!kind) throw Error("unrecognized container magic");
  const auto header = compress::read_header(input, magic);
  out << "container: " << kind << "\n"
      << "stored bytes: " << input.size() << "\n"
      << "original bytes: " << header.original_size << "\n"
      << "crc32: " << header.crc << "\n";
  if (magic == compress::kSelectiveMagic) {
    const auto infos = compress::selective_block_info(input);
    out << "blocks: " << infos.size() << "\n";
    for (std::size_t i = 0; i < infos.size(); ++i)
      out << "  block " << i << ": raw " << infos[i].raw_size << " stored "
          << infos[i].payload_size
          << (infos[i].compressed ? " (compressed)\n" : " (raw)\n");
    return 0;
  }
  // Raw containers: the header alone can't reveal payload truncation, so
  // verify by decoding (throws -> exit 2 on a damaged payload).
  const Bytes decoded =
      magic == compress::kDeflateMagic
          ? compress::DeflateCodec().decompress(input)
          : magic == compress::kLzwMagic
                ? compress::LzwCodec().decompress(input)
                : compress::BwtCodec().decompress(input);
  out << "payload: verified, " << decoded.size() << " bytes (crc ok)\n";
  return 0;
}

int cmd_plan(const ArgParser& p, std::ostream& out) {
  if (p.positional.size() != 1) throw Error("plan needs IN");
  const Bytes input = read_file(p.positional[0]);
  // Loss shifts Eq. 6: every delivered MB costs 1/(1-q) transmissions,
  // so compression starts paying at smaller factors.
  const auto model = model_for_rate(p.rate).with_loss(p.loss);

  core::FileEstimate est;
  est.size_mb = static_cast<double>(input.size()) / 1e6;
  for (const auto& name : compress::codec_names()) {
    const auto codec = compress::make_codec(name);
    est.factors.emplace_back(name, core::estimate_factor(*codec, input));
  }
  const core::Plan plan = core::TransferPlanner(model).plan(est);

  out << "file: " << p.positional[0] << " (" << input.size() << " bytes)\n";
  if (p.loss > 0.0) {
    char lbuf[96];
    std::snprintf(lbuf, sizeof lbuf,
                  "channel: %.1f%% loss -> %.2f transmissions/packet\n",
                  100.0 * p.loss, 1.0 / (1.0 - p.loss));
    out << lbuf;
  }
  out << "sampled factors:";
  for (const auto& [name, f] : est.factors) {
    char buf[48];
    std::snprintf(buf, sizeof buf, " %s=%.2f", name.c_str(), f);
    out << buf;
  }
  out << "\n";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "advice: %s / %s  (predicted %.3f J vs raw %.3f J, saves "
                "%.1f%%)\n",
                plan.chosen.codec.empty() ? "no compression"
                                          : plan.chosen.codec.c_str(),
                core::to_string(plan.chosen.strategy),
                plan.chosen.predicted_energy_j, plan.baseline_energy_j,
                100.0 * plan.saving_fraction);
  out << buf;
  return 0;
}

int cmd_energy(const ArgParser& p, std::ostream& out) {
  if (p.positional.size() != 1) throw Error("energy needs IN");
  const Bytes input = read_file(p.positional[0]);

  sim::DeviceModel device = sim::DeviceModel::ipaq_11mbps();
  if (p.rate == 2)
    device = sim::DeviceModel::ipaq_2mbps();
  else if (p.rate != 11)
    throw Error("rate must be 11 or 2 (Mb/s)");
  const sim::TransferSimulator simulator(device);

  // Selective containers replay the exact blocks on disk; anything else
  // is simulated from a sampled compression-factor estimate.
  sim::TransferResult result;
  std::string scenario;
  double original_mb = static_cast<double>(input.size()) / 1e6;
  std::vector<sim::BlockTransfer> blocks;
  if (input.size() >= 2 &&
      sniff_magic(input) == compress::kSelectiveMagic) {
    const auto infos = compress::selective_block_info(input);
    double raw_bytes = 0.0;
    for (const auto& b : infos) raw_bytes += static_cast<double>(b.raw_size);
    original_mb = raw_bytes / 1e6;
    blocks = core::to_block_transfers(infos);
    sim::TransferOptions opt;
    opt.interleave = true;
    result = core::simulate_decoded_stream(infos, simulator, p.codec, opt);
    scenario = "selective-replay(" + std::to_string(infos.size()) + " blocks)";
  } else {
    const auto codec = compress::make_codec(p.codec);
    const double factor =
        std::max(core::estimate_factor(*codec, input), 1e-9);
    blocks.push_back({original_mb, original_mb / factor, true});
    sim::TransferOptions opt;
    opt.interleave = true;
    result = simulator.download_compressed(original_mb, original_mb / factor,
                                           p.codec, opt);
    scenario = "interleaved(" + p.codec + ")";
  }
  sim::TransferResult raw = simulator.download_uncompressed(original_mb);

  if (p.loss > 0.0) {
    // Re-run both sides on the packet-level simulator over a bursty
    // channel at the requested average loss, so the comparison includes
    // the radio/retransmit energy neither closed form sees.
    const sim::PacketLevelSimulator psim(device);
    sim::PacketSimOptions popt;
    popt.interleave = true;
    popt.channel = sim::ChannelModel::gilbert_elliott_avg(p.loss);
    result = psim.download(blocks, p.codec, popt);
    sim::PacketSimOptions raw_opt;
    raw_opt.channel = popt.channel;
    // The uncompressed block never decodes, but the codec name must be
    // one the CpuModel knows.
    raw = psim.download({{original_mb, original_mb, false}}, p.codec,
                        raw_opt);
    char lbuf[64];
    std::snprintf(lbuf, sizeof lbuf, "+loss(%.3f)", p.loss);
    scenario += lbuf;
  }

  const auto ledger = sim::EnergyLedger::from_timeline(result.timeline);
  const std::string violation = ledger.validate(result.timeline);
  if (!violation.empty())
    throw Error("energy ledger invariant violated: " + violation);

  if (p.json) {
    // Emitted through the shared JsonWriter — the same serializer the
    // STATS surface uses, so quoting/number formats cannot diverge.
    obs::JsonWriter w;
    w.begin_object();
    w.key("scenario").value(scenario);
    w.key("rate_mbps").value(p.rate);
    w.key("codec").value(p.codec);
    w.key("original_mb").value(original_mb);
    w.key("raw_energy_j").value(raw.energy_j);
    w.key("ledger").raw(ledger.to_json());
    w.end_object();
    out << w.str() << "\n";
    return 0;
  }

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "scenario: %s at %d Mb/s\n"
                "energy: %.4f J over %.3f s (raw download: %.4f J, "
                "saves %.1f%%)\n",
                scenario.c_str(), p.rate, ledger.total_energy_j(),
                ledger.total_time_s(), raw.energy_j,
                raw.energy_j > 0.0
                    ? 100.0 * (1.0 - ledger.total_energy_j() / raw.energy_j)
                    : 0.0);
  out << buf;
  if (p.breakdown) out << ledger.to_text();
  return 0;
}

/// The --port of the running proxy a client command talks to; `cmd`
/// names the command in the error.
std::uint16_t proxy_port(const ArgParser& p, const std::string& cmd) {
  if (p.port <= 0 || p.port > 0xffff)
    throw Error(cmd + " needs --port of a running proxy");
  return static_cast<std::uint16_t>(p.port);
}

/// The one STATS poll loop behind `stats`, `top` and `monitor`: fetch
/// `format` from the proxy, hand it to `on_poll` with the poll's index,
/// and repeat every --interval-ms until --count polls are done (0 =
/// until `on_poll` returns false). `once` polls a single time whatever
/// --count says. Returns the number of polls made.
int poll_stats(const ArgParser& p, std::uint16_t port, bool once,
               const std::string& format,
               const std::function<bool(int, const std::string&)>& on_poll) {
  if (p.count < 0) throw Error("--count must be >= 0");
  const int count = once ? 1 : p.count;
  int polls = 0;
  while (count == 0 || polls < count) {
    if (polls > 0)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(p.interval_ms, 1)));
    const bool more = on_poll(polls, net::fetch_stats(port, format));
    ++polls;
    if (!more) break;
  }
  return polls;
}

int cmd_download(const ArgParser& p, std::ostream& out) {
  if (p.positional.size() != 2) throw Error("download needs NAME and OUT");
  const std::uint16_t port = proxy_port(p, "download");
  net::TransferPolicy tp;
  tp.max_retries = p.max_retries;
  tp.timeout_ms = p.timeout_ms;
  tp.resume = p.resume;
  tp.salvage = p.salvage;
  tp.threads = p.resolved_threads();
  const auto outcome =
      net::download_resilient(port, p.positional[0], p.mode, tp);
  write_file(p.positional[1], outcome.data);
  out << p.positional[0] << ": " << outcome.stats.bytes_on_wire
      << " wire bytes -> " << outcome.data.size() << " bytes in "
      << outcome.attempts << " attempt"
      << (outcome.attempts == 1 ? "" : "s");
  if (outcome.resumed_bytes)
    out << " (resumed " << outcome.resumed_bytes << " bytes)";
  out << "\n";
  if (outcome.stats.trace_id) {
    obs::TraceContext ctx;
    ctx.trace_id = outcome.stats.trace_id;
    out << "trace: " << ctx.hex()
        << (outcome.stats.trace_echoed ? "" : " (not echoed by proxy)")
        << "\n";
  }
  if (!outcome.complete) {
    print_recovery(outcome.recovery, out);
    return 3;  // partial data on disk — distinct from clean (0)/error (2)
  }
  return 0;
}

/// Pull every monotonically-growing count out of a STATS json payload:
/// the named top-level totals plus the whole registry counters object.
std::map<std::string, double> stats_counters(const obs::JsonValue& root) {
  std::map<std::string, double> cur;
  for (const char* key :
       {"connections_total", "requests_total", "errors_total",
        "faults_injected", "bytes_sent", "bytes_recv"})
    cur[key] = root.number_or(key, 0.0);
  if (const obs::JsonValue* c = root.find("counters"); c && c->is_object())
    for (const auto& [name, v] : c->object)
      if (v.is_number()) cur[name] = v.number;
  return cur;
}

int cmd_stats(const ArgParser& p, std::ostream& out) {
  if (!p.positional.empty()) throw Error("stats takes no positional args");
  const std::uint16_t port = proxy_port(p, "stats");
  if (p.json && p.prom) throw Error("stats: pick one of --json / --prom");
  const std::string format = p.prom ? "prom" : p.json ? "json" : "text";
  // One snapshot by default; --watch repeats every --interval-ms until
  // --count snapshots have been printed (0 = until interrupted).
  // Watching raw totals repeats everything since proxy start and buries
  // the live signal, so text --watch reports what changed each interval
  // (counter deltas and per-second rates). The machine formats stay
  // verbatim snapshots so scrapers keep working under --watch.
  const bool deltas = p.watch && format == "text";
  std::string last;
  std::map<std::string, double> prev;
  double prev_uptime = 0.0;
  char buf[192];
  poll_stats(p, port, !p.watch, deltas ? "json" : format,
             [&](int i, const std::string& payload) {
    last = payload;
    if (!deltas) {
      out << last;
      if (last.empty() || last.back() != '\n') out << "\n";
      out.flush();  // --watch output is commonly piped; keep it live
      return true;
    }
    const obs::JsonValue root = obs::parse_json(last);
    const double uptime = root.number_or("uptime_s", 0.0);
    std::map<std::string, double> cur = stats_counters(root);
    if (i == 0) {
      std::snprintf(buf, sizeof buf,
                    "t=%.1fs baseline: %zu counters (deltas follow)\n",
                    uptime, cur.size());
      out << buf;
    } else {
      const double dt = std::max(uptime - prev_uptime, 1e-9);
      bool any = false;
      for (const auto& [name, v] : cur) {
        const auto it = prev.find(name);
        const double d = v - (it == prev.end() ? 0.0 : it->second);
        if (d == 0.0) continue;
        any = true;
        std::snprintf(buf, sizeof buf, "t=%.1fs %s %+g (%.1f/s)\n", uptime,
                      name.c_str(), d, d / dt);
        out << buf;
      }
      if (!any) {
        std::snprintf(buf, sizeof buf, "t=%.1fs (idle)\n", uptime);
        out << buf;
      }
    }
    prev = std::move(cur);
    prev_uptime = uptime;
    out.flush();
    return true;
  });
  if (!p.out_path.empty()) write_file(p.out_path, as_bytes(last));
  return 0;
}

/// Scale `vals` into the eight Unicode block heights. A flat series
/// renders as all-minimum rather than dividing by zero.
std::string sparkline(const std::vector<double>& vals) {
  static constexpr const char* kBlocks[8] = {"▁", "▂", "▃",
                                             "▄", "▅", "▆",
                                             "▇", "█"};
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (double v : vals) {
    if (!std::isfinite(v)) continue;
    lo = first ? v : std::min(lo, v);
    hi = first ? v : std::max(hi, v);
    first = false;
  }
  std::string s;
  for (double v : vals) {
    int idx = 0;
    if (std::isfinite(v) && hi > lo)
      idx = static_cast<int>((v - lo) / (hi - lo) * 7.999);
    s += kBlocks[std::clamp(idx, 0, 7)];
  }
  return s;
}

int cmd_top(const ArgParser& p, std::ostream& out) {
  if (!p.positional.empty()) throw Error("top takes no positional args");
  const std::uint16_t port = proxy_port(p, "top");
  char buf[224];
  poll_stats(p, port, false, "json", [&](int frame, const std::string& json) {
    // Clear + home; the first frame scrolls normally.
    if (frame > 0) out << "\x1b[2J\x1b[H";
    const obs::JsonValue stats = obs::parse_json(json);
    const obs::JsonValue series =
        obs::parse_json(net::fetch_stats(port, "series"));
    std::string sha = "unknown";
    if (const obs::JsonValue* prov = stats.find("provenance"))
      if (const obs::JsonValue* s = prov->find("git_sha"); s && s->is_string())
        sha = s->string;
    std::snprintf(buf, sizeof buf,
                  "ecomp top — :%u  build %s  up %.1fs  conns %g  reqs %g"
                  "  errs %g\n",
                  port, sha.c_str(), stats.number_or("uptime_s", 0.0),
                  stats.number_or("connections_active", 0.0),
                  stats.number_or("requests_total", 0.0),
                  stats.number_or("errors_total", 0.0));
    out << buf;
    const obs::JsonValue* map = series.find("series");
    if (!map || !map->is_object() || map->object.empty()) {
      out << "(no series — proxy built or started without monitoring)\n";
    } else {
      for (const auto& [name, s] : map->object) {
        std::vector<double> vals;
        // Tier 0 = raw sampler cadence; newest samples come last.
        if (const obs::JsonValue* tiers = s.find("tiers");
            tiers && tiers->is_array() && !tiers->array.empty()) {
          const obs::JsonValue* samp = tiers->array[0].find("samples");
          if (samp && samp->is_array())
            for (const obs::JsonValue& pair : samp->array)
              if (pair.is_array() && pair.array.size() == 2)
                vals.push_back(pair.array[1].number);
        }
        if (vals.size() > 48)
          vals.erase(vals.begin(),
                     vals.end() - static_cast<std::ptrdiff_t>(48));
        std::snprintf(buf, sizeof buf, "%-34s %12.4g  ", name.c_str(),
                      s.number_or("last", 0.0));
        out << buf << sparkline(vals) << "\n";
      }
    }
    const obs::JsonValue* mon = stats.find("monitor");
    const obs::JsonValue* alerts = mon ? mon->find("alerts") : nullptr;
    if (alerts && alerts->is_array() && !alerts->array.empty()) {
      out << "ALERTS (" << alerts->array.size() << " recent, "
          << (mon ? mon->number_or("alerts_total", 0.0) : 0.0)
          << " total)\n";
      for (const obs::JsonValue& a : alerts->array) {
        const obs::JsonValue* rule = a.find("rule");
        const obs::JsonValue* detail = a.find("detail");
        out << "  ! " << (rule && rule->is_string() ? rule->string : "?")
            << "  " << (detail && detail->is_string() ? detail->string : "")
            << "\n";
      }
    } else {
      out << "no alerts\n";
    }
    out.flush();
    return true;
  });
  return 0;
}

#if defined(ECOMP_OBS_ENABLED)

int cmd_monitor(const ArgParser& p, std::ostream& out) {
  if (!p.positional.empty()) throw Error("monitor takes no positional args");
  const std::uint16_t port = proxy_port(p, "monitor");
  if (p.rules_path.empty()) throw Error("monitor needs --rules FILE");
  // Symbolic thresholds resolve against the paper's energy model here,
  // where the model lives: "eq6" is the raw-download J/MB line for the
  // selected -r rate, "eq6@L" shifts it for expected loss L (--loss is
  // the default), "eq6*M" adds headroom margin M. Both suffixes compose
  // as eq6@0.05*1.15.
  const obs::ThresholdResolver resolve = [&](const std::string& tok) {
    if (tok.rfind("eq6", 0) != 0)
      throw Error("monitor: unknown threshold token: " + tok);
    double loss = p.loss, margin = 1.0;
    std::string rest = tok.substr(3);
    std::size_t end = 0;
    if (!rest.empty() && rest[0] == '@') {
      loss = std::stod(rest.substr(1), &end);
      rest = rest.substr(1 + end);
    }
    if (!rest.empty() && rest[0] == '*') {
      margin = std::stod(rest.substr(1), &end);
      rest = rest.substr(1 + end);
    }
    if (!rest.empty()) throw Error("monitor: bad threshold token: " + tok);
    return model_for_rate(p.rate).with_loss(loss).raw_j_per_mb(1.0) * margin;
  };
  const Bytes rules_text = read_file(p.rules_path);
  obs::Watchdog dog;
  for (obs::Rule& r : obs::parse_rules(
           std::string(rules_text.begin(), rules_text.end()), resolve))
    dog.add_rule(std::move(r));
  if (dog.rules().empty()) throw Error("monitor: no rules in " + p.rules_path);

  // Client-side mirror of the in-proxy sampler: each poll folds the
  // STATS payload into a local SeriesStore (counters become .rate
  // series, histograms expose .p50/.p99/.rate, monitor gauges pass
  // through verbatim) and the watchdog evaluates the new samples.
  obs::SeriesStore store;
  std::map<std::string, double> prev;
  double prev_uptime = -1.0;
  std::uint64_t fired_total = 0;
  char buf[192];
  std::vector<obs::Alert> fired;
  const int polls = poll_stats(p, port, false, "json",
                               [&](int, const std::string& json) {
    const obs::JsonValue root = obs::parse_json(json);
    // Series time is the *server's* clock so rule windows survive slow
    // polls; a restarted proxy would run time backwards, so clamp.
    double t = root.number_or("uptime_s", 0.0);
    if (t < prev_uptime) t = prev_uptime;
    const std::map<std::string, double> cur = stats_counters(root);
    if (prev_uptime >= 0.0) {
      const double dt = std::max(t - prev_uptime, 1e-9);
      for (const auto& [name, v] : cur) {
        const auto it = prev.find(name);
        const double base = it == prev.end() ? 0.0 : it->second;
        store.append(name + ".rate", t, v >= base ? (v - base) / dt : 0.0);
      }
    }
    if (const obs::JsonValue* h = root.find("histograms");
        h && h->is_object())
      for (const auto& [name, hv] : h->object) {
        store.append(name + ".p50", t, hv.number_or("p50", 0.0));
        store.append(name + ".p99", t, hv.number_or("p99", 0.0));
        store.append(name + ".rate", t, hv.number_or("rate_per_s", 0.0));
      }
    if (const obs::JsonValue* mon = root.find("monitor"))
      if (const obs::JsonValue* g = mon->find("gauges"); g && g->is_object())
        for (const auto& [name, v] : g->object)
          if (v.is_number()) store.append(name, t, v.number);
    store.append("connections_active", t,
                 root.number_or("connections_active", 0.0));
    prev = cur;
    prev_uptime = t;

    fired.clear();
    dog.evaluate(store, &fired);
    for (const obs::Alert& a : fired) {
      std::snprintf(buf, sizeof buf, "alert %s %s\n", a.rule.c_str(),
                    a.detail.c_str());
      out << buf;
    }
    fired_total += fired.size();
    out.flush();
    // With no --count the monitor is a tripwire: run until something
    // breaks, then let the exit code wake the wrapper script.
    return p.count != 0 || fired_total == 0;
  });
  std::snprintf(buf, sizeof buf, "monitor: %llu alert(s) in %d poll(s)\n",
                static_cast<unsigned long long>(fired_total), polls);
  out << buf;
  return fired_total > 0 ? 4 : 0;
}

#else  // !ECOMP_OBS_ENABLED

int cmd_monitor(const ArgParser&, std::ostream&) {
  // The watchdog/series machinery is compiled out (the OFF-build link
  // gate forbids its symbols), so this is a hard error, not a warning.
  throw Error("monitor requires an ECOMP_OBS=ON build");
}

#endif

int cmd_serve(const ArgParser& p, std::ostream& out) {
  if (p.positional.size() != 1) throw Error("serve needs DIR");
  if (p.port < 0 || p.port > 0xffff) throw Error("serve: bad --port");
  if (p.workers <= 0) throw Error("serve: --workers must be >= 1");
  if (p.max_conns < 0) throw Error("serve: --max-conns must be >= 0");

  net::FileStore store;
  std::size_t n_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(p.positional[0])) {
    if (!entry.is_regular_file()) continue;
    store.put(entry.path().filename().string(),
              read_file(entry.path().string()));
    ++n_files;
  }
  if (n_files == 0) throw Error("serve: no regular files in " +
                                p.positional[0]);

  net::ProxyOptions opt;
  opt.port = static_cast<std::uint16_t>(p.port);
  opt.block_size = p.block;
  opt.precompress = p.precompress;
  opt.threads = p.resolved_threads();
  opt.workers = static_cast<unsigned>(p.workers);
  opt.max_conns = static_cast<std::size_t>(p.max_conns);
  opt.busy_retry_ms = static_cast<std::uint32_t>(std::max(p.busy_retry_ms, 0));
  opt.drain_deadline_ms = static_cast<std::uint32_t>(std::max(p.drain_ms, 0));
  opt.io_timeout_ms = static_cast<std::uint32_t>(std::max(p.io_timeout_ms, 0));
  net::ProxyServer server(std::move(store), compress::SelectivePolicy::always(),
                          opt);

  out << "serving " << n_files << " files on port " << server.port() << " ("
      << p.workers << " workers, ";
  if (p.max_conns)
    out << "max " << p.max_conns << " conns";
  else
    out << "unbounded admission";
  out << (p.precompress ? ", precompressed" : "") << ")\n";
  out.flush();

  // Foreground serve loop: --duration-ms bounds it (tests/benches); 0
  // runs until the process is interrupted.
  const auto t0 = std::chrono::steady_clock::now();
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (p.duration_ms > 0 &&
        std::chrono::steady_clock::now() - t0 >=
            std::chrono::milliseconds(p.duration_ms))
      break;
  }
  server.stop();
  const obs::StatsSnapshot s = server.stats();
  out << "served " << s.requests_total << " requests ("
      << s.errors_total << " errors";
  if (s.admission.present)
    out << ", " << s.admission.busy_total << " shed, "
        << s.admission.degraded_level_total + s.admission.degraded_raw_total
        << " degraded";
  out << ")\n";
  return 0;
}

int cmd_corpus(const ArgParser& p, std::ostream& out) {
  if (p.positional.size() != 1) throw Error("corpus needs OUTDIR");
  const std::filesystem::path dir(p.positional[0]);
  std::filesystem::create_directories(dir);
  for (const auto& entry : workload::table2()) {
    const Bytes data = workload::generate(entry, p.scale);
    write_file((dir / entry.name).string(), data);
    out << entry.name << ": " << data.size() << " bytes\n";
  }
  return 0;
}

}  // namespace

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open for reading: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  return Bytes(s.begin(), s.end());
}

void write_file(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw Error("short write: " + path);
}

namespace {

/// Write the trace/metrics files requested via --trace/--metrics (or
/// ECOMP_TRACE). Returns false (with a message on `err`) if a write
/// fails; telemetry is flushed even when the command itself failed, so
/// a crash-adjacent run still leaves its counters behind.
bool flush_obs_outputs(const ArgParser& p, std::ostream& err) {
  bool ok = true;
  if (!p.trace_path.empty()) {
    try {
      const std::string json = obs::Tracer::global().to_chrome_json();
      write_file(p.trace_path, as_bytes(json));
    } catch (const std::exception& e) {
      err << "error: writing trace: " << e.what() << "\n";
      ok = false;
    }
  }
  if (!p.metrics_path.empty()) {
    try {
#if defined(ECOMP_OBS_ENABLED)
      if (const std::int64_t kb = prof::rss_peak_kb(); kb >= 0)
        obs::Registry::global().gauge("prof.rss_peak_kb").set(kb);
#endif
      const std::string json = obs::Registry::global().to_json();
      write_file(p.metrics_path, as_bytes(json));
    } catch (const std::exception& e) {
      err << "error: writing metrics: " << e.what() << "\n";
      ok = false;
    }
  }
  return ok;
}

/// Reject an unwritable --trace/--metrics destination before any work
/// runs (exit 2), instead of doing the whole command and then losing
/// the telemetry at flush time. Returns an error message, or "" if the
/// path is writable. The probe opens in append mode so an existing
/// file's contents are untouched.
std::string probe_writable(const std::string& path) {
  std::ofstream probe(path, std::ios::binary | std::ios::app);
  if (!probe) return "cannot open for writing: " + path;
  return "";
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return 1;
  }
  // `ecomp profile CMD ...` is CMD run under the profiler with the
  // self-time table printed afterwards; flags parse identically.
  std::vector<std::string> cmd_args = args;
  bool profile_wrapper = false;
  if (cmd_args[0] == "profile") {
    if (cmd_args.size() < 2) {
      err << "profile needs a command to run\n" << kUsage;
      return 1;
    }
    profile_wrapper = true;
    cmd_args.erase(cmd_args.begin());
  }
  ArgParser p;
  const std::string msg = p.parse(cmd_args, 1);
  if (!msg.empty()) {
    err << msg << "\n" << kUsage;
    return 1;
  }
  for (const std::string* path :
       {&p.trace_path, &p.metrics_path, &p.events_path, &p.out_path,
        &p.profile_path, &p.crash_dump_path}) {
    if (path->empty()) continue;
    const std::string werr = probe_writable(*path);
    if (!werr.empty()) {
      err << "error: " << werr << "\n";
      return 2;
    }
  }
  if (!p.trace_path.empty()) obs::Tracer::global().enable();
  if (!p.events_path.empty()) {
    try {
      obs::EventLog::global().open(p.events_path);
      obs::EventLog::global().set_max_bytes(
          p.events_max_mb <= 0
              ? 0
              : static_cast<std::uint64_t>(p.events_max_mb) << 20);
    } catch (const std::exception& e) {
      err << "error: " << e.what() << "\n";
      return 2;
    }
  }
  const bool want_profile = profile_wrapper || !p.profile_path.empty();
#if defined(ECOMP_OBS_ENABLED)
  if (!p.crash_dump_path.empty())
    prof::install_crash_handler(p.crash_dump_path);
  if (want_profile) {
    prof::attach_flight_mirror();
    prof::ProfilerOptions popt;
    popt.hz = std::max(p.profile_hz, 1);
    if (!prof::Profiler::global().start(popt)) {
      err << "error: profiler already running\n";
      return 2;
    }
  }
#else
  if (want_profile)
    err << "warning: profiling is a no-op in this build (ECOMP_OBS=OFF)\n";
  if (!p.crash_dump_path.empty())
    err << "warning: crash dumps are a no-op in this build"
           " (ECOMP_OBS=OFF)\n";
#endif

  int code;
  try {
    const std::string& cmd = cmd_args[0];
    ECOMP_TRACE_SPAN("ecomp", "cli");
    if (cmd == "compress") {
      code = cmd_compress(p, out);
    } else if (cmd == "decompress") {
      code = cmd_decompress(p, out);
    } else if (cmd == "inspect") {
      code = cmd_inspect(p, out);
    } else if (cmd == "plan") {
      code = cmd_plan(p, out);
    } else if (cmd == "energy") {
      code = cmd_energy(p, out);
    } else if (cmd == "download") {
      code = cmd_download(p, out);
    } else if (cmd == "stats") {
      code = cmd_stats(p, out);
    } else if (cmd == "top") {
      code = cmd_top(p, out);
    } else if (cmd == "monitor") {
      code = cmd_monitor(p, out);
    } else if (cmd == "serve") {
      code = cmd_serve(p, out);
    } else if (cmd == "corpus") {
      code = cmd_corpus(p, out);
    } else {
      err << "unknown command: " << cmd << "\n" << kUsage;
      return 1;
    }
  } catch (const Error& e) {
#if defined(ECOMP_OBS_ENABLED)
    if (prof::crash_handler_installed()) prof::fatal_dump(e.what());
#endif
    err << "error: " << e.what() << "\n";
    code = 2;
  } catch (const std::exception& e) {
    // Corrupt input can surface as std::bad_alloc / length_error from a
    // lying size field before a codec's own validation catches it; that
    // is still "corrupt input", not a crash.
#if defined(ECOMP_OBS_ENABLED)
    if (prof::crash_handler_installed()) prof::fatal_dump(e.what());
#endif
    err << "error: corrupt or unreadable input (" << e.what() << ")\n";
    code = 2;
  }
#if defined(ECOMP_OBS_ENABLED)
  if (want_profile && prof::Profiler::global().running()) {
    const prof::ProfileReport report = prof::Profiler::global().stop();
    if (!p.profile_path.empty()) {
      try {
        prof::write_folded(p.profile_path, report);
      } catch (const std::exception& e) {
        err << "error: writing profile: " << e.what() << "\n";
        if (code == 0) code = 2;
      }
    }
    if (profile_wrapper) out << report.to_table();
  }
#endif
  if (!flush_obs_outputs(p, err) && code == 0) code = 2;
  // The event log is per-invocation: close it so repeated cli::run calls
  // in one process (tests) don't bleed events across runs.
  if (!p.events_path.empty()) obs::EventLog::global().close();
  return code;
}

}  // namespace ecomp::cli
