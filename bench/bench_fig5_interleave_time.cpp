// Figure 5 reproduction: effect of interleaving on time. Bars: gzip
// (one-shot member, sequential decompress) / zlib without interleaving
// (128 KB block container, sequential) / zlib with interleaving (same
// container, block i decoded while block i+1 downloads). Relative to
// downloading raw. Block sizes come from the real container.
//
// The "measured" column runs the actual interleaved download
// (InterleavedDownloader: the calling thread receives from a paced
// chunk source while the decoder inflates arrived blocks on a 2-thread
// pool) against a source that emulates the model's wire rate sped up
// by ECOMP_FIG5_TIMESCALE (default 10), then rescales the wall clock
// back.
// Comparing that against the Eq. 4/5 closed form gives the model error
// Fig. 7 reports — here for the overlap the paper could only infer.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common.h"
#include "compress/deflate.h"
#include "compress/selective.h"
#include "core/interleave.h"
#include "sim/transfer.h"

using namespace ecomp;
using namespace ecomp::bench;

namespace {

double timescale() {
  if (const char* env = std::getenv("ECOMP_FIG5_TIMESCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 10.0;
}

/// Wall time (rescaled to wire seconds) of the interleaved download
/// decoding `container` from a source paced at `rate_mb_s * speedup`.
double measure_pipeline_s(const Bytes& container, double rate_mb_s,
                          double speedup) {
  core::InterleavedDownloader::Options opt;
  opt.chunk_bytes = 16 * 1024;
  opt.threads = 2;
  const core::InterleavedDownloader dl(opt);
  std::size_t off = 0;
  const auto t0 = std::chrono::steady_clock::now();
  dl.run([&](std::uint8_t* dst, std::size_t max) -> std::size_t {
    if (off >= container.size()) return 0;
    const std::size_t n = std::min(max, container.size() - off);
    // The wire time those n bytes would occupy, accelerated.
    std::this_thread::sleep_for(std::chrono::duration<double>(
        static_cast<double>(n) / 1e6 / (rate_mb_s * speedup)));
    std::memcpy(dst, container.data() + off, n);
    off += n;
    return n;
  });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return wall * speedup;
}

}  // namespace

int main() {
  const double scale = corpus_scale();
  const double speedup = timescale();
  const sim::TransferSimulator simulator;
  const compress::DeflateCodec codec(9);

  std::printf(
      "=== Figure 5: effect of interleaving on time (relative to raw "
      "download) ===\n\n");
  std::printf("%-24s %7s | %8s %10s %10s | %9s %7s\n", "file", "gzip F",
              "gzip", "zlib", "zlib+intl", "measured", "err%");
  print_rule(88);

  BenchReport report("fig5_interleave");
  double err_sum = 0.0;
  int err_n = 0;
  bool small_header = false;
  for (const auto& entry : workload::table2()) {
    const Bytes data = workload::generate(entry, scale);
    const double s = static_cast<double>(data.size()) / 1e6;
    if (!entry.large && !small_header) {
      std::printf("%-24s (small files)\n", "");
      small_header = true;
    }

    const double sc =
        static_cast<double>(codec.compress(data).size()) / 1e6;
    const auto blocks_res = compress::selective_compress(
        data, compress::SelectivePolicy::always());
    std::vector<sim::BlockTransfer> blocks;
    for (const auto& b : blocks_res.blocks)
      blocks.push_back({static_cast<double>(b.raw_size) / 1e6,
                        static_cast<double>(b.payload_size) / 1e6,
                        b.compressed});

    const double t_raw = simulator.download_uncompressed(s).time_s;
    sim::TransferOptions seq;
    sim::TransferOptions intl;
    intl.interleave = true;
    const double t_gzip =
        simulator.download_compressed(s, sc, "deflate", seq).time_s;
    const double t_zlib =
        simulator.download_selective(blocks, "deflate", seq).time_s;
    const double t_intl =
        simulator.download_selective(blocks, "deflate", intl).time_s;

    // Pace the pipeline at the model's effective wire rate for the
    // container bytes, so measured and predicted share a network.
    const double container_mb =
        static_cast<double>(blocks_res.container.size()) / 1e6;
    const double t_net =
        simulator.download_uncompressed(container_mb).time_s;
    const double rate_mb_s = container_mb / t_net;
    double t_meas = 0.0;
    double err_pct = 0.0;
    if (entry.large) {  // small files are all latency; skip the pacing
      t_meas = measure_pipeline_s(blocks_res.container, rate_mb_s, speedup);
      err_pct = 100.0 * (t_meas - t_intl) / t_intl;
      err_sum += std::fabs(err_pct);
      ++err_n;
      report.note("measured_" + entry.name,
                  std::to_string(t_meas) + "s vs modeled " +
                      std::to_string(t_intl) + "s");
    }

    if (entry.large) {
      std::printf("%-24s %7.2f | %8.2f %10.2f %10.2f | %9.2f %+6.1f\n",
                  entry.name.c_str(), s / sc, t_gzip / t_raw,
                  t_zlib / t_raw, t_intl / t_raw, t_meas / t_raw, err_pct);
    } else {
      std::printf("%-24s %7.2f | %8.2f %10.2f %10.2f |\n",
                  entry.name.c_str(), s / sc, t_gzip / t_raw,
                  t_zlib / t_raw, t_intl / t_raw);
    }
  }
  const double mean_err = err_n ? err_sum / err_n : 0.0;
  std::printf(
      "\nreading: interleaving hides the decompression time inside the "
      "download's idle gaps — the third column drops toward the pure "
      "download time (paper §4.1). The measured column is the real "
      "interleaved download on an emulated wire (timescale %.0fx); its "
      "mean |model error| vs Eq. 4/5 is %.1f%% (Fig. 7's metric).\n",
      speedup, mean_err);
  report.headline("mean_abs_model_err_pct", mean_err);
  report.headline("files_measured", static_cast<double>(err_n));
  report.write();
  return 0;
}
