// Figure 1 reproduction: time to download + decompress with the three
// compression schemes, relative to downloading uncompressed. Left/
// middle/right bars = gzip / compress / bzip2; large files sorted by
// decreasing compression factor, small files by increasing size.
#include <cstdio>

#include "common.h"
#include "sim/transfer.h"

using namespace ecomp;
using namespace ecomp::bench;

int main() {
  const auto files = [] {
    auto v = measure_corpus(corpus_scale(), {"deflate", "lzw", "bwt"});
    sort_for_figures(v);
    return v;
  }();
  const sim::TransferSimulator simulator;
  const std::vector<std::pair<std::string, std::string>> schemes = {
      {"gzip", "deflate"}, {"compress", "lzw"}, {"bzip2", "bwt"}};

  std::printf(
      "=== Figure 1: relative time, download + decompress ===\n"
      "each cell: download + decompress = total, relative to downloading "
      "the raw file (1.00)\n\n");
  std::printf("%-24s %7s | %-22s | %-22s | %-22s\n", "file", "gzip F",
              "gzip", "compress", "bzip2");
  print_rule(110);

  bool small_header = false;
  std::map<std::string, double> rel_sum;
  std::map<std::string, sim::Timeline> scheme_timeline;
  int rows = 0;
  for (const auto& f : files) {
    if (!f.entry.large && !small_header) {
      std::printf("%-24s (small files, increasing size)\n", "");
      small_header = true;
    }
    const double s = f.mb();
    const double t_raw = simulator.download_uncompressed(s).time_s;
    std::printf("%-24s %7.2f |", f.entry.name.c_str(),
                f.factor.at("deflate"));
    for (const auto& [label, codec] : schemes) {
      const double sc = f.compressed_mb(codec);
      const auto r = simulator.download_compressed(s, sc, codec,
                                                   sim::TransferOptions{});
      std::printf(" %5.2f + %5.2f = %5.2f |", r.download_time_s / t_raw,
                  r.decompress_time_s / t_raw, r.time_s / t_raw);
      rel_sum[label] += r.time_s / t_raw;
      scheme_timeline[label].extend(r.timeline);
    }
    ++rows;
    std::printf("\n");
  }
  std::printf(
      "\nreading: with high factors every scheme beats raw on time; bzip2's "
      "decompress share dominates its bar, gzip balances best (paper §3.2).\n");

  BenchReport report("fig1_time");
  report.headline("files", rows);
  for (const auto& [label, sum] : rel_sum)
    report.headline("mean_rel_time_" + label, sum / rows);
  // Whole-corpus attributed energy per scheme: where the joules go when
  // every Table 2 file is downloaded with this scheme.
  for (const auto& [label, timeline] : scheme_timeline)
    report.energy(label, timeline);
  report.write();
  return 0;
}
