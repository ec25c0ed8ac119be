// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one seeded workload against the real library in this process and
// verifies every byte it gets back. The last line of stdout is one JSON
// object {"correct","attempted","failed","metrics"}: with --trace 0 the
// end-to-end metrics of an untraced run; with --trace 1 the per-layer
// metrics, which need an untraced run (counters, overhead baseline) and
// then a traced run of the same ops. Lines before it are for people.
//
// Workloads (BENCHMARK.json says why each exists):
//   warm_get      closed loop, 2 clients, download_resilient raw/full/
//                 selective, precompressed proxy: every full or selective
//                 GET is a cache hit
//   ondemand_get  closed loop, 2 clients, download full/selective, no
//                 cache: every GET runs the level-9 encoder
//   codec_corpus  one thread, every corpus file through deflate, LZW, BWT
//                 and back
//
// Every end-to-end metric is printed on every workload. Where a
// workload's own traffic has no op of a kind, companion ops supply that
// metric: every file PUT (all workloads), every file GET in each mode
// (codec_corpus) and every file through every codec (warm_get,
// ondemand_get). Companion GETs and PUTs go to a second proxy with
// precompress on, so the workload's own proxy counts only its timed
// GETs. Companions never feed goodput, wire_ratio or modeled_j_per_mb,
// which describe the timed ops alone.
//
// A run is kRounds rounds after set-up and an untimed warm-up. Each
// round runs a slice of the timed ops (whole popularity epochs, or
// whole codec cycles, until the round's share of --seconds has gone into
// timed ops) and then one repetition of every companion. A slow stretch
// of the shared host that lasts seconds therefore slows some
// repetitions of each measurement, not all of them.
//
// How timings are summarised:
//   - Latencies are taken per window of consecutive timed ops (1000
//     GETs), so each window's p99 has 10 samples beyond it; failures
//     count as +inf. get_ms_p99 reports the median window's tail,
//     get_ms_p50 the fast-side quartile of the per-window medians, and
//     goodput that of per-window rates (1000 ops, or one codec cycle),
//     so a stretch in which the host took the CPUs away moves only the
//     windows it covers.
//   - Companion ops repeat a fixed set of items (file x mode, file, file
//     x codec) once per round; each item's fastest repetition is kept
//     and the percentiles are taken over the items. Codec times are the
//     calling thread's CPU time.
//
// While GETs and PUTs run, idle CPUs spin at SCHED_IDLE priority (see
// awake.h), so a request never waits for the host to wake a halted
// virtual CPU.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adapter.h"
#include "awake.h"
#include "ops.h"
#include "procstat.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.05;  // the committed baselines' corpus scale
// Rounds per run; every companion item is repeated once per round.
constexpr std::size_t kRounds = 8;
// Windows for the p50s and goodput of the timed ops.
constexpr std::size_t kGetWindow = 1000;
constexpr std::size_t kOpWindow = 1000;  // goodput windows, network loads
// A run holds at least this many timed GETs (network loads): three
// windows.
constexpr std::size_t kMinGets = 3000;
// Which quantile of the per-window values is reported: the fast side
// for medians and rates (see windowed_percentile in stats.h), the median
// window for tails, so that a tail which grows in most windows shows.
constexpr double kFastLatency = 0.25;
constexpr double kFastRate = 0.75;
constexpr double kMedianWindow = 0.5;
// Companion GETs (codec_corpus): repetitions of each file x mode per
// round.
constexpr std::size_t kProbeGetReps = 5;
// Closed-loop cycle lengths, in ops (whole popularity epochs). A run
// prices its first cycle, so a longer cycle averages wire_ratio and
// modeled_j_per_mb over more popularity deals; a run must finish one.
constexpr std::size_t kWarmCycle = 14 * kEpochOps;
constexpr std::size_t kOndemandCycle = 8 * kEpochOps;
constexpr std::size_t kReplayOps = 300;  // encode replays per traced run
constexpr std::size_t kTraceFileSpans = 50000;  // per thread, in the file
constexpr int kCodecBuildBatch = 1000;

struct Args {
  Workload workload = Workload::WarmGet;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One finished op.
struct Done {
  std::int64_t end_ns = 0;
  double ms = kFailed;  // latency; +inf when the op failed
  double raw_ok = 0.0;  // raw bytes delivered and verified
  Client client = Client::Resilient;
  // The item a companion repeats: file x mode (GET), file (PUT) or
  // file x codec (codec round trip).
  std::uint32_t key = 0;
  double enc_s = 0.0, dec_s = 0.0;  // codec round trips: CPU seconds
};

/// Keeps the smallest value seen for each key.
class BestOf {
 public:
  void add(std::uint32_t key, double v) {
    const auto [it, fresh] = best_.try_emplace(key, v);
    if (!fresh) it->second = std::min(it->second, v);
  }
  std::vector<double> values() const {
    std::vector<double> v;
    for (const auto& [key, x] : best_) v.push_back(x);
    return v;
  }

 private:
  std::map<std::uint32_t, double> best_;
};

/// What one client thread (or a phase, once merged) observed.
struct Tally {
  std::vector<Done> done;       // completion order once merged
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;        // returned bytes other than those expected
  // Denominators of the per-layer rates.
  double get_wire = 0, sel_raw = 0, full_raw = 0, crc_bytes = 0, put_raw = 0;
  // Codec round trips, per codec.
  double codec_raw[kCodecCount] = {}, codec_comp[kCodecCount] = {};
  double enc_s[kCodecCount] = {}, dec_s[kCodecCount] = {};
  std::string first_error;

  void merge(const Tally& o) {
    done.insert(done.end(), o.done.begin(), o.done.end());
    std::stable_sort(done.begin(), done.end(),
                     [](const Done& a, const Done& b) {
                       return a.end_ns < b.end_ns;
                     });
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    get_wire += o.get_wire;
    sel_raw += o.sel_raw;
    full_raw += o.full_raw;
    crc_bytes += o.crc_bytes;
    put_raw += o.put_raw;
    for (int c = 0; c < kCodecCount; ++c) {
      codec_raw[c] += o.codec_raw[c];
      codec_comp[c] += o.codec_comp[c];
      enc_s[c] += o.enc_s[c];
      dec_s[c] += o.dec_s[c];
    }
    if (first_error.empty()) first_error = o.first_error;
  }

  static bool is_kind(const Done& d, bool gets) {
    return gets ? d.client == Client::Download || d.client == Client::Resilient
                : d.client == Client::Upload;
  }

  /// Latencies of GETs (or PUTs) in completion order.
  std::vector<double> latencies(bool gets) const {
    std::vector<double> v;
    for (const Done& d : done)
      if (is_kind(d, gets)) v.push_back(d.ms);
    return v;
  }

  /// Each companion item's fastest GET (or PUT) latency.
  std::vector<double> best_latencies(bool gets) const {
    BestOf best;
    for (const Done& d : done)
      if (is_kind(d, gets)) best.add(d.key, d.ms);
    return best.values();
  }

  /// Codec MB/s, encode or decode: corpus MB over the sum, across
  /// file-codec pairs, of each pair's fastest CPU time among its
  /// repetitions (every cycle of a run), which keeps the host's slow
  /// stretches out of the figure.
  double codec_mb_s(bool encode) const {
    BestOf secs;
    std::map<std::uint32_t, double> mb;
    for (const Done& d : done) {
      if (d.client != Client::Codec || d.raw_ok <= 0) continue;
      secs.add(d.key, encode ? d.enc_s : d.dec_s);
      mb[d.key] = d.raw_ok / 1e6;
    }
    double total_mb = 0, total_s = 0;
    for (const auto& [key, v] : mb) total_mb += v;
    for (double v : secs.values()) total_s += v;
    return ratio(total_mb, total_s);
  }
};

/// Wire bytes and modeled joules of one op, for the exact cycle totals.
struct Priced {
  std::uint64_t raw = 0;
  std::uint64_t wire = 0;
  double joules = 0.0;
  bool set = false;
};

/// Everything an op needs to run and be checked.
struct Ctx {
  const std::vector<File>* files = nullptr;
  std::uint16_t port = 0;
  const Codecs* codecs = nullptr;
  bool on_demand = false;   // every GET is compressed for its request
  bool probe_puts = false;  // PUT to "<name>.up" and read it back
};

const char* root_name(Client client) {
  switch (client) {
    case Client::Download: return "op.download";
    case Client::Resilient: return "op.download_resilient";
    case Client::Upload: return "op.upload_resilient";
    case Client::Codec: return "op.codec";
  }
  return "op";
}

double ms_since(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e6;
}

/// The companion item an op repeats: file x mode for a GET, file x codec
/// for a codec round trip, the file for a PUT.
std::uint32_t item_key(const Op& op) {
  std::uint32_t sub = 0;
  if (op.client == Client::Codec)
    sub = static_cast<std::uint32_t>(op.codec);
  else if (op.is_get())
    sub = static_cast<std::uint32_t>(op.mode);
  return op.file * 4 + sub;  // room for three modes or three codecs
}

/// Run `op`; latency counts from `origin_ns`. Returns an error message,
/// empty on success; `d` gets the latency and, for a codec op, its CPU
/// times.
std::string run_op(const Ctx& c, const Op& op, std::int64_t origin_ns,
                   SpanSink* sink, Tally& t, Priced* pr, Done* d) {
  const File& f = (*c.files)[op.file];
  const std::uint64_t raw = f.data.size();
  std::optional<ScopedSpan> root;
  if (op.is_get()) {
    root.emplace(sink, root_name(op.client));
    Transfer tr = get(c.port, f.name, op.mode, op.client, sink);
    root.reset();
    d->ms = ms_since(origin_ns, now_ns());
    if (tr.data != f.data) {
      ++t.wrong;
      return "wrong bytes from GET " + f.name;
    }
    t.get_wire += static_cast<double>(tr.wire);
    if (op.mode == Mode::Selective) t.sel_raw += static_cast<double>(raw);
    if (op.mode == Mode::Full) t.full_raw += static_cast<double>(raw);
    if (op.client == Client::Resilient && op.mode != Mode::Selective)
      t.crc_bytes += static_cast<double>(tr.wire);
    if (pr)
      *pr = {raw, tr.wire,
             price_get(raw, tr.wire, tr.blocks, op.mode, op.client,
                       c.on_demand),
             true};
    return {};
  }
  if (op.client == Client::Upload) {
    const std::string name = c.probe_puts ? f.name + ".up" : f.name;
    const Buf data = versioned(f.data, op.version);
    root.emplace(sink, root_name(op.client));
    const std::uint64_t wire = put(c.port, name, data, sink);
    root.reset();
    d->ms = ms_since(origin_ns, now_ns());
    if (c.probe_puts &&
        get(c.port, name, Mode::Raw, Client::Resilient, nullptr).data != data) {
      ++t.wrong;
      return "PUT " + name + " stored other bytes";
    }
    t.put_raw += static_cast<double>(raw);
    if (pr) *pr = {raw, wire, price_put(raw, wire), true};
    return {};
  }
  root.emplace(sink, root_name(op.client));
  const CodecResult r = c.codecs->round_trip(op.codec, f.data, sink);
  root.reset();
  d->ms = ms_since(origin_ns, now_ns());
  if (r.decoded != f.data) {
    ++t.wrong;
    return std::string("codec round trip differs: ") + codec_name(op.codec) +
           " " + f.name;
  }
  const int i = static_cast<int>(op.codec);
  t.codec_raw[i] += static_cast<double>(raw);
  t.codec_comp[i] += static_cast<double>(r.compressed);
  t.enc_s[i] += r.encode_s;
  t.dec_s[i] += r.decode_s;
  d->enc_s = r.encode_s;
  d->dec_s = r.decode_s;
  if (pr) *pr = {raw, r.compressed, price_codec(op.codec, raw, r.compressed), true};
  return {};
}

/// run_op plus the bookkeeping every op gets: attempts, failures (an
/// exception, wrong bytes or exhausted retries) and its Done record.
/// `id` labels the op's spans.
void execute(const Ctx& c, std::size_t id, const Op& op,
             std::int64_t origin_ns, SpanSink* sink, Tally& t, Priced* pr) {
  if (sink) sink->set_op(static_cast<std::uint32_t>(id));
  ++t.attempted;
  Done d{.client = op.client, .key = item_key(op)};
  std::string error;
  try {
    error = run_op(c, op, origin_ns, sink, t, pr, &d);
  } catch (const std::exception& e) {
    error = e.what();
  }
  d.end_ns = now_ns();
  if (error.empty()) {
    d.raw_ok = static_cast<double>((*c.files)[op.file].data.size());
  } else {
    // No bytes, no time.
    d = Done{.end_ns = d.end_ns, .client = op.client, .key = d.key};
    ++t.failed;
    if (t.first_error.empty()) t.first_error = error;
  }
  t.done.push_back(d);
}

/// One slice of timed ops.
struct Run {
  Tally tally;
  std::size_t next = 0;  // the op index the next slice starts at
  std::int64_t t0_ns = 0;
  double wall_s = 0.0;
  std::vector<SpanRec> spans;
};

/// Closed loop: `clients` threads take op indices from one dispenser,
/// starting at `first`, and run cycle[i % cycle.size()] back to back.
/// The slice stops only at a multiple of `stride` ops (a popularity
/// epoch, or a whole codec cycle), once `seconds` have passed and at
/// least `min_next` ops were issued, so the run's op mix holds whole
/// epochs. Ops of the first cycle are priced into `priced`.
Run run_closed(const Ctx& c, const std::vector<Op>& cycle, unsigned clients,
               double seconds, std::size_t first, std::size_t stride,
               std::size_t min_next, bool traced,
               std::vector<Priced>& priced) {
  const std::size_t m = cycle.size();
  std::mutex mu;
  std::size_t next = first;
  Run r;
  r.t0_ns = now_ns();
  const std::int64_t deadline =
      r.t0_ns + static_cast<std::int64_t>(std::max(seconds, 0.0) * 1e9);
  const auto take = [&]() -> std::optional<std::size_t> {
    std::lock_guard<std::mutex> lock(mu);
    if (next % stride == 0 && next >= min_next && now_ns() >= deadline)
      return std::nullopt;
    return next++;
  };
  std::vector<Tally> tallies(clients);
  std::vector<SpanSink> sinks;
  for (unsigned k = 0; k < clients; ++k) sinks.emplace_back(k + 1);
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < clients; ++k)
    threads.emplace_back([&, k] {
      while (const auto i = take())
        execute(c, *i, cycle[*i % m], now_ns(), traced ? &sinks[k] : nullptr,
                tallies[k], *i < m ? &priced[*i] : nullptr);
    });
  for (auto& th : threads) th.join();
  r.wall_s = static_cast<double>(now_ns() - r.t0_ns) * 1e-9;
  r.next = next;
  for (const Tally& t : tallies) r.tally.merge(t);
  for (const SpanSink& s : sinks) append_spans(r.spans, s);
  return r;
}

/// Companion ops, one after another on this thread.
Tally run_sequential(const Ctx& c, const std::vector<Op>& ops, SpanSink* sink,
                     std::uint32_t first_id) {
  Tally t;
  for (std::size_t i = 0; i < ops.size(); ++i)
    execute(c, first_id + i, ops[i], now_ns(), sink, t, nullptr);
  return t;
}

struct Plan {
  bool network = true;
  ServerConfig cfg;
  std::vector<Op> ops;  // one cycle
  unsigned clients = 2;
  std::size_t stride = kEpochOps;  // a slice ends at a multiple of this
  std::size_t min_ops = 0;  // a run issues at least this many timed ops
  std::size_t op_window = kOpWindow;  // goodput window, in ops
};

Plan make_plan(const Args& a, const std::vector<std::size_t>& sizes) {
  Plan p;
  switch (a.workload) {
    case Workload::WarmGet:
      p.cfg.precompress = true;
      p.ops = make_ops(a.workload, sizes, a.seed, kWarmCycle);
      p.min_ops = std::max(kMinGets, p.ops.size());
      break;
    case Workload::OndemandGet:
      p.cfg.cache = false;
      p.ops = make_ops(a.workload, sizes, a.seed, kOndemandCycle);
      p.min_ops = std::max(kMinGets, p.ops.size());
      break;
    case Workload::CodecCorpus:
      p.network = false;
      p.clients = 1;
      p.ops = make_ops(a.workload, sizes, a.seed, 0);
      p.stride = p.ops.size();
      p.min_ops = p.ops.size();
      p.op_window = p.ops.size();  // one cycle
      break;
  }
  return p;
}

/// One phase: set up, then kRounds rounds of timed ops and companions. A
/// workload runs once untraced and, for --trace 1, once more traced with
/// the same ops.
struct Phase {
  Tally main;   // the timed ops of every round, in completion order
  Tally probe;  // companion ops
  Tally warm;   // warm-up ops: only their failures count
  std::vector<SpanRec> spans;
  // Per timed op: raw MB verified, and seconds since the previous
  // completion in its slice (the first: since the slice began).
  std::vector<double> op_mb, op_gap_s;
  double wall_s = 0.0;  // in timed slices
  std::vector<double> setups;
  std::uint64_t raw = 0, wire = 0;  // priced timed ops
  double joules = 0.0;
  std::optional<ServerCounters> server;
  // Registry counters summed over the timed slices, and the p99 of the
  // sliding queue depth in each slice.
  std::optional<std::map<std::string, std::uint64_t>> reg;
  std::vector<double> queue_depth_p99;
  ProcSample proc;           // over the timed slices
  double rss_peak_mb = 0.0;  // after set-up
  double encode_ms_per_miss = 0.0;

  std::size_t attempted() const {
    return main.attempted + probe.attempted + warm.attempted;
  }
  std::size_t failed() const { return main.failed + probe.failed + warm.failed; }
  std::size_t wrong() const { return main.wrong + probe.wrong + warm.wrong; }
  /// GET (or PUT) latencies: the timed ops', else the companion's.
  std::vector<double> latencies(bool gets) const {
    std::vector<double> v = main.latencies(gets);
    return v.empty() ? probe.latencies(gets) : v;
  }
  /// Codec tallies: the timed ops' on codec_corpus, else the companion's.
  const Tally& codec() const {
    return main.codec_raw[0] > 0 ? main : probe;
  }

  void add(Run&& r) {
    std::int64_t prev = r.t0_ns;
    for (const Done& d : r.tally.done) {
      op_mb.push_back(d.raw_ok / 1e6);
      op_gap_s.push_back(static_cast<double>(d.end_ns - prev) * 1e-9);
      prev = d.end_ns;
    }
    wall_s += r.wall_s;
    main.merge(r.tally);
    spans.insert(spans.end(), r.spans.begin(), r.spans.end());
  }
};

void add_counts(std::optional<std::map<std::string, std::uint64_t>>& sum,
                const std::optional<std::map<std::string, std::uint64_t>>& x) {
  if (!x) return;
  if (!sum) sum.emplace();
  for (const auto& [name, v] : *x) (*sum)[name] += v;
}

Phase run_phase(const Args& a, const std::vector<File>& files,
                const std::vector<std::size_t>& sizes, const Plan& plan,
                bool traced, int setup_reps) {
  Phase ph;
  SpanSink probe_sink(99);
  SpanSink* psink = traced ? &probe_sink : nullptr;
  // Companion op ids, for the spans: GETs, PUTs and codec round trips.
  constexpr std::uint32_t kProbeId = 1u << 30;
  constexpr std::uint32_t kPutId = kProbeId + 100000;
  constexpr std::uint32_t kCodecId = kProbeId + 200000;
  std::vector<Priced> priced(plan.ops.size());

  // Network ops run with the CPUs kept awake; codec calls, which run on
  // one thread and never wait for another, do not.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::unique_ptr<Proxy> proxy;
  std::unique_ptr<Codecs> codecs;
  // Set up `setup_reps` times (3 when one set-up is slow); the last
  // instance serves the run. A proxy starts threads, so its set-up runs
  // with the CPUs awake, like its requests.
  std::optional<KeepAwake> setup_awake;
  if (plan.network) setup_awake.emplace(nproc);
  for (int rep = 0; rep < setup_reps; ++rep) {
    proxy.reset();
    if (plan.network) {
      proxy = std::make_unique<Proxy>(files, plan.cfg);
      ph.setups.push_back(proxy->setup_s());
    } else {
      // Building the codecs takes well under a microsecond, below what
      // one clock read resolves; time a batch in this thread's CPU time,
      // like the codec calls, and report one build.
      const std::int64_t t0 = thread_cpu_ns();
      for (int b = 0; b < kCodecBuildBatch; ++b)
        codecs = std::make_unique<Codecs>();
      ph.setups.push_back(static_cast<double>(thread_cpu_ns() - t0) * 1e-9 /
                          kCodecBuildBatch);
    }
    if (rep == 0 && ph.setups[0] > 0.2) setup_reps = std::min(setup_reps, 3);
  }
  setup_awake.reset();
  if (!codecs) codecs = std::make_unique<Codecs>();  // companion cycles
  ServerConfig probe_cfg;
  probe_cfg.precompress = true;
  Proxy probe_proxy(files, probe_cfg);

  Ctx c;
  c.files = &files;
  c.codecs = codecs.get();
  c.on_demand = a.workload == Workload::OndemandGet;
  if (plan.network) c.port = proxy->port();
  Ctx pc = c;
  pc.port = probe_proxy.port();
  pc.probe_puts = true;

  const std::vector<Op> codec_cycle =
      make_ops(Workload::CodecCorpus, sizes, a.seed, 0);
  const std::vector<Op> probe_gets =
      plan.network ? std::vector<Op>{}
                   : make_reference_gets(files.size(), a.seed, kProbeGetReps);
  // One run of PUTs for the warm-up, then one per round.
  const std::vector<Op> probe_puts =
      make_reference_puts(files.size(), a.seed, kRounds + 1);
  const std::size_t n = files.size();
  const auto companions = [&](std::size_t rep, SpanSink* sink, Tally& t) {
    {
      KeepAwake awake(nproc);
      t.merge(run_sequential(pc, probe_gets, sink,
                             kProbeId + rep * probe_gets.size()));
      const std::vector<Op> puts(probe_puts.begin() + rep * n,
                                 probe_puts.begin() + (rep + 1) * n);
      t.merge(run_sequential(pc, puts, sink, kPutId + rep * n));
    }
    if (plan.network)
      t.merge(run_sequential(c, codec_cycle, sink,
                             kCodecId + rep * codec_cycle.size()));
  };

  // Warm-up: one stride of the timed ops and one repetition of every
  // companion, untimed, so that lazy set-up and the allocator's growth
  // are done before timing and before the peak-memory mark restarts.
  // The rounds then start again from op 0.
  {
    std::optional<KeepAwake> awake;
    if (plan.network) awake.emplace(nproc);
    std::vector<Priced> unused(plan.ops.size());
    ph.warm.merge(run_closed(c, plan.ops, plan.clients, 0.0, 0, plan.stride,
                             1, false, unused)
                      .tally);
  }
  companions(0, nullptr, ph.warm);
  // The proxy's cache counts start after the warm-up.
  const ServerCounters warm =
      plan.network ? proxy->counters() : ServerCounters{};

  // Peak memory of the run: the mark restarts from what set-up left
  // resident, so caches built at set-up still count.
  if (!reset_rss_peak())
    throw std::runtime_error(
        "cannot restart the peak resident set mark (/proc/self/clear_refs)");
  std::size_t next_op = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    {
      std::optional<KeepAwake> awake;
      if (plan.network) awake.emplace(nproc);
      registry_reset();
      const ProcSample p0 = proc_sample();
      const double spin0 = awake ? awake->cpu_s() : 0.0;
      // Timed ops until this round's share of the seconds is spent; the
      // last round also makes up the run's minimum.
      const double budget =
          a.seconds * static_cast<double>(round + 1) / kRounds - ph.wall_s;
      Run run = run_closed(c, plan.ops, plan.clients, budget, next_op,
                           plan.stride,
                           round + 1 == kRounds ? plan.min_ops : next_op + 1,
                           traced, priced);
      next_op = run.next;
      const ProcSample p1 = proc_sample();
      ph.proc.cpu_s += p1.cpu_s - p0.cpu_s;
      if (awake) ph.proc.cpu_s -= awake->cpu_s() - spin0;
      ph.proc.allocs += p1.allocs - p0.allocs;
      ph.proc.alloc_bytes += p1.alloc_bytes - p0.alloc_bytes;
      add_counts(ph.reg, registry_counters());
      if (const auto q = registry_sliding_p99("par.queue_depth"))
        ph.queue_depth_p99.push_back(*q);
      ph.add(std::move(run));
    }
    companions(round + 1, psink, ph.probe);
  }
  ph.rss_peak_mb = rss_peak_mb();
  if (plan.network) {
    ph.server = proxy->counters();
    ph.server->cache_hits -= warm.cache_hits;
    ph.server->cache_misses -= warm.cache_misses;
    ph.server->cache_waits -= warm.cache_waits;
    ph.server->cache_builds -= warm.cache_builds;
    proxy->stop();
  }
  probe_proxy.stop();
  append_spans(ph.spans, probe_sink);

  // Exact totals: each op of the first cycle is priced once, summed in
  // index order.
  if (next_op < plan.ops.size())
    throw std::logic_error("a run ended before its first cycle");
  for (const Priced& p : priced)
    if (p.set) {
      ph.raw += p.raw;
      ph.wire += p.wire;
      ph.joules += p.joules;
    }

  // Encode cost per miss: replay the proxy's encode call (level 9, same
  // policy) on the payloads of the GETs, when the cache missed at all.
  if (traced && ph.server &&
      ph.server->cache_misses + ph.server->cache_waits > 0) {
    double s = 0;
    std::size_t n = 0;
    for (const Op& op : plan.ops) {
      if (!op.is_get() || op.mode == Mode::Raw) continue;
      s += replay_encode_s(files[op.file].data, op.mode);
      if (++n == kReplayOps) break;
    }
    ph.encode_ms_per_miss = n ? s * 1e3 / static_cast<double>(n) : 0.0;
  }
  return ph;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  // A percentile that lands on a failed op is +inf: the largest double.
  if (!std::isfinite(v)) v = v > 0 ? 1.7976931348623157e308 : 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// p50 and a tail percentile of GET (or PUT) latency. Timed ops: the
/// fast quartile of per-window medians and the median of per-window
/// tails. Without timed ops of the kind: percentiles over the companion
/// items' fastest repetitions.
std::pair<double, double> latency(const Phase& ph, bool gets, double tail) {
  const std::vector<double> timed = ph.main.latencies(gets);
  if (!timed.empty())
    return {windowed_percentile(timed, kGetWindow, 50, kFastLatency),
            windowed_percentile(timed, kGetWindow, tail, kMedianWindow)};
  const std::vector<double> best = ph.probe.best_latencies(gets);
  return {percentile(best, 50), percentile(best, tail)};
}

std::vector<Metric> end_to_end(const Phase& ph, const Plan& plan) {
  const auto [get_p50, get_p99] = latency(ph, true, 99);
  const auto [put_p50, put_p90] = latency(ph, false, 90);
  const Tally& codec = ph.codec();
  return {
      {"get_ms_p50", get_p50, "ms"},
      {"get_ms_p99", get_p99, "ms"},
      {"put_ms_p50", put_p50, "ms"},
      {"put_ms_p90", put_p90, "ms"},
      {"goodput_mb_s",
       windowed_ratio(ph.op_mb, ph.op_gap_s, plan.op_window, kFastRate),
       "MB/s"},
      {"encode_mb_s", codec.codec_mb_s(true), "MB/s"},
      {"decode_mb_s", codec.codec_mb_s(false), "MB/s"},
      {"wire_ratio", ratio(static_cast<double>(ph.wire),
                           static_cast<double>(ph.raw)), "ratio"},
      {"modeled_j_per_mb", ratio(ph.joules, static_cast<double>(ph.raw) / 1e6),
       "J/MB"},
      {"ok_share", ratio(static_cast<double>(ph.attempted() - ph.failed()),
                         static_cast<double>(ph.attempted())), "ratio"},
      {"setup_s", median(ph.setups), "s"},
      {"rss_peak_mb", ph.rss_peak_mb, "MB"},
  };
}

/// Durations and self times of the traced run's spans, by name.
struct SpanTotals {
  std::map<std::string, std::vector<double>> dur_ms;
  std::map<std::string, double> self_ms;
  double root_ms = 0.0, root_self_ms = 0.0;

  explicit SpanTotals(const std::vector<SpanRec>& spans) {
    const std::vector<std::int64_t> self = self_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double d = static_cast<double>(spans[i].dur_ns()) / 1e6;
      const double s = static_cast<double>(self[i]) / 1e6;
      dur_ms[spans[i].name].push_back(d);
      self_ms[spans[i].name] += s;
      if (spans[i].parent < 0) {
        root_ms += d;
        root_self_ms += s;
      }
    }
  }
  std::vector<double> of(const std::string& n) const {
    const auto it = dur_ms.find(n);
    return it == dur_ms.end() ? std::vector<double>{} : it->second;
  }
  double sum(const std::string& n) const {
    double s = 0;
    for (double v : of(n)) s += v;
    return s;
  }
  double self(const std::string& n) const {
    const auto it = self_ms.find(n);
    return it == self_ms.end() ? 0.0 : it->second;
  }
};

struct Layer {
  std::string name;
  std::optional<double> value;  // absent: not measurable in this build
  const char* unit;
  const char* moves;            // the end-to-end metric it should move
};

std::vector<Layer> per_layer(const Phase& un, const Phase& tr,
                             unsigned nproc) {
  const SpanTotals s(tr.spans);
  const Tally& um = un.main;
  const auto ops = static_cast<double>(um.attempted);
  const auto gets = static_cast<double>(um.latencies(true).size());
  const auto mb = [](double bytes) { return bytes / 1e6; };
  const auto counter = [&](const char* name) -> std::optional<double> {
    if (!un.reg) return std::nullopt;
    const auto it = un.reg->find(name);
    return it == un.reg->end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto counter_ratio = [&](const char* num, const char* den,
                                 bool den_plus_num) -> std::optional<double> {
    const auto a = counter(num), b = counter(den);
    if (!a || !b) return std::nullopt;
    return ratio(*a, den_plus_num ? *a + *b : *b);
  };
  const ServerCounters sc = un.server.value_or(ServerCounters{});
  const auto lookups =
      static_cast<double>(sc.cache_hits + sc.cache_misses + sc.cache_waits);
  Tally t = tr.main;  // traced timed ops plus companions
  t.merge(tr.probe);
  const Tally& codec = tr.codec();
  const double un_p50 = percentile(un.latencies(true), 50);
  const double tr_p50 = percentile(tr.latencies(true), 50);

  std::vector<Layer> v = {
      {"net.connect_ms_p50", percentile(s.of("net.connect"), 50), "ms",
       "get_ms_p50 on warm_get"},
      {"net.wait_status_ms_p50", percentile(s.of("net.wait_status"), 50), "ms",
       "get_ms_p50 on warm_get and ondemand_get"},
      {"net.wait_status_ms_p99", percentile(s.of("net.wait_status"), 99), "ms",
       "get_ms_p99 on warm_get and ondemand_get"},
      {"net.recv_ms_per_mb", ratio(s.sum("net.recv"), mb(t.get_wire)), "ms/MB",
       "goodput_mb_s on warm_get"},
      {"net.put_wait_status_ms_p50",
       percentile(s.of("net.put_wait_status"), 50), "ms", "put_ms_p50"},
      {"net.server.request_ms_p50", sc.request_ms_p50, "ms",
       "goodput_mb_s on ondemand_get"},
      {"net.server.request_ms_p99", sc.request_ms_p99, "ms",
       "goodput_mb_s on ondemand_get"},
      {"net.cache.hit_ratio", ratio(static_cast<double>(sc.cache_hits), lookups),
       "ratio", "get_ms_p50 on warm_get"},
      {"net.cache.builds_per_get",
       ratio(static_cast<double>(sc.cache_builds), gets), "ratio",
       "goodput_mb_s on ondemand_get"},
      {"net.cache.waits_per_get",
       ratio(static_cast<double>(sc.cache_waits), gets), "ratio",
       "get_ms_p99 on ondemand_get"},
      {"par.queue_depth_p99",
       un.reg ? std::optional<double>(median(un.queue_depth_p99))
              : std::nullopt,
       "count", "get_ms_p99 on warm_get and ondemand_get"},
      {"compress.encode_ms_per_miss", tr.encode_ms_per_miss, "ms",
       "get_ms_p50 and goodput_mb_s on ondemand_get; no move on warm_get"},
      {"compress.put_encode_ms_per_mb",
       ratio(s.sum("compress.put_encode"), mb(t.put_raw)), "ms/MB",
       "put_ms_p50"},
      {"compress.lz77.probes_per_find",
       counter_ratio("lz77.match_probes", "lz77.match_finds", false), "ratio",
       "goodput_mb_s on ondemand_get"},
      {"compress.selective.raw_block_share",
       counter_ratio("selective.blocks_raw", "selective.blocks_compressed",
                     true),
       "ratio", "wire_ratio and modeled_j_per_mb on ondemand_get"},
  };
  for (int c = 0; c < kCodecCount; ++c) {
    const std::string pre =
        std::string("compress.") + codec_name(static_cast<Codec>(c));
    v.push_back({pre + ".encode_mb_s", ratio(mb(codec.codec_raw[c]), codec.enc_s[c]),
                 "MB/s",
                 c == 0 ? "encode_mb_s on codec_corpus; goodput_mb_s on "
                          "ondemand_get"
                        : "encode_mb_s on codec_corpus"});
    v.push_back({pre + ".decode_mb_s", ratio(mb(codec.codec_raw[c]), codec.dec_s[c]),
                 "MB/s", "decode_mb_s on codec_corpus"});
    v.push_back({pre + ".factor", ratio(codec.codec_raw[c], codec.codec_comp[c]),
                 "ratio", "wire_ratio and modeled_j_per_mb on codec_corpus"});
  }
  const std::vector<Layer> rest = {
      // download: InterleavedDownloader::run minus its chunk source;
      // download_resilient: SelectiveStreamDecoder feed/poll/verify.
      {"core.decode_ms_per_mb",
       ratio(s.self("core.interleaved_run") + s.sum("core.decode"),
             mb(t.sel_raw)),
       "ms/MB", "get_ms_p50 on warm_get"},
      {"compress.inflate_ms_per_mb",
       ratio(s.sum("compress.inflate"), mb(t.full_raw)), "ms/MB",
       "get_ms_p50 on warm_get"},
      {"util.crc32_ms_per_mb", ratio(s.sum("util.crc32"), mb(t.crc_bytes)),
       "ms/MB", "get_ms_p50 on warm_get"},
      {"proc.cpu_ms_per_op", ratio(un.proc.cpu_s * 1e3, ops), "ms",
       "goodput_mb_s on warm_get and ondemand_get"},
      {"proc.cpu_busy_share",
       ratio(un.proc.cpu_s, un.wall_s * static_cast<double>(nproc)),
       "ratio", "goodput_mb_s on warm_get and ondemand_get (saturated CPU?)"},
      {"proc.allocs_per_op", ratio(static_cast<double>(un.proc.allocs), ops),
       "count", "get_ms_p50 on warm_get"},
      {"proc.alloc_mb_per_op",
       ratio(mb(static_cast<double>(un.proc.alloc_bytes)), ops), "MB",
       "get_ms_p50 on warm_get"},
      {"trace.overhead_pct", ratio(tr_p50 - un_p50, un_p50) * 100.0, "%",
       "sanity of the traced run"},
      {"trace.unaccounted_share", ratio(s.root_self_ms, s.root_ms), "ratio",
       "sanity of the traced run"},
  };
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload warm_get|ondemand_get|codec_corpus"
               " --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why.c_str());
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + k);
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      if (!parse_workload(v, &a.workload)) return usage("unknown workload");
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return usage("unknown option " + k);
    }
    if (end && (*end || end == v)) return usage("bad number for " + k);
  }
  if (!have_workload) return usage("--workload is required");
  if (!(a.seconds > 0)) return usage("--seconds must be > 0");

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const BuildInfo bi = build_info();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "scale=%g nproc=%u git=%s ECOMP_OBS=%s simd=%s\n",
              workload_name(a.workload),
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, kScale, nproc, bi.git_sha.c_str(),
              bi.obs_enabled ? "ON" : "OFF", bi.simd_level.c_str());

  const std::vector<File> files = make_corpus(kScale);
  std::vector<std::size_t> sizes;
  for (const File& f : files) sizes.push_back(f.data.size());
  const Plan plan = make_plan(a, sizes);

  const Phase un = run_phase(a, files, sizes, plan, false, 15);
  std::size_t attempted = un.attempted(), failed = un.failed(),
              wrong = un.wrong();
  const std::size_t n_gets = un.main.latencies(true).size();
  std::printf("# timed ops=%zu in %.3f s over %zu rounds (%.1f ops/s); "
              "GETs=%zu, %zu beyond p99 per %zu-GET window; companion "
              "ops=%zu\n",
              un.main.attempted, un.wall_s, kRounds,
              static_cast<double>(un.main.attempted) / un.wall_s, n_gets,
              beyond(std::min(n_gets, kGetWindow), 99), kGetWindow,
              un.probe.attempted);
  if (un.server)
    std::printf("# server: cache hits=%llu misses=%llu waits=%llu "
                "builds=%llu\n",
                static_cast<unsigned long long>(un.server->cache_hits),
                static_cast<unsigned long long>(un.server->cache_misses),
                static_cast<unsigned long long>(un.server->cache_waits),
                static_cast<unsigned long long>(un.server->cache_builds));

  std::vector<Metric> out;
  if (!a.trace) {
    out = end_to_end(un, plan);
    for (const Metric& m : out)
      std::printf("# %-18s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  } else {
    const Phase tr = run_phase(a, files, sizes, plan, true, 1);
    attempted += tr.attempted();
    failed += tr.failed();
    wrong += tr.wrong();
    std::printf("# %-38s %14s %-6s  should move\n", "per-layer metric",
                "value", "unit");
    for (const Layer& l : per_layer(un, tr, nproc)) {
      if (l.value) out.push_back({l.name, *l.value, l.unit});
      if (l.value)
        std::printf("# %-38s %14.6g %-6s  %s\n", l.name.c_str(), *l.value,
                    l.unit, l.moves);
      else
        std::printf("# %-38s %14s %-6s  %s\n", l.name.c_str(), "absent",
                    l.unit, l.moves);
    }
    if (!a.trace_out.empty()) {
      std::ofstream f(a.trace_out, std::ios::binary);
      f << chrome_trace_json(tr.spans, kTraceFileSpans);
      std::printf("# first %zu spans of each thread written to %s\n",
                  kTraceFileSpans,
                  f ? a.trace_out.c_str() : "nowhere (cannot write)");
    }
  }
  // Any failed or wrong op fails the run.
  const bool correct = wrong == 0 && failed == 0;
  if (failed || wrong)
    std::printf("# %zu failed, %zu wrong; first error: %s\n", failed, wrong,
                (un.main.first_error.empty() ? un.probe.first_error
                                             : un.main.first_error)
                    .c_str());
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
