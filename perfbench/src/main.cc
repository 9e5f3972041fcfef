// perfbench: builds the cluster, runs one workload with 4 closed-loop
// clients, checks the answers and prints the metrics as one JSON line.
//
//   perfbench --workload stat_read --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced window
// and then a traced one, and prints the per-layer metrics. See
// perfbench/README.md for the workloads and metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/probes.h"

extern char** environ;

namespace mantle::perfbench {
namespace {

constexpr int kClients = 4;
constexpr int kSetups = 3;

// The cost model every run is pinned to (MakeSystem's defaults).
constexpr int64_t kRttNanos = 80'000;
constexpr int64_t kDbRowAccessNanos = 100'000;
constexpr int64_t kMemIndexAccessNanos = 60'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double warmup = 2;
  double scale = 1;
  bool corrupt = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--warmup S] [--scale F] [--corrupt 1] [--spans-out FILE]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--warmup") {
      args.warmup = std::atof(value.c_str());
    } else if (flag == "--scale") {
      args.scale = std::atof(value.c_str());
    } else if (flag == "--corrupt") {
      args.corrupt = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!IsWorkloadName(args.workload)) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (args.seconds <= 0 || args.scale <= 0 || args.warmup < 0) {
    Usage("--seconds and --scale must be positive");
  }
  return args;
}

// The program reads MANTLE_* variables (cost-model and size overrides, trace
// export); a benchmark run must not inherit them.
std::vector<std::string> ClearProgramEnvironment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string var = *entry;
    if (var.rfind("MANTLE_", 0) == 0) {
      names.push_back(var.substr(0, var.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
  return names;
}

int64_t Nanos(double seconds) { return static_cast<int64_t>(seconds * 1e9); }

void SleepNanos(int64_t nanos) { std::this_thread::sleep_for(std::chrono::nanoseconds(nanos)); }

// Nearest-rank percentile of raw samples, in microseconds (0 when empty).
double PercentileUs(std::vector<int64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * samples.size()));
  const size_t index = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(index),
                   samples.end());
  return static_cast<double>(samples[index]) / 1000.0;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

std::string Number(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += ch;
  }
  return out + "\"";
}

// --- phases ---------------------------------------------------------------------

struct Phase {
  std::vector<ClientStats> stats;
  int64_t start_ns = 0;
  double seconds = 0;
  LayerCounters before;
  LayerCounters after;

  uint64_t Sum(uint64_t ClientStats::*field) const {
    uint64_t total = 0;
    for (const ClientStats& s : stats) {
      total += s.*field;
    }
    return total;
  }
  std::vector<Sample> Samples(OpSet ops) const {
    std::vector<Sample> out;
    for (const ClientStats& s : stats) {
      for (int op = 0; op < kNumOps; ++op) {
        if (ops[op]) {
          out.insert(out.end(), s.samples[op].begin(), s.samples[op].end());
        }
      }
    }
    return out;
  }

  // Splits `samples` into `slices` equal time slices of the phase by
  // completion time.
  std::vector<std::vector<int64_t>> Slice(const std::vector<Sample>& samples, int slices) const {
    std::vector<std::vector<int64_t>> out(static_cast<size_t>(slices));
    const double slice_ns = seconds * 1e9 / slices;
    for (const Sample& sample : samples) {
      const int index = static_cast<int>(static_cast<double>(sample.end_ns - start_ns) / slice_ns);
      out[static_cast<size_t>(std::clamp(index, 0, slices - 1))].push_back(sample.wall_ns);
    }
    return out;
  }
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0 : (n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2);
}

// Host hiccups last a second or two and would otherwise set a whole run's
// figures, so end-to-end figures are medians over time slices of their phase:
// throughput over kSlices slices, and a percentile over as many slices (up to
// kSlices) as leave kBeyond samples beyond it in each. Fewer samples per
// slice would make each slice's tail estimate noisier than the hiccups.
constexpr int kSlices = 5;
constexpr double kBeyond = 50;

double SlicedThroughput(const Phase& phase) {
  std::vector<double> rates;
  for (const std::vector<int64_t>& slice : phase.Slice(phase.Samples(OpSet().set()), kSlices)) {
    rates.push_back(static_cast<double>(slice.size()) / (phase.seconds / kSlices));
  }
  return Median(rates);
}

double SlicedPercentileUs(const Phase& phase, OpSet ops, double p) {
  const std::vector<Sample> samples = phase.Samples(ops);
  const double needed = kBeyond / (1.0 - p / 100.0);
  const int slices = std::clamp(static_cast<int>(static_cast<double>(samples.size()) / needed), 1,
                                kSlices);
  std::vector<double> values;
  for (std::vector<int64_t>& slice : phase.Slice(samples, slices)) {
    values.push_back(PercentileUs(std::move(slice), p));
  }
  return Median(values);
}

// Runs `body(client, stop)` on every client in its own thread; `body` loops
// until `stop` is set. Ops are measured for `window_ns` after an unmeasured
// `warmup_ns`, then the phase stops.
Phase RunPhase(System& sys, std::vector<Client>& clients, int64_t warmup_ns, int64_t window_ns,
               const std::function<void(Client&, const std::atomic<bool>&)>& body) {
  Phase phase;
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  for (Client& c : clients) {
    c.stats = ClientStats();
    c.measuring = &measuring;
  }
  std::vector<std::thread> threads;
  for (Client& c : clients) {
    threads.emplace_back([&body, &c, &stop] { body(c, stop); });
  }
  SleepNanos(warmup_ns);
  phase.before = ReadCounters(sys);
  phase.start_ns = NowNanos();
  measuring.store(true, std::memory_order_release);
  SleepNanos(window_ns);
  measuring.store(false, std::memory_order_release);
  phase.seconds = static_cast<double>(NowNanos() - phase.start_ns) / 1e9;
  phase.after = ReadCounters(sys);
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (Client& c : clients) {
    phase.stats.push_back(std::move(c.stats));
    c.measuring = nullptr;
    c.spans = nullptr;
  }
  return phase;
}

// Closed loop: each client steps the workload until the phase stops, then
// completes whatever it left open.
Phase RunWindow(System& sys, Workload& workload, std::vector<Client>& clients, Checker& check,
                int64_t warmup_ns, int64_t window_ns) {
  return RunPhase(sys, clients, warmup_ns, window_ns,
                  [&](Client& c, const std::atomic<bool>& stop) {
                    while (!stop.load(std::memory_order_acquire)) {
                      workload.Step(sys, c, check);
                    }
                    workload.Drain(sys, c, check);
                  });
}

// --- metrics ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEndMetrics(const Workload& workload, const Phase& window,
                                    const Phase& suite, double setup_s, Checker& check) {
  std::vector<Metric> out;
  // An op type's latency comes from the window when the mix issues it, else
  // from the op suite.
  auto latency = [&](const std::string& name, OpSet ops, std::initializer_list<int> percentiles) {
    const Phase& phase = (workload.mix() & ops).any() ? window : suite;
    if (phase.Samples(ops).empty()) {
      check.Fail("no completed " + name + " op to time");
    }
    for (int p : percentiles) {
      out.push_back({name + "_p" + std::to_string(p) + "_us", SlicedPercentileUs(phase, ops, p),
                     "us"});
    }
  };
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.push_back({"setup_s", setup_s, "s"});
  out.push_back({"throughput_ops", SlicedThroughput(window), "ops/s"});
  out.push_back({"rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
  // The only tail is rename's p90: the other tails swung by more than a
  // third of their bound between runs on a shared host (see README.md).
  latency("objstat", OpSet().set(kObjStat), {50});
  latency("dirstat", OpSet().set(kDirStat), {50});
  latency("list", OpSet().set(kList), {50});
  latency("objwrite", OpSet().set(kCreate).set(kDelete), {50});
  latency("mkdir", OpSet().set(kMkdir), {50});
  latency("rmdir", OpSet().set(kRmdir), {50});
  latency("rename", OpSet().set(kRename), {50, 90});
  return out;
}

std::vector<Metric> PerLayerMetrics(const System& sys, const Phase& plain, const Phase& traced,
                                    const std::vector<std::unique_ptr<SpanBuffer>>& spans,
                                    const LayerGauges& gauges) {
  std::map<std::string, std::vector<int64_t>> durations;
  for (const auto& buffer : spans) {
    for (const Span& span : buffer->spans()) {
      durations[span.name].push_back(span.end_ns - span.start_ns);
    }
  }
  auto p = [&](const char* name, double percentile) {
    return PercentileUs(durations[name], percentile);
  };
  const double rtt_us = static_cast<double>(sys.network->options().rtt_nanos) / 1000.0;
  const double ops = static_cast<double>(plain.Sum(&ClientStats::ops));
  const LayerCounters& a = plain.before;
  const LayerCounters& b = plain.after;
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  std::vector<int64_t> unattributed;
  for (const ClientStats& s : plain.stats) {
    unattributed.insert(unattributed.end(), s.unattributed_ns.begin(), s.unattributed_ns.end());
  }
  const double lookups =
      static_cast<double>(traced.Sum(&ClientStats::lookups) + gauges.lookups);
  const double table_probes =
      static_cast<double>(traced.Sum(&ClientStats::table_probes) + gauges.table_probes);

  std::vector<Metric> out = {
      {"net.hop_p50_us", p("net.hop", 50), "us"},
      {"net.hop_p99_us", p("net.hop", 99), "us"},
      {"net.hop_floor_us", p("net.hop", 50) - rtt_us, "us"},
      {"net.rtt_overshoot_us", p("net.charge_rtt", 50) - rtt_us, "us"},
      {"net.rpcs_per_op", Ratio(static_cast<double>(plain.Sum(&ClientStats::rpcs)), ops),
       "count"},
      {"net.fleet_rpcs_per_op", Ratio(delta(b.fleet_rpcs, a.fleet_rpcs), ops), "count"},
      {"net.queue_depth_max", static_cast<double>(gauges.queue_depth_max), "count"},
      {"core.unattributed_p50_us", PercentileUs(unattributed, 50), "us"},
      {"core.retries_per_op", Ratio(static_cast<double>(plain.Sum(&ClientStats::retries)), ops),
       "count"},
      {"index.lookup_parent_p50_us", p("index.lookup_parent", 50), "us"},
      {"index.lookup_parent_p99_us", p("index.lookup_parent", 99), "us"},
      {"index.lookup_dir_p50_us", p("index.lookup_dir", 50), "us"},
      {"index.cache_hit_ratio",
       Ratio(delta(b.cache_hits, a.cache_hits),
             delta(b.cache_hits, a.cache_hits) + delta(b.cache_misses, a.cache_misses)),
       "ratio"},
      {"index.invalidations_per_op",
       Ratio(delta(b.cache_invalidations, a.cache_invalidations), ops), "count"},
      {"index.table_probes_per_lookup", Ratio(table_probes, lookups), "count"},
      {"raft.propose_p50_us", p("raft.propose", 50), "us"},
      {"raft.propose_p99_us", p("raft.propose", 99), "us"},
      {"raft.entries_per_dir_op",
       Ratio(delta(b.commit_index, a.commit_index),
             static_cast<double>(plain.Sum(&ClientStats::dir_ops))),
       "count"},
      {"raft.apply_lag_max", static_cast<double>(gauges.apply_lag_max), "count"},
      {"tafdb.get_p50_us", p("tafdb.get", 50), "us"},
      {"tafdb.read_dir_attr_p50_us", p("tafdb.read_dir_attr", 50), "us"},
      {"tafdb.list100_p50_us", p("tafdb.list100", 50), "us"},
      {"tafdb.compaction_backlog_max", static_cast<double>(gauges.compaction_backlog_max),
       "count"},
      {"tafdb.delta_mode_share",
       Ratio(static_cast<double>(gauges.delta_active), static_cast<double>(gauges.delta_samples)),
       "ratio"},
      {"txn.single_commit_p50_us", p("txn.single_commit", 50), "us"},
      {"txn.2pc_commit_p50_us", p("txn.2pc_commit", 50), "us"},
      {"txn.2pc_commit_p99_us", p("txn.2pc_commit", 99), "us"},
      {"txn.abort_ratio",
       Ratio(delta(b.txn_aborted, a.txn_aborted), delta(b.txn_started, a.txn_started)), "ratio"},
      {"txn.multi_shard_share",
       Ratio(delta(b.txn_multi, a.txn_multi),
             delta(b.txn_multi, a.txn_multi) + delta(b.txn_single, a.txn_single)),
       "ratio"},
      {"kv.get_p50_ns", p("kv.get", 50) * 1000.0, "ns"},
      {"kv.scan100_p50_us", p("kv.scan100", 50), "us"},
      {"baselines.resolve_p50_us", p("baselines.resolve", 50), "us"},
      {"proc.cpu_us_per_op", Ratio(static_cast<double>(b.cpu_ns - a.cpu_ns) / 1000.0, ops), "us"},
      {"trace.overhead_share", 1.0 - Ratio(SlicedThroughput(traced), SlicedThroughput(plain)),
       "ratio"},
  };
  return out;
}

std::string ConfigJson(const Args& args, const Workload& workload, const System& sys,
                       const std::vector<double>& setup_s,
                       const std::vector<std::string>& cleared) {
  const NetworkOptions& net = sys.network->options();
  const TafDbOptions tafdb = BenchTafDbOptions();
  const RaftOptions raft = BenchRaftOptions();
  std::string json = "{\"workload\":" + Quote(args.workload) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"seconds\":" + Number(args.seconds) +
                     ",\"warmup_s\":" + Number(args.warmup) +
                     ",\"trace\":" + (args.trace ? "1" : "0") +
                     ",\"system\":" + Quote(sys.service->name()) +
                     ",\"clients\":" + std::to_string(kClients) +
                     ",\"setups\":" + std::to_string(kSetups) +
                     ",\"preloaded_entries\":" + std::to_string(workload.preload().size()) +
                     ",\"rtt_ns\":" + std::to_string(net.rtt_nanos) +
                     ",\"db_row_access_ns\":" + std::to_string(net.db_row_access_nanos) +
                     ",\"mem_index_access_ns\":" + std::to_string(net.mem_index_access_nanos) +
                     ",\"tafdb_shards\":" + std::to_string(tafdb.num_shards) +
                     ",\"tafdb_servers\":" + std::to_string(tafdb.num_servers) +
                     ",\"tafdb_workers_per_server\":" + std::to_string(tafdb.workers_per_server);
  if (sys.mantle != nullptr) {
    const IndexServiceOptions& index = sys.mantle->index()->options();
    json += ",\"index_voters\":" + std::to_string(index.num_voters) +
            ",\"follower_read\":" + (index.follower_read ? "true" : "false") +
            ",\"path_cache\":" + (index.node.enable_path_cache ? "true" : "false") +
            ",\"raft_fsync_ns\":" + std::to_string(raft.fsync_nanos) +
            ",\"raft_log_batching\":" + (index.raft.log_batching ? "true" : "false") +
            ",\"raft_workers_per_node\":" + std::to_string(raft.workers_per_node);
  }
  json += ",\"setup_s_each\":[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    json += (i == 0 ? "" : ",") + Number(setup_s[i]);
  }
  json += "],\"cleared_env\":[";
  for (size_t i = 0; i < cleared.size(); ++i) {
    json += (i == 0 ? "" : ",") + Quote(cleared[i]);
  }
  return json + "]}";
}

void WriteSpans(const std::string& path, const std::string& config,
                const std::vector<std::unique_ptr<SpanBuffer>>& spans) {
  const std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path());
  }
  std::ofstream out(path);
  out << "{\"config\":" << config << "}\n";
  for (const auto& buffer : spans) {
    for (const Span& span : buffer->spans()) {
      out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"id\":" << span.id
          << ",\"parent\":" << span.parent << ",\"op\":" << span.op << "}\n";
    }
  }
}

int Run(int argc, char** argv) {
  const std::vector<std::string> cleared = ClearProgramEnvironment();
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.scale, kClients);

  // Set-up: cluster construction, leader election and namespace population,
  // repeated; the last cluster serves the run.
  std::vector<double> setup_s;
  System sys;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t start = NowNanos();
    System candidate = BuildSystem(workload->system());
    const Status loaded = candidate.service->BulkLoadMany(workload->preload());
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfbench: bulk load failed: %s\n", loaded.ToString().c_str());
      return 1;
    }
    if (i + 1 == kSetups) {
      sys = std::move(candidate);
    }
  }
  const NetworkOptions& net = sys.network->options();
  if (net.rtt_nanos != kRttNanos || net.db_row_access_nanos != kDbRowAccessNanos ||
      net.mem_index_access_nanos != kMemIndexAccessNanos || net.zero_latency) {
    std::fprintf(stderr, "perfbench: cost model is not the pinned default\n");
    return 1;
  }
  const std::string config = ConfigJson(args, *workload, sys, setup_s, cleared);
  std::printf("# config %s\n", config.c_str());

  Checker check;
  std::vector<Client> clients;
  for (int i = 0; i < kClients; ++i) {
    uint64_t state = args.seed * 0x100000001b3ULL + static_cast<uint64_t>(i);
    clients.emplace_back(i, SplitMix64(state));
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Phase window =
        RunWindow(sys, *workload, clients, check, Nanos(args.warmup), Nanos(args.seconds));
    // The op suite warms up and measures as long as the window does; a cycle
    // in flight at the end completes unmeasured, so the suite area is left
    // empty.
    const OpSet suite_ops = ~workload->mix();
    Phase suite;
    if (suite_ops.any()) {
      suite = RunPhase(sys, clients, Nanos(args.warmup), Nanos(args.seconds),
                       [&](Client& c, const std::atomic<bool>& stop) {
                         for (uint64_t cycle = 0; !stop.load(std::memory_order_acquire); ++cycle) {
                           RunSuiteCycle(sys, c, check, suite_ops, cycle);
                         }
                       });
    }
    metrics = EndToEndMetrics(*workload, window, suite, Median(setup_s), check);
  } else {
    // Untraced and traced windows of half the run each; counters come from
    // the untraced one, spans and gauges from the traced one.
    const Phase plain = RunWindow(sys, *workload, clients, check, Nanos(args.warmup),
                                  Nanos(args.seconds / 2));
    std::vector<std::unique_ptr<SpanBuffer>> spans;
    for (int i = 0; i <= kClients; ++i) {
      spans.push_back(std::make_unique<SpanBuffer>(static_cast<uint32_t>(i + 1)));
    }
    LayerProber prober(sys, *workload, check, args.seed);
    for (int i = 0; i < kClients; ++i) {
      clients[static_cast<size_t>(i)].spans = spans[static_cast<size_t>(i)].get();
    }
    prober.Start(spans.back().get());
    const Phase traced = RunWindow(sys, *workload, clients, check, 0, Nanos(args.seconds / 2));
    prober.Stop();
    metrics = PerLayerMetrics(sys, plain, traced, spans, prober.gauges());
    if (!args.spans_out.empty()) {
      WriteSpans(args.spans_out, config, spans);
    }
  }

  workload->Audit(sys, check, args.corrupt);
  AuditSuite(sys, check, kClients);
  if (sys.mantle != nullptr) {
    const MantleService::ConsistencyReport fsck = sys.mantle->Fsck();
    if (!fsck.clean()) {
      check.Fail("fsck found " + std::to_string(fsck.missing_entry_row.size()) +
                 " missing entry rows, " + std::to_string(fsck.id_mismatch.size()) +
                 " id mismatches, " + std::to_string(fsck.missing_attr_row.size()) +
                 " missing attr rows, " + std::to_string(fsck.unindexed_dir_row.size()) +
                 " unindexed dirs");
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Client& c : clients) {
    attempted += c.attempted;
    failed += c.failed;
  }
  for (const std::string& message : check.messages()) {
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", message.c_str());
  }
  const bool correct = check.mismatches() == 0 && failed == 0;
  std::string json = std::string("{\"correct\":") + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ",") + Quote(metrics[i].name) + ":{\"value\":" +
            Number(metrics[i].value) + ",\"unit\":" + Quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mantle::perfbench

int main(int argc, char** argv) { return mantle::perfbench::Run(argc, argv); }
