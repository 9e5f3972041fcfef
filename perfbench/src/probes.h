// Per-layer measurement for the traced run: counter snapshots read around the
// untraced window, and a prober thread that times calls into each layer's
// public functions (as spans) and samples layer gauges while the traced
// window runs.

#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"

namespace mantle::perfbench {

// Cumulative layer counters; deltas over a window give per-op ratios.
struct LayerCounters {
  uint64_t fleet_rpcs = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  uint64_t commit_index = 0;
  uint64_t txn_started = 0;
  uint64_t txn_aborted = 0;
  uint64_t txn_single = 0;
  uint64_t txn_multi = 0;
  int64_t cpu_ns = 0;  // process user + system CPU
};

LayerCounters ReadCounters(System& sys);

// Maxima and shares sampled by the prober.
struct LayerGauges {
  uint64_t queue_depth_max = 0;
  uint64_t apply_lag_max = 0;
  uint64_t compaction_backlog_max = 0;
  uint64_t delta_samples = 0;
  uint64_t delta_active = 0;
  uint64_t lookups = 0;
  uint64_t table_probes = 0;
};

class LayerProber {
 public:
  LayerProber(System& sys, const Workload& workload, Checker& check, uint64_t seed);
  ~LayerProber() { Stop(); }

  LayerProber(const LayerProber&) = delete;
  LayerProber& operator=(const LayerProber&) = delete;

  // Probes in a thread of its own, recording spans into `spans`, until Stop.
  void Start(SpanBuffer* spans);
  void Stop();
  // Valid after Stop.
  const LayerGauges& gauges() const { return gauges_; }

 private:
  void Round();
  void Sample();
  void CommitPair(const char* span, const std::vector<InodeId>& pids);

  System& sys_;
  Checker& check_;
  Rng rng_;
  SpanBuffer* spans_ = nullptr;
  std::vector<MetaKey> object_keys_;  // entry rows of sampled objects
  std::vector<std::vector<std::string>> object_paths_;
  std::vector<InodeId> dir_ids_;
  std::vector<std::vector<std::string>> dir_paths_;
  std::vector<std::string> resolve_paths_;
  std::vector<InodeId> contended_ids_;
  InodeId list_dir_id_ = 0;
  std::vector<InodeId> single_shard_pids_;  // benchmark-owned rows, one shard
  std::vector<InodeId> two_shard_pids_;     // and two shards
  std::string noop_command_;
  uint64_t round_ = 0;
  LayerGauges gauges_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace mantle::perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
