#include "perfbench/src/probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "src/common/path.h"
#include "src/index/command.h"

namespace mantle::perfbench {

namespace {

// Rows the txn probes write live in a pid range no namespace allocates.
constexpr InodeId kProbePidBase = InodeId{1} << 60;

int64_t ProcessCpuNanos() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto nanos = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return nanos(usage.ru_utime) + nanos(usage.ru_stime);
}

}  // namespace

LayerCounters ReadCounters(System& sys) {
  LayerCounters counters;
  counters.fleet_rpcs = sys.network->total_rpcs();
  const TxnStats& txn = sys.tafdb->txn_stats();
  counters.txn_started = txn.started.load();
  counters.txn_aborted = txn.aborted.load();
  counters.txn_single = txn.single_shard.load();
  counters.txn_multi = txn.multi_shard.load();
  if (sys.mantle != nullptr) {
    IndexService* index = sys.mantle->index();
    for (uint32_t i = 0; i < index->num_replicas(); ++i) {
      if (IndexReplica* replica = index->replica(i)) {
        const TopDirPathCache::CacheStats stats = replica->cache().stats();
        counters.cache_hits += stats.hits;
        counters.cache_misses += stats.misses;
        counters.cache_invalidations += stats.invalidations;
      }
    }
    if (RaftNode* leader = index->group()->leader()) {
      counters.commit_index = leader->commit_index();
    }
  }
  counters.cpu_ns = ProcessCpuNanos();
  return counters;
}

LayerProber::LayerProber(System& sys, const Workload& workload, Checker& check, uint64_t seed)
    : sys_(sys), check_(check), rng_(seed ^ 0x9b0be5ULL) {
  const std::vector<std::string>& objects = workload.probe_objects();
  const std::vector<std::string>& dirs = workload.probe_dirs();
  for (int i = 0; i < 256; ++i) {
    const std::string& path = objects[rng_.Uniform(objects.size())];
    std::vector<std::string> components = SplitPath(path);
    const InodeId parent = ResolveOffline(sys_.tafdb, ParentPath(path));
    if (parent == 0) {
      check_.Fail("probe path " + path + " does not resolve");
      continue;
    }
    object_keys_.push_back(EntryKey(parent, components.back()));
    object_paths_.push_back(std::move(components));
    resolve_paths_.push_back(path);
  }
  for (int i = 0; i < 64; ++i) {
    const std::string& path = dirs[rng_.Uniform(dirs.size())];
    const InodeId id = ResolveOffline(sys_.tafdb, path);
    if (id == 0) {
      check_.Fail("probe dir " + path + " does not resolve");
      continue;
    }
    dir_ids_.push_back(id);
    dir_paths_.push_back(SplitPath(path));
  }
  for (const std::string& path : workload.contended_dirs()) {
    contended_ids_.push_back(ResolveOffline(sys_.tafdb, path));
  }
  list_dir_id_ = ResolveOffline(sys_.tafdb, SuiteListDir());

  ShardMap* shards = sys_.tafdb->shard_map();
  single_shard_pids_ = {kProbePidBase};
  InodeId other = kProbePidBase + 1;
  while (shards->ShardIndex(other) == shards->ShardIndex(kProbePidBase)) {
    ++other;
  }
  two_shard_pids_ = {kProbePidBase, other};

  // Removing an entry of a directory that does not exist: the entry goes
  // through propose, replication and apply, and the namespace stays as it was.
  IndexCommand noop;
  noop.type = IndexCommandType::kRemoveDir;
  noop.pid = kProbePidBase;
  noop.name = "perfbench-noop";
  noop_command_ = EncodeIndexCommand(noop);
}

void LayerProber::Start(SpanBuffer* spans) {
  if (object_keys_.empty() || dir_ids_.empty()) {
    return;  // the constructor already failed the run
  }
  spans_ = spans;
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      Round();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

void LayerProber::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void LayerProber::CommitPair(const char* span, const std::vector<InodeId>& pids) {
  std::vector<WriteOp> puts;
  std::vector<WriteOp> deletes;
  for (InodeId pid : pids) {
    WriteOp put;
    put.kind = WriteOp::Kind::kPut;
    put.expect = WriteOp::Expect::kMustNotExist;
    put.key = EntryKey(pid, "perfbench-probe");
    put.value.type = EntryType::kObject;
    put.value.id = pid;
    puts.push_back(put);
    WriteOp del;
    del.kind = WriteOp::Kind::kDelete;
    del.expect = WriteOp::Expect::kMustExist;
    del.key = put.key;
    deletes.push_back(del);
  }
  for (const std::vector<WriteOp>* ops : {&puts, &deletes}) {
    Status status;
    {
      ScopedSpan scope(spans_, span);
      status = sys_.tafdb->Execute(*ops);
    }
    if (!status.ok()) {
      check_.Fail(std::string(span) + " probe: " + status.ToString());
    }
  }
}

void LayerProber::Round() {
  ShardMap* shards = sys_.tafdb->shard_map();
  // net: a no-op RPC to a TafDB server, and the RTT charge alone.
  for (int i = 0; i < 4; ++i) {
    ServerExecutor* server = shards->ServerAt(static_cast<uint32_t>(round_ * 4 + i) %
                                              shards->num_shards());
    Status status;
    {
      ScopedSpan scope(spans_, "net.hop");
      status = server->Call([] { return Status::Ok(); }, [](Status fault) { return fault; });
    }
    if (!status.ok()) {
      check_.Fail("net.hop probe: " + status.ToString());
    }
  }
  for (int i = 0; i < 2; ++i) {
    ScopedSpan scope(spans_, "net.charge_rtt");
    sys_.network->ChargeRtt();
  }

  // tafdb and kv: the same rows, through the fabric and straight off the shard.
  const MetaKey& key = object_keys_[rng_.Uniform(object_keys_.size())];
  bool found;
  {
    ScopedSpan scope(spans_, "tafdb.get");
    found = sys_.tafdb->Get(key).ok();
  }
  {
    ScopedSpan scope(spans_, "kv.get");
    found = found && shards->Route(key.pid)->Get(key).has_value();
  }
  if (!found) {
    check_.Fail("tafdb/kv get probe missed " + key.ToString());
  }
  {
    const InodeId dir = dir_ids_[rng_.Uniform(dir_ids_.size())];
    ScopedSpan scope(spans_, "tafdb.read_dir_attr");
    if (!sys_.tafdb->ReadDirAttr(dir).ok()) {
      check_.Fail("tafdb.read_dir_attr probe failed");
    }
  }
  size_t listed;
  {
    ScopedSpan scope(spans_, "tafdb.list100");
    auto page = sys_.tafdb->ListChildrenAfter(list_dir_id_, "", 100);
    listed = page.ok() ? page->size() : 0;
  }
  {
    ScopedSpan scope(spans_, "kv.scan100");
    listed = std::min(listed, shards->Route(list_dir_id_)->ScanChildrenAfter(list_dir_id_, "",
                                                                              100).size());
  }
  if (listed != 100) {
    check_.Fail("list/scan probe returned " + std::to_string(listed) + " rows");
  }

  // txn: put-then-delete on benchmark-owned rows, one shard and two.
  CommitPair("txn.single_commit", single_shard_pids_);
  CommitPair("txn.2pc_commit", two_shard_pids_);

  if (sys_.mantle != nullptr) {
    IndexService* index = sys_.mantle->index();
    const auto& object = object_paths_[rng_.Uniform(object_paths_.size())];
    auto parent = [&] {
      ScopedSpan scope(spans_, "index.lookup_parent");
      return index->LookupParent(object);
    }();
    auto dir = [&] {
      ScopedSpan scope(spans_, "index.lookup_dir");
      return index->LookupDir(dir_paths_[rng_.Uniform(dir_paths_.size())]);
    }();
    if (!parent.ok() || !dir.ok()) {
      check_.Fail("index lookup probe failed");
    } else {
      gauges_.lookups += 2;
      gauges_.table_probes += static_cast<uint64_t>(parent->table_probes + dir->table_probes);
    }
    auto applied = [&] {
      ScopedSpan scope(spans_, "raft.propose");
      return index->group()->Propose(noop_command_);
    }();
    if (!applied.ok() || DecodeApplyStatus(*applied).ok()) {
      check_.Fail("raft.propose probe changed the namespace or failed");
    }
  } else {
    const std::string& path = resolve_paths_[rng_.Uniform(resolve_paths_.size())];
    ScopedSpan scope(spans_, "baselines.resolve");
    if (!sys_.service->Lookup(path).ok()) {
      check_.Fail("baselines.resolve probe failed on " + path);
    }
  }
  Sample();
  ++round_;
}

void LayerProber::Sample() {
  uint64_t depth = 0;
  for (const ServerExecutor* server : sys_.tafdb->shard_map()->servers()) {
    depth = std::max<uint64_t>(depth, server->queue_depth());
  }
  if (sys_.mantle != nullptr) {
    RaftGroup* group = sys_.mantle->index()->group();
    uint64_t min_applied = UINT64_MAX;
    for (uint32_t i = 0; i < group->num_nodes(); ++i) {
      RaftNode* node = group->node(i);
      depth = std::max<uint64_t>(depth, node->server()->queue_depth());
      depth = std::max<uint64_t>(depth, node->raft_server()->queue_depth());
      min_applied = std::min(min_applied, node->last_applied());
    }
    if (RaftNode* leader = group->leader()) {
      const uint64_t commit = leader->commit_index();
      if (commit > min_applied) {
        gauges_.apply_lag_max = std::max(gauges_.apply_lag_max, commit - min_applied);
      }
    }
  }
  gauges_.queue_depth_max = std::max(gauges_.queue_depth_max, depth);
  gauges_.compaction_backlog_max =
      std::max<uint64_t>(gauges_.compaction_backlog_max, sys_.tafdb->PendingCompactions());
  for (InodeId dir : contended_ids_) {
    ++gauges_.delta_samples;
    gauges_.delta_active += sys_.tafdb->DeltaModeActive(dir) ? 1 : 0;
  }
}

}  // namespace mantle::perfbench
