// The four workloads, the op suite, and the timed op helpers they share.

#include <cstdio>
#include <deque>
#include <utility>

#include "perfbench/src/bench.h"
#include "src/common/path.h"

namespace mantle::perfbench {

const char* OpName(Op op) {
  static constexpr const char* kNames[kNumOps] = {"objstat", "dirstat", "list",   "create",
                                                  "delete",  "mkdir",   "rename", "rmdir"};
  return kNames[op];
}

// --- spans and checks ----------------------------------------------------------

size_t SpanBuffer::Open(const char* name) {
  Span span;
  span.name = name;
  span.id = (thread_ << 40) | ++next_id_;
  if (open_.empty()) {
    current_op_ = (thread_ << 40) | ++next_op_;
  } else {
    span.parent = spans_[open_.back()].id;
  }
  span.op = current_op_;
  span.start_ns = NowNanos();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanBuffer::Close(size_t index) {
  spans_[index].end_ns = NowNanos();
  open_.pop_back();
}

void Checker::Fail(std::string what) {
  mismatches_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (messages_.size() < 16) {
    messages_.push_back(std::move(what));
  }
}

std::vector<std::string> Checker::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

// --- system -------------------------------------------------------------------------

System BuildSystem(SystemKind kind) {
  System sys;
  sys.instance = MakeSystem(kind);
  sys.service = sys.instance.get();
  sys.network = sys.instance.network.get();
  sys.mantle = sys.instance.mantle;
  sys.tafdb = sys.mantle != nullptr ? sys.mantle->tafdb()
                                    : static_cast<TectonicService*>(sys.service)->tafdb();
  return sys;
}

InodeId ResolveOffline(TafDb* tafdb, const std::string& path) {
  InodeId id = kRootId;
  for (const std::string& component : SplitPath(path)) {
    std::optional<MetaValue> row = tafdb->LocalGet(EntryKey(id, component));
    if (!row.has_value()) {
      return 0;
    }
    id = row->id;
  }
  return id;
}

void Workload::AppendNamespaceDirs(uint64_t seed, double scale) {
  NamespaceSpec spec;
  spec.num_dirs = std::max<uint64_t>(200, static_cast<uint64_t>(20'000 * scale));
  spec.num_objects = std::max<uint64_t>(2'000, static_cast<uint64_t>(200'000 * scale));
  spec.seed = seed;
  ns_ = GenerateNamespace(spec);
  for (const std::string& dir : ns_.dirs) {
    preload_.push_back(BulkEntry::Dir(dir));
  }
}

void Workload::AppendNamespaceObjects() {
  for (size_t i = 0; i < ns_.objects.size(); ++i) {
    preload_.push_back(BulkEntry::Object(ns_.objects[i], ns_.object_sizes[i]));
  }
}

// --- timed ops ------------------------------------------------------------------------

namespace {

// Runs one op under its root span, timed with the benchmark clock. The sample
// is kept only while the phase is measuring; every op counts as attempted.
template <typename R, typename Fn>
R Timed(Client& c, Op op, Fn&& fn) {
  ScopedSpan span(c.spans, OpName(op));
  const int64_t start = NowNanos();
  R result = fn();
  const int64_t end = NowNanos();
  const int64_t wall = end - start;
  ++c.attempted;
  if (!result.ok()) {
    ++c.failed;
  }
  if (c.measuring != nullptr && c.measuring->load(std::memory_order_acquire)) {
    ClientStats& stats = c.stats;
    stats.samples[op].push_back({end, wall});
    if (c.spans == nullptr) {
      stats.unattributed_ns.push_back(wall - result.breakdown.total_nanos());
    }
    ++stats.ops;
    stats.rpcs += static_cast<uint64_t>(result.rpcs);
    stats.retries += static_cast<uint64_t>(result.retries);
    if (op == kMkdir || op == kRename || op == kRmdir) {
      ++stats.dir_ops;
    }
  }
  return result;
}

// objstat rebuilt from public layer calls: IndexService::LookupParent, then
// TafDb::Get of the leaf's entry row.
StatResult RebuiltStatObject(System& sys, Client& c, const std::string& path) {
  StatResult result;
  const std::vector<std::string> components = SplitPath(path);
  auto parent = [&] {
    ScopedSpan span(c.spans, "index.lookup_parent");
    return sys.mantle->index()->LookupParent(components);
  }();
  if (!parent.ok()) {
    result.status = parent.status();
    return result;
  }
  ++c.stats.lookups;
  c.stats.table_probes += static_cast<uint64_t>(parent->table_probes);
  auto row = [&] {
    ScopedSpan span(c.spans, "tafdb.get");
    return sys.tafdb->Get(EntryKey(parent->dir_id, components.back()));
  }();
  if (!row.ok()) {
    result.status = row.status();
    return result;
  }
  result.info.id = row->id;
  result.info.is_dir = row->IsDirectoryEntry();
  result.info.size = row->size;
  return result;
}

// dirstat rebuilt from IndexService::LookupDir, then TafDb::ReadDirAttr.
StatResult RebuiltStatDir(System& sys, Client& c, const std::string& path) {
  StatResult result;
  auto dir = [&] {
    ScopedSpan span(c.spans, "index.lookup_dir");
    return sys.mantle->index()->LookupDir(SplitPath(path));
  }();
  if (!dir.ok()) {
    result.status = dir.status();
    return result;
  }
  ++c.stats.lookups;
  c.stats.table_probes += static_cast<uint64_t>(dir->table_probes);
  auto attr = [&] {
    ScopedSpan span(c.spans, "tafdb.read_dir_attr");
    return sys.tafdb->ReadDirAttr(dir->dir_id);
  }();
  if (!attr.ok()) {
    result.status = attr.status();
    return result;
  }
  result.info.id = dir->dir_id;
  result.info.is_dir = true;
  result.info.child_count = attr->child_count;
  return result;
}

bool Rebuild(const System& sys, const Client& c) {
  return c.spans != nullptr && sys.mantle != nullptr;
}

}  // namespace

StatResult StatObjectOp(System& sys, Client& c, const std::string& path) {
  return Timed<StatResult>(c, kObjStat, [&] {
    return Rebuild(sys, c) ? RebuiltStatObject(sys, c, path) : sys.service->StatObject(path);
  });
}

StatResult StatDirOp(System& sys, Client& c, const std::string& path) {
  return Timed<StatResult>(c, kDirStat, [&] {
    return Rebuild(sys, c) ? RebuiltStatDir(sys, c, path) : sys.service->StatDir(path);
  });
}

OpResult ListOp(System& sys, Client& c, const std::string& dir, const std::string& after,
                MetadataService::ListPage* page) {
  return Timed<OpResult>(c, kList,
                         [&] { return sys.service->ListObjects(dir, after, 100, page); });
}

OpResult CreateOp(System& sys, Client& c, const std::string& path, uint64_t size) {
  return Timed<OpResult>(c, kCreate, [&] { return sys.service->CreateObject(path, size); });
}

OpResult DeleteOp(System& sys, Client& c, const std::string& path) {
  return Timed<OpResult>(c, kDelete, [&] { return sys.service->DeleteObject(path); });
}

OpResult MkdirOp(System& sys, Client& c, const std::string& path) {
  return Timed<OpResult>(c, kMkdir, [&] { return sys.service->Mkdir(path); });
}

OpResult RenameOp(System& sys, Client& c, const std::string& src, const std::string& dst) {
  return Timed<OpResult>(c, kRename, [&] { return sys.service->RenameDir(src, dst); });
}

OpResult RmdirOp(System& sys, Client& c, const std::string& path) {
  return Timed<OpResult>(c, kRmdir, [&] { return sys.service->Rmdir(path); });
}

void CheckPage(Checker& check, const MetadataService::ListPage& page, const std::string& dir,
               const std::vector<std::string>& names, size_t first) {
  const size_t end = std::min(names.size(), first + 100);
  bool same = page.names.size() == end - first && page.truncated == (end < names.size());
  for (size_t i = 0; same && i < page.names.size(); ++i) {
    same = page.names[i] == names[first + i];
  }
  if (!same) {
    check.Fail("list " + dir + " after entry " + std::to_string(first) + " returned " +
               std::to_string(page.names.size()) + " names, not the expected page");
  }
}

namespace {

// A chain of `levels` directories under `/name`, appended to `preload`;
// returns the deepest path.
std::string AppendChain(std::vector<BulkEntry>& preload, const std::string& name, int levels) {
  std::string path = "/" + name;
  preload.push_back(BulkEntry::Dir(path));
  for (int level = 1; level <= levels; ++level) {
    path += "/l" + std::to_string(level);
    preload.push_back(BulkEntry::Dir(path));
  }
  return path;
}

std::string Numbered(const char* prefix, int width, uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s%0*llu", prefix, width,
                static_cast<unsigned long long>(value));
  return buffer;
}

void ExpectDirCount(System& sys, Checker& check, const std::string& path, int64_t expected) {
  StatResult stat = sys.service->StatDir(path);
  if (!stat.ok() || !stat.info.is_dir || stat.info.child_count != expected) {
    check.Fail("dirstat " + path + ": child count " + std::to_string(stat.info.child_count) +
               ", expected " + std::to_string(expected) + " (" + stat.status.ToString() + ")");
  }
}

void ExpectObject(Checker& check, const StatResult& stat, const std::string& path,
                  uint64_t size) {
  if (stat.ok() && (stat.info.is_dir || stat.info.size != size)) {
    check.Fail("objstat " + path + ": size " + std::to_string(stat.info.size) + ", expected " +
               std::to_string(size));
  }
}

void ExpectDir(Checker& check, const StatResult& stat, const std::string& path) {
  if (stat.ok() && !stat.info.is_dir) {
    check.Fail("dirstat " + path + " answered an object");
  }
}

// --- op suite --------------------------------------------------------------------------

constexpr size_t kSuiteListEntries = 150;

const std::string& SuiteBase() {
  static const std::string base = "/suite/l1/l2/l3/l4/l5/l6";
  return base;
}

// Each client mutates its own pair of suite directories, so suite latencies
// measure each op uncontended; contention is what the workloads measure.
std::string SuiteDir(const char* kind, int client) {
  return SuiteBase() + "/" + kind + std::to_string(client);
}

const std::vector<std::string>& SuiteListNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (size_t i = 0; i < kSuiteListEntries; ++i) {
      out.push_back(Numbered("e", 3, i));
    }
    return out;
  }();
  return names;
}

}  // namespace

const std::string& SuiteListDir() {
  static const std::string dir = SuiteBase() + "/ls";
  return dir;
}

std::vector<std::string> SuiteListObjects() {
  std::vector<std::string> paths;
  for (const std::string& name : SuiteListNames()) {
    paths.push_back(SuiteListDir() + "/" + name);
  }
  return paths;
}

void AppendSuitePreload(std::vector<BulkEntry>& preload, int clients) {
  AppendChain(preload, "suite", 6);
  for (int t = 0; t < clients; ++t) {
    preload.push_back(BulkEntry::Dir(SuiteDir("mk", t)));
    preload.push_back(BulkEntry::Dir(SuiteDir("mv", t)));
  }
  preload.push_back(BulkEntry::Dir(SuiteListDir()));
  for (const std::string& path : SuiteListObjects()) {
    preload.push_back(BulkEntry::Object(path, 4096));
  }
}

void RunSuiteCycle(System& sys, Client& c, Checker& check, const OpSet& ops, uint64_t cycle) {
  const std::string tag = std::to_string(c.index) + "_" + std::to_string(cycle);
  const bool dirs = ops[kMkdir] || ops[kRename] || ops[kRmdir];
  const bool objects = ops[kCreate] || ops[kDelete] || ops[kObjStat];
  std::string home = SuiteDir("mk", c.index);
  if (dirs) {
    home += "/x" + tag;
    MkdirOp(sys, c, home);
  }
  if (objects) {
    const std::string object = home + "/o" + tag;
    const uint64_t size = 1 + cycle;
    CreateOp(sys, c, object, size);
    ExpectObject(check, StatObjectOp(sys, c, object), object, size);
    DeleteOp(sys, c, object);
  }
  if (ops[kList]) {
    const size_t after = c.rng.Uniform(kSuiteListEntries - 100);
    MetadataService::ListPage page;
    if (ListOp(sys, c, SuiteListDir(), SuiteListNames()[after], &page).ok()) {
      CheckPage(check, page, SuiteListDir(), SuiteListNames(), after + 1);
    }
  }
  if (dirs) {
    const std::string moved = SuiteDir("mv", c.index) + "/x" + tag;
    RenameOp(sys, c, home, moved);
    RmdirOp(sys, c, moved);
  }
}

void AuditSuite(System& sys, Checker& check, int clients) {
  for (int t = 0; t < clients; ++t) {
    ExpectDirCount(sys, check, SuiteDir("mk", t), 0);
    ExpectDirCount(sys, check, SuiteDir("mv", t), 0);
  }
  ExpectDirCount(sys, check, SuiteListDir(), static_cast<int64_t>(kSuiteListEntries));
}

namespace {

// --- stat_read / tectonic_read -----------------------------------------------------------
//
// 80% objstat, 20% dirstat, uniform over the generated namespace.
class StatRead final : public Workload {
 public:
  StatRead(SystemKind kind, uint64_t seed, double scale, int clients) : kind_(kind) {
    AppendNamespaceDirs(seed, scale);
    AppendSuitePreload(preload_, clients);
    AppendNamespaceObjects();
  }

  SystemKind system() const override { return kind_; }
  OpSet mix() const override { return OpSet().set(kObjStat).set(kDirStat); }

  void Step(System& sys, Client& c, Checker& check) override {
    if (c.rng.NextDouble() < 0.8) {
      const size_t i = c.rng.Uniform(ns_.objects.size());
      ExpectObject(check, StatObjectOp(sys, c, ns_.objects[i]), ns_.objects[i],
                   ns_.object_sizes[i]);
    } else {
      const std::string& dir = ns_.dirs[c.rng.Uniform(ns_.dirs.size())];
      ExpectDir(check, StatDirOp(sys, c, dir), dir);
    }
  }

  void Audit(System& sys, Checker& check, bool corrupt) override {
    const size_t stride = std::max<size_t>(1, ns_.objects.size() / 256);
    for (size_t i = 0; i < ns_.objects.size(); i += stride) {
      const uint64_t expected = ns_.object_sizes[i] + (corrupt && i == 0 ? 1 : 0);
      StatResult stat = sys.service->StatObject(ns_.objects[i]);
      if (!stat.ok()) {
        check.Fail("objstat " + ns_.objects[i] + ": " + stat.status.ToString());
      }
      ExpectObject(check, stat, ns_.objects[i], expected);
    }
    for (size_t i = 0; i < ns_.dirs.size(); i += std::max<size_t>(1, ns_.dirs.size() / 64)) {
      StatResult stat = sys.service->StatDir(ns_.dirs[i]);
      if (!stat.ok()) {
        check.Fail("dirstat " + ns_.dirs[i] + ": " + stat.status.ToString());
      }
      ExpectDir(check, stat, ns_.dirs[i]);
    }
  }

  const std::vector<std::string>& probe_objects() const override { return ns_.objects; }
  const std::vector<std::string>& probe_dirs() const override { return ns_.dirs; }

 private:
  SystemKind kind_;
};

// --- hot_dir_mixed ---------------------------------------------------------------------
//
// 16 hot directories preloaded with 1000 objects each, beside the generated
// namespace: 30% create, 30% delete of the client's own earlier creates, 25%
// objstat, 10% dirstat and 5% list pages of 100 entries.
class HotDirMixed final : public Workload {
 public:
  static constexpr int kHotDirs = 16;
  static constexpr int kPreloaded = 1000;

  HotDirMixed(uint64_t seed, double scale, int clients) {
    AppendNamespaceDirs(seed, scale);
    const std::string base = AppendChain(preload_, "hot", 7);
    Rng rng(seed ^ 0x4d0d1e5ULL);
    for (int i = 0; i < kPreloaded; ++i) {
      names_.push_back(Numbered("o", 4, static_cast<uint64_t>(i)));
    }
    for (int d = 0; d < kHotDirs; ++d) {
      dirs_.push_back(base + Numbered("/h", 2, static_cast<uint64_t>(d)));
      preload_.push_back(BulkEntry::Dir(dirs_.back()));
    }
    AppendSuitePreload(preload_, clients);
    AppendNamespaceObjects();
    for (int d = 0; d < kHotDirs; ++d) {
      for (int i = 0; i < kPreloaded; ++i) {
        objects_.push_back(dirs_[d] + "/" + names_[i]);
        sizes_.push_back(1 + rng.Uniform(1 << 20));
        preload_.push_back(BulkEntry::Object(objects_.back(), sizes_.back()));
      }
    }
    state_.resize(static_cast<size_t>(clients));
    for (State& state : state_) {
      state.net.assign(kHotDirs, 0);
    }
  }

  SystemKind system() const override { return SystemKind::kMantle; }
  OpSet mix() const override {
    return OpSet().set(kCreate).set(kDelete).set(kObjStat).set(kDirStat).set(kList);
  }

  void Step(System& sys, Client& c, Checker& check) override {
    State& state = state_[static_cast<size_t>(c.index)];
    const double draw = c.rng.NextDouble();
    if (draw < 0.30 || (draw < 0.60 && state.live.empty())) {
      // Created names start with 'c', so they sort before every preloaded
      // 'o' name and never enter the list pages checked below.
      const int d = static_cast<int>(c.rng.Uniform(kHotDirs));
      const std::string path =
          dirs_[d] + "/c" + std::to_string(c.index) + "_" + std::to_string(state.seq++);
      if (CreateOp(sys, c, path, 4096).ok()) {
        state.live.emplace_back(d, path);
        ++state.net[d];
      }
    } else if (draw < 0.60) {
      auto [d, path] = state.live.front();
      state.live.pop_front();
      if (DeleteOp(sys, c, path).ok()) {
        --state.net[d];
      }
    } else if (draw < 0.85) {
      const size_t i = c.rng.Uniform(objects_.size());
      ExpectObject(check, StatObjectOp(sys, c, objects_[i]), objects_[i], sizes_[i]);
    } else if (draw < 0.95) {
      const std::string& dir = dirs_[c.rng.Uniform(kHotDirs)];
      StatResult stat = StatDirOp(sys, c, dir);
      ExpectDir(check, stat, dir);
      if (stat.ok() && stat.info.child_count < kPreloaded) {
        check.Fail("dirstat " + dir + ": child count below the preloaded objects");
      }
    } else {
      const std::string& dir = dirs_[c.rng.Uniform(kHotDirs)];
      const size_t after = c.rng.Uniform(kPreloaded - 100);
      MetadataService::ListPage page;
      if (ListOp(sys, c, dir, names_[after], &page).ok()) {
        CheckPage(check, page, dir, names_, after + 1);
      }
    }
  }

  void Audit(System& sys, Checker& check, bool corrupt) override {
    for (int d = 0; d < kHotDirs; ++d) {
      int64_t expected = kPreloaded + (corrupt && d == 0 ? 1 : 0);
      for (const State& state : state_) {
        expected += state.net[d];
      }
      ExpectDirCount(sys, check, dirs_[d], expected);
    }
    for (size_t i = 0; i < objects_.size(); i += objects_.size() / 64) {
      ExpectObject(check, sys.service->StatObject(objects_[i]), objects_[i], sizes_[i]);
    }
  }

  const std::vector<std::string>& probe_objects() const override { return objects_; }
  const std::vector<std::string>& probe_dirs() const override { return dirs_; }
  std::vector<std::string> contended_dirs() const override { return dirs_; }

 private:
  struct State {
    std::deque<std::pair<int, std::string>> live;  // own creates, oldest first
    std::vector<int64_t> net;                      // creates minus deletes per dir
    uint64_t seq = 0;
  };

  std::vector<std::string> dirs_;
  std::vector<std::string> names_;
  std::vector<std::string> objects_;
  std::vector<uint64_t> sizes_;
  std::vector<State> state_;
};

// --- dir_mutate ---------------------------------------------------------------------------
//
// Each client pipelines mkdir into a shared parent, rename into a second
// shared parent, then rmdir (the Spark commit pattern), beside the generated
// namespace; ~10% of steps are dirstats of the two parents.
class DirMutate final : public Workload {
 public:
  DirMutate(uint64_t seed, double scale, int clients) : clients_(clients) {
    AppendNamespaceDirs(seed, scale);
    const std::string base = AppendChain(preload_, "mut", 7);
    src_ = base + "/src";
    dst_ = base + "/dst";
    parents_ = {src_, dst_};
    preload_.push_back(BulkEntry::Dir(src_));
    preload_.push_back(BulkEntry::Dir(dst_));
    AppendSuitePreload(preload_, clients);
    AppendNamespaceObjects();
    list_objects_ = SuiteListObjects();
    state_.resize(static_cast<size_t>(clients));
  }

  SystemKind system() const override { return SystemKind::kMantle; }
  OpSet mix() const override {
    return OpSet().set(kMkdir).set(kRename).set(kRmdir).set(kDirStat);
  }

  void Step(System& sys, Client& c, Checker& check) override {
    if (c.rng.NextDouble() < 0.1) {
      const std::string& parent = parents_[c.rng.Uniform(2)];
      StatResult stat = StatDirOp(sys, c, parent);
      ExpectDir(check, stat, parent);
      // Each client holds at most one child in either parent at a time.
      if (stat.ok() && (stat.info.child_count < 0 || stat.info.child_count > clients_)) {
        check.Fail("dirstat " + parent + ": child count " +
                   std::to_string(stat.info.child_count) + " outside [0, clients]");
      }
      return;
    }
    Advance(sys, c);
  }

  void Drain(System& sys, Client& c, Checker& check) override {
    // Bounded: a failing op leaves the stage unchanged, so give up after a
    // few tries (the failures are already counted).
    for (int tries = 0; state_[static_cast<size_t>(c.index)].stage != 0 && tries < 8; ++tries) {
      Advance(sys, c);
    }
  }

  void Audit(System& sys, Checker& check, bool corrupt) override {
    ExpectDirCount(sys, check, src_, corrupt ? 1 : 0);
    ExpectDirCount(sys, check, dst_, 0);
  }

  const std::vector<std::string>& probe_objects() const override { return list_objects_; }
  const std::vector<std::string>& probe_dirs() const override { return parents_; }
  std::vector<std::string> contended_dirs() const override { return parents_; }

 private:
  struct State {
    int stage = 0;  // 0 = mkdir next, 1 = rename next, 2 = rmdir next
    uint64_t seq = 0;
  };

  void Advance(System& sys, Client& c) {
    State& state = state_[static_cast<size_t>(c.index)];
    const std::string name = "/d" + std::to_string(c.index) + "_" + std::to_string(state.seq);
    switch (state.stage) {
      case 0:
        if (MkdirOp(sys, c, src_ + name).ok()) {
          state.stage = 1;
        }
        break;
      case 1:
        if (RenameOp(sys, c, src_ + name, dst_ + name).ok()) {
          state.stage = 2;
        }
        break;
      default:
        if (RmdirOp(sys, c, dst_ + name).ok()) {
          state.stage = 0;
          ++state.seq;
        }
        break;
    }
  }

  int clients_;
  std::string src_;
  std::string dst_;
  std::vector<std::string> parents_;
  std::vector<std::string> list_objects_;
  std::vector<State> state_;
};

}  // namespace

bool IsWorkloadName(const std::string& name) {
  return name == "stat_read" || name == "hot_dir_mixed" || name == "dir_mutate" ||
         name == "tectonic_read";
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, double scale,
                                       int clients) {
  if (name == "stat_read") {
    return std::make_unique<StatRead>(SystemKind::kMantle, seed, scale, clients);
  }
  if (name == "tectonic_read") {
    return std::make_unique<StatRead>(SystemKind::kTectonic, seed, scale, clients);
  }
  if (name == "hot_dir_mixed") {
    return std::make_unique<HotDirMixed>(seed, scale, clients);
  }
  if (name == "dir_mutate") {
    return std::make_unique<DirMutate>(seed, scale, clients);
  }
  return nullptr;
}

}  // namespace mantle::perfbench
