// Shared types of the perfbench program: op kinds, the span recorder, the
// answer checker, per-client state, the system under test and the workload
// interface. Everything here lives outside the program: it only calls the
// public functions of the layers under src/.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <array>
#include <atomic>
#include <bitset>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/bench_util/bench_env.h"
#include "src/common/random.h"
#include "src/workload/namespace_gen.h"

namespace mantle::perfbench {

enum Op : int { kObjStat, kDirStat, kList, kCreate, kDelete, kMkdir, kRename, kRmdir, kNumOps };
using OpSet = std::bitset<kNumOps>;

const char* OpName(Op op);

// The benchmark's own clock: every op and span is timed with it.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- spans -----------------------------------------------------------------

struct Span {
  const char* name = nullptr;  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root span of its op
  uint64_t op = 0;      // op id shared by every span of one op
};

// In-memory spans of one thread. A span opened while no span is open starts
// a new op; spans opened inside it nest under the innermost open span.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t thread) : thread_(thread) { spans_.reserve(1 << 16); }

  size_t Open(const char* name);
  void Close(size_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t thread_;
  uint64_t next_id_ = 0;
  uint64_t next_op_ = 0;
  uint64_t current_op_ = 0;
  std::vector<size_t> open_;
  std::vector<Span> spans_;
};

// RAII span; a null buffer (untraced run) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name)
      : buffer_(buffer), index_(buffer != nullptr ? buffer->Open(name) : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      buffer_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  size_t index_;
};

// --- correctness -------------------------------------------------------------

// Collects wrong answers from every thread; keeps the first few messages.
class Checker {
 public:
  void Fail(std::string what);
  uint64_t mismatches() const { return mismatches_.load(std::memory_order_relaxed); }
  std::vector<std::string> messages() const;

 private:
  std::atomic<uint64_t> mismatches_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

// --- clients -------------------------------------------------------------------

// One timed op: when it completed and how long it took.
struct Sample {
  int64_t end_ns = 0;
  int64_t wall_ns = 0;
};

// What one client measured in one phase.
struct ClientStats {
  std::array<std::vector<Sample>, kNumOps> samples;  // per op type
  std::vector<int64_t> unattributed_ns;  // wall time minus OpResult::breakdown
  uint64_t ops = 0;
  uint64_t dir_ops = 0;  // mkdir + rename + rmdir
  uint64_t rpcs = 0;     // sum of OpResult::rpcs
  uint64_t retries = 0;  // sum of OpResult::retries
  uint64_t lookups = 0;  // index lookups issued by rebuilt reads
  uint64_t table_probes = 0;
};

// One closed-loop client thread's state. Clients persist across phases; each
// phase swaps in fresh stats.
struct Client {
  Client(int index, uint64_t seed) : index(index), rng(seed) {}

  int index;
  Rng rng;
  SpanBuffer* spans = nullptr;  // set in the traced phase only
  const std::atomic<bool>* measuring = nullptr;
  ClientStats stats;
  uint64_t attempted = 0;  // every op issued, measured or not
  uint64_t failed = 0;
};

// --- the system under test -------------------------------------------------------

struct System {
  SystemInstance instance;
  MetadataService* service = nullptr;
  MantleService* mantle = nullptr;  // null on Tectonic
  TafDb* tafdb = nullptr;
  Network* network = nullptr;
};

// Builds the paper-scaled MakeSystem topology with the default cost model.
System BuildSystem(SystemKind kind);

// Resolves `path` to the id of its final component by reading TafDB entry rows
// directly (no RPC); 0 when some component is missing.
InodeId ResolveOffline(TafDb* tafdb, const std::string& path);

// --- workloads ---------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  virtual SystemKind system() const = 0;
  // Op types the measured window issues; the op suite covers the rest.
  virtual OpSet mix() const = 0;
  // Entries bulk-loaded at set-up, parents before children.
  const std::vector<BulkEntry>& preload() const { return preload_; }

  // One closed-loop step of client `c`.
  virtual void Step(System& sys, Client& c, Checker& check) = 0;
  // Completes any multi-op sequence left open when a phase stops (untimed).
  virtual void Drain(System& sys, Client& c, Checker& check) {}
  // End-of-run answer audit against the benchmark's own bookkeeping.
  // `corrupt` deliberately expects one wrong answer (self-test).
  virtual void Audit(System& sys, Checker& check, bool corrupt) = 0;

  // Paths the layer probes of the traced run read.
  virtual const std::vector<std::string>& probe_objects() const = 0;
  virtual const std::vector<std::string>& probe_dirs() const = 0;
  // Directories this workload writes under contention (delta-mode samples).
  virtual std::vector<std::string> contended_dirs() const { return {}; }

 protected:
  // Generates the Fig 12 namespace (20k dirs, 200k objects, mean depth 10,
  // times `scale`) that every workload loads, and appends its directories to
  // the preload; AppendNamespaceObjects adds its objects once every workload
  // directory is in.
  void AppendNamespaceDirs(uint64_t seed, double scale);
  void AppendNamespaceObjects();

  GeneratedNamespace ns_;
  std::vector<BulkEntry> preload_;
};

// `scale` shrinks namespace sizes (self-test); 1 is the benchmark.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, double scale,
                                       int clients);
bool IsWorkloadName(const std::string& name);

// --- the op suite ------------------------------------------------------------------
//
// Every workload preloads a small suite area. For as long as the measured
// window, after it, the clients loop over the suite's cycle - mkdir, create,
// objstat, list, delete, rename, rmdir - restricted to the op types the
// window did not issue, so every workload reports a latency for every op type.

void AppendSuitePreload(std::vector<BulkEntry>& preload, int clients);
void RunSuiteCycle(System& sys, Client& c, Checker& check, const OpSet& ops, uint64_t cycle);
void AuditSuite(System& sys, Checker& check, int clients);
// The suite's 150-entry listing directory (list/scan probes).
const std::string& SuiteListDir();
std::vector<std::string> SuiteListObjects();

// --- timed op helpers (workloads.cc) ---------------------------------------------

StatResult StatObjectOp(System& sys, Client& c, const std::string& path);
StatResult StatDirOp(System& sys, Client& c, const std::string& path);
OpResult ListOp(System& sys, Client& c, const std::string& dir, const std::string& after,
                MetadataService::ListPage* page);
OpResult CreateOp(System& sys, Client& c, const std::string& path, uint64_t size);
OpResult DeleteOp(System& sys, Client& c, const std::string& path);
OpResult MkdirOp(System& sys, Client& c, const std::string& path);
OpResult RenameOp(System& sys, Client& c, const std::string& src, const std::string& dst);
OpResult RmdirOp(System& sys, Client& c, const std::string& path);

// Checks a list page of `dir` against names[first, first + 100) of its
// sorted entries `names`.
void CheckPage(Checker& check, const MetadataService::ListPage& page, const std::string& dir,
               const std::vector<std::string>& names, size_t first);

}  // namespace mantle::perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
