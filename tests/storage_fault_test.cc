// Crash-recovery property tests driven by FaultInjectingEnv: a recording
// run counts every mutating filesystem op a workload performs (appends,
// fsyncs, renames, removes, directory syncs — including those inside
// segment rolls and compactions), then the sweep kills the store at *every*
// one of those failpoints, simulates power loss (dropping unsynced bytes,
// keeping a varying torn tail), reopens, and checks the recovered store
// against a model:
//
//   recovered state == model snapshot j,  durable_floor ≤ j ≤ attempted
//
// where durable_floor is what the FsyncPolicy guarantees (every
// acknowledged op under kEveryPut; the last full group-commit window under
// kInterval; nothing under kNone) and `attempted` includes the op in
// flight at the crash — it may or may not have landed, but nothing outside
// the prefix may appear and no acknowledged-durable op may vanish.
//
// A separate two-process test proves the flock single-writer contract the
// same way a second real writer would hit it.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/storage/fault_env.h"
#include "topkpkg/storage/session_store.h"

namespace topkpkg::storage {
namespace {

using ModelState = std::map<std::uint64_t, std::string>;

constexpr int kWorkloadOps = 40;
constexpr int kCompactAtOp = 25;

std::string TempStorePath(const std::string& name) {
  std::string path = ::testing::TempDir() + "topkpkg_fault_" + name + "_" +
                     std::to_string(::getpid()) + ".tkps";
  std::filesystem::remove_all(path);
  return path;
}

SessionStoreOptions SmallSegmentOptions(FsyncPolicy policy, Env* env) {
  SessionStoreOptions opts;
  opts.fsync_policy = policy;
  opts.group_commit_puts = 5;
  opts.segment_max_bytes = 384;  // Tiny: the workload rolls several times.
  opts.compact_dead_ratio = 0.5;
  opts.env = env;
  return opts;
}

// Workload step `i`: a put to session 1 + i % 12, except step kCompactAtOp,
// a manual Compact with no logical change. Deterministic, overwrite-heavy
// (so sealed segments go mostly dead and auto-compaction fires mid-sweep).
std::uint64_t OpSession(int i) {
  return 1 + static_cast<std::uint64_t>(i % 12);
}

std::string OpValue(int i) {
  return "op-" + std::to_string(i) + "-" +
         std::string(20 + static_cast<std::size_t>(i * 13 % 60), 'a' + i % 26);
}

void ApplyModelOp(int i, ModelState& state) {
  if (i != kCompactAtOp) state[OpSession(i)] = OpValue(i);
}

Status ApplyStoreOp(int i, SessionStore& store) {
  if (i == kCompactAtOp) return store.Compact();
  return store.Put(OpSession(i), OpValue(i));
}

bool StoreMatches(const SessionStore& store, const ModelState& snapshot) {
  if (store.keydir_size() != snapshot.size()) return false;
  for (const auto& [session_id, value] : snapshot) {
    auto got = store.Get(session_id);
    if (!got.ok() || *got != value) return false;
  }
  return true;
}

// Floor of provably durable workload steps after `acked` acknowledged ones.
int DurableFloor(FsyncPolicy policy, int acked, std::size_t group) {
  switch (policy) {
    case FsyncPolicy::kEveryPut:
      return acked;
    case FsyncPolicy::kInterval: {
      // The group-commit counter resets at every sync point (group
      // boundary, seal, compaction), so windows don't align to absolute op
      // counts — the guarantee is just that at most one window of
      // acknowledged mutations can vanish.
      const int floor = acked - static_cast<int>(group) + 1;
      return floor > 0 ? floor : 0;
    }
    case FsyncPolicy::kNone:
      return 0;
  }
  return 0;
}

// Runs the whole crash sweep for one fsync policy. `stride` thins the
// failpoint list (1 = every mutating op).
void RunCrashSweep(FsyncPolicy policy, const std::string& name, int stride) {
  const std::string path = TempStorePath(name);

  // Recording run: no faults, count the ops and snapshot the model.
  FaultInjectingEnv record_env(Env::Default());
  std::vector<ModelState> snapshots(1);
  {
    auto store =
        SessionStore::Open(path, SmallSegmentOptions(policy, &record_env));
    ASSERT_TRUE(store.ok()) << store.status();
    for (int i = 0; i < kWorkloadOps; ++i) {
      ASSERT_TRUE(ApplyStoreOp(i, *store).ok()) << "recording op " << i;
      snapshots.push_back(snapshots.back());
      ApplyModelOp(i, snapshots.back());
    }
    // The workload must actually exercise the multi-segment machinery, or
    // the sweep proves nothing about rolls and compactions.
    ASSERT_GE(store->stats().segment_rolls, 2u);
    ASSERT_GE(store->stats().compactions, 1u);
    ASSERT_TRUE(StoreMatches(*store, snapshots.back()));
  }
  const std::uint64_t total_ops = record_env.ops();
  ASSERT_GT(total_ops, 20u);

  for (std::uint64_t crash_at = 0; crash_at < total_ops;
       crash_at += static_cast<std::uint64_t>(stride)) {
    SCOPED_TRACE(name + ": crash at failpoint " +
                 std::to_string(crash_at) + "/" + std::to_string(total_ops));
    std::filesystem::remove_all(path);
    FaultInjectingEnv env(Env::Default());
    env.ResetCounters();
    env.set_crash_at(static_cast<std::int64_t>(crash_at));

    int acked = 0;
    int attempted = 0;
    {
      auto store = SessionStore::Open(path, SmallSegmentOptions(policy, &env));
      if (store.ok()) {
        for (int i = 0; i < kWorkloadOps; ++i) {
          attempted = i + 1;
          if (!ApplyStoreOp(i, *store).ok()) break;
          acked = i + 1;
        }
      }
      // else: the crash hit during Open itself — zero ops acknowledged.
    }
    if (!env.crashed()) {
      // This failpoint is beyond what the run needed (layout divergence);
      // nothing to recover.
      continue;
    }

    // Power loss: unsynced bytes vanish, except a deterministic sliver of
    // torn tail — sweeping the sliver sweeps torn-record boundaries.
    ASSERT_TRUE(env.LoseUnsyncedData(crash_at % 5).ok());

    // Reboot: disarm the failpoint, reopen, and compare against the model.
    env.set_crash_at(-1);
    env.ResetCounters();
    auto recovered =
        SessionStore::Open(path, SmallSegmentOptions(policy, &env));
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    const int floor =
        DurableFloor(policy, acked, SmallSegmentOptions(policy, &env).group_commit_puts);
    bool matched = false;
    for (int j = floor; j <= attempted && !matched; ++j) {
      matched = StoreMatches(*recovered, snapshots[static_cast<std::size_t>(j)]);
    }
    EXPECT_TRUE(matched) << "recovered state matches no model snapshot in ["
                         << floor << ", " << attempted << "]";
    // The recovered store must be fully writable again.
    ASSERT_TRUE(recovered->Put(99, "post-recovery-probe").ok());
    EXPECT_EQ(*recovered->Get(99), "post-recovery-probe");
  }
}

TEST(StorageFaultTest, CrashSweepEveryFailpointEveryPut) {
  RunCrashSweep(FsyncPolicy::kEveryPut, "sweep_everyput", /*stride=*/1);
}

TEST(StorageFaultTest, CrashSweepEveryFailpointInterval) {
  RunCrashSweep(FsyncPolicy::kInterval, "sweep_interval", /*stride=*/1);
}

TEST(StorageFaultTest, CrashSweepFailpointsNone) {
  RunCrashSweep(FsyncPolicy::kNone, "sweep_none", /*stride=*/1);
}

// A put acknowledged under kEveryPut survives even the harshest power loss
// (every unsynced byte dropped) — the policy's headline guarantee, checked
// directly rather than through the sweep's snapshot matching.
TEST(StorageFaultTest, AcknowledgedSyncedPutSurvivesTotalPageCacheLoss) {
  const std::string path = TempStorePath("acked");
  FaultInjectingEnv env(Env::Default());
  SessionStoreOptions opts;
  opts.fsync_policy = FsyncPolicy::kEveryPut;
  opts.env = &env;
  {
    auto store = SessionStore::Open(path, opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Put(7, "must-survive").ok());
    ASSERT_TRUE(store->Put(8, "also-durable").ok());
  }
  ASSERT_TRUE(env.LoseUnsyncedData(0).ok());
  auto recovered = SessionStore::Open(path, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(*recovered->Get(7), "must-survive");
  EXPECT_EQ(*recovered->Get(8), "also-durable");
}

// Transient outage shape (the one SessionManager retries against): writes
// fail while the flag is up, and the same store object works again —
// without reopening — once it clears.
TEST(StorageFaultTest, TransientOutageFailsPutsThenHealsInPlace) {
  const std::string path = TempStorePath("outage");
  FaultInjectingEnv env(Env::Default());
  SessionStoreOptions opts;
  opts.env = &env;
  auto store = SessionStore::Open(path, opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Put(1, "before").ok());

  env.set_fail_writes(true);
  EXPECT_FALSE(store->Put(1, "during").ok());
  EXPECT_FALSE(store->Put(2, "during-2").ok());
  // Reads keep working off the keydir through the outage.
  EXPECT_EQ(*store->Get(1), "before");

  env.set_fail_writes(false);
  ASSERT_TRUE(store->Put(1, "after").ok());
  EXPECT_EQ(*store->Get(1), "after");
  ASSERT_TRUE(store->Sync().ok());
}

// The flock is held by the open file description, so it excludes other
// *processes* — the deployment shape the LOCK file exists for.
TEST(SessionStoreLockTest, SecondProcessOpenFailsFailedPrecondition) {
  const std::string path = TempStorePath("two_process_lock");
  auto store = SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->Put(1, "parent-owns-this").ok());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: the open must bounce off the parent's lock. _exit skips gtest
    // teardown in the forked copy.
    auto second = SessionStore::Open(path);
    ::_exit(second.status().code() == StatusCode::kFailedPrecondition ? 0
                                                                      : 1);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);

  // Parent's handle never noticed.
  ASSERT_TRUE(store->Put(2, "still-writable").ok());
}

}  // namespace
}  // namespace topkpkg::storage
