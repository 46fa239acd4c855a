// store_crashgen — deterministic crash-state generator for the session
// store, built for the CI crash-injection loop.
//
// Runs a fixed overwrite-heavy workload (puts over 12 session ids, one
// manual compaction) against a SessionStore on a FaultInjectingEnv
// with tiny segments, so rolls and compactions fire. With --crash-at=N the
// N-th mutating filesystem operation kills the store mid-flight (a short
// write, a failed fsync, a dropped rename — wherever op N lands); the tool
// then simulates power loss (every unsynced byte beyond a small torn-tail
// sliver vanishes), reopens the store with a healthy env, and verifies the
// recovered store serves reads and accepts writes. Exit 0 means the crash
// state recovered; any other exit is a recovery bug.
//
// The CI job sweeps N and runs store_fsck after each cycle, so every
// reachable crash layout is both recovered *and* integrity-checked on
// every build.
//
// Usage: store_crashgen [--count=N] [--crash-at=N] <store-dir>
//   --count=N     workload mutations to attempt (default 40)
//   --crash-at=N  mutating env op to crash at (default: never crash).
//                 Past the last op the run is fault-free; the tool prints
//                 "beyond" so the sweep knows it can stop.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "topkpkg/storage/fault_env.h"
#include "topkpkg/storage/session_store.h"

namespace {

using topkpkg::Result;
using topkpkg::Status;
using topkpkg::storage::Env;
using topkpkg::storage::FaultInjectingEnv;
using topkpkg::storage::FsyncPolicy;
using topkpkg::storage::SessionStore;
using topkpkg::storage::SessionStoreOptions;

SessionStoreOptions SmallSegmentOptions(Env* env) {
  SessionStoreOptions opts;
  opts.fsync_policy = FsyncPolicy::kInterval;
  opts.group_commit_puts = 5;
  opts.segment_max_bytes = 384;  // Tiny: the workload rolls several times.
  opts.compact_dead_ratio = 0.5;
  opts.env = env;
  return opts;
}

// Same deterministic workload shape as the crash-sweep property test:
// overwrite-heavy so sealed segments go mostly dead and compaction fires.
Status ApplyOp(int i, SessionStore& store) {
  if (i == 25) return store.Compact();
  return store.Put(
      1 + static_cast<std::uint64_t>(i % 12),
      "op-" + std::to_string(i) + "-" +
          std::string(20 + static_cast<std::size_t>(i * 13 % 60),
                      static_cast<char>('a' + i % 26)));
}

}  // namespace

int main(int argc, char** argv) {
  int count = 40;
  std::int64_t crash_at = -1;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--count=", 8) == 0) {
      count = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--crash-at=", 11) == 0) {
      crash_at = std::atoll(argv[i] + 11);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "store_crashgen: unknown flag %s\n", argv[i]);
      return 1;
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr || count <= 0) {
    std::fprintf(stderr,
                 "usage: store_crashgen [--count=N] [--crash-at=N] "
                 "<store-dir>\n");
    return 1;
  }

  FaultInjectingEnv env(Env::Default());
  env.set_crash_at(crash_at);

  int acked = 0;
  {
    Result<SessionStore> store =
        SessionStore::Open(path, SmallSegmentOptions(&env));
    if (store.ok()) {
      for (int i = 0; i < count; ++i) {
        if (!ApplyOp(i, *store).ok()) break;
        acked = i + 1;
      }
    } else if (!env.crashed()) {
      std::fprintf(stderr, "store_crashgen: open failed without a fault: "
                           "%s\n",
                   store.status().ToString().c_str());
      return 1;
    }
  }

  if (!env.crashed()) {
    if (crash_at >= 0) {
      // The sweep driver reads this: the failpoint is past the run's op
      // count, so higher values cannot produce new crash states.
      std::printf("store_crashgen: crash-at %" PRId64 " beyond run (%" PRIu64
                  " ops); store left clean\n",
                  crash_at, env.ops());
    } else {
      std::printf("store_crashgen: clean run, %d ops\n", acked);
    }
    return 0;
  }

  // Power loss: unsynced bytes vanish except a deterministic sliver, so
  // the sweep also exercises torn-record boundaries.
  Status lost = env.LoseUnsyncedData(static_cast<std::uint64_t>(
      crash_at % 5));
  if (!lost.ok()) {
    std::fprintf(stderr, "store_crashgen: LoseUnsyncedData: %s\n",
                 lost.ToString().c_str());
    return 1;
  }

  // Reboot: recovery must open the crash state and serve.
  env.set_crash_at(-1);
  env.ResetCounters();
  Result<SessionStore> recovered =
      SessionStore::Open(path, SmallSegmentOptions(&env));
  if (!recovered.ok()) {
    std::fprintf(stderr,
                 "store_crashgen: RECOVERY FAILED after crash at op %" PRId64
                 " (%d ops acked): %s\n",
                 crash_at, acked, recovered.status().ToString().c_str());
    return 2;
  }
  Status probe = recovered->Put(999, "post-recovery-probe");
  Status flushed = probe.ok() ? recovered->Flush() : probe;
  if (!flushed.ok()) {
    std::fprintf(stderr,
                 "store_crashgen: recovered store not writable: %s\n",
                 flushed.ToString().c_str());
    return 2;
  }
  std::printf("store_crashgen: crashed at op %" PRId64 " (%d/%d acked), "
              "recovered %zu keys across %zu segment(s)\n",
              crash_at, acked, count, recovered->keydir_size(),
              recovered->stats().segments);
  return 0;
}
