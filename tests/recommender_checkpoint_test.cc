// Checkpoint → kill → Restore → RunRound round trips: a restored session
// must produce bit-identical recommendations to the uninterrupted one AND
// resume *incrementally* — same SampleIds, warm top-list cache, survivors
// reused — instead of paying a cold full redraw.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topkpkg/common/serde.h"
#include "topkpkg/data/generators.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/storage/codec.h"
#include "topkpkg/storage/fault_env.h"
#include "topkpkg/storage/session_store.h"

namespace topkpkg::recsys {
namespace {

std::string TempStorePath(const std::string& name) {
  std::string path = ::testing::TempDir() + "topkpkg_ckpt_" + name + "_" +
                     std::to_string(::getpid()) + ".tkps";
  std::filesystem::remove_all(path);
  return path;
}

class CheckpointFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<model::ItemTable>(
        std::move(data::GenerateUniform(40, 3, 7)).value());
    profile_ = std::make_unique<model::Profile>(
        std::move(model::Profile::Parse("sum,avg,min")).value());
    evaluator_ = std::make_unique<model::PackageEvaluator>(table_.get(),
                                                           profile_.get(), 3);
    Rng rng(8);
    prior_ = std::make_unique<prob::GaussianMixture>(
        prob::GaussianMixture::Random(3, 2, 0.5, rng));
  }

  RecommenderOptions DefaultOptions() const {
    RecommenderOptions opts;
    opts.num_recommended = 3;
    opts.num_random = 3;
    opts.num_samples = 60;
    opts.ranking.k = 3;
    opts.ranking.sigma = 3;
    return opts;
  }

  static bool SameRound(const RoundLog& a, const RoundLog& b) {
    return a.top_k == b.top_k && a.presented == b.presented &&
           a.clicked == b.clicked && a.top_k_overlap == b.top_k_overlap &&
           a.samples_reused == b.samples_reused &&
           a.samples_resampled == b.samples_resampled &&
           a.searches_skipped == b.searches_skipped;
  }

  static void ExpectSameRound(const RoundLog& a, const RoundLog& b) {
    EXPECT_EQ(a.top_k, b.top_k);
    EXPECT_EQ(a.presented, b.presented);
    EXPECT_EQ(a.clicked, b.clicked);
    EXPECT_EQ(a.top_k_overlap, b.top_k_overlap);
    EXPECT_EQ(a.samples_reused, b.samples_reused);
    EXPECT_EQ(a.samples_resampled, b.samples_resampled);
    EXPECT_EQ(a.searches_skipped, b.searches_skipped);
  }

  std::unique_ptr<model::ItemTable> table_;
  std::unique_ptr<model::Profile> profile_;
  std::unique_ptr<model::PackageEvaluator> evaluator_;
  std::unique_ptr<prob::GaussianMixture> prior_;
};

TEST_F(CheckpointFixture, RestoredSessionResumesBitIdenticallyAndWarm) {
  const std::string path = TempStorePath("roundtrip");
  SimulatedUser user({0.8, 0.4, -0.2});

  // The uninterrupted session: 3 rounds, checkpoint, 2 more rounds.
  PackageRecommender original(evaluator_.get(), prior_.get(),
                              DefaultOptions(), /*seed=*/11);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(original.RunRound(user).ok());
  }
  {
    auto store = storage::SessionStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(original.Checkpoint(*store, /*session_id=*/42).ok());
    // `store` closes here — the "kill".
  }
  std::set<sampling::SampleId> checkpoint_ids;
  for (std::size_t i = 0; i < original.pool().size(); ++i) {
    checkpoint_ids.insert(original.pool().id(i));
  }
  std::vector<RoundLog> want;
  for (int round = 0; round < 2; ++round) {
    auto log = original.RunRound(user);
    ASSERT_TRUE(log.ok()) << log.status();
    want.push_back(*log);
  }

  // The restored session: fresh store handle, fresh recommender (same
  // construction), Restore, same 2 rounds.
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status();
  PackageRecommender restored(evaluator_.get(), prior_.get(),
                              DefaultOptions(), /*seed=*/999);  // Seed is
  // irrelevant: Restore overwrites the RNG stream position.
  ASSERT_TRUE(restored.Restore(*store, 42).ok());

  // Restored identity: the full checkpoint-time pool and session history.
  EXPECT_EQ(restored.pool().size(), DefaultOptions().num_samples);
  EXPECT_EQ(restored.current_top_k().size(), 3u);
  EXPECT_EQ(restored.round_history().size(), 3u);

  for (int round = 0; round < 2; ++round) {
    auto log = restored.RunRound(user);
    ASSERT_TRUE(log.ok()) << log.status();
    ExpectSameRound(want[static_cast<std::size_t>(round)], *log);
    if (round == 0) {
      // The resumed round is incremental, not a cold redraw: survivors are
      // reused and cached top lists are served.
      EXPECT_GT(log->samples_reused, 0u);
      EXPECT_GT(log->searches_skipped, 0u);
      EXPECT_LT(log->samples_resampled, restored.pool().size());
    }
  }
  // Both sessions end in the same place. Sample *content* is bit-identical
  // throughout; identities match exactly for checkpoint-time survivors
  // (fresh post-restore draws mint new ids — in a real restart they would
  // continue right after the restored maximum, but inside one test process
  // the shared mint counter has already advanced past the original run's).
  EXPECT_EQ(original.current_top_k(), restored.current_top_k());
  ASSERT_EQ(original.pool().size(), restored.pool().size());
  for (std::size_t i = 0; i < original.pool().size(); ++i) {
    if (checkpoint_ids.count(original.pool().id(i)) > 0) {
      EXPECT_EQ(original.pool().id(i), restored.pool().id(i));
    }
    EXPECT_EQ(original.pool().sample(i).w, restored.pool().sample(i).w);
    EXPECT_EQ(original.pool().sample(i).weight,
              restored.pool().sample(i).weight);
  }
}

TEST_F(CheckpointFixture, SampleIdsSurviveRestartWithoutCollisions) {
  const std::string path = TempStorePath("mintfloor");
  SimulatedUser user({0.8, 0.4, -0.2});
  PackageRecommender original(evaluator_.get(), prior_.get(),
                              DefaultOptions(), 11);
  ASSERT_TRUE(original.RunRound(user).ok());
  std::vector<sampling::SampleId> ids;
  for (std::size_t i = 0; i < original.pool().size(); ++i) {
    ids.push_back(original.pool().id(i));
  }
  {
    auto store = storage::SessionStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(original.Checkpoint(*store, 1).ok());
  }
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok());
  PackageRecommender restored(evaluator_.get(), prior_.get(),
                              DefaultOptions(), 11);
  ASSERT_TRUE(restored.Restore(*store, 1).ok());
  sampling::SampleId max_restored = 0;
  ASSERT_EQ(restored.pool().size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(restored.pool().id(i), ids[i]);
    max_restored = std::max(max_restored, ids[i]);
  }
  // Ids minted after the restore can never collide with restored ones.
  sampling::SamplePool fresh_pool;
  fresh_pool.Append({sampling::WeightedSample{{0.0, 0.0, 0.0}, 1.0, 0}});
  EXPECT_GT(fresh_pool.id(0), max_restored);
}

TEST_F(CheckpointFixture, RestoreRejectsMismatchedConfiguration) {
  const std::string path = TempStorePath("config");
  SimulatedUser user({0.8, 0.4, -0.2});
  PackageRecommender original(evaluator_.get(), prior_.get(),
                              DefaultOptions(), 11);
  ASSERT_TRUE(original.RunRound(user).ok());
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(original.Checkpoint(*store, 7).ok());

  RecommenderOptions other = DefaultOptions();
  other.num_samples = 61;  // Any semantic knob disagreeing must reject.
  PackageRecommender mismatched(evaluator_.get(), prior_.get(), other, 11);
  EXPECT_EQ(mismatched.Restore(*store, 7).code(),
            StatusCode::kInvalidArgument);
  // And an absent session is NotFound, not a crash.
  PackageRecommender fresh(evaluator_.get(), prior_.get(), DefaultOptions(),
                           11);
  EXPECT_EQ(fresh.Restore(*store, 12345).code(), StatusCode::kNotFound);
}

// A checkpoint attempt that fails on a store outage is retried — as
// SessionManager's CheckpointWithRetry and writeback do. Crashing that
// retry at any failpoint it performs, with the page cache lost or kept,
// must leave a store that restores either the committed generation or the
// retried one, and never an error.
TEST_F(CheckpointFixture, CrashedRetryRestoresCommittedOrRetriedGeneration) {
  const std::string path = TempStorePath("retrycrash");
  SimulatedUser user({0.8, 0.4, -0.2});
  // The uninterrupted session: round 2 follows the committed generation
  // (state after round 1), round 3 the retried one (after round 2).
  std::vector<RoundLog> uninterrupted;
  {
    PackageRecommender session(evaluator_.get(), prior_.get(),
                               DefaultOptions(), 11);
    for (int round = 0; round < 3; ++round) {
      auto log = session.RunRound(user);
      ASSERT_TRUE(log.ok()) << log.status();
      uninterrupted.push_back(*log);
    }
  }

  std::size_t swept = 0;
  for (const bool lose_page_cache : {true, false}) {
    for (std::int64_t crash_at = 0;; ++crash_at) {
      SCOPED_TRACE(std::string(lose_page_cache ? "power loss" : "process "
                                                                "crash") +
                   ", crash at retry failpoint " + std::to_string(crash_at));
      ASSERT_LT(crash_at, 64) << "the retry never completed";
      std::filesystem::remove_all(path);
      storage::FaultInjectingEnv env(storage::Env::Default());
      storage::SessionStoreOptions opts;
      opts.env = &env;
      opts.segment_max_bytes = 1024;  // Each checkpoint rolls a segment.
      PackageRecommender session(evaluator_.get(), prior_.get(),
                                 DefaultOptions(), 11);
      Status retry;
      {
        auto store = storage::SessionStore::Open(path, opts);
        ASSERT_TRUE(store.ok()) << store.status();
        ASSERT_TRUE(session.RunRound(user).ok());
        ASSERT_TRUE(session.Checkpoint(*store, 7).ok());  // Committed.
        ASSERT_TRUE(session.RunRound(user).ok());
        env.set_fail_writes(true);
        ASSERT_FALSE(session.Checkpoint(*store, 7).ok());  // Outage.
        env.set_fail_writes(false);
        env.ResetCounters();
        env.set_crash_at(crash_at);
        retry = session.Checkpoint(*store, 7);
      }
      if (!env.crashed()) {
        // Past the retry's last failpoint: it must simply have succeeded.
        ASSERT_TRUE(retry.ok()) << retry;
        break;
      }
      ++swept;
      if (lose_page_cache) {
        ASSERT_TRUE(env.LoseUnsyncedData(0).ok());
      }

      env.set_crash_at(-1);
      env.ResetCounters();
      auto reopened = storage::SessionStore::Open(path, opts);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      PackageRecommender restored(evaluator_.get(), prior_.get(),
                                  DefaultOptions(), 0);
      Status st = restored.Restore(*reopened, 7);
      ASSERT_TRUE(st.ok()) << st;
      auto got = restored.RunRound(user);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(SameRound(uninterrupted[1], *got) ||
                  SameRound(uninterrupted[2], *got))
          << "the restored session continues neither generation";
    }
  }
  EXPECT_GT(swept, 2u);
}

// A checkpoint record of an unknown version (here version byte 1, the old
// five-record layout's meta record) is refused, not migrated or misread.
TEST_F(CheckpointFixture, OldLayoutCheckpointIsRefused) {
  const std::string path = TempStorePath("oldlayout");
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok());
  ByteWriter old_meta;
  old_meta.PutU8(1);   // Version.
  old_meta.PutU64(1);  // The old layout's checkpoint sequence.
  ASSERT_TRUE(store->Put(7, old_meta.bytes()).ok());

  PackageRecommender rec(evaluator_.get(), prior_.get(), DefaultOptions(),
                         11);
  const Status st = rec.Restore(*store, 7);
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << st;
  EXPECT_NE(st.message().find("version 1"), std::string::npos) << st;
  EXPECT_NE(st.message().find("version 2"), std::string::npos) << st;
  EXPECT_TRUE(rec.round_history().empty());
  EXPECT_EQ(rec.feedback().num_edges(), 0u);
}

TEST_F(CheckpointFixture, InterleavedSessionsCheckpointAndRestore) {
  const std::string path = TempStorePath("multisession");
  SimulatedUser user_a({0.8, 0.4, -0.2});
  SimulatedUser user_b({-0.3, 0.9, 0.1});
  PackageRecommender a(evaluator_.get(), prior_.get(), DefaultOptions(), 11);
  PackageRecommender b(evaluator_.get(), prior_.get(), DefaultOptions(), 77);

  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok());
  // Interleaved rounds and checkpoints of two sessions into one store.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(a.RunRound(user_a).ok());
    ASSERT_TRUE(a.Checkpoint(*store, 1).ok());
    ASSERT_TRUE(b.RunRound(user_b).ok());
    ASSERT_TRUE(b.Checkpoint(*store, 2).ok());
  }
  auto next_a = a.RunRound(user_a);
  auto next_b = b.RunRound(user_b);
  ASSERT_TRUE(next_a.ok());
  ASSERT_TRUE(next_b.ok());

  // Release the first handle (and its writer lock) before reopening.
  store = Status::Internal("released");
  auto reopened = storage::SessionStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  PackageRecommender ra(evaluator_.get(), prior_.get(), DefaultOptions(), 0);
  PackageRecommender rb(evaluator_.get(), prior_.get(), DefaultOptions(), 0);
  ASSERT_TRUE(ra.Restore(*reopened, 1).ok());
  ASSERT_TRUE(rb.Restore(*reopened, 2).ok());
  auto got_a = ra.RunRound(user_a);
  auto got_b = rb.RunRound(user_b);
  ASSERT_TRUE(got_a.ok());
  ASSERT_TRUE(got_b.ok());
  ExpectSameRound(*next_a, *got_a);
  ExpectSameRound(*next_b, *got_b);
  EXPECT_GT(got_a->samples_reused, 0u);
  EXPECT_GT(got_b->samples_reused, 0u);
  EXPECT_GT(got_a->searches_skipped, 0u);
  EXPECT_GT(got_b->searches_skipped, 0u);
}

// Compaction across many checkpoints of a live session keeps only the
// newest generation; the restored state is unaffected.
TEST_F(CheckpointFixture, CompactionPreservesTheLatestCheckpoint) {
  const std::string path = TempStorePath("compact");
  SimulatedUser user({0.8, 0.4, -0.2});
  PackageRecommender original(evaluator_.get(), prior_.get(),
                              DefaultOptions(), 11);
  auto store = storage::SessionStore::Open(path);
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(original.RunRound(user).ok());
    ASSERT_TRUE(original.Checkpoint(*store, 3).ok());
  }
  EXPECT_GT(store->stats().dead_bytes, 0u);
  const auto before = store->stats().file_bytes;
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(store->stats().file_bytes, before);
  EXPECT_EQ(store->stats().dead_bytes, 0u);

  auto want = original.RunRound(user);
  ASSERT_TRUE(want.ok());
  PackageRecommender restored(evaluator_.get(), prior_.get(),
                              DefaultOptions(), 0);
  ASSERT_TRUE(restored.Restore(*store, 3).ok());
  auto got = restored.RunRound(user);
  ASSERT_TRUE(got.ok());
  ExpectSameRound(*want, *got);
}

}  // namespace
}  // namespace topkpkg::recsys
