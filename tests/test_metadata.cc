#include "mm/storage/metadata.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mm/sim/network.h"

namespace mm::storage {
namespace {

class MetadataTest : public ::testing::Test {
 protected:
  MetadataTest()
      : network_(4, sim::NetworkSpec::Roce40()), md_(4, &network_) {}

  sim::Network network_;
  MetadataManager md_;
};

TEST_F(MetadataTest, HomeNodeDeterministicAndSpread) {
  BlobId a{1, 0};
  EXPECT_EQ(md_.HomeNode(a), md_.HomeNode(a));
  // 256 blobs should not all land on one node.
  std::set<std::size_t> homes;
  for (std::uint64_t i = 0; i < 256; ++i) {
    homes.insert(md_.HomeNode(BlobId{1, i}));
  }
  EXPECT_EQ(homes.size(), 4u);
}

TEST_F(MetadataTest, UpdateLookupRoundTrip) {
  BlobId id{1, 7};
  BlobLocation loc{/*node=*/2, sim::TierKind::kNvme, /*size=*/4096,
                   /*score=*/0.5f, /*score_node=*/2, /*dirty=*/true};
  sim::SimTime done = 0;
  ASSERT_TRUE(md_.Update(id, loc, /*from_node=*/0, 0.0, &done).ok());
  auto got = md_.Lookup(id, 0, done, &done);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->node, 2u);
  EXPECT_EQ(got->tier, sim::TierKind::kNvme);
  EXPECT_EQ(got->size, 4096u);
  EXPECT_TRUE(got->dirty);
}

TEST_F(MetadataTest, LookupMissingIsNotFound) {
  auto got = md_.Lookup(BlobId{9, 9}, 0, 0.0, nullptr);
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_F(MetadataTest, RemoteLookupChargesRtt) {
  BlobId id{1, 7};
  std::size_t home = md_.HomeNode(id);
  std::size_t remote = (home + 1) % 4;
  ASSERT_TRUE(md_.Update(id, BlobLocation{}, home, 0.0, nullptr).ok());
  sim::SimTime local_done = 0, remote_done = 0;
  ASSERT_TRUE(md_.Lookup(id, home, 0.0, &local_done).ok());
  ASSERT_TRUE(md_.Lookup(id, remote, 0.0, &remote_done).ok());
  EXPECT_DOUBLE_EQ(local_done, 0.0);    // local shard: free
  EXPECT_GT(remote_done, 0.0);          // remote shard: round trip
  EXPECT_GE(remote_done, 2 * network_.spec().latency_s);
}

TEST_F(MetadataTest, LookupBatchMatchesPerIdLookup) {
  // Ids over every shard, every third one never registered.
  std::vector<BlobId> ids;
  for (std::uint64_t i = 0; i < 24; ++i) {
    ids.push_back(BlobId{5, i});
    if (i % 3 == 0) continue;
    const BlobLocation loc{.node = i % 4, .size = i, .version = i + 1};
    ASSERT_TRUE(md_.Update(ids.back(), loc, 0, 0.0, nullptr).ok());
  }
  // From the last shard: the last round trip charged is the free local
  // one, so only the slowest of them gives `*done`.
  const std::size_t from = 3;
  const sim::SimTime now = 2.0;
  sim::SimTime done = 0;
  const auto batch = md_.LookupBatch(ids, from, now, &done);
  ASSERT_EQ(batch.size(), ids.size());
  std::set<std::size_t> homes;
  sim::SimTime slowest = now;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    homes.insert(md_.HomeNode(ids[i]));
    sim::SimTime one = 0;
    const auto single = md_.Lookup(ids[i], from, now, &one);
    slowest = std::max(slowest, one);
    ASSERT_EQ(batch[i].has_value(), single.ok()) << "id " << i;
    if (!single.ok()) continue;
    EXPECT_EQ(batch[i]->node, single->node) << "id " << i;
    EXPECT_EQ(batch[i]->size, single->size) << "id " << i;
    EXPECT_EQ(batch[i]->version, single->version) << "id " << i;
  }
  EXPECT_EQ(homes.size(), 4u);
  // The shards answer in parallel: the batch takes the slowest one round
  // trip, not their sum.
  EXPECT_GT(slowest, now);
  EXPECT_DOUBLE_EQ(done, slowest);
}

TEST_F(MetadataTest, RemoveErases) {
  BlobId id{3, 3};
  ASSERT_TRUE(md_.Update(id, BlobLocation{}, 0, 0.0, nullptr).ok());
  EXPECT_EQ(md_.TotalBlobs(), 1u);
  ASSERT_TRUE(md_.Remove(id, 0, 0.0, nullptr).ok());
  EXPECT_EQ(md_.TotalBlobs(), 0u);
  EXPECT_EQ(md_.Remove(id, 0, 0.0, nullptr).code(), StatusCode::kNotFound);
}

TEST_F(MetadataTest, ReplicasLifecycle) {
  BlobId id{4, 1};
  ASSERT_TRUE(md_.Update(id, BlobLocation{.node = 0}, 0, 0.0, nullptr).ok());
  ASSERT_TRUE(md_.AddReplica(id, 1, 0, 0.0, nullptr).ok());
  ASSERT_TRUE(md_.AddReplica(id, 2, 0, 0.0, nullptr).ok());
  ASSERT_TRUE(md_.AddReplica(id, 1, 0, 0.0, nullptr).ok());  // idempotent
  auto reps = md_.Replicas(id, 0, 0.0, nullptr);
  EXPECT_EQ(reps.size(), 2u);

  sim::SimTime done = 0;
  auto dropped = md_.InvalidateReplicas(id, 3, 0.0, &done);
  EXPECT_EQ(dropped.size(), 2u);
  EXPECT_GT(done, 0.0);  // invalidation fan-out costs messages
  EXPECT_TRUE(md_.Replicas(id, 0, 0.0, nullptr).empty());
  // Primary still present.
  EXPECT_TRUE(md_.Lookup(id, 0, 0.0, nullptr).ok());
}

TEST_F(MetadataTest, AddReplicaToMissingBlobFails) {
  EXPECT_EQ(md_.AddReplica(BlobId{9, 9}, 1, 0, 0.0, nullptr).code(),
            StatusCode::kNotFound);
}

TEST_F(MetadataTest, BlobsOfVectorScans) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(md_.Update(BlobId{42, i}, BlobLocation{}, 0, 0.0, nullptr).ok());
  }
  ASSERT_TRUE(md_.Update(BlobId{43, 0}, BlobLocation{}, 0, 0.0, nullptr).ok());
  EXPECT_EQ(md_.BlobsOfVector(42).size(), 10u);
  EXPECT_EQ(md_.BlobsOfVector(43).size(), 1u);
  EXPECT_TRUE(md_.BlobsOfVector(44).empty());
}

}  // namespace
}  // namespace mm::storage
