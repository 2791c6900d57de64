#include "mm/storage/buffer_manager.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "mm/sim/cluster.h"
#include "mm/sim/fault.h"
#include "mm/util/byte_units.h"
#include "mm/util/hash.h"
#include "mm/util/rng.h"

namespace mm::storage {
namespace {

using sim::TierKind;

class BufferManagerTest : public ::testing::Test {
 protected:
  BufferManagerTest() : cluster_(sim::Cluster::PaperTestbed(1)) {
    grants_ = {{TierKind::kDram, MEGABYTES(1)},
               {TierKind::kNvme, MEGABYTES(2)},
               {TierKind::kHdd, MEGABYTES(4)}};
    bm_ = std::make_unique<BufferManager>(&cluster_->node(0), grants_);
  }

  static std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t fill) {
    return std::vector<std::uint8_t>(n, fill);
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::vector<TierGrant> grants_;
  std::unique_ptr<BufferManager> bm_;
};

TEST_F(BufferManagerTest, PlacesInFastestTierFirst) {
  auto t = bm_->PutScored(BlobId{1, 0}, Bytes(1000, 1), 0.5f, {}, 0.0, nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0u);  // DRAM
  EXPECT_EQ(bm_->tier(0).used(), 1000u);
}

TEST_F(BufferManagerTest, SpillsToNextTierWhenFull) {
  // Fill DRAM with equally-scored pages; next put cascades the demotion of
  // equal-score victims is NOT allowed (score must be strictly lower), so
  // the new page lands in NVMe.
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(MEGABYTES(1), 1), 0.5f, {}, 0.0,
                     nullptr)
          .ok());
  auto t = bm_->PutScored(BlobId{1, 1}, Bytes(1000, 2), 0.5f, {}, 0.0, nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 1u);  // NVMe
}

TEST_F(BufferManagerTest, HigherScoreDemotesLowerScore) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(MEGABYTES(1), 1), 0.2f, {}, 0.0,
                     nullptr)
          .ok());
  // A higher-score page forces the resident one down to NVMe.
  auto t = bm_->PutScored(BlobId{1, 1}, Bytes(MEGABYTES(1), 2), 0.9f, {}, 0.0,
                          nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0u);
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 0}), std::make_optional<std::size_t>(1));
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 1}), std::make_optional<std::size_t>(0));
}

TEST_F(BufferManagerTest, CascadingDemotionThroughThreeTiers) {
  // Fill DRAM (1M) and NVMe (2M) with low-score data.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bm_->PutScored(BlobId{1, static_cast<std::uint64_t>(i)},
                               Bytes(MEGABYTES(1), 1), 0.1f, {}, 0.0, nullptr)
                    .ok());
  }
  EXPECT_EQ(bm_->tier(0).used() + bm_->tier(1).used(), MEGABYTES(3));
  // A high-score 1M page pushes one page out of DRAM into NVMe, which in
  // turn pushes a page into HDD.
  auto t = bm_->PutScored(BlobId{2, 0}, Bytes(MEGABYTES(1), 9), 0.9f, {}, 0.0,
                          nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0u);
  EXPECT_EQ(bm_->tier(2).used(), MEGABYTES(1));  // something reached HDD
  // Nothing lost: all four blobs resident somewhere.
  EXPECT_TRUE(bm_->FindBlob(BlobId{1, 0}).has_value());
  EXPECT_TRUE(bm_->FindBlob(BlobId{1, 1}).has_value());
  EXPECT_TRUE(bm_->FindBlob(BlobId{1, 2}).has_value());
  EXPECT_TRUE(bm_->FindBlob(BlobId{2, 0}).has_value());
}

TEST_F(BufferManagerTest, ExhaustionReportedWhenAllTiersFull) {
  // Total capacity is 7M of high-score data; the 8th put must fail.
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(bm_->PutScored(BlobId{1, static_cast<std::uint64_t>(i)},
                               Bytes(MEGABYTES(1), 1), 0.9f, {}, 0.0, nullptr)
                    .ok());
  }
  auto st = bm_->PutScored(BlobId{2, 0}, Bytes(MEGABYTES(1), 1), 0.9f, {}, 0.0,
                           nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BufferManagerTest, GetFindsBlobInAnyTier) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(MEGABYTES(1), 7), 0.9f, {}, 0.0,
                     nullptr)
          .ok());
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 1}, Bytes(MEGABYTES(1), 8), 0.95f, {}, 0.0,
                     nullptr)
          .ok());
  // Blob 0 got demoted; Get must still find it.
  auto data = bm_->Get(BlobId{1, 0}, 0.0, nullptr);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)[0], 7);
  auto missing = bm_->Get(BlobId{9, 9}, 0.0, nullptr);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(BufferManagerTest, PartialUpdateInPlace) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(4096, 0), 0.5f, {}, 0.0,
                     nullptr).ok());
  ASSERT_TRUE(bm_->PutPartial(BlobId{1, 0}, 10, Bytes(5, 0xEE), 0.0, nullptr)
                  .ok());
  auto frag = bm_->GetPartial(BlobId{1, 0}, 10, 5, 0.0, nullptr);
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ((*frag)[0], 0xEE);
}

TEST_F(BufferManagerTest, StampTravelsWithTheBytes) {
  const BlobId id{1, 0};
  std::vector<std::uint8_t> bytes = Bytes(MEGABYTES(1), 3);
  const BlobStamp placed{5, Crc32(bytes)};
  ASSERT_TRUE(bm_->PutScored(id, bytes, 0.2f, placed, 0.0, nullptr).ok());
  auto expect_copy = [&](std::size_t tier, const BlobStamp& stamp) {
    EXPECT_EQ(bm_->FindBlob(id), std::make_optional(tier));
    std::vector<std::uint8_t> copy;
    auto got = bm_->GetInto(id, &copy, 0.0, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, stamp);
    EXPECT_EQ(copy, bytes);
  };
  expect_copy(0, placed);

  // A higher-scoring page demotes the copy to NVMe; once DRAM frees up the
  // organizer promotes it back. The stamp moves with the bytes both ways.
  ASSERT_TRUE(bm_->PutScored(BlobId{1, 1}, Bytes(MEGABYTES(1), 4), 0.9f, {},
                             0.0, nullptr)
                  .ok());
  expect_copy(1, placed);
  ASSERT_TRUE(bm_->Erase(BlobId{1, 1}).ok());
  sim::SimTime done = 0;
  EXPECT_GE(bm_->Rebalance(0.0, &done), 1);
  expect_copy(0, placed);

  // A PutScored over the existing copy replaces bytes and stamp together.
  bytes = Bytes(4096, 6);
  const BlobStamp replaced{9, Crc32(bytes)};
  ASSERT_TRUE(bm_->PutScored(id, bytes, 0.5f, replaced, 0.0, nullptr).ok());
  expect_copy(0, replaced);

  // A PutPartial is a commit: the version steps and the CRC covers the
  // whole new page.
  auto committed = bm_->PutPartial(id, 10, Bytes(5, 0xEE), 0.0, nullptr);
  ASSERT_TRUE(committed.ok());
  std::fill_n(bytes.begin() + 10, 5, 0xEE);
  EXPECT_EQ(committed->version, replaced.version + 1);
  EXPECT_EQ(committed->crc, Crc32(bytes));
  expect_copy(0, *committed);

  // Erase drops the stamp with the bytes: nothing is left to read or bump.
  ASSERT_TRUE(bm_->Erase(id).ok());
  std::vector<std::uint8_t> copy;
  EXPECT_EQ(bm_->GetInto(id, &copy, 0.0, nullptr).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(bm_->PutPartial(id, 0, Bytes(1, 1), 0.0, nullptr).status().code(),
            StatusCode::kNotFound);
}

TEST(BufferManagerStamp, TierDeathDropsTheStampWithTheBytes) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  sim::FaultInjector inj;  // faults only via explicit FailTier
  BufferManager bm(&cluster->node(0),
                   {{TierKind::kDram, MEGABYTES(1)},
                    {TierKind::kNvme, MEGABYTES(4)}},
                   &inj);
  const BlobId id{1, 0};
  const std::vector<std::uint8_t> bytes(4096, 1);
  ASSERT_TRUE(
      bm.PutScored(id, bytes, 0.5f, {3, Crc32(bytes)}, 0.0, nullptr).ok());
  inj.FailTier(TierKind::kDram);
  // The first access drains the dead tier (FailAndDrain); afterwards no
  // tier holds the bytes or their stamp.
  std::vector<std::uint8_t> copy;
  EXPECT_EQ(bm.GetInto(id, &copy, 0.0, nullptr).status().code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(bm.FindBlob(id).has_value());
  EXPECT_EQ(bm.GetInto(id, &copy, 0.0, nullptr).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(bm.PutPartial(id, 0, bytes, 0.0, nullptr).status().code(),
            StatusCode::kNotFound);
}

TEST_F(BufferManagerTest, RebalancePromotesHighScoreBlobs) {
  // Land a page in NVMe by filling DRAM, then free DRAM and rebalance.
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(MEGABYTES(1), 1), 0.9f, {}, 0.0,
                     nullptr)
          .ok());
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 1}, Bytes(1000, 2), 0.8f, {}, 0.0,
                     nullptr).ok());
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 1}), std::make_optional<std::size_t>(1));
  ASSERT_TRUE(bm_->Erase(BlobId{1, 0}).ok());
  sim::SimTime done = 0;
  int moved = bm_->Rebalance(0.0, &done);
  EXPECT_GE(moved, 1);
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 1}), std::make_optional<std::size_t>(0));
}

TEST_F(BufferManagerTest, RebalanceLeavesZeroScoreBlobsDown) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(1000, 1), 0.0f, {}, 0.0,
                     nullptr).ok());
  // Zero-score blob placed in DRAM initially (room available)...
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 0}), std::make_optional<std::size_t>(0));
  // ...but once demoted it is not promoted back.
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 1}, Bytes(MEGABYTES(1), 2), 0.9f, {}, 0.0,
                     nullptr)
          .ok());
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 0}), std::make_optional<std::size_t>(1));
  ASSERT_TRUE(bm_->Erase(BlobId{1, 1}).ok());
  bm_->Rebalance(0.0, nullptr);
  EXPECT_EQ(bm_->FindBlob(BlobId{1, 0}), std::make_optional<std::size_t>(1));
}

TEST_F(BufferManagerTest, EstimateReadSecondsReflectsTier) {
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(1000, 1), 0.9f, {}, 0.0,
                     nullptr).ok());
  double dram_est = bm_->EstimateReadSeconds(BlobId{1, 0}, MEGABYTES(1));
  double absent_est = bm_->EstimateReadSeconds(BlobId{9, 9}, MEGABYTES(1));
  EXPECT_LT(dram_est, absent_est);  // absent pages assume the slowest tier
}

TEST_F(BufferManagerTest, ScoresPersist) {
  bm_->SetScore(BlobId{3, 3}, 0.7f);
  EXPECT_FLOAT_EQ(bm_->GetScore(BlobId{3, 3}), 0.7f);
  EXPECT_FLOAT_EQ(bm_->GetScore(BlobId{4, 4}), 0.0f);
}

TEST_F(BufferManagerTest, UsedAndCapacityAggregate) {
  EXPECT_EQ(bm_->capacity(), MEGABYTES(7));
  ASSERT_TRUE(
      bm_->PutScored(BlobId{1, 0}, Bytes(1234, 1), 0.5f, {}, 0.0,
                     nullptr).ok());
  EXPECT_EQ(bm_->used(), 1234u);
}

TEST_F(BufferManagerTest, GrantMustMatchNodeTiers) {
  std::vector<TierGrant> bad = {{TierKind::kPfs, MEGABYTES(1)}};
  EXPECT_THROW(BufferManager(&cluster_->node(0), bad), std::logic_error);
}

TEST_F(BufferManagerTest, GrantsMustBeSortedFastestFirst) {
  std::vector<TierGrant> bad = {{TierKind::kNvme, MEGABYTES(1)},
                                {TierKind::kDram, MEGABYTES(1)}};
  EXPECT_THROW(BufferManager(&cluster_->node(0), bad), std::logic_error);
}

// Property: under random scored puts, capacity invariants always hold and
// no blob is ever lost.
class BufferManagerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferManagerPropertyTest, NoBlobLostAndCapacityRespected) {
  auto cluster = sim::Cluster::PaperTestbed(1);
  BufferManager bm(&cluster->node(0), {{TierKind::kDram, KIBIBYTES(64)},
                                       {TierKind::kNvme, KIBIBYTES(128)},
                                       {TierKind::kHdd, KIBIBYTES(256)}});
  Rng rng(GetParam());
  std::vector<BlobId> placed;
  for (int i = 0; i < 200; ++i) {
    BlobId id{7, static_cast<std::uint64_t>(i)};
    std::size_t size = 1024 + rng.NextBounded(8192);
    float score = static_cast<float>(rng.NextDouble());
    auto t = bm.PutScored(id, std::vector<std::uint8_t>(size, 1), score, {},
                          0.0,
                          nullptr);
    if (t.ok()) {
      placed.push_back(id);
    }
    // Invariant: per-tier usage never exceeds capacity.
    for (std::size_t k = 0; k < bm.num_tiers(); ++k) {
      EXPECT_LE(bm.tier(k).used(), bm.tier(k).capacity());
    }
  }
  EXPECT_GT(placed.size(), 10u);
  for (const BlobId& id : placed) {
    EXPECT_TRUE(bm.FindBlob(id).has_value()) << id.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferManagerPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace mm::storage
