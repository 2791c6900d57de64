#include "mm/storage/tier_store.h"

#include <gtest/gtest.h>

#include "mm/sim/cluster.h"
#include "mm/util/byte_units.h"

namespace mm::storage {
namespace {

class TierStoreTest : public ::testing::Test {
 protected:
  TierStoreTest()
      : device_(sim::DeviceSpec::Nvme(MEGABYTES(10))),
        store_(&device_, MEGABYTES(1)) {}

  static std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t fill) {
    return std::vector<std::uint8_t>(n, fill);
  }

  sim::Device device_;
  TierStore store_;
};

TEST_F(TierStoreTest, PutGetRoundTrip) {
  BlobId id{1, 0};
  sim::SimTime done = 0;
  ASSERT_TRUE(store_.Put(id, Bytes(1000, 0xAB), {}, 0.0, &done).ok());
  EXPECT_GT(done, 0.0);
  EXPECT_TRUE(store_.Contains(id));
  EXPECT_EQ(store_.used(), 1000u);
  auto data = store_.Get(id, done, &done);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 1000u);
  EXPECT_EQ((*data)[999], 0xAB);
}

TEST_F(TierStoreTest, CapacityEnforced) {
  BlobId a{1, 0}, b{1, 1};
  ASSERT_TRUE(store_.Put(a, Bytes(MEGABYTES(1), 1), {}, 0.0, nullptr).ok());
  auto st = store_.Put(b, Bytes(1, 2), {}, 0.0, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST_F(TierStoreTest, OverwriteReusesSpace) {
  BlobId id{1, 0};
  ASSERT_TRUE(store_.Put(id, Bytes(MEGABYTES(1), 1), {}, 0.0, nullptr).ok());
  // Replacing the blob with an equal-size one must succeed.
  ASSERT_TRUE(store_.Put(id, Bytes(MEGABYTES(1), 2), {}, 0.0, nullptr).ok());
  EXPECT_EQ(store_.used(), MEGABYTES(1));
  auto data = store_.Get(id, 0.0, nullptr);
  EXPECT_EQ((*data)[0], 2);
}

TEST_F(TierStoreTest, PartialReadWrite) {
  BlobId id{2, 3};
  ASSERT_TRUE(store_.Put(id, Bytes(4096, 0), {}, 0.0, nullptr).ok());
  ASSERT_TRUE(store_.PutPartial(id, 100, Bytes(50, 0xCD), 0.0, nullptr).ok());
  auto frag = store_.GetPartial(id, 90, 70, 0.0, nullptr);
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ((*frag)[0], 0);          // byte 90: untouched
  EXPECT_EQ((*frag)[10], 0xCD);      // byte 100: written
  EXPECT_EQ((*frag)[59], 0xCD);      // byte 149: written
  EXPECT_EQ((*frag)[60], 0);         // byte 150: untouched
}

TEST_F(TierStoreTest, PartialBoundsChecked) {
  BlobId id{2, 3};
  ASSERT_TRUE(store_.Put(id, Bytes(100, 0), {}, 0.0, nullptr).ok());
  EXPECT_EQ(
      store_.PutPartial(id, 90, Bytes(20, 1), 0.0, nullptr).status().code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(store_.GetPartial(id, 90, 20, 0.0, nullptr).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(store_.PutPartial(BlobId{9, 9}, 0, Bytes(1, 1), 0.0, nullptr)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(TierStoreTest, EraseFreesSpace) {
  BlobId id{1, 0};
  ASSERT_TRUE(store_.Put(id, Bytes(1000, 1), {}, 0.0, nullptr).ok());
  ASSERT_TRUE(store_.Erase(id).ok());
  EXPECT_FALSE(store_.Contains(id));
  EXPECT_EQ(store_.used(), 0u);
  EXPECT_EQ(store_.Erase(id).code(), StatusCode::kNotFound);
}

TEST_F(TierStoreTest, DeviceTimeCharged) {
  // The NVMe preset has 4 channels: the first 4 concurrent writes proceed
  // in parallel, the 5th must queue behind one of them.
  sim::SimTime first = 0, fifth = 0;
  ASSERT_TRUE(store_.Put(BlobId{1, 0}, Bytes(100'000, 1), {}, 0.0,
                         &first).ok());
  for (std::uint64_t i = 1; i < 4; ++i) {
    sim::SimTime t = 0;
    ASSERT_TRUE(store_.Put(BlobId{1, i}, Bytes(100'000, 1), {}, 0.0, &t).ok());
    EXPECT_DOUBLE_EQ(t, first);  // parallel channels
  }
  ASSERT_TRUE(store_.Put(BlobId{1, 4}, Bytes(100'000, 1), {}, 0.0,
                         &fifth).ok());
  EXPECT_GT(fifth, first);  // queued
  EXPECT_NEAR(fifth, 2 * first, first);
  EXPECT_EQ(device_.bytes_written(), 500'000u);
}

TEST_F(TierStoreTest, ListBlobs) {
  ASSERT_TRUE(store_.Put(BlobId{1, 0}, Bytes(10, 1), {}, 0.0, nullptr).ok());
  ASSERT_TRUE(store_.Put(BlobId{1, 1}, Bytes(10, 1), {}, 0.0, nullptr).ok());
  auto ids = store_.ListBlobs();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(store_.num_blobs(), 2u);
}

TEST_F(TierStoreTest, BlobSizeReportsZeroWhenAbsent) {
  EXPECT_EQ(store_.BlobSize(BlobId{5, 5}), 0u);
  ASSERT_TRUE(store_.Put(BlobId{5, 5}, Bytes(77, 1), {}, 0.0, nullptr).ok());
  EXPECT_EQ(store_.BlobSize(BlobId{5, 5}), 77u);
}

TEST(BlobIdTest, DigestDeterministicAndDistinct) {
  BlobId a{10, 0}, b{10, 1}, c{11, 0};
  EXPECT_EQ(a.Digest(), (BlobId{10, 0}).Digest());
  EXPECT_NE(a.Digest(), b.Digest());
  EXPECT_NE(a.Digest(), c.Digest());
  EXPECT_EQ(a, (BlobId{10, 0}));
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace mm::storage
