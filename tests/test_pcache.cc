#include "mm/core/pcache.h"

#include <gtest/gtest.h>

namespace mm::core {
namespace {

constexpr std::uint64_t kPageBytes = 128, kEPP = 16;

std::vector<std::uint8_t> Page(std::uint8_t fill) {
  return std::vector<std::uint8_t>(kPageBytes, fill);
}

TEST(PCacheTest, InsertFind) {
  PCache pc(kPageBytes, kEPP, 4 * kPageBytes);
  EXPECT_EQ(pc.Find(0), nullptr);
  PageFrame* f = pc.Insert(0, Page(7));
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->data[0], 7);
  EXPECT_EQ(pc.Find(0), f);
  EXPECT_EQ(pc.used(), kPageBytes);
  EXPECT_TRUE(pc.Contains(0));
}

TEST(PCacheTest, NeedsEvictionAtCapacity) {
  PCache pc(kPageBytes, kEPP, 2 * kPageBytes);
  EXPECT_FALSE(pc.NeedsEviction());
  pc.Insert(0, Page(1));
  EXPECT_FALSE(pc.NeedsEviction());
  pc.Insert(1, Page(2));
  EXPECT_TRUE(pc.NeedsEviction());
}

TEST(PCacheTest, LruVictimPrefersCleanOldest) {
  PCache pc(kPageBytes, kEPP, 10 * kPageBytes);
  pc.Insert(0, Page(0));
  pc.Insert(1, Page(1));
  pc.Insert(2, Page(2));
  // Touch page 0 so page 1 becomes LRU.
  pc.Find(0);
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(1));
  // Dirty page 1: victim should skip to the next clean one (page 2).
  pc.MarkDirty(1, 0, 4);
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(2));
}

TEST(PCacheTest, AllDirtyFallsBackToDirtyLru) {
  PCache pc(kPageBytes, kEPP, 10 * kPageBytes);
  pc.Insert(0, Page(0));
  pc.Insert(1, Page(1));
  pc.MarkDirty(0, 0, 1);
  pc.MarkDirty(1, 0, 1);
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(0));
}

TEST(PCacheTest, EmptyHasNoVictim) {
  PCache pc(kPageBytes, kEPP, kPageBytes);
  EXPECT_FALSE(pc.PickVictim().has_value());
}

TEST(PCacheTest, RemoveDetachesFrame) {
  PCache pc(kPageBytes, kEPP, 10 * kPageBytes);
  pc.Insert(3, Page(9));
  pc.MarkDirty(3, 2, 5);
  PageFrame* frame = pc.Remove(3);
  ASSERT_NE(frame, nullptr);
  // Retired frames keep their buffer and dirty bits (the caller still
  // ships dirty runs from them); the cache itself no longer knows the page.
  EXPECT_EQ(frame->data[0], 9);
  EXPECT_TRUE(frame->dirty.Test(2));
  EXPECT_FALSE(pc.Contains(3));
  EXPECT_EQ(pc.used(), 0u);
  EXPECT_EQ(pc.Remove(3), nullptr);
}

TEST(PCacheTest, InsertRecyclesRetiredFrames) {
  PCache pc(kPageBytes, kEPP, 10 * kPageBytes);
  PageFrame* f = pc.Insert(0, Page(1));
  pc.MarkDirty(0, 0, 3);
  pc.Remove(0);
  // The next insert reuses the retired frame's storage and displaces its
  // parked buffer to the caller (pool recycling), with state fully reset.
  std::vector<std::uint8_t> displaced;
  PageFrame* g = pc.Insert(9, Page(2), &displaced);
  EXPECT_EQ(g, f);
  EXPECT_EQ(displaced.size(), kPageBytes);
  EXPECT_EQ(displaced[0], 1);
  EXPECT_EQ(g->data[0], 2);
  EXPECT_FALSE(g->dirty.Any());
  EXPECT_EQ(g->page, 9u);
}

TEST(PCacheTest, DirtyPagesLists) {
  PCache pc(kPageBytes, kEPP, 10 * kPageBytes);
  pc.Insert(0, Page(0));
  pc.Insert(1, Page(1));
  pc.MarkDirty(1, 0, 1);
  auto dirty = pc.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 1u);
  EXPECT_EQ(pc.ResidentPages().size(), 2u);
}

TEST(PCacheTest, PendingLifecycle) {
  PCache pc(kPageBytes, kEPP, 4 * kPageBytes);
  pc.AddPending(5, PendingFetch{TaskOutcome{}, 2});
  EXPECT_TRUE(pc.HasPending(5));
  EXPECT_EQ(pc.committed(), kPageBytes);  // pending counts against budget
  auto fetch = pc.TakePending(5);
  ASSERT_TRUE(fetch.has_value());
  EXPECT_EQ(fetch->owner, 2u);
  EXPECT_FALSE(pc.HasPending(5));
  EXPECT_FALSE(pc.TakePending(5).has_value());
}

TEST(PCacheTest, ClearDropsEverything) {
  PCache pc(kPageBytes, kEPP, 4 * kPageBytes);
  pc.Insert(0, Page(1));
  pc.AddPending(1, PendingFetch{TaskOutcome{}, 0});
  pc.Clear();
  EXPECT_EQ(pc.num_frames(), 0u);
  EXPECT_EQ(pc.num_pending(), 0u);
}

TEST(PCacheTest, InsertWrongSizeChecks) {
  PCache pc(kPageBytes, kEPP, 4 * kPageBytes);
  EXPECT_THROW(pc.Insert(0, std::vector<std::uint8_t>(5)), std::logic_error);
}

TEST(PCacheTest, MarkDirtyOnAbsentPageChecks) {
  PCache pc(kPageBytes, kEPP, 4 * kPageBytes);
  EXPECT_THROW(pc.MarkDirty(0, 0, 1), std::logic_error);
}

// Victim order must follow true recency under an interleaving of Find
// (touch), MarkDirty (clean->dirty migration), and MarkClean (dirty->clean
// re-enlist) — the exact access pattern TxEnd/eviction produce.
TEST(PCacheTest, LruOrderUnderInterleavedFindAndMarkDirty) {
  PCache pc(kPageBytes, kEPP, 10 * kPageBytes);
  pc.Insert(0, Page(0));
  pc.Insert(1, Page(1));
  pc.Insert(2, Page(2));
  pc.Insert(3, Page(3));
  // Clean LRU (old->new): 0 1 2 3.
  pc.Find(0);  // 1 2 3 0
  pc.MarkDirty(2, 0, 1);  // clean: 1 3 0 | dirty: 2
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(1));
  pc.Find(1);  // clean: 3 0 1
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(3));
  pc.MarkDirty(3, 0, 1);  // clean: 0 1 | dirty: 2 3
  pc.MarkDirty(0, 0, 1);  // clean: 1 | dirty: 2 3 0
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(1));
  pc.Remove(1);
  // No clean frames left: oldest dirty wins.
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(2));
  pc.MarkClean(2);  // clean: 2 | dirty: 3 0
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(2));
  // Touching the only clean frame keeps it the victim (clean beats dirty).
  pc.Find(2);
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(2));
  // Re-dirtying an already-dirty frame must not reorder the dirty list.
  pc.MarkDirty(3, 4, 8);
  pc.Remove(2);
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(3));
}

TEST(PCacheTest, PinnedFramesAreNeverVictims) {
  PCache pc(kPageBytes, kEPP, 10 * kPageBytes);
  pc.Insert(0, Page(0));
  pc.Insert(1, Page(1));
  pc.Pin(0);
  EXPECT_TRUE(pc.IsPinned(0));
  EXPECT_EQ(pc.num_pinned(), 1u);
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(1));
  pc.Pin(1);
  EXPECT_FALSE(pc.PickVictim().has_value());
  // A frame dirtied while pinned re-enters the dirty list on unpin.
  pc.MarkDirty(1, 0, 2);
  pc.Unpin(1);
  EXPECT_FALSE(pc.IsPinned(1));
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(1));
  pc.Unpin(0);
  // Clean page 0 is preferred over dirty page 1 once unpinned.
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(0));
}

TEST(PCacheTest, PinIsRecursive) {
  PCache pc(kPageBytes, kEPP, 4 * kPageBytes);
  pc.Insert(0, Page(0));
  pc.Pin(0);
  pc.Pin(0);
  pc.Unpin(0);
  EXPECT_TRUE(pc.IsPinned(0));
  EXPECT_FALSE(pc.PickVictim().has_value());
  pc.Unpin(0);
  EXPECT_FALSE(pc.IsPinned(0));
  EXPECT_EQ(pc.PickVictim(), std::make_optional<std::uint64_t>(0));
}

TEST(PCacheTest, DirtyPagesIncludesPinnedFrames) {
  PCache pc(kPageBytes, kEPP, 4 * kPageBytes);
  pc.Insert(0, Page(0));
  pc.Pin(0);
  pc.MarkDirty(0, 0, 1);
  auto dirty = pc.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 0u);
  pc.Unpin(0);
}

}  // namespace
}  // namespace mm::core
