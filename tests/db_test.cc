// Buffer pool, WAL codec, B+-tree and heap file tests.

#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/btree.h"
#include "db/buffer_pool.h"
#include "db/heap_file.h"
#include "db/page_image.h"
#include "db/wal.h"
#include "sim/simulator.h"
#include "ssd/device.h"

namespace postblock::db {
namespace {

ssd::Config DbSsdConfig() {
  ssd::Config c = ssd::Config::Small();
  c.geometry.blocks_per_plane = 64;  // a bit more room for DB pages
  return c;
}

class DbFixture : public ::testing::Test {
 protected:
  DbFixture()
      : device_(&sim_, DbSsdConfig()),
        pool_(&sim_, &device_, &images_, /*frames=*/128) {}

  template <typename Pred>
  void RunUntil(Pred pred) {
    ASSERT_TRUE(sim_.RunUntilPredicate(pred)) << "simulation stalled";
  }

  sim::Simulator sim_;
  ssd::Device device_;
  PageImageStore images_;
  BufferPool pool_;
};

// --- PageImageStore ---------------------------------------------------------

TEST(PageImageStoreTest, RegisterFetchRoundTrip) {
  PageImageStore store;
  std::vector<std::uint8_t> bytes(kPageBytes, 7);
  const std::uint64_t token = store.Register(bytes);
  EXPECT_NE(token, 0u);
  ASSERT_NE(store.Fetch(token), nullptr);
  EXPECT_EQ(*store.Fetch(token), bytes);
  EXPECT_EQ(store.Fetch(0), nullptr);
  EXPECT_EQ(store.Fetch(999999), nullptr);
}

TEST(PageImageStoreTest, OldVersionsRemainFetchable) {
  PageImageStore store;
  const auto t1 = store.Register(std::vector<std::uint8_t>(8, 1));
  const auto t2 = store.Register(std::vector<std::uint8_t>(8, 2));
  EXPECT_EQ((*store.Fetch(t1))[0], 1);
  EXPECT_EQ((*store.Fetch(t2))[0], 2);
}

// --- BufferPool ---------------------------------------------------------------

TEST_F(DbFixture, PinMissLoadsZeroPage) {
  Frame* got = nullptr;
  pool_.Pin(5, [&](StatusOr<Frame*> f) {
    ASSERT_TRUE(f.ok());
    got = *f;
  });
  RunUntil([&] { return got != nullptr; });
  EXPECT_EQ(got->bytes.size(), kPageBytes);
  EXPECT_EQ(got->bytes[0], 0);
  EXPECT_EQ(got->pins, 1);
  pool_.Unpin(5, false);
}

TEST_F(DbFixture, DirtyPageSurvivesFlushAndReload) {
  Frame* frame = nullptr;
  pool_.Pin(5, [&](StatusOr<Frame*> f) { frame = *f; });
  RunUntil([&] { return frame != nullptr; });
  frame->bytes[100] = 42;
  pool_.Unpin(5, true);
  bool flushed = false;
  pool_.FlushAll([&](Status st) {
    ASSERT_TRUE(st.ok());
    flushed = true;
  });
  RunUntil([&] { return flushed; });
  pool_.InvalidateClean();
  EXPECT_EQ(pool_.resident(), 0u);
  Frame* again = nullptr;
  pool_.Pin(5, [&](StatusOr<Frame*> f) { again = *f; });
  RunUntil([&] { return again != nullptr; });
  EXPECT_EQ(again->bytes[100], 42);
  pool_.Unpin(5, false);
}

TEST_F(DbFixture, SecondPinIsAHit) {
  bool done = false;
  pool_.Pin(9, [&](StatusOr<Frame*>) { done = true; });
  RunUntil([&] { return done; });
  pool_.Unpin(9, false);
  bool hit = false;
  pool_.Pin(9, [&](StatusOr<Frame*>) { hit = true; });
  EXPECT_TRUE(hit);  // synchronous hit
  pool_.Unpin(9, false);
  EXPECT_EQ(pool_.counters().Get("hits"), 1u);
  EXPECT_EQ(pool_.counters().Get("misses"), 1u);
}

TEST_F(DbFixture, ConcurrentMissesCoalesce) {
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    pool_.Pin(7, [&](StatusOr<Frame*> f) {
      ASSERT_TRUE(f.ok());
      ++done;
    });
  }
  RunUntil([&] { return done == 3; });
  EXPECT_EQ(pool_.counters().Get("misses"), 1u);
  for (int i = 0; i < 3; ++i) pool_.Unpin(7, false);
}

TEST(BufferPoolEvictionTest, NoStealRefusesToEvictDirty) {
  sim::Simulator sim;
  ssd::Device device(&sim, DbSsdConfig());
  PageImageStore images;
  BufferPool pool(&sim, &device, &images, /*frames=*/2,
                  /*allow_steal=*/false);
  // Fill both frames with dirty pages.
  for (PageId id = 1; id <= 2; ++id) {
    bool done = false;
    pool.Pin(id, [&](StatusOr<Frame*> f) {
      ASSERT_TRUE(f.ok());
      done = true;
    });
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return done; }));
    pool.Unpin(id, /*dirty=*/true);
  }
  Status seen;
  bool fired = false;
  pool.Pin(3, [&](StatusOr<Frame*> f) {
    seen = f.status();
    fired = true;
  });
  ASSERT_TRUE(sim.RunUntilPredicate([&] { return fired; }));
  EXPECT_TRUE(seen.IsResourceExhausted());
}

TEST(BufferPoolEvictionTest, StealModeWritesBackAndEvicts) {
  sim::Simulator sim;
  ssd::Device device(&sim, DbSsdConfig());
  PageImageStore images;
  BufferPool pool(&sim, &device, &images, /*frames=*/2,
                  /*allow_steal=*/true);
  for (PageId id = 1; id <= 2; ++id) {
    bool done = false;
    pool.Pin(id, [&](StatusOr<Frame*> f) {
      (*f)->bytes[0] = static_cast<std::uint8_t>(id);
      done = true;
    });
    ASSERT_TRUE(sim.RunUntilPredicate([&] { return done; }));
    pool.Unpin(id, /*dirty=*/true);
  }
  Frame* third = nullptr;
  pool.Pin(3, [&](StatusOr<Frame*> f) {
    ASSERT_TRUE(f.ok());
    third = *f;
  });
  ASSERT_TRUE(sim.RunUntilPredicate([&] { return third != nullptr; }));
  EXPECT_GE(pool.counters().Get("steals"), 1u);
  pool.Unpin(3, false);
  // The stolen page reads back with its content.
  sim.Run();  // let the steal write-back land
  Frame* one = nullptr;
  pool.Pin(1, [&](StatusOr<Frame*> f) { one = *f; });
  ASSERT_TRUE(sim.RunUntilPredicate([&] { return one != nullptr; }));
  EXPECT_EQ(one->bytes[0], 1);
  pool.Unpin(1, false);
}

// --- WAL codec -----------------------------------------------------------------

TEST(WalCodecTest, EncodeDecodeRoundTrip) {
  WalBatch batch;
  batch.txn_id = 42;
  batch.ops = {{WalOp::Kind::kPut, 1, 100},
               {WalOp::Kind::kDelete, 2, 0},
               {WalOp::Kind::kPut, 3, 300}};
  WalBatch decoded;
  ASSERT_TRUE(DecodeBatch(EncodeBatch(batch), &decoded));
  EXPECT_EQ(decoded.txn_id, 42u);
  ASSERT_EQ(decoded.ops.size(), 3u);
  EXPECT_EQ(decoded.ops[0].kind, WalOp::Kind::kPut);
  EXPECT_EQ(decoded.ops[0].key, 1u);
  EXPECT_EQ(decoded.ops[0].value, 100u);
  EXPECT_EQ(decoded.ops[1].kind, WalOp::Kind::kDelete);
}

TEST(WalCodecTest, RejectsGarbage) {
  WalBatch out;
  EXPECT_FALSE(DecodeBatch({1, 2, 3}, &out));
  EXPECT_FALSE(DecodeBatch(std::vector<std::uint8_t>(64, 0), &out));
}

// --- BTree -----------------------------------------------------------------------

class BTreeTest : public DbFixture {
 protected:
  BTreeTest() : tree_(&sim_, &pool_, [this]() { return next_page_++; }) {
    bool created = false;
    tree_.Create([&](Status st) {
      ASSERT_TRUE(st.ok());
      created = true;
    });
    EXPECT_TRUE(sim_.RunUntilPredicate([&] { return created; }));
  }

  Status Put(std::uint64_t k, std::uint64_t v) {
    Status out = Status::Internal("pending");
    bool fired = false;
    tree_.Put(k, v, [&](Status st) {
      out = st;
      fired = true;
    });
    EXPECT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
    return out;
  }

  StatusOr<std::uint64_t> Get(std::uint64_t k) {
    StatusOr<std::uint64_t> out = Status::Internal("pending");
    bool fired = false;
    tree_.Get(k, [&](StatusOr<std::uint64_t> r) {
      out = std::move(r);
      fired = true;
    });
    EXPECT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
    return out;
  }

  Status Del(std::uint64_t k) {
    Status out = Status::Internal("pending");
    bool fired = false;
    tree_.Delete(k, [&](Status st) {
      out = st;
      fired = true;
    });
    EXPECT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
    return out;
  }

  PageId next_page_ = 1;
  BTree tree_;
};

TEST_F(BTreeTest, PutGetSingle) {
  ASSERT_TRUE(Put(5, 50).ok());
  EXPECT_EQ(*Get(5), 50u);
}

TEST_F(BTreeTest, MissingKeyIsNotFound) {
  EXPECT_TRUE(Get(12345).status().IsNotFound());
}

TEST_F(BTreeTest, OverwriteReplaces) {
  ASSERT_TRUE(Put(5, 50).ok());
  ASSERT_TRUE(Put(5, 51).ok());
  EXPECT_EQ(*Get(5), 51u);
}

TEST_F(BTreeTest, DeleteRemoves) {
  ASSERT_TRUE(Put(5, 50).ok());
  ASSERT_TRUE(Del(5).ok());
  EXPECT_TRUE(Get(5).status().IsNotFound());
  // Deleting a missing key is fine.
  ASSERT_TRUE(Del(5).ok());
}

TEST_F(BTreeTest, ManyKeysForceSplits) {
  const std::uint64_t n = BTree::kLeafCapacity * 5;
  for (std::uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(Put(k * 3, k).ok()) << k;
  }
  EXPECT_GT(tree_.counters().Get("node_splits") +
                tree_.counters().Get("root_splits"),
            0u);
  for (std::uint64_t k = 0; k < n; ++k) {
    ASSERT_EQ(*Get(k * 3), k) << k;
  }
  EXPECT_TRUE(Get(1).status().IsNotFound());
}

TEST_F(BTreeTest, RandomOrderInsertAndVerify) {
  Rng rng(5);
  std::map<std::uint64_t, std::uint64_t> shadow;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = rng.Uniform(10000);
    shadow[k] = i;
    ASSERT_TRUE(Put(k, i).ok());
  }
  for (const auto& [k, v] : shadow) {
    ASSERT_EQ(*Get(k), v) << k;
  }
}

TEST_F(BTreeTest, MixedInsertDeleteProperty) {
  Rng rng(9);
  std::map<std::uint64_t, std::uint64_t> shadow;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t k = rng.Uniform(2000);
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(Del(k).ok());
      shadow.erase(k);
    } else {
      ASSERT_TRUE(Put(k, i).ok());
      shadow[k] = i;
    }
  }
  for (std::uint64_t k = 0; k < 2000; ++k) {
    auto r = Get(k);
    auto it = shadow.find(k);
    if (it == shadow.end()) {
      ASSERT_TRUE(r.status().IsNotFound()) << k;
    } else {
      ASSERT_EQ(*r, it->second) << k;
    }
  }
}

TEST_F(BTreeTest, ScanReturnsSortedRange) {
  for (std::uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(Put(k * 2, k).ok());
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;
  bool fired = false;
  tree_.Scan(100, 200, [&](auto r) {
    ASSERT_TRUE(r.ok());
    rows = std::move(*r);
    fired = true;
  });
  ASSERT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
  ASSERT_EQ(rows.size(), 51u);  // keys 100,102,...,200
  EXPECT_EQ(rows.front().first, 100u);
  EXPECT_EQ(rows.back().first, 200u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].first, rows[i].first);
  }
}

TEST_F(BTreeTest, ScanAcrossLeafBoundaries) {
  const std::uint64_t n = BTree::kLeafCapacity * 3;
  for (std::uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(Put(k, k + 1).ok());
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;
  bool fired = false;
  tree_.Scan(0, ~0ull, [&](auto r) {
    ASSERT_TRUE(r.ok());
    rows = std::move(*r);
    fired = true;
  });
  ASSERT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
  ASSERT_EQ(rows.size(), n);
  for (std::uint64_t k = 0; k < n; ++k) {
    EXPECT_EQ(rows[k].first, k);
    EXPECT_EQ(rows[k].second, k + 1);
  }
}

TEST_F(BTreeTest, EmptyScan) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows{{1, 1}};
  bool fired = false;
  tree_.Scan(10, 20, [&](auto r) {
    ASSERT_TRUE(r.ok());
    rows = std::move(*r);
    fired = true;
  });
  ASSERT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
  EXPECT_TRUE(rows.empty());
}

// --- HeapFile ---------------------------------------------------------------------

class HeapFileTest : public DbFixture {
 protected:
  HeapFileTest() : heap_(&sim_, &pool_, [this]() { return next_page_++; }) {
    bool created = false;
    heap_.Create([&](Status st) {
      ASSERT_TRUE(st.ok());
      created = true;
    });
    EXPECT_TRUE(sim_.RunUntilPredicate([&] { return created; }));
  }

  Rid Append(std::uint64_t a, std::uint64_t b) {
    Rid rid;
    bool fired = false;
    heap_.Append(a, b, [&](StatusOr<Rid> r) {
      ASSERT_TRUE(r.ok());
      rid = *r;
      fired = true;
    });
    EXPECT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
    return rid;
  }

  PageId next_page_ = 1;
  HeapFile heap_;
};

TEST_F(HeapFileTest, AppendGetRoundTrip) {
  const Rid rid = Append(7, 70);
  bool fired = false;
  heap_.Get(rid, [&](StatusOr<std::pair<std::uint64_t, std::uint64_t>> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->first, 7u);
    EXPECT_EQ(r->second, 70u);
    fired = true;
  });
  ASSERT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
}

TEST_F(HeapFileTest, BadRidIsNotFound) {
  Append(1, 2);
  bool fired = false;
  heap_.Get(Rid{heap_.first_page(), 99},
            [&](StatusOr<std::pair<std::uint64_t, std::uint64_t>> r) {
              EXPECT_TRUE(r.status().IsNotFound());
              fired = true;
            });
  ASSERT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
}

TEST_F(HeapFileTest, AppendsChainPages) {
  const std::uint32_t n = HeapFile::kRecordsPerPage * 3 + 5;
  for (std::uint32_t i = 0; i < n; ++i) {
    Append(i, i * 10);
  }
  EXPECT_EQ(heap_.counters().Get("page_chains"), 3u);
  // Scan sees them all, in order.
  std::vector<std::uint64_t> keys;
  bool fired = false;
  std::uint64_t total = 0;
  heap_.Scan(
      [&](Rid, std::uint64_t a, std::uint64_t) { keys.push_back(a); },
      [&](StatusOr<std::uint64_t> count) {
        ASSERT_TRUE(count.ok());
        total = *count;
        fired = true;
      });
  ASSERT_TRUE(sim_.RunUntilPredicate([&] { return fired; }));
  ASSERT_EQ(total, n);
  for (std::uint32_t i = 0; i < n; ++i) EXPECT_EQ(keys[i], i);
}

}  // namespace
}  // namespace postblock::db
