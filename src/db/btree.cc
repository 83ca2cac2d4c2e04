#include "db/btree.h"

#include <cstring>
#include <string>

namespace postblock::db {

namespace {

// --- node layout helpers -------------------------------------------------
//
// Leaf:     [0] type  [2..3] count  [8..15] next-leaf page id
//           entries at 16: (key u64, value u64) sorted by key
// Internal: [0] type  [2..3] count (= number of separator keys)
//           slot i at 16+i*16: (child_i u64, key_i u64); the final slot
//           holds child_count only.

std::uint16_t NodeCount(const Frame* f) {
  std::uint16_t v;
  std::memcpy(&v, f->bytes.data() + 2, 2);
  return v;
}

void SetNodeCount(Frame* f, std::uint16_t v) {
  std::memcpy(f->bytes.data() + 2, &v, 2);
}

PageType NodeType(const Frame* f) {
  return static_cast<PageType>(f->bytes[0]);
}

std::uint64_t ReadU64(const Frame* f, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, f->bytes.data() + off, 8);
  return v;
}

void WriteU64(Frame* f, std::size_t off, std::uint64_t v) {
  std::memcpy(f->bytes.data() + off, &v, 8);
}

// Leaf accessors.
std::uint64_t LeafKey(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 16 + std::size_t{i} * 16);
}
std::uint64_t LeafValue(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 24 + std::size_t{i} * 16);
}
void SetLeafEntry(Frame* f, std::uint32_t i, std::uint64_t key,
                  std::uint64_t value) {
  WriteU64(f, 16 + std::size_t{i} * 16, key);
  WriteU64(f, 24 + std::size_t{i} * 16, value);
}
PageId LeafNext(const Frame* f) { return ReadU64(f, 8); }
void SetLeafNext(Frame* f, PageId next) { WriteU64(f, 8, next); }

// First index with key(i) >= key.
std::uint32_t LeafLowerBound(const Frame* f, std::uint64_t key) {
  std::uint32_t lo = 0;
  std::uint32_t hi = NodeCount(f);
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (LeafKey(f, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void LeafInsertAt(Frame* f, std::uint32_t pos, std::uint64_t key,
                  std::uint64_t value) {
  const std::uint16_t count = NodeCount(f);
  std::memmove(f->bytes.data() + 16 + (std::size_t{pos} + 1) * 16,
               f->bytes.data() + 16 + std::size_t{pos} * 16,
               (count - pos) * std::size_t{16});
  SetLeafEntry(f, pos, key, value);
  SetNodeCount(f, count + 1);
}

void LeafRemoveAt(Frame* f, std::uint32_t pos) {
  const std::uint16_t count = NodeCount(f);
  std::memmove(f->bytes.data() + 16 + std::size_t{pos} * 16,
               f->bytes.data() + 16 + (std::size_t{pos} + 1) * 16,
               (count - pos - 1) * std::size_t{16});
  SetNodeCount(f, count - 1);
}

// Internal accessors.
std::uint64_t InternalKey(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 24 + std::size_t{i} * 16);
}
PageId InternalChild(const Frame* f, std::uint32_t i) {
  return ReadU64(f, 16 + std::size_t{i} * 16);
}
void SetInternalKey(Frame* f, std::uint32_t i, std::uint64_t key) {
  WriteU64(f, 24 + std::size_t{i} * 16, key);
}
void SetInternalChild(Frame* f, std::uint32_t i, PageId child) {
  WriteU64(f, 16 + std::size_t{i} * 16, child);
}

// Child index to descend into for `key`: first i with key < key_i.
std::uint32_t InternalFindIndex(const Frame* f, std::uint64_t key) {
  std::uint32_t lo = 0;
  std::uint32_t hi = NodeCount(f);
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi) / 2;
    if (key < InternalKey(f, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Inserts separator `key` and right child after child index `idx`.
// Keys shift from idx and children from idx+1 — different ranges, so
// they move as separate arrays, not as interleaved slot pairs.
void InternalInsertAfter(Frame* f, std::uint32_t idx, std::uint64_t key,
                         PageId right) {
  const std::uint16_t count = NodeCount(f);
  for (std::uint32_t j = count; j > idx; --j) {
    SetInternalKey(f, j, InternalKey(f, j - 1));
  }
  for (std::uint32_t j = count + 1; j > idx + 1; --j) {
    SetInternalChild(f, j, InternalChild(f, j - 1));
  }
  SetInternalKey(f, idx, key);
  SetInternalChild(f, idx + 1, right);
  SetNodeCount(f, count + 1);
}

void FormatLeaf(Frame* f) {
  std::fill(f->bytes.begin(), f->bytes.end(), 0);
  f->bytes[0] = static_cast<std::uint8_t>(PageType::kBTreeLeaf);
  SetLeafNext(f, kInvalidPageId);
}

void FormatInternal(Frame* f) {
  std::fill(f->bytes.begin(), f->bytes.end(), 0);
  f->bytes[0] = static_cast<std::uint8_t>(PageType::kBTreeInternal);
}

bool IsFull(const Frame* f) {
  if (NodeType(f) == PageType::kBTreeLeaf) {
    return NodeCount(f) >= BTree::kLeafCapacity;
  }
  return NodeCount(f) >= BTree::kInternalCapacity;
}

// Splits `left` (full) into `right` (freshly formatted), returning the
// separator key for the parent.
std::uint64_t SplitNode(Frame* left, Frame* right) {
  const std::uint16_t count = NodeCount(left);
  if (NodeType(left) == PageType::kBTreeLeaf) {
    FormatLeaf(right);
    const std::uint16_t keep = count / 2;
    const std::uint16_t moved = count - keep;
    std::memcpy(right->bytes.data() + 16,
                left->bytes.data() + 16 + std::size_t{keep} * 16,
                std::size_t{moved} * 16);
    SetNodeCount(right, moved);
    SetNodeCount(left, keep);
    SetLeafNext(right, LeafNext(left));
    SetLeafNext(left, right->id);
    return LeafKey(right, 0);
  }
  FormatInternal(right);
  const std::uint16_t mid = count / 2;
  const std::uint64_t separator = InternalKey(left, mid);
  const std::uint16_t moved = count - mid - 1;
  // Right gets children mid+1..count and keys mid+1..count-1.
  std::memcpy(right->bytes.data() + 16,
              left->bytes.data() + 16 + (std::size_t{mid} + 1) * 16,
              std::size_t{moved} * 16 + 8 /* trailing child */);
  SetNodeCount(right, moved);
  SetNodeCount(left, mid);
  return separator;
}

}  // namespace

BTree::BTree(sim::Simulator* sim, BufferPool* pool, PageAllocator alloc_page)
    : sim_(sim), pool_(pool), alloc_page_(std::move(alloc_page)) {}

void BTree::Create(StatusCb cb) {
  const PageId root = alloc_page_();
  pool_->Pin(root, [this, root, cb = std::move(cb)](StatusOr<Frame*> f) {
    if (!f.ok()) {
      cb(f.status());
      return;
    }
    FormatLeaf(*f);
    root_ = root;
    pool_->Unpin(root, /*dirty=*/true);
    cb(Status::Ok());
  });
}

// --- Put -------------------------------------------------------------------

void BTree::Put(std::uint64_t key, std::uint64_t value, StatusCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  PutOp* op = puts_.Acquire();
  op->key = key;
  op->value = value;
  op->cb = std::move(cb);
  StartPut(op);
}

void BTree::StartPut(PutOp* op) {
  counters_.Increment("puts");
  auto pinned = [this, op](StatusOr<Frame*> f) {
    OnRootPinned(op, std::move(f));
  };
  static_assert(BufferPool::PinCallback::fits<decltype(pinned)>());
  pool_->Pin(root_, std::move(pinned));
}

void BTree::OnRootPinned(PutOp* op, StatusOr<Frame*> f) {
  if (!f.ok()) {
    FinishPut(op, f.status());
    return;
  }
  op->node = *f;
  if (IsFull(op->node)) {
    SplitRoot(op);
    return;
  }
  DescendPut(op, op->node);
}

void BTree::SplitRoot(PutOp* op) {
  counters_.Increment("root_splits");
  op->sibling_id = alloc_page_();
  op->new_root_id = alloc_page_();
  pool_->Pin(op->sibling_id, [this, op](StatusOr<Frame*> s) {
    OnRootSiblingPinned(op, std::move(s));
  });
}

void BTree::OnRootSiblingPinned(PutOp* op, StatusOr<Frame*> s) {
  if (!s.ok()) {
    pool_->Unpin(op->node->id, false);
    FinishPut(op, s.status());
    return;
  }
  op->sibling = *s;
  op->separator = SplitNode(op->node, op->sibling);
  pool_->Pin(op->new_root_id, [this, op](StatusOr<Frame*> nr) {
    OnNewRootPinned(op, std::move(nr));
  });
}

void BTree::OnNewRootPinned(PutOp* op, StatusOr<Frame*> nr) {
  Frame* root = op->node;
  if (!nr.ok()) {
    pool_->Unpin(root->id, true);
    pool_->Unpin(op->sibling->id, true);
    FinishPut(op, nr.status());
    return;
  }
  Frame* new_root = *nr;
  FormatInternal(new_root);
  SetInternalChild(new_root, 0, root->id);
  SetInternalKey(new_root, 0, op->separator);
  SetInternalChild(new_root, 1, op->sibling_id);
  SetNodeCount(new_root, 1);
  root_ = op->new_root_id;
  pool_->Unpin(root->id, true);
  pool_->Unpin(op->sibling->id, true);
  pool_->Unpin(op->new_root_id, true);
  StartPut(op);  // retry from the new root
}

void BTree::DescendPut(PutOp* op, Frame* node) {
  if (NodeType(node) == PageType::kBTreeLeaf) {
    const std::uint32_t pos = LeafLowerBound(node, op->key);
    if (pos < NodeCount(node) && LeafKey(node, pos) == op->key) {
      SetLeafEntry(node, pos, op->key, op->value);  // overwrite
    } else {
      LeafInsertAt(node, pos, op->key, op->value);
    }
    pool_->Unpin(node->id, /*dirty=*/true);
    FinishPut(op, Status::Ok());
    return;
  }
  op->node = node;
  op->index = InternalFindIndex(node, op->key);
  auto pinned = [this, op](StatusOr<Frame*> c) {
    OnChildPinned(op, std::move(c));
  };
  static_assert(BufferPool::PinCallback::fits<decltype(pinned)>());
  pool_->Pin(InternalChild(node, op->index), std::move(pinned));
}

void BTree::OnChildPinned(PutOp* op, StatusOr<Frame*> c) {
  if (!c.ok()) {
    pool_->Unpin(op->node->id, false);
    FinishPut(op, c.status());
    return;
  }
  Frame* child = *c;
  if (IsFull(child)) {
    // Preemptive split (parent is non-full by induction), then try
    // this level again — the key may now belong in the new sibling.
    op->child = child;
    SplitChild(op);
    return;
  }
  pool_->Unpin(op->node->id, false);
  DescendPut(op, child);
}

void BTree::SplitChild(PutOp* op) {
  counters_.Increment("node_splits");
  op->sibling_id = alloc_page_();
  pool_->Pin(op->sibling_id, [this, op](StatusOr<Frame*> s) {
    OnChildSiblingPinned(op, std::move(s));
  });
}

void BTree::OnChildSiblingPinned(PutOp* op, StatusOr<Frame*> s) {
  if (!s.ok()) {
    pool_->Unpin(op->child->id, false);
    pool_->Unpin(op->node->id, true);
    FinishPut(op, s.status());
    return;
  }
  Frame* sibling = *s;
  const std::uint64_t separator = SplitNode(op->child, sibling);
  InternalInsertAfter(op->node, op->index, separator, op->sibling_id);
  pool_->MarkDirty(op->node->id);
  pool_->Unpin(op->child->id, true);
  pool_->Unpin(op->sibling_id, true);
  DescendPut(op, op->node);
}

void BTree::FinishPut(PutOp* op, Status st) {
  StatusCb cb = std::move(op->cb);
  puts_.Release(op);
  cb(std::move(st));
}

// --- Get / Delete ------------------------------------------------------------

void BTree::Get(std::uint64_t key, GetCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("gets");
  PointOp* op = points_.Acquire();
  op->key = key;
  op->remove = false;
  op->get_cb = std::move(cb);
  PointStep(op, root_);
}

void BTree::Delete(std::uint64_t key, StatusCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("deletes");
  PointOp* op = points_.Acquire();
  op->key = key;
  op->remove = true;
  op->del_cb = std::move(cb);
  PointStep(op, root_);
}

void BTree::PointStep(PointOp* op, PageId id) {
  auto pinned = [this, op, id](StatusOr<Frame*> f) {
    OnPointPinned(op, id, std::move(f));
  };
  static_assert(BufferPool::PinCallback::fits<decltype(pinned)>());
  pool_->Pin(id, std::move(pinned));
}

void BTree::OnPointPinned(PointOp* op, PageId id, StatusOr<Frame*> f) {
  if (f.ok() && NodeType(*f) != PageType::kBTreeLeaf) {
    const PageId child = InternalChild(*f, InternalFindIndex(*f, op->key));
    pool_->Unpin(id, false);
    PointStep(op, child);
    return;
  }
  GetCb get_cb = std::move(op->get_cb);
  StatusCb del_cb = std::move(op->del_cb);
  const std::uint64_t key = op->key;
  const bool remove = op->remove;
  points_.Release(op);
  if (!f.ok()) {
    if (remove) {
      del_cb(f.status());
    } else {
      get_cb(f.status());
    }
    return;
  }
  Frame* leaf = *f;
  const std::uint32_t pos = LeafLowerBound(leaf, key);
  const bool found = pos < NodeCount(leaf) && LeafKey(leaf, pos) == key;
  if (remove) {
    if (found) LeafRemoveAt(leaf, pos);
    pool_->Unpin(id, found);
    del_cb(Status::Ok());
    return;
  }
  StatusOr<std::uint64_t> result =
      found ? StatusOr<std::uint64_t>(LeafValue(leaf, pos))
            : StatusOr<std::uint64_t>(
                  Status::NotFound("key " + std::to_string(key)));
  pool_->Unpin(id, false);
  get_cb(std::move(result));
}

// --- Scan ---------------------------------------------------------------------

void BTree::Scan(std::uint64_t lo, std::uint64_t hi, ScanCb cb) {
  if (root_ == kInvalidPageId) {
    sim_->Schedule(0, [cb = std::move(cb)]() {
      cb(Status::FailedPrecondition("btree not created/opened"));
    });
    return;
  }
  counters_.Increment("scans");
  ScanOp* op = scans_.Acquire();
  op->lo = lo;
  op->hi = hi;
  op->cb = std::move(cb);
  ScanDescend(op, root_);
}

void BTree::ScanDescend(ScanOp* op, PageId id) {
  pool_->Pin(id, [this, op, id](StatusOr<Frame*> f) {
    if (!f.ok()) {
      ScanWalk(op, kInvalidPageId);  // deliver what we have (empty)
      return;
    }
    Frame* node = *f;
    if (NodeType(node) == PageType::kBTreeLeaf) {
      pool_->Unpin(id, false);
      ScanWalk(op, id);
      return;
    }
    const PageId child = InternalChild(node, InternalFindIndex(node, op->lo));
    pool_->Unpin(id, false);
    ScanDescend(op, child);
  });
}

void BTree::ScanWalk(ScanOp* op, PageId id) {
  if (id == kInvalidPageId) {
    FinishScan(op, std::move(op->results));
    return;
  }
  pool_->Pin(id, [this, op, id](StatusOr<Frame*> f) {
    if (!f.ok()) {
      FinishScan(op, f.status());
      return;
    }
    Frame* leaf = *f;
    bool past_hi = false;
    for (std::uint32_t i = 0; i < NodeCount(leaf); ++i) {
      const std::uint64_t k = LeafKey(leaf, i);
      if (k < op->lo) continue;
      if (k > op->hi) {
        past_hi = true;
        break;
      }
      op->results.emplace_back(k, LeafValue(leaf, i));
    }
    const PageId next = past_hi ? kInvalidPageId : LeafNext(leaf);
    pool_->Unpin(id, false);
    ScanWalk(op, next);
  });
}

void BTree::FinishScan(ScanOp* op, StatusOr<Pairs> result) {
  ScanCb cb = std::move(op->cb);
  scans_.Release(op);
  cb(std::move(result));
}

}  // namespace postblock::db
