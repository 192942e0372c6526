#include "os/buffer_pool.hpp"

#include <algorithm>

namespace adaptive::os {

BufferRef BufferPool::allocate(std::size_t size) {
  std::size_t actual = size;
  if (scheme_ == BufferScheme::kFixedSize) {
    const std::size_t blocks = (size + block_size_ - 1) / block_size_;
    actual = (blocks == 0 ? 1 : blocks) * block_size_;
    stats_.wasted_bytes += actual - size;
  }
  ++stats_.allocations;
  stats_.allocated_bytes += actual;
  stats_.high_water_bytes = std::max(stats_.high_water_bytes, live_bytes());

  // The deleter routes the free into the shared ledger. Worlds are
  // shard-local (one thread), so the counter update needs no
  // synchronization; the shared_ptr keeps the ledger valid even if a
  // buffer outlives its pool.
  const std::shared_ptr<Ledger> ledger = ledger_;
  Buffer* raw = nullptr;
  auto it = ledger->cache.find(actual);
  if (it != ledger->cache.end() && !it->second.empty()) {
    raw = it->second.back().release();
    it->second.pop_back();
  }
  if (raw == nullptr) raw = new Buffer(actual);
  return BufferRef(raw, [ledger, actual](Buffer* b) {
    ++ledger->frees;
    ledger->freed_bytes += actual;
    auto& bin = ledger->cache[actual];
    if (bin.size() < kMaxCachedPerSize) {
      bin.emplace_back(b);
      return;
    }
    delete b;
  });
}

}  // namespace adaptive::os
