#include "speck/workspace.h"

#include "common/check.h"

namespace speck {

void WorkspacePool::ensure(int workers) {
  SPECK_REQUIRE(workers >= 1, "workspace pool needs at least one worker");
  while (slots_.size() < static_cast<std::size_t>(workers)) {
    slots_.push_back(std::make_unique<KernelWorkspace>());
  }
}

WorkspacePool::Lease WorkspacePool::lease() {
  std::lock_guard<std::mutex> lock(lease_mutex_);
  if (!idle_.empty()) {
    KernelWorkspace* ws = idle_.back();
    idle_.pop_back();
    return Lease(this, ws);
  }
  slots_.push_back(std::make_unique<KernelWorkspace>());
  return Lease(this, slots_.back().get());
}

void WorkspacePool::release(KernelWorkspace* ws) {
  std::lock_guard<std::mutex> lock(lease_mutex_);
  idle_.push_back(ws);
}

}  // namespace speck
