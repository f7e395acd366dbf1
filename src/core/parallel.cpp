#include "core/parallel.hpp"

#include "common/contracts.hpp"

namespace hyperear::core {

struct ThreadScratchLease::State {
  ChunkScratch scratch;
  bool leased = false;
};

ThreadScratchLease::State& ThreadScratchLease::this_thread() {
  // The library's one per-thread chunk state; hyperear_lint's ownership
  // rule allow-lists this file for it.
  thread_local State state;
  return state;
}

ThreadScratchLease::ThreadScratchLease() : state_(&this_thread()) {
  HE_EXPECTS(!state_->leased);
  state_->leased = true;
}

ThreadScratchLease::~ThreadScratchLease() { state_->leased = false; }

ChunkScratch& ThreadScratchLease::scratch() const { return state_->scratch; }

}  // namespace hyperear::core
