// Fixture for tools/yieldlint.py --self-test.
//
// Each `// EXPECT-HAZARD: <class>` marker names the hazard class the
// analyzer must report on that exact line; any other finding in this
// directory fails the self-test. The classes mirror real shapes from the
// tree: iterators and references held across a yield, member state cached
// across a yield, a SimMutexGuard scope enclosing a yield, and an insert
// after a lookup that missed before a yield.
//
// The fixture is parsed, never compiled — only the shapes matter.
#include <map>
#include <vector>

namespace lfstx {

class WaitQueue {
 public:
  int Sleep();
};

class SimMutex {};
class SimMutexGuard {
 public:
  explicit SimMutexGuard(SimMutex* m);
};

class Pool {
 public:
  void EvictVictim();
  void DrainAll();
  void CachedOffset();
  void GuardedFlush();
  void LoadFrame();
  void ReloadFrame();
  void SafeSnapshot();

 private:
  void WriteBack(int* frame);

  std::map<int, int> frames_;
  std::vector<int*> lru_;
  unsigned head_off_ = 0;
  WaitQueue io_wait_;
  SimMutex pool_lock_;
};

// iterator-across-yield: `it` points into the shared map, Sleep() parks
// this fiber, and the map may rehash/erase before `it` is touched again.
void Pool::EvictVictim() {
  auto it = frames_.find(7);  // EXPECT-HAZARD: iterator-across-yield
  io_wait_.Sleep();
  it->second = 1;
}

// iterator-across-yield (loop form): the range-for iterator survives a
// yield inside the loop body.
void Pool::DrainAll() {
  for (int* frame : lru_) {  // EXPECT-HAZARD: iterator-across-yield
    WriteBack(frame);
  }
}

// stale-cache-across-yield: `off` snapshots mutable member state, the
// fiber yields, and the stale snapshot is used afterwards.
void Pool::CachedOffset() {
  unsigned off = head_off_ + 1;  // EXPECT-HAZARD: stale-cache-across-yield
  io_wait_.Sleep();
  head_off_ = off;
}

// guard-across-yield: the guard holds pool_lock_ across the Sleep.
void Pool::GuardedFlush() {
  SimMutexGuard g(&pool_lock_);  // EXPECT-HAZARD: guard-across-yield
  io_wait_.Sleep();
}

// lookup-insert-across-yield: the lookup missed, the fiber yields (as a
// read into a fresh frame would), and another process may have inserted
// key 3 meanwhile; this insert would clobber its entry.
void Pool::LoadFrame() {
  if (frames_.find(3) != frames_.end()) return;
  io_wait_.Sleep();
  frames_[3] = 0;  // EXPECT-HAZARD: lookup-insert-across-yield
}

// Clean control: looking the key up again after the yield is the fix.
void Pool::ReloadFrame() {
  if (frames_.count(4) != 0) return;
  io_wait_.Sleep();
  if (frames_.count(4) != 0) return;
  frames_.emplace(4, 0);
}

// The blocking primitive itself must propagate through the call graph:
// WriteBack blocks because it sleeps, DrainAll blocks because it calls
// WriteBack. No marker here — the hazard is reported at the loop above.
void Pool::WriteBack(int* frame) {
  io_wait_.Sleep();
  *frame = 0;
}

// Suppressed sites: same shapes, reviewed and annotated. The self-test
// requires at least one suppression to prove the opt-out works.
void Pool::SafeSnapshot() {
  // LFSTX_YIELD_OK(revalidated against head_off_ after the sleep)
  unsigned gen = head_off_;
  io_wait_.Sleep();
  if (gen == head_off_) {
    head_off_ = gen + 1;
  }
}

// Clean control: value used only as an argument of the blocking call is
// evaluated before the yield and must not be flagged.
class Disk {
 public:
  int Read(unsigned addr);

 private:
  WaitQueue q_;
};

class Reader {
 public:
  void ReadHead() {
    unsigned addr = head_;
    disk_.Read(addr);
  }

 private:
  Disk disk_;
  unsigned head_ = 0;

  void Bump() { head_ = 1; }
};

}  // namespace lfstx
