// A thread-local lock-acquisition probe for the VM fault path.
//
// E11 measured the lock hierarchy's single-thread tax in wall time; this
// probe makes the underlying quantity — ordered lock acquisitions per fault
// — directly observable. VM-tier lock sites (tiers 1-4 of the order in
// vm_system.h) call Note() when they acquire; the fault entry point
// snapshots the thread-local count on entry and exit and accumulates the
// delta into VmStatistics::fault_lock_ops, so
// fault_lock_ops / faults == locks per fault, measured, not estimated.
//
// The counter is thread-local and unsynchronised: Note() is one relaxed
// increment of a plain integer, cheap enough to leave enabled in release
// builds. Probed sites outside a fault still bump the thread-local value,
// which is harmless — only deltas bracketed by a fault are ever read.

#ifndef SRC_BASE_LOCK_PROBE_H_
#define SRC_BASE_LOCK_PROBE_H_

#include <cstdint>

namespace mach {
namespace lock_probe {

inline thread_local uint64_t tls_lock_count = 0;

// Record one lock acquisition on this thread.
inline void Note() { ++tls_lock_count; }

// Current thread's acquisition count (monotonic; compare two reads).
inline uint64_t Count() { return tls_lock_count; }

}  // namespace lock_probe
}  // namespace mach

#endif  // SRC_BASE_LOCK_PROBE_H_
