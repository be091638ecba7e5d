// Frozen SM+enclave world images for per-request CoW forking.
//
// The service's unit of spawning is a (Machine, SecurityMonitor) pair: the
// machine holds memory + PMP, the SM holds the logical enclave table and
// key-derivation state. MachineSnapshot freezes both after measured boot
// and create_enclave -- one memory copy, plus one linked decode of every
// enclave code page, shared by all forks -- and then stamps out any number
// of independent worlds with fork(): each fork's Machine aliases the
// snapshot's pages copy-on-write (Machine's fork constructor) and its SM
// resumes from the snapshotted logical state without touching the PMP, so
// forking costs two page-table allocations rather than a boot + measure +
// load sequence. Forks never write the image, so concurrent forking and
// execution across the pool is race-free by construction.
#pragma once

#include <cstdint>
#include <memory>

#include "convolve/tee/machine.hpp"
#include "convolve/tee/security_monitor.hpp"

namespace convolve::tee::service {

/// One independent executable world: a machine plus the SM driving it.
/// Movable, self-contained (the SM references its paired machine).
struct EnclaveWorld {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<SecurityMonitor> sm;
};

class MachineSnapshot {
 public:
  /// Freeze `machine` + `sm` as they stand (typically: after boot,
  /// create_enclave and any warm-up runs). The machine's memory is copied
  /// once into an immutable image, together with the linked bytecode of
  /// every page holding a nonzero byte inside a live enclave region; the
  /// SM's logical state is captured by value. The live objects are left untouched and stay usable.
  static MachineSnapshot freeze(const Machine& machine,
                                const SecurityMonitor& sm);

  /// Stamp out an independent world. `fork_id` keys the fork's seal-nonce
  /// space (use a unique id per fork; 0 is reserved for the master's
  /// pre-snapshot blobs). O(pages) pointer setup, no memory copies.
  EnclaveWorld fork(std::uint32_t fork_id) const;

  /// Fork with flight-recorder attribution: the world's SM is stamped
  /// with `ctx` so everything it records (trap exits, seal rejections)
  /// carries the requesting {tenant, seq} from birth.
  EnclaveWorld fork(std::uint32_t fork_id, const RequestContext& ctx) const;

  const MachineImage& image() const { return *image_; }
  const SmSnapshot& sm_state() const { return sm_; }

 private:
  MachineSnapshot(std::shared_ptr<const MachineImage> image, SmSnapshot sm)
      : image_(std::move(image)), sm_(std::move(sm)) {}

  std::shared_ptr<const MachineImage> image_;
  SmSnapshot sm_;
};

}  // namespace convolve::tee::service
