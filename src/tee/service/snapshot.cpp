#include "convolve/tee/service/snapshot.hpp"

#include <vector>

namespace convolve::tee::service {

MachineSnapshot MachineSnapshot::freeze(const Machine& machine,
                                        const SecurityMonitor& sm) {
  SmSnapshot state = sm.snapshot();
  std::vector<MemRange> code;
  for (const SecurityMonitor::Enclave& e : state.enclaves) {
    if (e.alive) code.push_back({e.base, e.size});
  }
  return MachineSnapshot(machine.freeze(code), std::move(state));
}

EnclaveWorld MachineSnapshot::fork(std::uint32_t fork_id) const {
  EnclaveWorld world;
  world.machine = std::make_unique<Machine>(image_);
  world.sm = std::make_unique<SecurityMonitor>(*world.machine, sm_, fork_id);
  return world;
}

EnclaveWorld MachineSnapshot::fork(std::uint32_t fork_id,
                                   const RequestContext& ctx) const {
  EnclaveWorld world = fork(fork_id);
  world.sm->set_request_context(ctx);
  return world;
}

}  // namespace convolve::tee::service
