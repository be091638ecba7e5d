// Reproduces Fig. 3: "Enhancing FreeRTOS Security on RISC-V Architecture
// with Physical Memory Protection (PMP)."
//
// The figure's evaluation: "diverse attack scenarios utilized to evaluate
// the system's capacity to endure and recuperate from these attacks." This
// bench runs the five-scenario suite against the flat-memory FreeRTOS
// baseline and the PMP-hardened kernel and prints the outcome matrix.
#include <cstdio>

#include "convolve/rtos/attacks.hpp"
#include "convolve/rtos/kernel.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/tee/rv32.hpp"

using namespace convolve::rtos;

namespace {

// Addendum to the scripted attack suite: the same containment story with
// real machine code. A rogue RV32 task (run on the bytecode engine in
// U-mode) stores to the kernel data region; PMP converts the store into a
// fault and the kernel kills the task while a well-behaved RV32 neighbour
// runs to completion.
bool machine_code_containment() {
  namespace rv = convolve::tee::rv32asm;
  convolve::tee::Machine machine(1 << 20);
  Kernel kernel(machine, KernelConfig{});

  // Rogue: point x1 at the kernel's canary scratch area and store.
  const auto rogue = rv::assemble({
      rv::addi(1, 0, 0x100),  // kernel_data_addr()
      rv::addi(2, 0, 0x5A),
      rv::sb(2, 1, 0),
      rv::ebreak(),
  });
  // Victim: a short ALU loop, then a clean exit.
  const auto victim = rv::assemble({
      rv::addi(1, 0, 100),
      rv::addi(2, 0, 0),
      // loop:
      rv::add(2, 2, 1),
      rv::addi(1, 1, -1),
      rv::bne(1, 0, -8),
      rv::ebreak(),
  });
  const int rogue_id = kernel.add_machine_task("rogue", 2, 4096, rogue);
  const int victim_id = kernel.add_machine_task("victim", 1, 4096, victim);
  kernel.run(64);

  const bool contained = kernel.task_state(rogue_id) == TaskState::kKilled &&
                         kernel.task_state(victim_id) == TaskState::kDone &&
                         kernel.count_events(EventType::kFault) >= 1 &&
                         kernel.kernel_integrity_ok();
  std::printf("\nmachine-code addendum: rogue RV32 task %s, victim %s, "
              "kernel canary %s\n",
              kernel.task_state(rogue_id) == TaskState::kKilled
                  ? "killed on PMP fault" : "NOT KILLED",
              kernel.task_state(victim_id) == TaskState::kDone
                  ? "completed" : "DID NOT FINISH",
              kernel.kernel_integrity_ok() ? "intact" : "CORRUPTED");
  return contained;
}

}  // namespace

int main(int argc, char** argv) {
  convolve::par::init_threads_from_cli(argc, argv);
  std::printf("=== Fig. 3: FreeRTOS attack scenarios, flat vs PMP ===\n");
  std::printf("%-20s | %-28s | %-28s\n", "scenario",
              "flat memory (no PMP)", "PMP-hardened");
  std::printf("%-20s | %-9s %-9s %-6s | %-9s %-9s %-6s\n", "", "attack",
              "recovered", "traps", "attack", "recovered", "traps");

  const auto flat = run_attack_suite(false);
  const auto hardened = run_attack_suite(true);

  bool all_contained = true;
  bool flat_vulnerable = false;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const auto& f = flat[i];
    const auto& h = hardened[i];
    std::printf("%-20s | %-9s %-9s %-6d | %-9s %-9s %-6d\n", f.name.c_str(),
                f.attack_succeeded ? "SUCCEEDS" : "fails",
                f.system_recovered() ? "yes" : "NO", f.faults,
                h.attack_succeeded ? "SUCCEEDS" : "fails",
                h.system_recovered() ? "yes" : "NO", h.faults);
    all_contained &= (!h.attack_succeeded && h.system_recovered());
    flat_vulnerable |= f.attack_succeeded;
  }

  std::printf("\nhardened kernel: every attack contained, victims met their "
              "deadlines, kernel integrity held: %s\n",
              all_contained ? "yes" : "NO");
  std::printf("flat baseline: memory attacks succeed silently: %s\n",
              flat_vulnerable ? "yes" : "NO");
  const bool rv32_contained = machine_code_containment();
  return (all_contained && flat_vulnerable && rv32_contained) ? 0 : 1;
}
