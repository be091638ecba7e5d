// Reproduces Table III: "A comparison of the Keystone defaults with our
// PQ-enabled modifications."
//
// Boots both TEE configurations on the machine model, creates an enclave,
// generates a signed attestation report, and prints the four rows of the
// paper's table: bootrom size, signature algorithms, attestation-report
// size, and SM stack size per core (with the measured signing watermark
// that explains why 8 KB fails and 128 KB suffices).
#include <cstdio>

#include "convolve/tee/rv32.hpp"
#include "convolve/tee/security_monitor.hpp"
#include "convolve/common/parallel.hpp"

using namespace convolve;
using namespace convolve::tee;

namespace {

struct ConfigResult {
  std::size_t bootrom_bytes = 0;
  std::size_t report_bytes = 0;
  std::size_t stack_bytes = 0;
  std::size_t stack_watermark = 0;
  bool attest_ok = false;
  bool overflowed_at_8k = false;
};

ConfigResult run_config(bool pq) {
  ConfigResult out;
  const Bootrom rom({pq}, DeviceKeys::from_entropy(Bytes(32, 0x42)));
  out.bootrom_bytes = rom.size_bytes();
  const Bytes sm_image(8192, 0xAB);
  const BootRecord boot = rom.boot(sm_image);

  // First: demonstrate the paper's stack finding with the 8 KB default.
  {
    Machine machine(1 << 20);
    SmConfig config;
    config.stack_bytes = 8 * 1024;
    SecurityMonitor sm(machine, boot, config);
    const int id = sm.create_enclave(Bytes(256, 0x3C), 8192);
    try {
      (void)sm.attest(id, as_bytes("probe"));
    } catch (const StackOverflow&) {
      out.overflowed_at_8k = true;
    }
  }

  // Then the configuration each column actually ships.
  Machine machine(1 << 20);
  SmConfig config;
  config.stack_bytes = pq ? 128 * 1024 : 8 * 1024;
  out.stack_bytes = config.stack_bytes;
  SecurityMonitor sm(machine, boot, config);
  const int id = sm.create_enclave(Bytes(256, 0x3C), 8192);
  const auto report = sm.attest(id, as_bytes("session binding data"));
  out.report_bytes = report.serialize().size();
  out.stack_watermark = sm.stack().high_watermark();
  out.attest_ok = verify_report(report, sm.trust_anchor());
  return out;
}

// Enclave code execution through the SM: a U-mode RV32 workload runs on
// the bytecode engine inside the enclave's PMP window, exits with
// ecall; a second program that dereferences OS memory must fault instead.
struct EnclaveRunResult {
  std::uint64_t retired = 0;
  bool clean_exit = false;
  bool escape_faulted = false;
};

EnclaveRunResult run_enclave_workload() {
  namespace rv = rv32asm;
  EnclaveRunResult out;
  const Bootrom rom({false}, DeviceKeys::from_entropy(Bytes(32, 0x42)));
  const BootRecord boot = rom.boot(Bytes(8192, 0xAB));
  Machine machine(1 << 20);
  SecurityMonitor sm(machine, boot, SmConfig{});

  // 1000 iterations of a 4-instruction ALU loop, then ecall back to the SM.
  const Bytes compute = rv::assemble({
      rv::addi(1, 0, 1000),
      rv::addi(2, 0, 0),
      // loop:
      rv::add(2, 2, 1),
      rv::xori(2, 2, 0x15),
      rv::addi(1, 1, -1),
      rv::bne(1, 0, -12),
      rv::ecall(),
  });
  const int id = sm.create_enclave(compute, 8192);
  const auto r = sm.run_enclave_program(id, 100000);
  out.retired = r.steps;
  out.clean_exit =
      r.trap.has_value() && r.trap->cause == TrapCause::kEcall;

  // Escape attempt: load from address 0 (the SM region / OS world).
  const Bytes escape = rv::assemble({rv::lw(1, 0, 0), rv::ecall()});
  const int rogue = sm.create_enclave(escape, 8192);
  const auto e = sm.run_enclave_program(rogue, 100);
  out.escape_faulted =
      e.trap.has_value() && e.trap->cause == TrapCause::kLoadAccessFault;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  convolve::par::init_threads_from_cli(argc, argv);
  std::printf("=== Table III: Keystone default vs PQ-enabled ===\n");
  const ConfigResult classical = run_config(false);
  const ConfigResult pq = run_config(true);

  std::printf("%-28s %-22s %-24s\n", "Component", "Keystone default",
              "PQ-enabled Keystone");
  std::printf("%-28s %-22s %-24s\n", "Bootrom size",
              (std::to_string(classical.bootrom_bytes / 1000.0).substr(0, 4) +
               " KB").c_str(),
              (std::to_string(pq.bootrom_bytes / 1000.0).substr(0, 4) +
               " KB").c_str());
  std::printf("%-28s %-22s %-24s\n", "Signature algorithms", "Ed25519",
              "Ed25519 & ML-DSA-44");
  std::printf("%-28s %-22s %-24s\n", "Attestation report size",
              (std::to_string(classical.report_bytes) + " Byte").c_str(),
              (std::to_string(pq.report_bytes) + " Byte").c_str());
  std::printf("%-28s %-22s %-24s\n", "SM stack size per core",
              (std::to_string(classical.stack_bytes / 1024) + " KB").c_str(),
              (std::to_string(pq.stack_bytes / 1024) + " KB").c_str());

  std::printf("\nPaper values: 50.7 KB / 60.2 KB; Ed25519 / Ed25519 & "
              "ML-DSA-44; 1320 / 7472 Byte; 8 KB / 128 KB\n");
  std::printf("\nStack evidence: ML-DSA signing watermark %zu bytes; with "
              "the 8 KB default the PQ attestation %s.\n",
              pq.stack_watermark,
              pq.overflowed_at_8k ? "overflows (trapped by the stack guard)"
                                  : "unexpectedly fits");
  std::printf("Attestation verification: classical %s, PQ hybrid %s.\n",
              classical.attest_ok ? "ok" : "FAILED",
              pq.attest_ok ? "ok" : "FAILED");

  const EnclaveRunResult enclave_run = run_enclave_workload();
  std::printf("\nEnclave execution (U-mode RV32 under the enclave PMP "
              "view): %llu instructions retired, %s; OS-memory escape "
              "attempt %s.\n",
              static_cast<unsigned long long>(enclave_run.retired),
              enclave_run.clean_exit ? "clean ecall exit" : "DID NOT EXIT",
              enclave_run.escape_faulted ? "faulted as required"
                                         : "WAS NOT CAUGHT");
  return (classical.attest_ok && pq.attest_ok && pq.overflowed_at_8k &&
          classical.report_bytes == 1320 && pq.report_bytes == 7472 &&
          enclave_run.clean_exit && enclave_run.escape_faulted)
             ? 0
             : 1;
}
