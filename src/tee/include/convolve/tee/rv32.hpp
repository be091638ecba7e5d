// RV32IM instruction-set simulator over the PMP-checked machine model.
//
// The paper's platform is a Rocket (RV64GC) SoC; for the isolation
// semantics under study, a clean RV32IM core is the faithful scale model:
// every fetch, load and store goes through the Machine's PMP unit at the
// hart's privilege level, so enclave/OS/task isolation applies to *real
// executing code*, not just to API calls. The base integer ISA plus the
// M extension is enough to run the loop/branch/memcpy-style payloads the
// tests and examples use.
//
// Traps (PMP faults, illegal instructions, ecall/ebreak) stop execution
// and are reported to the embedder -- the security monitor or kernel
// decides whether to kill, restart or service the hart.
//
// Two execution engines share the architectural state: step() (and
// run_interpreted()) is the straightforward fetch-decode-execute reference
// interpreter, and run() is the bytecode engine, which runs each code page
// as a compact bytecode stream (one 16-byte BcOp per instruction slot:
// handler byte + packed operands + linked handler address) through a
// computed-goto dispatch loop. The bytecode is not the hart's: Machine::decoded_page owns it (shared from the frozen
// image on a fork, privately refreshed word by word where the machine's
// bytes moved on), so an Rv32Cpu is just a register file, pc, privilege
// mode and tallies, and constructing one allocates nothing. The bytecode
// engine is differentially tested to be bit-identical to the reference,
// including trap cause/pc/tval and step accounting.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "convolve/tee/machine.hpp"
#include "convolve/tee/rv32_decode.hpp"

namespace convolve::tee {

enum class TrapCause : std::uint8_t {
  kIllegalInstruction,
  kInstructionAccessFault,
  kLoadAccessFault,
  kStoreAccessFault,
  kMisalignedFetch,
  kEcall,
  kEbreak,
};

struct Trap {
  TrapCause cause;
  std::uint32_t pc;    // pc of the trapping instruction
  std::uint32_t tval;  // faulting address or raw instruction
};

class Rv32Cpu {
 public:
  Rv32Cpu(Machine& machine, std::uint32_t entry_pc, PrivMode mode);
  ~Rv32Cpu();

  /// Publish this hart's telemetry tallies (rv32.instructions_retired,
  /// rv32.bytecode.instructions) to the global counters and zero them;
  /// decode tallies belong to the Machine. Called from the destructor;
  /// call explicitly before snapshotting while the hart is alive. No-op
  /// when CONVOLVE_TELEMETRY is OFF.
  void flush_telemetry();

  /// Execute one instruction via the reference interpreter. Returns a
  /// trap (pc NOT advanced past the trapping instruction, except for
  /// ecall/ebreak where it is) or nullopt on normal completion. This is
  /// the oracle the bytecode engine is differentially tested against.
  std::optional<Trap> step();

  struct RunResult {
    std::uint64_t steps = 0;
    std::optional<Trap> trap;  // set when stopped by a trap
  };

  /// Run until a trap or `max_steps` instructions on the bytecode engine.
  /// Bytecode pages come from Machine::decoded_page, current with the
  /// machine's per-page store versions, so self-modifying code re-decodes
  /// the words it changed; memory accesses are allocation-free with
  /// memoized PMP windows; nothing throws on the per-instruction path.
  /// Architectural state (registers, pc, retired count, trap
  /// cause/pc/tval) is bit-identical to run_interpreted.
  RunResult run(std::uint64_t max_steps);

  /// Run the same contract on the step() interpreter: the reference
  /// implementation for differential testing and benchmarking.
  /// Architectural state carries over between the two engines.
  RunResult run_interpreted(std::uint64_t max_steps);

  std::uint32_t pc() const { return pc_; }
  void set_pc(std::uint32_t pc) { pc_ = pc; }
  std::uint32_t reg(int index) const;
  void set_reg(int index, std::uint32_t value);
  PrivMode privilege() const { return mode_; }
  void set_privilege(PrivMode mode) { mode_ = mode; }
  std::uint64_t instructions_retired() const { return retired_; }

 private:
  // The bytecode engine on `cpu`. Handler labels exist only inside this
  // function, so a null `cpu` instead hands out their address table
  // through `handlers` (see bytecode_handlers()).
  static RunResult run_bytecode(Rv32Cpu* cpu, std::uint64_t max_steps,
                                const void* const** handlers);
  friend const void* const* bytecode_handlers();

  Machine& machine_;
  std::uint32_t pc_;
  PrivMode mode_;
  std::array<std::uint32_t, 32> x_{};
  std::uint64_t retired_ = 0;
#if CONVOLVE_TELEMETRY_ENABLED
  // Plain per-hart tallies, flushed in bulk by flush_telemetry(): the run()
  // loop must not touch an atomic per instruction (the telemetry-ON build
  // is gated to within 2% of OFF on the ALU workload).
  std::uint64_t bc_steps_ = 0;          // instructions retired via bytecode
  std::uint64_t flushed_retired_ = 0;   // retired_ already published
#endif
};

/// Instruction encoders for building test/demo programs without an
/// external assembler. Register arguments are x0..x31 indices.
namespace rv32asm {

std::uint32_t lui(int rd, std::uint32_t imm20);
std::uint32_t auipc(int rd, std::uint32_t imm20);
std::uint32_t jal(int rd, std::int32_t offset);
std::uint32_t jalr(int rd, int rs1, std::int32_t offset);
std::uint32_t beq(int rs1, int rs2, std::int32_t offset);
std::uint32_t bne(int rs1, int rs2, std::int32_t offset);
std::uint32_t blt(int rs1, int rs2, std::int32_t offset);
std::uint32_t bge(int rs1, int rs2, std::int32_t offset);
std::uint32_t bltu(int rs1, int rs2, std::int32_t offset);
std::uint32_t bgeu(int rs1, int rs2, std::int32_t offset);
std::uint32_t lb(int rd, int rs1, std::int32_t offset);
std::uint32_t lh(int rd, int rs1, std::int32_t offset);
std::uint32_t lw(int rd, int rs1, std::int32_t offset);
std::uint32_t lbu(int rd, int rs1, std::int32_t offset);
std::uint32_t lhu(int rd, int rs1, std::int32_t offset);
std::uint32_t sb(int rs2, int rs1, std::int32_t offset);
std::uint32_t sh(int rs2, int rs1, std::int32_t offset);
std::uint32_t sw(int rs2, int rs1, std::int32_t offset);
std::uint32_t addi(int rd, int rs1, std::int32_t imm);
std::uint32_t slti(int rd, int rs1, std::int32_t imm);
std::uint32_t sltiu(int rd, int rs1, std::int32_t imm);
std::uint32_t xori(int rd, int rs1, std::int32_t imm);
std::uint32_t ori(int rd, int rs1, std::int32_t imm);
std::uint32_t andi(int rd, int rs1, std::int32_t imm);
std::uint32_t slli(int rd, int rs1, int shamt);
std::uint32_t srli(int rd, int rs1, int shamt);
std::uint32_t srai(int rd, int rs1, int shamt);
std::uint32_t add(int rd, int rs1, int rs2);
std::uint32_t sub(int rd, int rs1, int rs2);
std::uint32_t sll(int rd, int rs1, int rs2);
std::uint32_t slt(int rd, int rs1, int rs2);
std::uint32_t sltu(int rd, int rs1, int rs2);
std::uint32_t xor_(int rd, int rs1, int rs2);
std::uint32_t srl(int rd, int rs1, int rs2);
std::uint32_t sra(int rd, int rs1, int rs2);
std::uint32_t or_(int rd, int rs1, int rs2);
std::uint32_t and_(int rd, int rs1, int rs2);
std::uint32_t mul(int rd, int rs1, int rs2);
std::uint32_t mulh(int rd, int rs1, int rs2);
std::uint32_t mulhsu(int rd, int rs1, int rs2);
std::uint32_t mulhu(int rd, int rs1, int rs2);
std::uint32_t div(int rd, int rs1, int rs2);
std::uint32_t divu(int rd, int rs1, int rs2);
std::uint32_t rem(int rd, int rs1, int rs2);
std::uint32_t remu(int rd, int rs1, int rs2);
std::uint32_t ecall();
std::uint32_t ebreak();
std::uint32_t nop();

/// Serialize a program (one word per instruction, little-endian).
Bytes assemble(const std::vector<std::uint32_t>& words);

}  // namespace rv32asm

}  // namespace convolve::tee
