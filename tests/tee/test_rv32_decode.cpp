// Negative decode tests: every encoding the lax decoder used to accept
// (or mis-book-keep) must trap as an illegal instruction, identically on
// the reference interpreter (step loop) and the bytecode engine. The
// single-slot bytecode rewrite is covered for its kNop and illegal-slot
// cases.
#include "convolve/tee/rv32.hpp"

#include <gtest/gtest.h>

namespace convolve::tee {
namespace {

namespace rv = rv32asm;

std::uint32_t enc(std::uint32_t funct7, int rs2, int rs1,
                  std::uint32_t funct3, int rd, std::uint32_t opcode) {
  return (funct7 << 25) | (static_cast<std::uint32_t>(rs2) << 20) |
         (static_cast<std::uint32_t>(rs1) << 15) | (funct3 << 12) |
         (static_cast<std::uint32_t>(rd) << 7) | opcode;
}

// SYSTEM-class word: csr/imm in the top 12 bits.
std::uint32_t system_word(std::uint32_t imm12, int rs1, std::uint32_t funct3,
                          int rd) {
  return (imm12 << 20) | (static_cast<std::uint32_t>(rs1) << 15) |
         (funct3 << 12) | (static_cast<std::uint32_t>(rd) << 7) | 0x73;
}

struct Cpu {
  Machine machine{1 << 20};
  std::unique_ptr<Rv32Cpu> cpu;

  explicit Cpu(const std::vector<std::uint32_t>& program) {
    machine.store(0x1000, rv::assemble(program), PrivMode::kMachine);
    cpu = std::make_unique<Rv32Cpu>(machine, 0x1000, PrivMode::kMachine);
  }
};

// Run `program` on both engines; expect an illegal-instruction trap at
// `trap_pc` with the raw word as tval, and — like every other trap path —
// no pc/retired advance past the trapping instruction.
void expect_illegal(const std::vector<std::uint32_t>& program,
                    std::uint32_t trap_pc, std::uint32_t trap_word,
                    std::uint64_t retired_before_trap) {
  for (const bool fast : {false, true}) {
    SCOPED_TRACE(fast ? "fast engine" : "reference interpreter");
    Cpu c(program);
    const auto r = fast ? c.cpu->run(100) : c.cpu->run_interpreted(100);
    ASSERT_TRUE(r.trap.has_value());
    EXPECT_EQ(r.trap->cause, TrapCause::kIllegalInstruction);
    EXPECT_EQ(r.trap->pc, trap_pc);
    EXPECT_EQ(r.trap->tval, trap_word);
    EXPECT_EQ(c.cpu->pc(), trap_pc) << "illegal trap must not advance pc";
    EXPECT_EQ(c.cpu->instructions_retired(), retired_before_trap);
  }
}

TEST(Rv32Decode, OpRejectsSubBitOnNonSubNonSra) {
  // funct7=0x20 is only defined for funct3 0 (SUB) and 5 (SRA); with any
  // other funct3 the encoding is reserved and must not silently execute
  // as the funct7=0 instruction.
  for (const std::uint32_t funct3 : {1u, 2u, 3u, 4u, 6u, 7u}) {
    SCOPED_TRACE(funct3);
    const std::uint32_t word = enc(0x20, 2, 1, funct3, 3, 0x33);
    expect_illegal({rv::addi(1, 0, 5), rv::addi(2, 0, 3), word},
                   0x1008, word, 2);
  }
}

TEST(Rv32Decode, OpRejectsUnknownFunct7) {
  for (const std::uint32_t funct7 : {0x02u, 0x05u, 0x10u, 0x7fu}) {
    SCOPED_TRACE(funct7);
    const std::uint32_t word = enc(funct7, 2, 1, 0, 3, 0x33);
    expect_illegal({word}, 0x1000, word, 0);
  }
}

TEST(Rv32Decode, SubAndSraStillDecode) {
  for (const bool fast : {false, true}) {
    Cpu c({rv::addi(1, 0, -16), rv::addi(2, 0, 2), rv::sub(3, 1, 2),
           rv::sra(4, 1, 2), rv::ebreak()});
    const auto r = fast ? c.cpu->run(100) : c.cpu->run_interpreted(100);
    ASSERT_TRUE(r.trap.has_value());
    EXPECT_EQ(r.trap->cause, TrapCause::kEbreak);
    EXPECT_EQ(static_cast<std::int32_t>(c.cpu->reg(3)), -18);
    EXPECT_EQ(static_cast<std::int32_t>(c.cpu->reg(4)), -4);
  }
}

TEST(Rv32Decode, SystemCsrClassWithZeroCsrTraps) {
  // csrrw x1, 0, x2 and friends: imm==0 but funct3!=0. These used to
  // decode as ECALL; they must trap as illegal instead.
  for (const std::uint32_t funct3 : {1u, 2u, 3u, 5u, 6u, 7u}) {
    SCOPED_TRACE(funct3);
    const std::uint32_t word = system_word(0, 2, funct3, 1);
    expect_illegal({word}, 0x1000, word, 0);
  }
}

TEST(Rv32Decode, SystemEcallRequiresZeroRdRs1) {
  const std::uint32_t rd_set = system_word(0, 0, 0, 1);    // rd != 0
  const std::uint32_t rs1_set = system_word(0, 1, 0, 0);   // rs1 != 0
  const std::uint32_t priv_other = system_word(2, 0, 0, 0);  // e.g. URET slot
  expect_illegal({rd_set}, 0x1000, rd_set, 0);
  expect_illegal({rs1_set}, 0x1000, rs1_set, 0);
  expect_illegal({priv_other}, 0x1000, priv_other, 0);
}

TEST(Rv32Decode, SystemIllegalDoesNotAdvanceState) {
  // Regression: the old SYSTEM path advanced pc and the retired counter
  // before raising the illegal trap, unlike every other trap path.
  const std::uint32_t word = system_word(0x305, 0, 1, 5);  // csrrw x5,mtvec,x0
  expect_illegal({rv::nop(), word}, 0x1004, word, 1);
}

TEST(Rv32Decode, EcallAndEbreakStillResume) {
  for (const bool fast : {false, true}) {
    SCOPED_TRACE(fast ? "fast engine" : "reference interpreter");
    Cpu c({rv::ecall(), rv::addi(1, 0, 9), rv::ebreak()});
    auto r = fast ? c.cpu->run(10) : c.cpu->run_interpreted(10);
    ASSERT_TRUE(r.trap.has_value());
    EXPECT_EQ(r.trap->cause, TrapCause::kEcall);
    EXPECT_EQ(r.trap->pc, 0x1000u);
    EXPECT_EQ(c.cpu->pc(), 0x1004u);  // resumable: pc past the ecall
    EXPECT_EQ(c.cpu->instructions_retired(), 1u);
    r = fast ? c.cpu->run(10) : c.cpu->run_interpreted(10);
    ASSERT_TRUE(r.trap.has_value());
    EXPECT_EQ(r.trap->cause, TrapCause::kEbreak);
    EXPECT_EQ(c.cpu->reg(1), 9u);
    EXPECT_EQ(c.cpu->instructions_retired(), 3u);
  }
}

// --- Single-slot bytecode rewrite --------------------------------------

TEST(Rv32Decode, BytecodeSingleRewritesX0WritesToNop) {
  EXPECT_EQ(static_cast<BcHandler>(bytecode_single(decode_rv32(
                rv::addi(0, 5, 42))).handler),
            BcHandler::kNop);
  EXPECT_EQ(static_cast<BcHandler>(bytecode_single(decode_rv32(
                rv::lui(0, 0x123))).handler),
            BcHandler::kNop);
  // Loads with rd == x0 keep their access (fault semantics).
  EXPECT_EQ(static_cast<BcHandler>(bytecode_single(decode_rv32(
                rv::lw(0, 1, 0))).handler),
            BcHandler::kLw);
  // Jumps with rd == x0 keep their control transfer.
  EXPECT_EQ(static_cast<BcHandler>(bytecode_single(decode_rv32(
                rv::jal(0, 8))).handler),
            BcHandler::kJal);
}

TEST(Rv32Decode, IllegalWordKeepsRawEncodingAsTval) {
  const std::uint32_t garbage = 0xffffffffu;
  const BcOp op = bytecode_single(decode_rv32(garbage));
  EXPECT_EQ(static_cast<BcHandler>(op.handler), BcHandler::kIllegal);
  EXPECT_EQ(static_cast<std::uint32_t>(op.imm), garbage);
}

}  // namespace
}  // namespace convolve::tee
