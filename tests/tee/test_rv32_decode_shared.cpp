// Regression corpus for the shared decoder (convolve/tee/rv32_decode.hpp).
//
// The decoder is consumed by the bytecode engine and the static binary
// analyzer's linear sweep, and both must agree with the reference
// interpreter step(), which decodes the raw word itself. This suite pins:
//   1. byte-for-byte DecodedInsn goldens on edge-case encodings,
//   2. decode legality == interpreter legality over an exhaustive OP
//      funct7 x funct3 sweep and a SYSTEM-class corpus,
//   3. misaligned-fetch behaviour (a decode-level concern for the sweep:
//      targets with pc % 4 != 0 never reach the decoder),
//   4. totality of the classification helpers the CFG sweep relies on.
#include "convolve/tee/rv32.hpp"

#include <cstring>
#include <gtest/gtest.h>

#include "convolve/common/rng.hpp"

namespace convolve::tee {
namespace {

namespace rv = rv32asm;

std::uint32_t enc(std::uint32_t funct7, int rs2, int rs1,
                  std::uint32_t funct3, int rd, std::uint32_t opcode) {
  return (funct7 << 25) | (static_cast<std::uint32_t>(rs2) << 20) |
         (static_cast<std::uint32_t>(rs1) << 15) | (funct3 << 12) |
         (static_cast<std::uint32_t>(rd) << 7) | opcode;
}

std::uint32_t system_word(std::uint32_t imm12, int rs1, std::uint32_t funct3,
                          int rd) {
  return (imm12 << 20) | (static_cast<std::uint32_t>(rs1) << 15) |
         (funct3 << 12) | (static_cast<std::uint32_t>(rd) << 7) | 0x73;
}

bool insn_equal(const DecodedInsn& a, const DecodedInsn& b) {
  return a.kind == b.kind && a.rd == b.rd && a.rs1 == b.rs1 &&
         a.rs2 == b.rs2 && a.imm == b.imm;
}

// Execute one instruction word on the reference interpreter with zeroed
// registers and report whether it trapped as illegal.
bool interpreter_says_illegal(std::uint32_t word) {
  Machine machine{1 << 16};
  machine.store(0x1000, rv::assemble({word}), PrivMode::kMachine);
  Rv32Cpu cpu(machine, 0x1000, PrivMode::kMachine);
  const auto trap = cpu.step();
  return trap.has_value() && trap->cause == TrapCause::kIllegalInstruction;
}

TEST(Rv32DecodeShared, GoldenEdgeEncodings) {
  struct Golden {
    std::uint32_t word;
    DecodedInsn expect;
  };
  const Golden corpus[] = {
      // SUB x5, x6, x7: the funct7=0x20 bit on funct3=0.
      {rv::sub(5, 6, 7), {OpKind::kSub, 5, 6, 7, 0}},
      // SRAI x1, x2, 31: shamt with the 0x20 marker stripped into imm.
      {rv::srai(1, 2, 31), {OpKind::kSrai, 1, 2, 31, 31}},
      // SRAI with a stray funct7 bit (0x21 pattern) is reserved.
      {rv::srai(1, 2, 31) | (1u << 25),
       {OpKind::kIllegal, 0, 0, 0,
        static_cast<std::int32_t>(rv::srai(1, 2, 31) | (1u << 25))}},
      // OP funct7=0x20 funct3=7 (the "AND with SUB bit" alias) is reserved.
      {enc(0x20, 3, 2, 7, 1, 0x33),
       {OpKind::kIllegal, 0, 0, 0,
        static_cast<std::int32_t>(enc(0x20, 3, 2, 7, 1, 0x33))}},
      // ECALL: rs2 overlaps imm and must decode as 0, not 0 vs garbage.
      {rv::ecall(), {OpKind::kEcall, 0, 0, 0, 0}},
      // EBREAK: imm=1 in the rs2 field, still not a register operand.
      {rv::ebreak(), {OpKind::kEbreak, 0, 0, 0, 0}},
      // CSRRW-shaped SYSTEM word (funct3=1) is not implemented: illegal.
      {system_word(0x305, 1, 1, 1),
       {OpKind::kIllegal, 0, 0, 0,
        static_cast<std::int32_t>(system_word(0x305, 1, 1, 1))}},
      // ECALL with rd!=0 is a reserved SYSTEM encoding.
      {system_word(0, 0, 0, 1),
       {OpKind::kIllegal, 0, 0, 0,
        static_cast<std::int32_t>(system_word(0, 0, 0, 1))}},
      // WFI-shaped (imm=0x105) SYSTEM word: illegal here.
      {system_word(0x105, 0, 0, 0),
       {OpKind::kIllegal, 0, 0, 0,
        static_cast<std::int32_t>(system_word(0x105, 0, 0, 0))}},
      // JAL x1, -4: the rs1/rs2 field slots carry J-immediate fragments
      // (the decoder copies raw bit fields for every format; reads_rs1/
      // reads_rs2 say whether they are real operands).
      {rv::jal(1, -4), {OpKind::kJal, 1, 31, 29, -4}},
      // BGEU x3, x4, +16: the B-immediate low bits land in the rd slot.
      {rv::bgeu(3, 4, 16), {OpKind::kBgeu, 16, 3, 4, 16}},
      // LW x8, -2048(x9): most negative I-immediate.
      {rv::lw(8, 9, -2048), {OpKind::kLw, 8, 9, 0, -2048}},
      // SW x10, 2047(x11): most positive S-immediate (low 5 bits -> rd slot).
      {rv::sw(10, 11, 2047), {OpKind::kSw, 31, 11, 10, 2047}},
      // LUI x12 with the top immediate bit set (sign of imm field); the
      // rs1/rs2 slots are immediate bits, all ones here.
      {rv::lui(12, 0xfffff),
       {OpKind::kLui, 12, 31, 31, static_cast<std::int32_t>(0xfffff000u)}},
      // FENCE: accepted as a no-op regardless of fm/pred/succ bits (the
      // pred/succ mask lands in the rs2 field slot of the decode).
      {0x0ff0000f, {OpKind::kFence, 0, 0, 31, 0}},
      // All-zero and all-one words are illegal (defensive trap values).
      {0x00000000u, {OpKind::kIllegal, 0, 0, 0, 0}},
      {0xffffffffu, {OpKind::kIllegal, 0, 0, 0, -1}},
  };
  for (const auto& g : corpus) {
    const DecodedInsn got = decode_rv32(g.word);
    EXPECT_TRUE(insn_equal(got, g.expect))
        << "word 0x" << std::hex << g.word << " decoded to kind "
        << std::dec << static_cast<int>(got.kind) << " rd "
        << static_cast<int>(got.rd) << " rs1 " << static_cast<int>(got.rs1)
        << " rs2 " << static_cast<int>(got.rs2) << " imm " << got.imm;
  }
}

TEST(Rv32DecodeShared, OpFunct7SweepMatchesInterpreter) {
  // Exhaustive OP-opcode sweep: every funct7 x funct3 combination must be
  // classified identically by the shared decoder and the reference
  // interpreter (legal <=> no illegal-instruction trap).
  for (std::uint32_t funct7 = 0; funct7 < 128; ++funct7) {
    for (std::uint32_t funct3 = 0; funct3 < 8; ++funct3) {
      const std::uint32_t word = enc(funct7, 2, 1, funct3, 3, 0x33);
      const bool decode_illegal = decode_rv32(word).kind == OpKind::kIllegal;
      EXPECT_EQ(decode_illegal, interpreter_says_illegal(word))
          << "OP funct7=" << funct7 << " funct3=" << funct3;
    }
  }
}

TEST(Rv32DecodeShared, SystemCorpusMatchesInterpreter) {
  // SYSTEM class: imm/rd/rs1/funct3 variations around ECALL/EBREAK.
  for (const std::uint32_t imm : {0u, 1u, 2u, 0x105u, 0x302u, 0xfffu}) {
    for (const int rd : {0, 1, 31}) {
      for (const int rs1 : {0, 1, 31}) {
        for (const std::uint32_t funct3 : {0u, 1u, 2u, 3u, 5u, 7u}) {
          const std::uint32_t word =
              system_word(imm, rs1, funct3, rd);
          const bool decode_illegal =
              decode_rv32(word).kind == OpKind::kIllegal;
          EXPECT_EQ(decode_illegal, interpreter_says_illegal(word))
              << "SYSTEM imm=" << imm << " rd=" << rd << " rs1=" << rs1
              << " funct3=" << funct3;
        }
      }
    }
  }
}

TEST(Rv32DecodeShared, RandomWordsAgreeWithInterpreterOnLegality) {
  Xoshiro256 rng(0x5eedc0deull);
  for (int i = 0; i < 5000; ++i) {
    const auto word = static_cast<std::uint32_t>(rng.next_u64());
    const DecodedInsn d = decode_rv32(word);
    const bool decode_illegal = d.kind == OpKind::kIllegal;
    EXPECT_EQ(decode_illegal, interpreter_says_illegal(word))
        << "word 0x" << std::hex << word;
    if (decode_illegal) {
      // Illegal decodes must carry the raw word for the trap tval.
      EXPECT_EQ(static_cast<std::uint32_t>(d.imm), word);
    }
  }
}

TEST(Rv32DecodeShared, MisalignedFetchTrapsBeforeDecodeOnBothEngines) {
  // A jalr to a 2-byte-aligned target (bit 0 is cleared architecturally,
  // bit 1 survives) must trap kMisalignedFetch on both engines -- the
  // decoder never sees a misaligned pc, which is why the static sweep can
  // treat the 4-byte instruction grid as total.
  for (const bool fast : {false, true}) {
    SCOPED_TRACE(fast ? "fast engine" : "reference interpreter");
    Machine machine{1 << 16};
    machine.store(0x1000,
                  rv::assemble({rv::lui(1, 1), rv::addi(1, 1, 6),
                                rv::jalr(0, 1, 0)}),
                  PrivMode::kMachine);
    Rv32Cpu cpu(machine, 0x1000, PrivMode::kMachine);
    const auto r = fast ? cpu.run(10) : cpu.run_interpreted(10);
    ASSERT_TRUE(r.trap.has_value());
    EXPECT_EQ(r.trap->cause, TrapCause::kMisalignedFetch);
    EXPECT_EQ(r.trap->pc, 0x1006u);
    EXPECT_EQ(r.trap->tval, 0x1006u);
  }
}

TEST(Rv32DecodeShared, ClassificationHelpersAreTotal) {
  // Every OpKind must land in exactly one of the CFG sweep's classes
  // (terminator-kind, memory-access, or plain), and writes_rd must agree
  // with what the engines actually do with rd.
  for (int k = 0; k <= static_cast<int>(OpKind::kEbreak); ++k) {
    const auto kind = static_cast<OpKind>(k);
    const int classes = (is_branch(kind) ? 1 : 0) +
                        (is_load(kind) ? 1 : 0) + (is_store(kind) ? 1 : 0);
    EXPECT_LE(classes, 1) << "OpKind " << k << " in multiple classes";
    if (is_load(kind) || is_store(kind)) {
      EXPECT_GT(access_bytes(kind), 0u);
    } else {
      EXPECT_EQ(access_bytes(kind), 0u);
    }
    if (is_branch(kind)) {
      EXPECT_FALSE(writes_rd(kind));
      EXPECT_TRUE(is_terminator(kind));
    }
    if (is_store(kind)) {
      EXPECT_FALSE(writes_rd(kind));
    }
    if (is_load(kind)) {
      EXPECT_TRUE(writes_rd(kind));
    }
  }
  EXPECT_TRUE(is_terminator(OpKind::kJal));
  EXPECT_TRUE(is_terminator(OpKind::kJalr));
  EXPECT_TRUE(is_terminator(OpKind::kEcall));
  EXPECT_TRUE(is_terminator(OpKind::kIllegal));
  EXPECT_FALSE(is_terminator(OpKind::kAdd));
  EXPECT_FALSE(is_terminator(OpKind::kLw));
}

}  // namespace
}  // namespace convolve::tee
