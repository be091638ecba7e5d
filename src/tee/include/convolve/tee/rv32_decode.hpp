// Shared RV32IM instruction decoder.
//
// Exactly one decoder exists for the whole tree: the bytecode engine
// (Machine::decoded_page and Machine::freeze rewrite each DecodedInsn into
// the BcOp that Rv32Cpu::run dispatches) and the static binary analyzer
// (analysis/rv32static linear sweep) both consume DecodedInsn produced by
// decode_rv32() below.
// Keeping the decode in one header makes divergence between "what
// executes" and "what the analyzer reasons about" structurally impossible
// -- a soundness precondition for the static constant-time/PMP lint,
// pinned by the regression corpus in tests/tee/test_rv32_decode_shared.cpp.
//
// The decode is strict: reserved funct7/funct3 combinations (the SUB bit
// on AND, CSR-class SYSTEM encodings, shift-immediate funct7 garbage)
// decode to kIllegal rather than aliasing onto a nearby instruction.
#pragma once

#include <cstdint>

namespace convolve::tee {

/// Pre-decoded instruction: a flat handler index plus register/immediate
/// operands, so consumers dispatch on one byte instead of re-extracting
/// bit fields on every use.
enum class OpKind : std::uint8_t {
  kIllegal = 0,
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  kFence, kEcall, kEbreak,
};

struct DecodedInsn {
  OpKind kind = OpKind::kIllegal;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  // Sign-extended immediate (I/S/B/J forms, pre-shifted for branches and
  // jumps), upper immediate for LUI/AUIPC, shamt for immediate shifts, or
  // the raw instruction word for kIllegal (trap tval).
  std::int32_t imm = 0;
};

namespace decode_detail {

constexpr std::int32_t sign_extend(std::uint32_t value, int bits) {
  const std::uint32_t mask = 1u << (bits - 1);
  return static_cast<std::int32_t>((value ^ mask) - mask);
}

}  // namespace decode_detail

/// Decode one RV32IM instruction word. Strict: reserved encodings decode
/// to kIllegal (imm carries the raw word for the trap tval).
inline DecodedInsn decode_rv32(std::uint32_t inst) {
  using decode_detail::sign_extend;
  DecodedInsn d;
  d.kind = OpKind::kIllegal;
  d.imm = static_cast<std::int32_t>(inst);  // trap tval for kIllegal

  const std::uint32_t opcode = inst & 0x7f;
  const auto rd = static_cast<std::uint8_t>((inst >> 7) & 0x1f);
  const auto rs1 = static_cast<std::uint8_t>((inst >> 15) & 0x1f);
  const auto rs2 = static_cast<std::uint8_t>((inst >> 20) & 0x1f);
  const std::uint32_t funct3 = (inst >> 12) & 0x7;
  const std::uint32_t funct7 = inst >> 25;

  const auto accept = [&](OpKind kind, std::int32_t imm) {
    d.kind = kind;
    d.rd = rd;
    d.rs1 = rs1;
    d.rs2 = rs2;
    d.imm = imm;
  };
  const std::int32_t i_imm = sign_extend(inst >> 20, 12);

  switch (opcode) {
    case 0x37:
      accept(OpKind::kLui, static_cast<std::int32_t>(inst & 0xfffff000u));
      break;
    case 0x17:
      accept(OpKind::kAuipc, static_cast<std::int32_t>(inst & 0xfffff000u));
      break;
    case 0x6f: {
      const std::uint32_t imm = ((inst >> 31) << 20) |
                                (((inst >> 12) & 0xff) << 12) |
                                (((inst >> 20) & 1) << 11) |
                                (((inst >> 21) & 0x3ff) << 1);
      accept(OpKind::kJal, sign_extend(imm, 21));
      break;
    }
    case 0x67:
      accept(OpKind::kJalr, i_imm);
      break;
    case 0x63: {
      const std::uint32_t imm = ((inst >> 31) << 12) |
                                (((inst >> 7) & 1) << 11) |
                                (((inst >> 25) & 0x3f) << 5) |
                                (((inst >> 8) & 0xf) << 1);
      const std::int32_t offset = sign_extend(imm, 13);
      switch (funct3) {
        case 0: accept(OpKind::kBeq, offset); break;
        case 1: accept(OpKind::kBne, offset); break;
        case 4: accept(OpKind::kBlt, offset); break;
        case 5: accept(OpKind::kBge, offset); break;
        case 6: accept(OpKind::kBltu, offset); break;
        case 7: accept(OpKind::kBgeu, offset); break;
        default: break;  // kIllegal
      }
      break;
    }
    case 0x03:
      switch (funct3) {
        case 0: accept(OpKind::kLb, i_imm); break;
        case 1: accept(OpKind::kLh, i_imm); break;
        case 2: accept(OpKind::kLw, i_imm); break;
        case 4: accept(OpKind::kLbu, i_imm); break;
        case 5: accept(OpKind::kLhu, i_imm); break;
        default: break;
      }
      break;
    case 0x23: {
      const std::uint32_t imm = ((inst >> 25) << 5) | ((inst >> 7) & 0x1f);
      const std::int32_t offset = sign_extend(imm, 12);
      switch (funct3) {
        case 0: accept(OpKind::kSb, offset); break;
        case 1: accept(OpKind::kSh, offset); break;
        case 2: accept(OpKind::kSw, offset); break;
        default: break;
      }
      break;
    }
    case 0x13: {
      const std::int32_t shamt = static_cast<std::int32_t>((inst >> 20) & 0x1f);
      switch (funct3) {
        case 0: accept(OpKind::kAddi, i_imm); break;
        case 2: accept(OpKind::kSlti, i_imm); break;
        case 3: accept(OpKind::kSltiu, i_imm); break;
        case 4: accept(OpKind::kXori, i_imm); break;
        case 6: accept(OpKind::kOri, i_imm); break;
        case 7: accept(OpKind::kAndi, i_imm); break;
        case 1:
          if (funct7 == 0) accept(OpKind::kSlli, shamt);
          break;
        case 5:
          if (funct7 == 0) accept(OpKind::kSrli, shamt);
          else if (funct7 == 0x20) accept(OpKind::kSrai, shamt);
          break;
        default: break;
      }
      break;
    }
    case 0x33:
      if (funct7 == 0x01) {  // M extension
        switch (funct3) {
          case 0: accept(OpKind::kMul, 0); break;
          case 1: accept(OpKind::kMulh, 0); break;
          case 2: accept(OpKind::kMulhsu, 0); break;
          case 3: accept(OpKind::kMulhu, 0); break;
          case 4: accept(OpKind::kDiv, 0); break;
          case 5: accept(OpKind::kDivu, 0); break;
          case 6: accept(OpKind::kRem, 0); break;
          case 7: accept(OpKind::kRemu, 0); break;
          default: break;
        }
      } else if (funct7 == 0x00) {
        switch (funct3) {
          case 0: accept(OpKind::kAdd, 0); break;
          case 1: accept(OpKind::kSll, 0); break;
          case 2: accept(OpKind::kSlt, 0); break;
          case 3: accept(OpKind::kSltu, 0); break;
          case 4: accept(OpKind::kXor, 0); break;
          case 5: accept(OpKind::kSrl, 0); break;
          case 6: accept(OpKind::kOr, 0); break;
          case 7: accept(OpKind::kAnd, 0); break;
          default: break;
        }
      } else if (funct7 == 0x20) {
        // Only SUB and SRA carry the 0x20 bit; everything else is a
        // reserved encoding (matches the strict step() decoder).
        if (funct3 == 0) accept(OpKind::kSub, 0);
        else if (funct3 == 5) accept(OpKind::kSra, 0);
      }
      break;
    case 0x0f:
      accept(OpKind::kFence, 0);
      break;
    case 0x73: {
      const std::uint32_t imm = inst >> 20;
      if (funct3 == 0 && rd == 0 && rs1 == 0 && imm <= 1) {
        accept(imm == 0 ? OpKind::kEcall : OpKind::kEbreak, 0);
        d.rs2 = 0;  // imm field overlaps rs2; not a register operand
      }
      break;
    }
    default:
      break;
  }
  return d;
}

// Classification helpers shared by the CFG sweep and the dynamic taint
// oracle. They are total over OpKind so a new opcode that forgets to
// classify itself fails the shared-decoder regression corpus.

constexpr bool is_branch(OpKind k) {
  return k >= OpKind::kBeq && k <= OpKind::kBgeu;
}
constexpr bool is_load(OpKind k) {
  return k >= OpKind::kLb && k <= OpKind::kLhu;
}
constexpr bool is_store(OpKind k) {
  return k >= OpKind::kSb && k <= OpKind::kSw;
}
/// Instructions that end a basic block: branches, jumps, ecall/ebreak and
/// illegal words (which trap).
constexpr bool is_terminator(OpKind k) {
  return is_branch(k) || k == OpKind::kJal || k == OpKind::kJalr ||
         k == OpKind::kEcall || k == OpKind::kEbreak ||
         k == OpKind::kIllegal;
}
/// Does the instruction write a destination register (when rd != 0)?
constexpr bool writes_rd(OpKind k) {
  return !(is_branch(k) || is_store(k) || k == OpKind::kFence ||
           k == OpKind::kEcall || k == OpKind::kEbreak ||
           k == OpKind::kIllegal);
}
/// Does the instruction read x[rs1]? The decoder copies the raw rs1/rs2
/// bit fields for every format (harmless for the engines, which ignore
/// unused operands), so analyzers MUST consult these predicates instead
/// of assuming the fields are meaningful -- for LUI/AUIPC/JAL they hold
/// immediate fragments.
constexpr bool reads_rs1(OpKind k) {
  return !(k == OpKind::kLui || k == OpKind::kAuipc || k == OpKind::kJal ||
           k == OpKind::kFence || k == OpKind::kEcall ||
           k == OpKind::kEbreak || k == OpKind::kIllegal);
}
/// Does the instruction read x[rs2]? (R-type ops, branches and stores.)
constexpr bool reads_rs2(OpKind k) {
  return is_branch(k) || is_store(k) ||
         (k >= OpKind::kAdd && k <= OpKind::kRemu);
}
/// Number of bytes accessed by a load/store (0 for everything else).
constexpr std::uint32_t access_bytes(OpKind k) {
  switch (k) {
    case OpKind::kLb: case OpKind::kLbu: case OpKind::kSb: return 1;
    case OpKind::kLh: case OpKind::kLhu: case OpKind::kSh: return 2;
    case OpKind::kLw: case OpKind::kSw: return 4;
    default: return 0;
  }
}

// ---------------------------------------------------------------------
// Bytecode tier: compact per-slot ops for the threaded dispatch engine.
// ---------------------------------------------------------------------
//
// The bytecode engine (Rv32Cpu::run) decodes each code page into one BcOp
// per 4-byte slot, each from its own word alone: a handler byte indexing
// the dispatch table plus pre-extracted operands and the linked handler
// address, so the hot loop touches exactly one 16-byte BcOp record per
// dispatch. run_interpreted() stays the bit-for-bit oracle.
enum class BcHandler : std::uint8_t {
  // 0..48 mirror OpKind exactly (see static_asserts below), so the single-
  // instruction rewrite is a cast.
  kIllegal = 0,
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  kFence, kEcall, kEbreak,
  // Decode-time specialization: a pure rd-writing op with rd == x0 is
  // architecturally a no-op.
  kNop,
};
constexpr std::size_t kBcHandlerCount =
    static_cast<std::size_t>(BcHandler::kNop) + 1;

static_assert(static_cast<int>(BcHandler::kLui) == static_cast<int>(OpKind::kLui));
static_assert(static_cast<int>(BcHandler::kSw) == static_cast<int>(OpKind::kSw));
static_assert(static_cast<int>(BcHandler::kSrai) == static_cast<int>(OpKind::kSrai));
static_assert(static_cast<int>(BcHandler::kRemu) == static_cast<int>(OpKind::kRemu));
static_assert(static_cast<int>(BcHandler::kEbreak) == static_cast<int>(OpKind::kEbreak));

/// One bytecode slot: handler byte + the operands of its own instruction.
struct BcOp {
  std::uint8_t handler = static_cast<std::uint8_t>(BcHandler::kIllegal);
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;   // kIllegal: raw instruction word (trap tval)
  // Dispatch goes through this direct handler address (one dependent
  // load instead of byte -> table -> jump). Page decode links it from
  // bytecode_handlers() before the page is ever executed or shared.
  const void* target = nullptr;
};
static_assert(sizeof(BcOp) == 16, "one BcOp per slot: 4 KB page = 16 KB");

/// Handler addresses of the threaded bytecode engine, indexed by
/// BcHandler: what page decode links BcOp::target to. The table is a
/// function-local constant of the dispatch loop (label addresses exist
/// nowhere else), so reading it from any thread is race-free.
const void* const* bytecode_handlers();

/// Rewrite one decoded instruction into its bytecode slot. Pure
/// rd-writing ops (LUI/AUIPC and the ALU block) with rd == x0 become kNop;
/// loads keep their access (fault semantics), jumps keep their transfer.
inline BcOp bytecode_single(const DecodedInsn& d) {
  BcOp op;
  const bool pure_rd_write =
      d.kind == OpKind::kLui || d.kind == OpKind::kAuipc ||
      (d.kind >= OpKind::kAddi && d.kind <= OpKind::kRemu);
  op.handler = (pure_rd_write && d.rd == 0)
                   ? static_cast<std::uint8_t>(BcHandler::kNop)
                   : static_cast<std::uint8_t>(d.kind);
  op.rd = d.rd;
  op.rs1 = d.rs1;
  op.rs2 = d.rs2;
  op.imm = d.imm;
  return op;
}

}  // namespace convolve::tee
