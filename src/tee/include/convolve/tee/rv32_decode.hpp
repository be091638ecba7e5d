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
// per 4-byte slot: a handler byte indexing the dispatch table plus
// pre-extracted operands, so the hot loop touches exactly one BcOp record
// per dispatch. A decode-time fusion pass
// additionally recognizes adjacent pairs (lui+addi, auipc+addi, auipc+lw,
// cmp/addi+branch-on-zero) and emits a fused handler in the FIRST slot of
// the pair; the second slot always keeps its own unfused bytecode, so a
// jump into the middle of a pair executes the plain second instruction.
//
// Fused super-ops are architectural sugar only: they retire as two steps,
// fault with the component instruction's pc/tval, and are split (executed
// unfused via the oracle) whenever the remaining step budget or the
// validated execute window cannot cover both halves. run_interpreted()
// stays a bit-for-bit oracle for every fused path.
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
  // Decode-time specializations.
  kNop,  // pure rd-writing op with rd == x0: architecturally a no-op
  // Fused pairs (handler lives in the first slot of the pair).
  kFusedLuiAddi,    // lui rd,hi ; addi rd2,rd,lo   -> both constants folded
  kFusedAuipcAddi,  // auipc rd,hi ; addi rd2,rd,lo -> pc-relative address gen
  kFusedAuipcLw,    // auipc rd,hi ; lw rd2,lo(rd)  -> pc-relative load
  kFusedSltBeqz, kFusedSltBnez,      // slt rd,a,b   ; beqz/bnez rd
  kFusedSltuBeqz, kFusedSltuBnez,    // sltu rd,a,b  ; beqz/bnez rd
  kFusedSltiBeqz, kFusedSltiBnez,    // slti rd,a,K  ; beqz/bnez rd
  kFusedSltiuBeqz, kFusedSltiuBnez,  // sltiu rd,a,K ; beqz/bnez rd
  kFusedAddiBeqz, kFusedAddiBnez,    // addi rd,a,K  ; beqz/bnez rd (dec+loop)
  kFusedSlliSrli,  // slli rd,s,A ; srli rd2,s,B -> rotate halves (RV32I rol)
  kFusedSrliSlli,  // srli rd,s,A ; slli rd2,s,B -> rotate halves (RV32I ror)
  kFusedAddiAddi,  // addi rd,s,K ; addi rd2,rd2,K2 -> paired pointer bumps
  kFusedOrXor,     // or rd,a,b ; xor rd2,rd,c  -> ARX rotate-then-mix
  kFusedOrXori,    // or rd,a,b ; xori rd2,rd,K -> ARX rotate-then-mix (imm)
};
constexpr std::size_t kBcHandlerCount =
    static_cast<std::size_t>(BcHandler::kFusedOrXori) + 1;

static_assert(static_cast<int>(BcHandler::kLui) == static_cast<int>(OpKind::kLui));
static_assert(static_cast<int>(BcHandler::kSw) == static_cast<int>(OpKind::kSw));
static_assert(static_cast<int>(BcHandler::kSrai) == static_cast<int>(OpKind::kSrai));
static_assert(static_cast<int>(BcHandler::kRemu) == static_cast<int>(OpKind::kRemu));
static_assert(static_cast<int>(BcHandler::kEbreak) == static_cast<int>(OpKind::kEbreak));

/// One bytecode slot: handler byte + packed operands. For fused pairs,
/// `rd`/`rs1`/`rs2`/`imm` describe the first component (rs2 doubles as the
/// second component's rd for the lui/auipc pairs) and `imm2` carries the
/// pair's folded second immediate:
///   kFusedLuiAddi:   imm = hi, imm2 = hi + lo (both final constants)
///   kFusedAuipcAddi: imm = hi, imm2 = hi + lo (add pc at run time)
///   kFusedAuipcLw:   imm = hi, imm2 = hi + lo (load address = pc + imm2)
///   kFused*B{eq,ne}z: imm = cmp immediate, imm2 = branch offset + 4
///                     (pre-biased so target = pair pc + imm2)
///   kFusedSlliSrli/kFusedSrliSlli: imm = first shamt, imm2 = second shamt
///                     (both shifts read the shared source rs1)
///   kFusedAddiAddi:   imm = first immediate, imm2 = second immediate
///                     (second component is rs2 += imm2)
///   kFusedOrXor:      imm = xor's other source register, imm2 = xor's rd
///   kFusedOrXori:     imm = xor immediate, imm2 = xori's rd
///                     (the or result is forwarded to the xor directly)
struct BcOp {
  std::uint8_t handler = static_cast<std::uint8_t>(BcHandler::kIllegal);
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;   // kIllegal: raw instruction word (trap tval)
  std::int32_t imm2 = 0;
  // Dispatch goes through this direct handler address (one dependent
  // load instead of byte -> table -> jump). Page decode links it from
  // bytecode_handlers() before the page is ever executed or shared.
  const void* target = nullptr;
};

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

/// Macro-op fusion table: try to fuse adjacent pair (a at pc, b at pc+4).
/// Returns true and fills `out` when the pair fuses. Conditions are
/// deliberately conservative:
///  - a.rd != 0 (every pair has b reading a's result; x0 would read 0,
///    not the produced value);
///  - b must consume a.rd exactly as the pattern expects;
///  - for cmp+branch, b must compare a.rd against x0 (either operand
///    order) so the fused zero-test is exact.
/// Page-edge handling (b outside the decoded page) is the caller's job:
/// only call with both slots inside one page.
inline bool fuse_rv32(const DecodedInsn& a, const DecodedInsn& b, BcOp& out) {
  if (a.rd == 0) return false;
  const auto emit = [&](BcHandler h, std::int32_t imm, std::int32_t imm2) {
    out.handler = static_cast<std::uint8_t>(h);
    out.rd = a.rd;
    out.rs1 = a.rs1;
    out.rs2 = a.rs2;
    out.imm = imm;
    out.imm2 = imm2;
  };
  switch (a.kind) {
    case OpKind::kLui:
      if (b.kind == OpKind::kAddi && b.rs1 == a.rd) {
        emit(BcHandler::kFusedLuiAddi, a.imm, a.imm + b.imm);
        out.rs2 = b.rd;  // second component's destination
        return true;
      }
      return false;
    case OpKind::kAuipc:
      if (b.kind == OpKind::kAddi && b.rs1 == a.rd) {
        emit(BcHandler::kFusedAuipcAddi, a.imm, a.imm + b.imm);
        out.rs2 = b.rd;
        return true;
      }
      if (b.kind == OpKind::kLw && b.rs1 == a.rd) {
        emit(BcHandler::kFusedAuipcLw, a.imm, a.imm + b.imm);
        out.rs2 = b.rd;
        return true;
      }
      return false;
    case OpKind::kSlli:
      // Rotate idiom: both shifts read the same un-clobbered source; the
      // second destination may be x0 (runtime no-op) or alias rd (last
      // write wins, program order preserved).
      if (b.kind == OpKind::kSrli && b.rs1 == a.rs1 && a.rd != a.rs1) {
        emit(BcHandler::kFusedSlliSrli, a.imm, b.imm);
        out.rs2 = b.rd;
        return true;
      }
      return false;
    case OpKind::kSrli:
      if (b.kind == OpKind::kSlli && b.rs1 == a.rs1 && a.rd != a.rs1) {
        emit(BcHandler::kFusedSrliSlli, a.imm, b.imm);
        out.rs2 = b.rd;
        return true;
      }
      return false;
    case OpKind::kOr:
      // ARX rotate-then-mix: the xor consumes the or'd rotate halves.
      // The handler commits rd first and forwards the or result, so any
      // operand aliasing (including both xor sources == rd) is exact.
      if (b.kind == OpKind::kXor && (b.rs1 == a.rd || b.rs2 == a.rd)) {
        const std::uint8_t other = b.rs1 == a.rd ? b.rs2 : b.rs1;
        emit(BcHandler::kFusedOrXor, other, b.rd);
        return true;
      }
      if (b.kind == OpKind::kXori && b.rs1 == a.rd) {
        emit(BcHandler::kFusedOrXori, b.imm, b.rd);
        return true;
      }
      return false;
    case OpKind::kSlt:
    case OpKind::kSltu:
    case OpKind::kSlti:
    case OpKind::kSltiu:
    case OpKind::kAddi: {
      if (a.kind == OpKind::kAddi && b.kind == OpKind::kAddi) {
        // Paired pointer bumps: the second addi must be a self-update
        // (rd == rs1) of a register the first does not write, so the two
        // halves are independent and commit in program order.
        if (b.rd != 0 && b.rd == b.rs1 && b.rd != a.rd) {
          emit(BcHandler::kFusedAddiAddi, a.imm, b.imm);
          out.rs2 = b.rd;
          return true;
        }
        return false;
      }
      if (b.kind != OpKind::kBeq && b.kind != OpKind::kBne) return false;
      // Zero test of a.rd: beq/bne rd,x0 or x0,rd.
      const bool zero_test = (b.rs1 == a.rd && b.rs2 == 0) ||
                             (b.rs1 == 0 && b.rs2 == a.rd);
      if (!zero_test) return false;
      const bool on_nonzero = b.kind == OpKind::kBne;
      BcHandler h;
      switch (a.kind) {
        case OpKind::kSlt:
          h = on_nonzero ? BcHandler::kFusedSltBnez : BcHandler::kFusedSltBeqz;
          break;
        case OpKind::kSltu:
          h = on_nonzero ? BcHandler::kFusedSltuBnez
                         : BcHandler::kFusedSltuBeqz;
          break;
        case OpKind::kSlti:
          h = on_nonzero ? BcHandler::kFusedSltiBnez
                         : BcHandler::kFusedSltiBeqz;
          break;
        case OpKind::kSltiu:
          h = on_nonzero ? BcHandler::kFusedSltiuBnez
                         : BcHandler::kFusedSltiuBeqz;
          break;
        default:  // kAddi
          h = on_nonzero ? BcHandler::kFusedAddiBnez
                         : BcHandler::kFusedAddiBeqz;
          break;
      }
      // imm2 pre-biased by +4: the branch sits at pair-pc + 4, so the
      // taken target is pair-pc + 4 + b.imm = pair-pc + imm2.
      emit(h, a.imm, b.imm + 4);
      return true;
    }
    default:
      return false;
  }
}

/// Is this handler a fused pair (retires two instructions per dispatch)?
constexpr bool is_fused(BcHandler h) {
  return h >= BcHandler::kFusedLuiAddi;
}

}  // namespace convolve::tee
