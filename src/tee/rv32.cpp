#include "convolve/tee/rv32.hpp"

#include <stdexcept>

namespace convolve::tee {

namespace {

std::int32_t sign_extend(std::uint32_t value, int bits) {
  const std::uint32_t mask = 1u << (bits - 1);
  return static_cast<std::int32_t>((value ^ mask) - mask);
}

}  // namespace

Rv32Cpu::Rv32Cpu(Machine& machine, std::uint32_t entry_pc, PrivMode mode)
    : machine_(machine), pc_(entry_pc), mode_(mode) {}

#if CONVOLVE_TELEMETRY_ENABLED
namespace {
telemetry::Counter t_retired{"rv32.instructions_retired"};
telemetry::Counter t_bc_insns{"rv32.bytecode.instructions"};
}  // namespace

Rv32Cpu::~Rv32Cpu() { flush_telemetry(); }

void Rv32Cpu::flush_telemetry() {
  t_retired.add(retired_ - flushed_retired_);
  flushed_retired_ = retired_;
  t_bc_insns.add(bc_steps_);
  bc_steps_ = 0;
}
#else
Rv32Cpu::~Rv32Cpu() = default;
void Rv32Cpu::flush_telemetry() {}
#endif

std::uint32_t Rv32Cpu::reg(int index) const {
  if (index < 0 || index > 31) throw std::out_of_range("Rv32Cpu::reg");
  return x_[static_cast<std::size_t>(index)];
}

void Rv32Cpu::set_reg(int index, std::uint32_t value) {
  if (index < 0 || index > 31) throw std::out_of_range("Rv32Cpu::set_reg");
  if (index != 0) x_[static_cast<std::size_t>(index)] = value;
}

std::optional<Trap> Rv32Cpu::step() {
  if (pc_ % 4 != 0) {
    return Trap{TrapCause::kMisalignedFetch, pc_, pc_};
  }
  std::uint32_t inst;
  try {
    inst = machine_.fetch32(pc_, mode_);
  } catch (const AccessFault&) {
    return Trap{TrapCause::kInstructionAccessFault, pc_, pc_};
  }

  const std::uint32_t opcode = inst & 0x7f;
  const int rd = static_cast<int>((inst >> 7) & 0x1f);
  const int rs1 = static_cast<int>((inst >> 15) & 0x1f);
  const int rs2 = static_cast<int>((inst >> 20) & 0x1f);
  const std::uint32_t funct3 = (inst >> 12) & 0x7;
  const std::uint32_t funct7 = inst >> 25;
  const std::uint32_t a = reg(rs1);
  const std::uint32_t b = reg(rs2);

  std::uint32_t next_pc = pc_ + 4;

  switch (opcode) {
    case 0x37:  // LUI
      set_reg(rd, inst & 0xfffff000u);
      break;
    case 0x17:  // AUIPC
      set_reg(rd, pc_ + (inst & 0xfffff000u));
      break;
    case 0x6f: {  // JAL
      const std::uint32_t imm = ((inst >> 31) << 20) |
                                (((inst >> 12) & 0xff) << 12) |
                                (((inst >> 20) & 1) << 11) |
                                (((inst >> 21) & 0x3ff) << 1);
      set_reg(rd, pc_ + 4);
      next_pc = pc_ + static_cast<std::uint32_t>(sign_extend(imm, 21));
      break;
    }
    case 0x67: {  // JALR
      const std::int32_t imm = sign_extend(inst >> 20, 12);
      const std::uint32_t target =
          (a + static_cast<std::uint32_t>(imm)) & ~1u;
      set_reg(rd, pc_ + 4);
      next_pc = target;
      break;
    }
    case 0x63: {  // BRANCH
      const std::uint32_t imm = ((inst >> 31) << 12) |
                                (((inst >> 7) & 1) << 11) |
                                (((inst >> 25) & 0x3f) << 5) |
                                (((inst >> 8) & 0xf) << 1);
      const std::int32_t offset = sign_extend(imm, 13);
      bool taken = false;
      switch (funct3) {
        case 0: taken = (a == b); break;
        case 1: taken = (a != b); break;
        case 4: taken = (static_cast<std::int32_t>(a) <
                         static_cast<std::int32_t>(b)); break;
        case 5: taken = (static_cast<std::int32_t>(a) >=
                         static_cast<std::int32_t>(b)); break;
        case 6: taken = (a < b); break;
        case 7: taken = (a >= b); break;
        default:
          return Trap{TrapCause::kIllegalInstruction, pc_, inst};
      }
      if (taken) next_pc = pc_ + static_cast<std::uint32_t>(offset);
      break;
    }
    case 0x03: {  // LOAD
      const std::int32_t imm = sign_extend(inst >> 20, 12);
      const std::uint32_t addr = a + static_cast<std::uint32_t>(imm);
      std::size_t len;
      switch (funct3) {
        case 0: case 4: len = 1; break;
        case 1: case 5: len = 2; break;
        case 2: len = 4; break;
        default:
          return Trap{TrapCause::kIllegalInstruction, pc_, inst};
      }
      Bytes data;
      try {
        data = machine_.load(addr, len, mode_);
      } catch (const AccessFault&) {
        return Trap{TrapCause::kLoadAccessFault, pc_, addr};
      }
      std::uint32_t value = 0;
      for (std::size_t i = 0; i < len; ++i) {
        value |= static_cast<std::uint32_t>(data[i]) << (8 * i);
      }
      if (funct3 == 0) value = static_cast<std::uint32_t>(
          sign_extend(value, 8));
      if (funct3 == 1) value = static_cast<std::uint32_t>(
          sign_extend(value, 16));
      set_reg(rd, value);
      break;
    }
    case 0x23: {  // STORE
      const std::uint32_t imm = ((inst >> 25) << 5) | ((inst >> 7) & 0x1f);
      const std::uint32_t addr =
          a + static_cast<std::uint32_t>(sign_extend(imm, 12));
      std::size_t len;
      switch (funct3) {
        case 0: len = 1; break;
        case 1: len = 2; break;
        case 2: len = 4; break;
        default:
          return Trap{TrapCause::kIllegalInstruction, pc_, inst};
      }
      Bytes data(len);
      for (std::size_t i = 0; i < len; ++i) {
        data[i] = static_cast<std::uint8_t>(b >> (8 * i));
      }
      try {
        machine_.store(addr, data, mode_);
      } catch (const AccessFault&) {
        return Trap{TrapCause::kStoreAccessFault, pc_, addr};
      }
      break;
    }
    case 0x13: {  // OP-IMM
      const std::int32_t imm = sign_extend(inst >> 20, 12);
      const std::uint32_t ui = static_cast<std::uint32_t>(imm);
      const int shamt = static_cast<int>((inst >> 20) & 0x1f);
      switch (funct3) {
        case 0: set_reg(rd, a + ui); break;
        case 2: set_reg(rd, static_cast<std::int32_t>(a) < imm ? 1 : 0);
                break;
        case 3: set_reg(rd, a < ui ? 1 : 0); break;
        case 4: set_reg(rd, a ^ ui); break;
        case 6: set_reg(rd, a | ui); break;
        case 7: set_reg(rd, a & ui); break;
        case 1:
          if (funct7 != 0) {
            return Trap{TrapCause::kIllegalInstruction, pc_, inst};
          }
          set_reg(rd, a << shamt);
          break;
        case 5:
          if (funct7 == 0) {
            set_reg(rd, a >> shamt);
          } else if (funct7 == 0x20) {
            set_reg(rd, static_cast<std::uint32_t>(
                            static_cast<std::int32_t>(a) >> shamt));
          } else {
            return Trap{TrapCause::kIllegalInstruction, pc_, inst};
          }
          break;
        default:
          return Trap{TrapCause::kIllegalInstruction, pc_, inst};
      }
      break;
    }
    case 0x33: {  // OP (incl. M extension)
      if (funct7 == 0x01) {
        const std::int64_t sa = static_cast<std::int32_t>(a);
        const std::int64_t sb = static_cast<std::int32_t>(b);
        const std::uint64_t ua = a, ub = b;
        switch (funct3) {
          case 0: set_reg(rd, static_cast<std::uint32_t>(sa * sb)); break;
          case 1: set_reg(rd, static_cast<std::uint32_t>(
                              (sa * sb) >> 32)); break;
          case 2: set_reg(rd, static_cast<std::uint32_t>(
                              (sa * static_cast<std::int64_t>(ub)) >> 32));
                  break;
          case 3: set_reg(rd, static_cast<std::uint32_t>(
                              (ua * ub) >> 32)); break;
          case 4:  // DIV
            if (b == 0) {
              set_reg(rd, 0xffffffffu);
            } else if (a == 0x80000000u && b == 0xffffffffu) {
              set_reg(rd, 0x80000000u);  // overflow
            } else {
              set_reg(rd, static_cast<std::uint32_t>(
                              static_cast<std::int32_t>(a) /
                              static_cast<std::int32_t>(b)));
            }
            break;
          case 5: set_reg(rd, b == 0 ? 0xffffffffu : a / b); break;
          case 6:  // REM
            if (b == 0) {
              set_reg(rd, a);
            } else if (a == 0x80000000u && b == 0xffffffffu) {
              set_reg(rd, 0);
            } else {
              set_reg(rd, static_cast<std::uint32_t>(
                              static_cast<std::int32_t>(a) %
                              static_cast<std::int32_t>(b)));
            }
            break;
          case 7: set_reg(rd, b == 0 ? a : a % b); break;
          default:
            return Trap{TrapCause::kIllegalInstruction, pc_, inst};
        }
      } else if (funct7 == 0x00 ||
                 (funct7 == 0x20 && (funct3 == 0 || funct3 == 5))) {
        // funct7=0x20 (the SUB/SRA bit) is only architecturally defined
        // for funct3 0 and 5; on any other funct3 it is a reserved
        // encoding and must trap instead of aliasing onto the funct7=0
        // instruction.
        switch (funct3) {
          case 0: set_reg(rd, funct7 == 0x20 ? a - b : a + b); break;
          case 1: set_reg(rd, a << (b & 31)); break;
          case 2: set_reg(rd, static_cast<std::int32_t>(a) <
                                      static_cast<std::int32_t>(b)
                                  ? 1 : 0); break;
          case 3: set_reg(rd, a < b ? 1 : 0); break;
          case 4: set_reg(rd, a ^ b); break;
          case 5:
            set_reg(rd, funct7 == 0x20
                            ? static_cast<std::uint32_t>(
                                  static_cast<std::int32_t>(a) >> (b & 31))
                            : a >> (b & 31));
            break;
          case 6: set_reg(rd, a | b); break;
          case 7: set_reg(rd, a & b); break;
          default:
            return Trap{TrapCause::kIllegalInstruction, pc_, inst};
        }
      } else {
        return Trap{TrapCause::kIllegalInstruction, pc_, inst};
      }
      break;
    }
    case 0x0f:  // FENCE: no-op in this memory model
      break;
    case 0x73: {  // SYSTEM
      // Only ECALL/EBREAK are implemented, and their encodings are exact:
      // funct3, rd and rs1 must all be zero. CSR-class instructions
      // (funct3 != 0) and other PRIV encodings trap as illegal with the
      // same bookkeeping as every other trap path (pc and retired count
      // NOT advanced); ecall/ebreak retire and advance so the embedder
      // can resume past them.
      const std::uint32_t imm = inst >> 20;
      if (funct3 != 0 || rd != 0 || rs1 != 0 || imm > 1) {
        return Trap{TrapCause::kIllegalInstruction, pc_, inst};
      }
      pc_ += 4;
      ++retired_;
      return Trap{imm == 0 ? TrapCause::kEcall : TrapCause::kEbreak,
                  pc_ - 4, 0};
    }
    default:
      return Trap{TrapCause::kIllegalInstruction, pc_, inst};
  }

  pc_ = next_pc;
  ++retired_;
  return std::nullopt;
}

Rv32Cpu::RunResult Rv32Cpu::run_interpreted(std::uint64_t max_steps) {
  RunResult result;
  while (result.steps < max_steps) {
    auto trap = step();
    ++result.steps;
    if (trap) {
      result.trap = trap;
      break;
    }
  }
  return result;
}

Rv32Cpu::RunResult Rv32Cpu::run(std::uint64_t max_steps) {
#if CONVOLVE_TELEMETRY_ENABLED
  // Tally outside run_bytecode so the hot loop never touches the member
  // (even an RAII reference to the result forces the step counter into
  // memory and costs double-digit throughput).
  RunResult r = run_bytecode(this, max_steps, nullptr);
  bc_steps_ += r.steps;
  return r;
#else
  return run_bytecode(this, max_steps, nullptr);
#endif
}

// ---------------------------------------------------------------------
// Bytecode engine: threaded dispatch
// ---------------------------------------------------------------------
//
// The loop dispatches one BcOp per emulated instruction with no
// per-instruction PMP/alignment/page-version checks: those are hoisted
// into the outer resync path, which is only re-entered when the pc leaves
// the validated execute window or a store bumps the current page's
// version. Hoisting is sound because within one run() the PMP epoch
// cannot change (no CSR instructions are implemented and ecall exits the
// loop), so the execute window returned by Machine::execute_window stays
// valid until the pc leaves it, and only stores can invalidate the
// current page's decode.
//
// Accounting contract (identical to run_interpreted):
//   - every attempted instruction, including a trapping one, consumes
//     one step; steps and pending retires are carried as a fuel
//     countdown and reconstructed at the exits.
//   - Non-retiring traps (misaligned fetch, fetch fault, illegal,
//     load/store fault) leave pc_ at the trapping instruction.
//   - ecall/ebreak retire and advance pc_ past themselves.

#if !defined(__GNUC__) && !defined(__clang__)
#error "the bytecode engine dispatches by computed goto (GCC or Clang)"
#endif

#define BC_CASE(name) lab_##name:
#define BC_DISPATCH() goto* op->target

// Budget is a fuel countdown: fuel = max_steps - steps consumed so far,
// so the per-retire budget check is a single dec-and-test. steps and the
// pending retired-count delta are derived at the exits:
//   steps consumed = max_steps - fuel
//   retires pending = pub_fuel - fuel   (pub_fuel = fuel at last publish)
// Every dispatch point has fuel >= 1.

// Retire the current op and fall through to the next slot. Straight-line
// flow only moves forward, so the window check is one-sided (wlo was
// checked when the window was entered).
#define BC_NEXT()                                            \
  do {                                                       \
    pc += 4;                                                 \
    ++op;                                                    \
    if (--fuel == 0) goto budget_exit;                       \
    if (static_cast<std::uint64_t>(pc) >= whi)               \
      goto sync_outer;                                       \
    BC_DISPATCH();                                           \
  } while (0)

// Retire the current op and transfer control. A misaligned target is NOT
// a fault of this instruction: it retires, and the next fetch traps
// (deferred, tval = target) — the outer path reproduces that exactly.
#define BC_JUMP(target)                                          \
  do {                                                           \
    pc = (target);                                               \
    if (--fuel == 0) goto budget_exit;                           \
    if ((pc & 3u) != 0) goto sync_outer;                         \
    if (static_cast<std::uint64_t>(pc) - wlo >= wspan)           \
      goto sync_outer;                                           \
    op = ops + ((pc & (Machine::kPageBytes - 1)) >> 2);          \
    BC_DISPATCH();                                               \
  } while (0)

// Retire a store, then resync if it bumped the current page's version
// (self-modifying code): the outer path re-decodes before the next
// dispatch, so a store that patches upcoming code is observed exactly as
// the oracle observes it.
#define BC_STORE_TAIL()                                          \
  do {                                                           \
    pc += 4;                                                     \
    ++op;                                                        \
    if (--fuel == 0) goto budget_exit;                           \
    if (m.page_version(page_base) != version) goto sync_outer;   \
    if (static_cast<std::uint64_t>(pc) >= whi)                   \
      goto sync_outer;                                           \
    BC_DISPATCH();                                               \
  } while (0)

// GCSE and cross-jumping would factor the per-handler computed gotos into
// one shared indirect jump, serializing branch prediction across the whole
// emulated instruction stream (the GCC manual recommends -fno-gcse for
// computed-goto interpreters). Scoped here so the reference interpreter in
// this translation unit keeps the default pipeline.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-gcse", "no-crossjumping")))
#endif
Rv32Cpu::RunResult Rv32Cpu::run_bytecode(Rv32Cpu* self,
                                         std::uint64_t max_steps,
                                         const void* const** handlers) {
  // Handler table in exact BcHandler order (see static_assert below).
  static const void* const kLabels[] = {
      &&lab_Illegal, &&lab_Lui, &&lab_Auipc, &&lab_Jal, &&lab_Jalr,
      &&lab_Beq, &&lab_Bne, &&lab_Blt, &&lab_Bge, &&lab_Bltu, &&lab_Bgeu,
      &&lab_Lb, &&lab_Lh, &&lab_Lw, &&lab_Lbu, &&lab_Lhu,
      &&lab_Sb, &&lab_Sh, &&lab_Sw,
      &&lab_Addi, &&lab_Slti, &&lab_Sltiu, &&lab_Xori, &&lab_Ori,
      &&lab_Andi, &&lab_Slli, &&lab_Srli, &&lab_Srai,
      &&lab_Add, &&lab_Sub, &&lab_Sll, &&lab_Slt, &&lab_Sltu, &&lab_Xor,
      &&lab_Srl, &&lab_Sra, &&lab_Or, &&lab_And,
      &&lab_Mul, &&lab_Mulh, &&lab_Mulhsu, &&lab_Mulhu,
      &&lab_Div, &&lab_Divu, &&lab_Rem, &&lab_Remu,
      &&lab_Fence, &&lab_Ecall, &&lab_Ebreak,
      &&lab_Nop,
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kBcHandlerCount,
                "dispatch table must cover every BcHandler");
  if (self == nullptr) {
    *handlers = kLabels;
    return {};
  }
  Rv32Cpu& cpu = *self;
  RunResult result;

  Machine& m = cpu.machine_;
  const PrivMode mode = cpu.mode_;
  std::uint32_t* const xr = cpu.x_.data();
  std::uint32_t pc = cpu.pc_;
  std::uint64_t fuel = max_steps;      // remaining step budget
  std::uint64_t pub_fuel = max_steps;  // fuel at the last retired_ publish

  const BcOp* ops = nullptr;
  const BcOp* op = nullptr;
  std::uint64_t page_base = 0;
  std::uint64_t wlo = 0, whi = 0, wspan = 0;
  std::uint32_t version = 0;

outer:
  // Full resync: alignment, execute permission, decoded page, validated
  // window. Everything the dispatch loop skips per instruction happens
  // here once per (re-)entry.
  if (fuel == 0) goto budget_exit;
  if ((pc & 3u) != 0) {
    result.trap = Trap{TrapCause::kMisalignedFetch, pc, pc};
    goto trap_at_pc;
  }
  {
    std::uint64_t lo, hi;
    if (!m.execute_window(pc, mode, lo, hi)) {
      result.trap = Trap{TrapCause::kInstructionAccessFault, pc, pc};
      goto trap_at_pc;
    }
    page_base = pc & ~static_cast<std::uint64_t>(Machine::kPageBytes - 1);
    const DecodedPage& page = m.decoded_page(page_base);
    ops = page.bytecode.data();
    version = page.version;
    // Clamp the window to this page and round inward to whole words. Only
    // 4-byte-aligned slots fully inside [wlo, whi) are dispatched, which
    // also keeps the partial-tail filler slots of a non-4-byte-aligned
    // memory_size() unreachable, exactly like the reference fetch path
    // (a fetch needs pc + 4 <= memory_size()). The cap just below 2^32
    // keeps pc + 4 from wrapping inside the window; the corner it cuts
    // off falls back to the oracle below.
    wlo = lo < page_base ? page_base : lo;
    std::uint64_t end = page_base + Machine::kPageBytes;
    if (hi < end) end = hi;
    wlo = (wlo + 3) & ~3ull;
    end &= ~3ull;
    if (end > 0xfffffffcull) end = 0xfffffffcull;
    whi = end;
    wspan = end > wlo ? end - wlo : 0;
  }
  if (pc < wlo || static_cast<std::uint64_t>(pc) + 4 > whi) {
    // Degenerate window (e.g. the very last word of the 32-bit address
    // space): execute one instruction with reference semantics instead.
    goto scalar_one;
  }
  op = ops + ((pc & (Machine::kPageBytes - 1)) >> 2);
  BC_DISPATCH();

  BC_CASE(Illegal) {
    result.trap = Trap{TrapCause::kIllegalInstruction, pc,
                       static_cast<std::uint32_t>(op->imm)};
    goto trap_at_pc;
  }
  BC_CASE(Lui) {  // rd != 0 guaranteed (rd == 0 is rewritten to kNop)
    xr[op->rd] = static_cast<std::uint32_t>(op->imm);
    BC_NEXT();
  }
  BC_CASE(Auipc) {
    xr[op->rd] = pc + static_cast<std::uint32_t>(op->imm);
    BC_NEXT();
  }
  BC_CASE(Jal) {
    const std::uint32_t t = pc + static_cast<std::uint32_t>(op->imm);
    if (op->rd != 0) xr[op->rd] = pc + 4;
    BC_JUMP(t);
  }
  BC_CASE(Jalr) {
    // Target from rs1 BEFORE the rd write (rd == rs1 must use the old
    // value), low bit cleared per the ISA.
    const std::uint32_t t =
        (xr[op->rs1] + static_cast<std::uint32_t>(op->imm)) & ~1u;
    if (op->rd != 0) xr[op->rd] = pc + 4;
    BC_JUMP(t);
  }
  BC_CASE(Beq) {
    if (xr[op->rs1] == xr[op->rs2])
      BC_JUMP(pc + static_cast<std::uint32_t>(op->imm));
    BC_NEXT();
  }
  BC_CASE(Bne) {
    if (xr[op->rs1] != xr[op->rs2])
      BC_JUMP(pc + static_cast<std::uint32_t>(op->imm));
    BC_NEXT();
  }
  BC_CASE(Blt) {
    if (static_cast<std::int32_t>(xr[op->rs1]) <
        static_cast<std::int32_t>(xr[op->rs2]))
      BC_JUMP(pc + static_cast<std::uint32_t>(op->imm));
    BC_NEXT();
  }
  BC_CASE(Bge) {
    if (static_cast<std::int32_t>(xr[op->rs1]) >=
        static_cast<std::int32_t>(xr[op->rs2]))
      BC_JUMP(pc + static_cast<std::uint32_t>(op->imm));
    BC_NEXT();
  }
  BC_CASE(Bltu) {
    if (xr[op->rs1] < xr[op->rs2])
      BC_JUMP(pc + static_cast<std::uint32_t>(op->imm));
    BC_NEXT();
  }
  BC_CASE(Bgeu) {
    if (xr[op->rs1] >= xr[op->rs2])
      BC_JUMP(pc + static_cast<std::uint32_t>(op->imm));
    BC_NEXT();
  }

  BC_CASE(Lb) {
    const std::uint32_t addr =
        xr[op->rs1] + static_cast<std::uint32_t>(op->imm);
    std::uint8_t v;
    if (!m.read8(addr, mode, v)) {
      result.trap = Trap{TrapCause::kLoadAccessFault, pc, addr};
      goto trap_at_pc;
    }
    if (op->rd != 0)
      xr[op->rd] = static_cast<std::uint32_t>(sign_extend(v, 8));
    BC_NEXT();
  }
  BC_CASE(Lh) {
    const std::uint32_t addr =
        xr[op->rs1] + static_cast<std::uint32_t>(op->imm);
    std::uint16_t v;
    if (!m.read16(addr, mode, v)) {
      result.trap = Trap{TrapCause::kLoadAccessFault, pc, addr};
      goto trap_at_pc;
    }
    if (op->rd != 0)
      xr[op->rd] = static_cast<std::uint32_t>(sign_extend(v, 16));
    BC_NEXT();
  }
  BC_CASE(Lw) {
    const std::uint32_t addr =
        xr[op->rs1] + static_cast<std::uint32_t>(op->imm);
    std::uint32_t v;
    if (!m.read32(addr, mode, v)) {
      result.trap = Trap{TrapCause::kLoadAccessFault, pc, addr};
      goto trap_at_pc;
    }
    if (op->rd != 0) xr[op->rd] = v;
    BC_NEXT();
  }
  BC_CASE(Lbu) {
    const std::uint32_t addr =
        xr[op->rs1] + static_cast<std::uint32_t>(op->imm);
    std::uint8_t v;
    if (!m.read8(addr, mode, v)) {
      result.trap = Trap{TrapCause::kLoadAccessFault, pc, addr};
      goto trap_at_pc;
    }
    if (op->rd != 0) xr[op->rd] = v;
    BC_NEXT();
  }
  BC_CASE(Lhu) {
    const std::uint32_t addr =
        xr[op->rs1] + static_cast<std::uint32_t>(op->imm);
    std::uint16_t v;
    if (!m.read16(addr, mode, v)) {
      result.trap = Trap{TrapCause::kLoadAccessFault, pc, addr};
      goto trap_at_pc;
    }
    if (op->rd != 0) xr[op->rd] = v;
    BC_NEXT();
  }

  BC_CASE(Sb) {
    const std::uint32_t addr =
        xr[op->rs1] + static_cast<std::uint32_t>(op->imm);
    if (!m.write8(addr, static_cast<std::uint8_t>(xr[op->rs2]), mode)) {
      result.trap = Trap{TrapCause::kStoreAccessFault, pc, addr};
      goto trap_at_pc;
    }
    BC_STORE_TAIL();
  }
  BC_CASE(Sh) {
    const std::uint32_t addr =
        xr[op->rs1] + static_cast<std::uint32_t>(op->imm);
    if (!m.write16(addr, static_cast<std::uint16_t>(xr[op->rs2]), mode)) {
      result.trap = Trap{TrapCause::kStoreAccessFault, pc, addr};
      goto trap_at_pc;
    }
    BC_STORE_TAIL();
  }
  BC_CASE(Sw) {
    const std::uint32_t addr =
        xr[op->rs1] + static_cast<std::uint32_t>(op->imm);
    if (!m.write32(addr, xr[op->rs2], mode)) {
      result.trap = Trap{TrapCause::kStoreAccessFault, pc, addr};
      goto trap_at_pc;
    }
    BC_STORE_TAIL();
  }

  BC_CASE(Addi) {
    xr[op->rd] = xr[op->rs1] + static_cast<std::uint32_t>(op->imm);
    BC_NEXT();
  }
  BC_CASE(Slti) {
    xr[op->rd] =
        static_cast<std::int32_t>(xr[op->rs1]) < op->imm ? 1u : 0u;
    BC_NEXT();
  }
  BC_CASE(Sltiu) {
    xr[op->rd] =
        xr[op->rs1] < static_cast<std::uint32_t>(op->imm) ? 1u : 0u;
    BC_NEXT();
  }
  BC_CASE(Xori) {
    xr[op->rd] = xr[op->rs1] ^ static_cast<std::uint32_t>(op->imm);
    BC_NEXT();
  }
  BC_CASE(Ori) {
    xr[op->rd] = xr[op->rs1] | static_cast<std::uint32_t>(op->imm);
    BC_NEXT();
  }
  BC_CASE(Andi) {
    xr[op->rd] = xr[op->rs1] & static_cast<std::uint32_t>(op->imm);
    BC_NEXT();
  }
  BC_CASE(Slli) {
    xr[op->rd] = xr[op->rs1] << op->imm;
    BC_NEXT();
  }
  BC_CASE(Srli) {
    xr[op->rd] = xr[op->rs1] >> op->imm;
    BC_NEXT();
  }
  BC_CASE(Srai) {
    xr[op->rd] = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(xr[op->rs1]) >> op->imm);
    BC_NEXT();
  }

  BC_CASE(Add) {
    xr[op->rd] = xr[op->rs1] + xr[op->rs2];
    BC_NEXT();
  }
  BC_CASE(Sub) {
    xr[op->rd] = xr[op->rs1] - xr[op->rs2];
    BC_NEXT();
  }
  BC_CASE(Sll) {
    xr[op->rd] = xr[op->rs1] << (xr[op->rs2] & 31u);
    BC_NEXT();
  }
  BC_CASE(Slt) {
    xr[op->rd] = static_cast<std::int32_t>(xr[op->rs1]) <
                         static_cast<std::int32_t>(xr[op->rs2])
                     ? 1u
                     : 0u;
    BC_NEXT();
  }
  BC_CASE(Sltu) {
    xr[op->rd] = xr[op->rs1] < xr[op->rs2] ? 1u : 0u;
    BC_NEXT();
  }
  BC_CASE(Xor) {
    xr[op->rd] = xr[op->rs1] ^ xr[op->rs2];
    BC_NEXT();
  }
  BC_CASE(Srl) {
    xr[op->rd] = xr[op->rs1] >> (xr[op->rs2] & 31u);
    BC_NEXT();
  }
  BC_CASE(Sra) {
    xr[op->rd] = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(xr[op->rs1]) >> (xr[op->rs2] & 31u));
    BC_NEXT();
  }
  BC_CASE(Or) {
    xr[op->rd] = xr[op->rs1] | xr[op->rs2];
    BC_NEXT();
  }
  BC_CASE(And) {
    xr[op->rd] = xr[op->rs1] & xr[op->rs2];
    BC_NEXT();
  }

  BC_CASE(Mul) {
    xr[op->rd] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(xr[op->rs1])) *
        static_cast<std::int64_t>(static_cast<std::int32_t>(xr[op->rs2])));
    BC_NEXT();
  }
  BC_CASE(Mulh) {
    xr[op->rd] = static_cast<std::uint32_t>(
        (static_cast<std::int64_t>(static_cast<std::int32_t>(xr[op->rs1])) *
         static_cast<std::int64_t>(static_cast<std::int32_t>(xr[op->rs2])))
        >> 32);
    BC_NEXT();
  }
  BC_CASE(Mulhsu) {
    xr[op->rd] = static_cast<std::uint32_t>(
        (static_cast<std::int64_t>(static_cast<std::int32_t>(xr[op->rs1])) *
         static_cast<std::int64_t>(
             static_cast<std::uint64_t>(xr[op->rs2]))) >> 32);
    BC_NEXT();
  }
  BC_CASE(Mulhu) {
    xr[op->rd] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(xr[op->rs1]) *
         static_cast<std::uint64_t>(xr[op->rs2])) >> 32);
    BC_NEXT();
  }
  BC_CASE(Div) {
    const std::uint32_t a = xr[op->rs1];
    const std::uint32_t b = xr[op->rs2];
    if (b == 0) xr[op->rd] = 0xffffffffu;
    else if (a == 0x80000000u && b == 0xffffffffu) xr[op->rd] = 0x80000000u;
    else
      xr[op->rd] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(a) / static_cast<std::int32_t>(b));
    BC_NEXT();
  }
  BC_CASE(Divu) {
    const std::uint32_t b = xr[op->rs2];
    xr[op->rd] = b == 0 ? 0xffffffffu : xr[op->rs1] / b;
    BC_NEXT();
  }
  BC_CASE(Rem) {
    const std::uint32_t a = xr[op->rs1];
    const std::uint32_t b = xr[op->rs2];
    if (b == 0) xr[op->rd] = a;
    else if (a == 0x80000000u && b == 0xffffffffu) xr[op->rd] = 0;
    else
      xr[op->rd] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(a) % static_cast<std::int32_t>(b));
    BC_NEXT();
  }
  BC_CASE(Remu) {
    const std::uint32_t b = xr[op->rs2];
    xr[op->rd] = b == 0 ? xr[op->rs1] : xr[op->rs1] % b;
    BC_NEXT();
  }

  BC_CASE(Fence) { BC_NEXT(); }
  BC_CASE(Ecall) {
    result.trap = Trap{TrapCause::kEcall, pc, 0};
    goto env_exit;
  }
  BC_CASE(Ebreak) {
    result.trap = Trap{TrapCause::kEbreak, pc, 0};
    goto env_exit;
  }
  BC_CASE(Nop) { BC_NEXT(); }

scalar_one:
  // Degenerate window: run exactly one instruction through the reference
  // interpreter (publishing pending retires first so step() sees a
  // consistent retired_), then resync.
  cpu.pc_ = pc;
  cpu.retired_ += pub_fuel - fuel;
  pub_fuel = fuel;
  {
    const auto trap = cpu.step();
    if (trap) {
      result.trap = *trap;
      result.steps = max_steps - fuel + 1;
      return result;
    }
  }
  --fuel;
  pub_fuel = fuel;
  pc = cpu.pc_;
  goto outer;

env_exit:  // ecall/ebreak: retire, advance past the instruction
  cpu.pc_ = pc + 4;
  cpu.retired_ += pub_fuel - fuel + 1;
  result.steps = max_steps - fuel + 1;
  return result;

trap_at_pc:  // non-retiring trap: pc_ stays on the trapping instruction
  cpu.pc_ = pc;
  cpu.retired_ += pub_fuel - fuel;
  result.steps = max_steps - fuel + 1;
  return result;

sync_outer:  // leave the dispatch loop, keep executing via a fresh window
  cpu.pc_ = pc;
  goto outer;

budget_exit:
  cpu.pc_ = pc;
  cpu.retired_ += pub_fuel - fuel;
  result.steps = max_steps - fuel;
  return result;
}

#undef BC_CASE
#undef BC_DISPATCH
#undef BC_NEXT
#undef BC_JUMP
#undef BC_STORE_TAIL

const void* const* bytecode_handlers() {
  const void* const* table = nullptr;
  Rv32Cpu::run_bytecode(nullptr, 0, &table);
  return table;
}

// ---------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------

namespace rv32asm {

namespace {

std::uint32_t r_type(std::uint32_t funct7, int rs2, int rs1,
                     std::uint32_t funct3, int rd, std::uint32_t opcode) {
  return (funct7 << 25) | (static_cast<std::uint32_t>(rs2) << 20) |
         (static_cast<std::uint32_t>(rs1) << 15) | (funct3 << 12) |
         (static_cast<std::uint32_t>(rd) << 7) | opcode;
}

std::uint32_t i_type(std::int32_t imm, int rs1, std::uint32_t funct3, int rd,
                     std::uint32_t opcode) {
  return (static_cast<std::uint32_t>(imm & 0xfff) << 20) |
         (static_cast<std::uint32_t>(rs1) << 15) | (funct3 << 12) |
         (static_cast<std::uint32_t>(rd) << 7) | opcode;
}

std::uint32_t s_type(std::int32_t imm, int rs2, int rs1,
                     std::uint32_t funct3) {
  const std::uint32_t u = static_cast<std::uint32_t>(imm) & 0xfff;
  return ((u >> 5) << 25) | (static_cast<std::uint32_t>(rs2) << 20) |
         (static_cast<std::uint32_t>(rs1) << 15) | (funct3 << 12) |
         ((u & 0x1f) << 7) | 0x23;
}

std::uint32_t b_type(std::int32_t offset, int rs1, int rs2,
                     std::uint32_t funct3) {
  const std::uint32_t u = static_cast<std::uint32_t>(offset);
  return (((u >> 12) & 1) << 31) | (((u >> 5) & 0x3f) << 25) |
         (static_cast<std::uint32_t>(rs2) << 20) |
         (static_cast<std::uint32_t>(rs1) << 15) | (funct3 << 12) |
         (((u >> 1) & 0xf) << 8) | (((u >> 11) & 1) << 7) | 0x63;
}

}  // namespace

std::uint32_t lui(int rd, std::uint32_t imm20) {
  return (imm20 << 12) | (static_cast<std::uint32_t>(rd) << 7) | 0x37;
}
std::uint32_t auipc(int rd, std::uint32_t imm20) {
  return (imm20 << 12) | (static_cast<std::uint32_t>(rd) << 7) | 0x17;
}
std::uint32_t jal(int rd, std::int32_t offset) {
  const std::uint32_t u = static_cast<std::uint32_t>(offset);
  return (((u >> 20) & 1) << 31) | (((u >> 1) & 0x3ff) << 21) |
         (((u >> 11) & 1) << 20) | (((u >> 12) & 0xff) << 12) |
         (static_cast<std::uint32_t>(rd) << 7) | 0x6f;
}
std::uint32_t jalr(int rd, int rs1, std::int32_t offset) {
  return i_type(offset, rs1, 0, rd, 0x67);
}
std::uint32_t beq(int rs1, int rs2, std::int32_t o) { return b_type(o, rs1, rs2, 0); }
std::uint32_t bne(int rs1, int rs2, std::int32_t o) { return b_type(o, rs1, rs2, 1); }
std::uint32_t blt(int rs1, int rs2, std::int32_t o) { return b_type(o, rs1, rs2, 4); }
std::uint32_t bge(int rs1, int rs2, std::int32_t o) { return b_type(o, rs1, rs2, 5); }
std::uint32_t bltu(int rs1, int rs2, std::int32_t o) { return b_type(o, rs1, rs2, 6); }
std::uint32_t bgeu(int rs1, int rs2, std::int32_t o) { return b_type(o, rs1, rs2, 7); }
std::uint32_t lb(int rd, int rs1, std::int32_t o) { return i_type(o, rs1, 0, rd, 0x03); }
std::uint32_t lh(int rd, int rs1, std::int32_t o) { return i_type(o, rs1, 1, rd, 0x03); }
std::uint32_t lw(int rd, int rs1, std::int32_t o) { return i_type(o, rs1, 2, rd, 0x03); }
std::uint32_t lbu(int rd, int rs1, std::int32_t o) { return i_type(o, rs1, 4, rd, 0x03); }
std::uint32_t lhu(int rd, int rs1, std::int32_t o) { return i_type(o, rs1, 5, rd, 0x03); }
std::uint32_t sb(int rs2, int rs1, std::int32_t o) { return s_type(o, rs2, rs1, 0); }
std::uint32_t sh(int rs2, int rs1, std::int32_t o) { return s_type(o, rs2, rs1, 1); }
std::uint32_t sw(int rs2, int rs1, std::int32_t o) { return s_type(o, rs2, rs1, 2); }
std::uint32_t addi(int rd, int rs1, std::int32_t imm) { return i_type(imm, rs1, 0, rd, 0x13); }
std::uint32_t slti(int rd, int rs1, std::int32_t imm) { return i_type(imm, rs1, 2, rd, 0x13); }
std::uint32_t sltiu(int rd, int rs1, std::int32_t imm) { return i_type(imm, rs1, 3, rd, 0x13); }
std::uint32_t xori(int rd, int rs1, std::int32_t imm) { return i_type(imm, rs1, 4, rd, 0x13); }
std::uint32_t ori(int rd, int rs1, std::int32_t imm) { return i_type(imm, rs1, 6, rd, 0x13); }
std::uint32_t andi(int rd, int rs1, std::int32_t imm) { return i_type(imm, rs1, 7, rd, 0x13); }
std::uint32_t slli(int rd, int rs1, int shamt) { return i_type(shamt, rs1, 1, rd, 0x13); }
std::uint32_t srli(int rd, int rs1, int shamt) { return i_type(shamt, rs1, 5, rd, 0x13); }
std::uint32_t srai(int rd, int rs1, int shamt) {
  return i_type(shamt | 0x400, rs1, 5, rd, 0x13);
}
std::uint32_t add(int rd, int rs1, int rs2) { return r_type(0, rs2, rs1, 0, rd, 0x33); }
std::uint32_t sub(int rd, int rs1, int rs2) { return r_type(0x20, rs2, rs1, 0, rd, 0x33); }
std::uint32_t sll(int rd, int rs1, int rs2) { return r_type(0, rs2, rs1, 1, rd, 0x33); }
std::uint32_t slt(int rd, int rs1, int rs2) { return r_type(0, rs2, rs1, 2, rd, 0x33); }
std::uint32_t sltu(int rd, int rs1, int rs2) { return r_type(0, rs2, rs1, 3, rd, 0x33); }
std::uint32_t xor_(int rd, int rs1, int rs2) { return r_type(0, rs2, rs1, 4, rd, 0x33); }
std::uint32_t srl(int rd, int rs1, int rs2) { return r_type(0, rs2, rs1, 5, rd, 0x33); }
std::uint32_t sra(int rd, int rs1, int rs2) { return r_type(0x20, rs2, rs1, 5, rd, 0x33); }
std::uint32_t or_(int rd, int rs1, int rs2) { return r_type(0, rs2, rs1, 6, rd, 0x33); }
std::uint32_t and_(int rd, int rs1, int rs2) { return r_type(0, rs2, rs1, 7, rd, 0x33); }
std::uint32_t mul(int rd, int rs1, int rs2) { return r_type(1, rs2, rs1, 0, rd, 0x33); }
std::uint32_t mulh(int rd, int rs1, int rs2) { return r_type(1, rs2, rs1, 1, rd, 0x33); }
std::uint32_t mulhsu(int rd, int rs1, int rs2) { return r_type(1, rs2, rs1, 2, rd, 0x33); }
std::uint32_t mulhu(int rd, int rs1, int rs2) { return r_type(1, rs2, rs1, 3, rd, 0x33); }
std::uint32_t div(int rd, int rs1, int rs2) { return r_type(1, rs2, rs1, 4, rd, 0x33); }
std::uint32_t divu(int rd, int rs1, int rs2) { return r_type(1, rs2, rs1, 5, rd, 0x33); }
std::uint32_t rem(int rd, int rs1, int rs2) { return r_type(1, rs2, rs1, 6, rd, 0x33); }
std::uint32_t remu(int rd, int rs1, int rs2) { return r_type(1, rs2, rs1, 7, rd, 0x33); }
std::uint32_t ecall() { return 0x73; }
std::uint32_t ebreak() { return 0x00100073; }
std::uint32_t nop() { return addi(0, 0, 0); }

Bytes assemble(const std::vector<std::uint32_t>& words) {
  Bytes out(words.size() * 4);
  for (std::size_t i = 0; i < words.size(); ++i) {
    store_le32(out.data() + 4 * i, words[i]);
  }
  return out;
}

}  // namespace rv32asm

}  // namespace convolve::tee
