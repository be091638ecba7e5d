// Two-engine validation: the threaded bytecode engine (Rv32Cpu::run) must
// be bit-identical in architectural state to the reference interpreter
// (Rv32Cpu::step / run_interpreted) — registers, pc, retired count, trap
// cause/pc/tval and memory — under random instruction streams (valid,
// mutated, and seeded with dependent-pair idioms), PMP-restricted U-mode
// execution, self-modifying code (including patches to the second word of
// a dependent pair), PMP reprogramming between runs, step budgets that end
// between the two words of a pair, and code images that end on a
// non-4-byte-aligned tail.
#include "convolve/tee/rv32.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "convolve/common/rng.hpp"
#include "convolve/common/telemetry.hpp"

namespace convolve::tee {
namespace {

namespace rv = rv32asm;

constexpr std::size_t kMemBytes = 1 << 16;

// A reference machine/cpu and a bytecode machine/cpu kept in lock-step:
// identical memory images, PMP programs and register files.
struct DuoCpu {
  Machine ref_machine;
  Machine bc_machine;
  std::unique_ptr<Rv32Cpu> ref;
  std::unique_ptr<Rv32Cpu> bc;

  DuoCpu(const Bytes& program, std::uint32_t load_addr, std::uint32_t entry,
         PrivMode mode, std::size_t mem_bytes = kMemBytes)
      : ref_machine(mem_bytes), bc_machine(mem_bytes) {
    ref_machine.store(load_addr, program, PrivMode::kMachine);
    bc_machine.store(load_addr, program, PrivMode::kMachine);
    ref = std::make_unique<Rv32Cpu>(ref_machine, entry, mode);
    bc = std::make_unique<Rv32Cpu>(bc_machine, entry, mode);
  }

  // Both machines forked from one frozen image, so the bytecode engine
  // starts on the image's shared decode.
  DuoCpu(const std::shared_ptr<const MachineImage>& image, std::uint32_t entry,
         PrivMode mode)
      : ref_machine(image), bc_machine(image) {
    ref = std::make_unique<Rv32Cpu>(ref_machine, entry, mode);
    bc = std::make_unique<Rv32Cpu>(bc_machine, entry, mode);
  }

  void set_pc(std::uint32_t pc) {
    ref->set_pc(pc);
    bc->set_pc(pc);
  }

  void set_pmp(int index, const PmpEntry& e) {
    ref_machine.pmp().set_entry(index, e);
    bc_machine.pmp().set_entry(index, e);
  }

  void set_reg(int index, std::uint32_t value) {
    ref->set_reg(index, value);
    bc->set_reg(index, value);
  }

  void store_all(std::uint32_t addr, const Bytes& data) {
    ref_machine.store(addr, data, PrivMode::kMachine);
    bc_machine.store(addr, data, PrivMode::kMachine);
  }

  // Run both engines with the same step budget and assert identical
  // architectural state. Returns the (common) trap, if any.
  std::optional<Trap> run_all(std::uint64_t max_steps) {
    const auto r_ref = ref->run_interpreted(max_steps);
    const auto r_bc = bc->run(max_steps);
    compare(r_ref, r_bc);
    return r_ref.trap;
  }

 private:
  void compare(const Rv32Cpu::RunResult& r_ref,
               const Rv32Cpu::RunResult& r_bc) {
    EXPECT_EQ(r_ref.steps, r_bc.steps);
    EXPECT_EQ(r_ref.trap.has_value(), r_bc.trap.has_value());
    if (r_ref.trap && r_bc.trap) {
      EXPECT_EQ(static_cast<int>(r_ref.trap->cause),
                static_cast<int>(r_bc.trap->cause));
      EXPECT_EQ(r_ref.trap->pc, r_bc.trap->pc);
      EXPECT_EQ(r_ref.trap->tval, r_bc.trap->tval);
    }
    EXPECT_EQ(ref->pc(), bc->pc());
    EXPECT_EQ(ref->instructions_retired(), bc->instructions_retired());
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(ref->reg(i), bc->reg(i)) << "x" << i;
    }
    const auto mem_ref = ref_machine.raw_memory();
    const auto mem_bc = bc_machine.raw_memory();
    EXPECT_TRUE(std::equal(mem_ref.begin(), mem_ref.end(), mem_bc.begin(),
                           mem_bc.end()))
        << "memory images diverged";
  }
};

// Random RV32IM instruction word generator: mostly-valid encodings with
// random fields, a slice of fully random words, a slice of dependent-pair
// idioms (lui+addi, auipc+lw, shift pairs, addi pairs, or+xor[i],
// compare+branch), and a bit-flip mutator, so legal execution, register
// forwarding between adjacent instructions and illegal-encoding trap
// paths are all exercised.
class InsnFuzzer {
 public:
  explicit InsnFuzzer(std::uint64_t seed) : rng_(seed) {}

  std::uint32_t next() {
    if (pending_) {
      const std::uint32_t second = *pending_;
      pending_.reset();
      return second;
    }
    std::uint32_t word = 0;
    switch (rng_.uniform(12)) {
      case 0: case 1: case 2: {  // R-type ALU / M (funct7 incl. reserved)
        const std::uint32_t funct7s[] = {0, 0, 0x20, 0x01, 0x05, 0x40};
        word = r_type(funct7s[rng_.uniform(6)], reg(), reg(),
                      static_cast<std::uint32_t>(rng_.uniform(8)), reg(),
                      0x33);
        break;
      }
      case 3: case 4:  // OP-IMM
        word = i_type(imm12(), reg(),
                      static_cast<std::uint32_t>(rng_.uniform(8)), reg(),
                      0x13);
        break;
      case 5:  // loads through the data pointers x1/x2
        word = i_type(static_cast<std::int32_t>(rng_.uniform(256)), base_reg(),
                      static_cast<std::uint32_t>(rng_.uniform(8)), reg(),
                      0x03);
        break;
      case 6: {  // stores through the data pointers
        const std::int32_t off = static_cast<std::int32_t>(rng_.uniform(256));
        const std::uint32_t f3 = static_cast<std::uint32_t>(rng_.uniform(4));
        const std::uint32_t u = static_cast<std::uint32_t>(off) & 0xfff;
        word = ((u >> 5) << 25) | (static_cast<std::uint32_t>(reg()) << 20) |
               (static_cast<std::uint32_t>(base_reg()) << 15) | (f3 << 12) |
               ((u & 0x1f) << 7) | 0x23;
        break;
      }
      case 7: {  // short forward/backward branches (stay within stream)
        const std::int32_t off =
            4 * (static_cast<std::int32_t>(rng_.uniform(8)) - 3);
        const std::uint32_t f3s[] = {0, 1, 4, 5, 6, 7, 2, 3};  // 2,3 illegal
        word = b_type(off == 0 ? 4 : off, reg(), reg(),
                      f3s[rng_.uniform(8)]);
        break;
      }
      case 8:  // LUI/AUIPC
        word = (static_cast<std::uint32_t>(rng_.uniform(1 << 20)) << 12) |
               (static_cast<std::uint32_t>(reg()) << 7) |
               (rng_.next_bit() ? 0x37u : 0x17u);
        break;
      case 9: case 10:  // dependent-pair idioms (second word queued)
        word = pair_idiom();
        break;
      default:  // raw random word (usually illegal)
        word = static_cast<std::uint32_t>(rng_.next_u64());
        break;
    }
    if (rng_.uniform(5) == 0) word ^= 1u << rng_.uniform(32);  // mutate
    return word;
  }

 private:
  // Emit the first word of a dependent-pair idiom and queue the second.
  // The register fields are random, so a slice of these pairs hits the
  // aliasing corner cases (rd == x0, rd aliasing rs1, second addi not a
  // self-update, ...), which must execute identically too.
  std::uint32_t pair_idiom() {
    namespace rv = rv32asm;
    const int a = reg(), b = reg(), c = reg(), d = reg();
    const int sh1 = static_cast<int>(rng_.uniform(32));
    const int sh2 = static_cast<int>(rng_.uniform(32));
    const std::int32_t k1 = imm12(), k2 = imm12();
    switch (rng_.uniform(8)) {
      case 0:
        pending_ = rv::addi(b, a, k2);
        return rv::lui(a, static_cast<std::uint32_t>(rng_.uniform(1 << 20)));
      case 1:  // pc-relative load via the data window
        pending_ = rv::lw(b, a, static_cast<std::int32_t>(rng_.uniform(64)));
        return rv::auipc(a, rng_.next_bit() ? 2u : 1u);
      case 2:
        pending_ = rv::srli(c, b, sh2);
        return rv::slli(a, b, sh1);
      case 3:
        pending_ = rv::slli(c, b, sh2);
        return rv::srli(a, b, sh1);
      case 4:
        pending_ = rv::addi(b, b, k2);
        return rv::addi(a, c, k1);
      case 5:
        pending_ = rv::xor_(d, a, c);
        return rv::or_(a, b, c);
      case 6:
        pending_ = rv::xori(d, a, k2);
        return rv::or_(a, b, c);
      default: {
        const std::uint32_t cmp =
            rng_.next_bit() ? rv::slti(a, b, k1) : rv::sltu(a, b, c);
        pending_ = rng_.next_bit() ? rv::bne(a, 0, 8) : rv::beq(0, a, -4);
        return cmp;
      }
    }
  }

  int reg() { return static_cast<int>(rng_.uniform(32)); }
  int base_reg() { return rng_.next_bit() ? 1 : 2; }
  std::int32_t imm12() {
    return static_cast<std::int32_t>(rng_.uniform(4096)) - 2048;
  }
  static std::uint32_t r_type(std::uint32_t funct7, int rs2, int rs1,
                              std::uint32_t funct3, int rd,
                              std::uint32_t opcode) {
    return (funct7 << 25) | (static_cast<std::uint32_t>(rs2) << 20) |
           (static_cast<std::uint32_t>(rs1) << 15) | (funct3 << 12) |
           (static_cast<std::uint32_t>(rd) << 7) | opcode;
  }
  static std::uint32_t i_type(std::int32_t imm, int rs1, std::uint32_t funct3,
                              int rd, std::uint32_t opcode) {
    return (static_cast<std::uint32_t>(imm & 0xfff) << 20) |
           (static_cast<std::uint32_t>(rs1) << 15) | (funct3 << 12) |
           (static_cast<std::uint32_t>(rd) << 7) | opcode;
  }
  static std::uint32_t b_type(std::int32_t offset, int rs1, int rs2,
                              std::uint32_t funct3) {
    const std::uint32_t u = static_cast<std::uint32_t>(offset);
    return (((u >> 12) & 1) << 31) | (((u >> 5) & 0x3f) << 25) |
           (static_cast<std::uint32_t>(rs2) << 20) |
           (static_cast<std::uint32_t>(rs1) << 15) | (funct3 << 12) |
           (((u >> 1) & 0xf) << 8) | (((u >> 11) & 1) << 7) | 0x63;
  }

  Xoshiro256 rng_;
  std::optional<std::uint32_t> pending_;
};

// --- Differential fuzz matrix (tentpole acceptance: >= 1k programs) ----

TEST(Rv32Engine, DifferentialFuzzMachineMode) {
  Xoshiro256 seeds(0xF00DCAFEu);
  for (int stream = 0; stream < 700; ++stream) {
    SCOPED_TRACE(stream);
    InsnFuzzer fuzz(seeds.next_u64());
    std::vector<std::uint32_t> program;
    for (int i = 0; i < 64; ++i) program.push_back(fuzz.next());
    program.push_back(rv::ebreak());

    DuoCpu t(rv::assemble(program), 0x1000, 0x1000, PrivMode::kMachine);
    t.set_reg(1, 0x3000);  // data pointers for the load/store slices
    t.set_reg(2, 0x3800);
    // Resume across resumable traps so streams with early ecalls still
    // exercise deep instruction counts.
    for (int resumes = 0; resumes < 4; ++resumes) {
      const auto trap = t.run_all(400);
      if (!trap || (trap->cause != TrapCause::kEcall &&
                    trap->cause != TrapCause::kEbreak)) {
        break;
      }
    }
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }
}

TEST(Rv32Engine, DifferentialFuzzUserModeUnderPmp) {
  Xoshiro256 seeds(0xBADF00Du);
  for (int stream = 0; stream < 400; ++stream) {
    SCOPED_TRACE(stream);
    InsnFuzzer fuzz(seeds.next_u64());
    std::vector<std::uint32_t> program;
    for (int i = 0; i < 48; ++i) program.push_back(fuzz.next());
    program.push_back(rv::ebreak());

    DuoCpu t(rv::assemble(program), 0x1000, 0x1000, PrivMode::kUser);
    // U-mode window [0x1000, 0x4000) RWX; x2 points outside it so a slice
    // of the loads/stores hits the PMP deny path.
    PmpEntry e;
    e.mode = PmpAddressMode::kNapot;
    e.address = PmpUnit::encode_napot(0, 0x4000);
    e.read = e.write = e.execute = true;
    t.set_pmp(0, e);
    t.set_reg(1, 0x3000);
    t.set_reg(2, 0x8000);  // outside the PMP window: faults
    t.run_all(400);
    if (::testing::Test::HasFailure()) break;
  }
}

// --- Trap-attribution parity (directed) --------------------------------

TEST(Rv32Engine, BranchToMisalignedTargetTrapsAtTarget) {
  // Taken branch to pc+6: the branch itself retires, the trap is deferred
  // to the next fetch and attributed to the (misaligned) target address.
  DuoCpu t(rv::assemble({rv::beq(0, 0, 6), rv::ebreak()}), 0x1000, 0x1000,
           PrivMode::kMachine);
  const auto trap = t.run_all(10);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kMisalignedFetch);
  EXPECT_EQ(trap->pc, 0x1006u);
  EXPECT_EQ(t.bc->instructions_retired(), 1u);
}

TEST(Rv32Engine, JalToMisalignedTargetTrapsAtTarget) {
  DuoCpu t(rv::assemble({rv::jal(1, 6), rv::ebreak()}), 0x1000, 0x1000,
           PrivMode::kMachine);
  const auto trap = t.run_all(10);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kMisalignedFetch);
  EXPECT_EQ(trap->pc, 0x1006u);
  EXPECT_EQ(t.bc->reg(1), 0x1004u);  // link register still written
}

TEST(Rv32Engine, JalrClearsBit0ButTrapsOnBit1) {
  // JALR zeroes bit 0 of the computed target (spec) but bit 1 survives
  // and must produce a misaligned-fetch trap attributed to the target.
  DuoCpu t(rv::assemble({rv::jalr(5, 6, 0), rv::ebreak()}), 0x1000, 0x1000,
           PrivMode::kMachine);
  t.set_reg(6, 0x1007);  // target = 0x1007 & ~1 = 0x1006
  const auto trap = t.run_all(10);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kMisalignedFetch);
  EXPECT_EQ(trap->pc, 0x1006u);
  EXPECT_EQ(t.bc->reg(5), 0x1004u);
}

TEST(Rv32Engine, JalrWithRdEqualRs1UsesOldValueForTarget) {
  // jalr x1, x1, 0x20: the target must be computed from the OLD x1 before
  // the link address overwrites it.
  std::vector<std::uint32_t> program(16, rv::nop());
  program[0] = rv::jalr(1, 1, 0x20);
  program[8] = rv::ebreak();  // 0x1000 + 0x20
  DuoCpu t(rv::assemble(program), 0x1000, 0x1000, PrivMode::kMachine);
  t.set_reg(1, 0x1000);
  const auto trap = t.run_all(10);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kEbreak);
  EXPECT_EQ(trap->pc, 0x1020u);
  EXPECT_EQ(t.bc->reg(1), 0x1004u);
}

// --- Dependent instruction pairs (directed) ----------------------------

TEST(Rv32Engine, LuiAddiPairVariants) {
  // Distinct destination, aliasing destination (addi rd == lui rd), and
  // discarded second destination (addi rd == x0) — all must match the
  // two-instruction reference exactly.
  DuoCpu t(rv::assemble({
               rv::lui(1, 0x12345), rv::addi(2, 1, 0x678),   // x2 = 12345678
               rv::lui(3, 0x0dead), rv::addi(3, 3, -0x111),  // alias rd
               rv::lui(4, 0x0beef), rv::addi(0, 4, 0x0ff),   // rd2 == x0
               rv::ebreak(),
           }),
           0x1000, 0x1000, PrivMode::kMachine);
  const auto trap = t.run_all(100);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kEbreak);
  EXPECT_EQ(t.bc->reg(2), 0x12345678u);
  EXPECT_EQ(t.bc->reg(3), 0x0deacEEFu);
  EXPECT_EQ(t.bc->reg(0), 0u);
  EXPECT_EQ(t.bc->instructions_retired(), 7u);
}

TEST(Rv32Engine, AuipcLwPairFaultAttributesTheLoad) {
  // auipc x1 commits and retires; the lw after it faults. The trap must
  // name the lw's pc (pair pc + 4) and the faulting data address, and the
  // step count must include the faulting attempt.
  DuoCpu t(rv::assemble({rv::auipc(1, 0x20), rv::lw(2, 1, 0), rv::ebreak()}),
           0x1000, 0x1000, PrivMode::kMachine);
  const auto trap = t.run_all(10);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kLoadAccessFault);
  EXPECT_EQ(trap->pc, 0x1004u);
  EXPECT_EQ(trap->tval, 0x21000u);       // beyond the 64 KB machine
  EXPECT_EQ(t.bc->reg(1), 0x21000u);     // first component committed
  EXPECT_EQ(t.bc->instructions_retired(), 1u);
}

TEST(Rv32Engine, CmpBranchPairTakenNotTakenAndMisaligned) {
  // slti+bnez taken and not-taken legs, then a pair whose branch target is
  // misaligned: the branch retires and the trap lands on the target
  // address, exactly like the reference.
  DuoCpu t(rv::assemble({
               rv::slti(1, 0, 1),   // x1 = (0 < 1) = 1
               rv::bne(1, 0, 12),   // taken -> 0x1010
               rv::ebreak(),        // skipped
               rv::ebreak(),        // skipped
               rv::slti(2, 0, 0),   // 0x1010: x2 = 0
               rv::bne(2, 0, 8),    // not taken
               rv::slti(3, 0, 1),   // 0x1018: x3 = 1
               rv::bne(3, 0, 6),    // taken -> 0x1022 (misaligned)
               rv::ebreak(),
           }),
           0x1000, 0x1000, PrivMode::kMachine);
  const auto trap = t.run_all(100);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kMisalignedFetch);
  EXPECT_EQ(trap->pc, 0x1022u);
  EXPECT_EQ(t.bc->reg(1), 1u);
  EXPECT_EQ(t.bc->reg(2), 0u);
  EXPECT_EQ(t.bc->reg(3), 1u);
}

TEST(Rv32Engine, BudgetEndsBetweenShiftPairHalves) {
  // An odd step budget that expires between the two halves of a shift
  // pair: the engine must retire exactly the first half and leave pc on
  // the second, like the single-stepping reference.
  std::vector<std::uint32_t> program;
  for (int i = 0; i < 8; ++i) {
    program.push_back(rv::slli(1, 8, 3));
    program.push_back(rv::srli(2, 8, 29));
  }
  program.push_back(rv::ebreak());
  DuoCpu t(rv::assemble(program), 0x1000, 0x1000, PrivMode::kMachine);
  t.set_reg(8, 0x80000001u);
  t.run_all(5);  // ends after the first half of the third pair
  EXPECT_EQ(t.bc->pc(), 0x1014u);
  EXPECT_EQ(t.bc->instructions_retired(), 5u);
  t.run_all(100);  // resume mid-pair and finish
  EXPECT_EQ(t.bc->reg(1), 0x80000001u << 3);
  EXPECT_EQ(t.bc->reg(2), 0x80000001u >> 29);
}

TEST(Rv32Engine, SmcPatchesSecondHalfOfLuiAddiPair) {
  // The loop executes a lui+addi pair, then stores a new addi word over
  // the pair's second half (bumping the page version mid-run) and
  // re-executes it: the engine must re-decode and apply the patched
  // immediate instead of replaying the stale decode.
  DuoCpu t(rv::assemble({
               rv::auipc(1, 0),       // 0x1000: x1 = 0x1000
               rv::lw(3, 1, 0x100),   // 0x1004: x3 = patch word
               rv::jal(0, 0x28),      // 0x1008: -> 0x1030
               rv::nop(), rv::nop(), rv::nop(), rv::nop(),
               rv::nop(), rv::nop(), rv::nop(), rv::nop(), rv::nop(),
               rv::lui(5, 1),         // 0x1030: pair, first half
               rv::addi(6, 5, 0x100), // 0x1034: patched to addi(6,5,0x200)
               rv::bne(7, 0, 0x10),   // 0x1038: second pass -> 0x1048
               rv::addi(7, 0, 1),     // 0x103c
               rv::sw(3, 1, 0x34),    // 0x1040: patch [0x1034]
               rv::jal(0, -0x14),     // 0x1044: -> 0x1030
               rv::ebreak(),          // 0x1048
           }),
           0x1000, 0x1000, PrivMode::kMachine);
  t.store_all(0x1100, rv::assemble({rv::addi(6, 5, 0x200)}));
  const auto trap = t.run_all(100);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kEbreak);
  EXPECT_EQ(t.bc->reg(6), 0x1200u);  // patched immediate, not 0x1100
}

TEST(Rv32Engine, LuiAddiPairAcrossPageEdge) {
  // lui at 0x1ffc and addi at 0x2000 sit in different decoded pages; the
  // addi must read the lui's result across the page switch.
  DuoCpu t(rv::assemble({
               rv::addi(3, 0, 7),      // 0x1ff8
               rv::lui(1, 0x12345),    // 0x1ffc: last slot of page 0x1000
               rv::addi(2, 1, 0x678),  // 0x2000: first slot of page 0x2000
               rv::ebreak(),           // 0x2004
           }),
           0x1ff8, 0x1ff8, PrivMode::kMachine);
  const auto trap = t.run_all(100);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kEbreak);
  EXPECT_EQ(t.bc->reg(2), 0x12345678u);
}

TEST(Rv32Engine, PmpExecuteWindowEndsBetweenPairHalves) {
  // U-mode execute permission covers [0x1000, 0x1800). The pair halves at
  // 0x17fc / 0x1800 share a decoded page, but the second fetch is outside
  // the window: the first half must commit and retire, and the trap must
  // name 0x1800.
  std::vector<std::uint32_t> program(513, rv::nop());  // 0x17f8..0x2000
  program[0] = rv::addi(3, 0, 9);      // 0x17f8
  program[1] = rv::lui(1, 2);          // 0x17fc
  program[2] = rv::addi(2, 1, 4);      // 0x1800 (outside exec window)
  DuoCpu t(rv::assemble(program), 0x17f8, 0x17f8, PrivMode::kUser);
  PmpEntry code;
  code.mode = PmpAddressMode::kNapot;
  code.address = PmpUnit::encode_napot(0x1000, 0x800);
  code.read = code.write = code.execute = true;
  t.set_pmp(0, code);
  const auto trap = t.run_all(10);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kInstructionAccessFault);
  EXPECT_EQ(trap->pc, 0x1800u);
  EXPECT_EQ(t.bc->reg(1), 0x2000u);  // lui committed
  EXPECT_EQ(t.bc->instructions_retired(), 2u);
}

TEST(Rv32Engine, RotateMixLoopRetiresIdenticalCounts) {
  // A Keccak-style rotate/mix loop of dependent pairs: retired counts and
  // state must match the reference exactly.
  DuoCpu t(rv::assemble({
               rv::addi(4, 0, 100),    // loop counter
               rv::slli(1, 8, 7),      // 0x1004: rotate halves
               rv::srli(2, 8, 25),
               rv::or_(3, 1, 2),       // combine
               rv::xori(8, 3, 0x55),   // mix back into source
               rv::addi(4, 4, -1),
               rv::bne(4, 0, -20),     // -> 0x1004
               rv::ebreak(),
           }),
           0x1000, 0x1000, PrivMode::kMachine);
  t.set_reg(8, 0xdeadbeefu);
  const auto trap = t.run_all(10000);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kEbreak);
  EXPECT_EQ(t.bc->instructions_retired(), t.ref->instructions_retired());
}

// --- Decode overlay and word-granular refresh (directed) ---------------

TEST(Rv32Engine, AliasingPagesDecodeOnceEach) {
  // Pages 0x1000 and 0x9000 are 32 KB apart (they shared a set in the old
  // set-associative page cache). A call loop ping-ponging between them
  // must decode each page exactly once, not re-decode ~2N times.
  Machine m(kMemBytes);
  m.store(0x1000,
          rv::assemble({
              rv::addi(5, 5, -1),   // 0x1000
              rv::jal(1, 0x7ffc),   // 0x1004: -> 0x9000
              rv::bne(5, 0, -8),    // 0x1008: -> 0x1000
              rv::ebreak(),         // 0x100c
          }),
          PrivMode::kMachine);
  m.store(0x9000, rv::assemble({rv::jalr(0, 1, 0)}), PrivMode::kMachine);
#if CONVOLVE_TELEMETRY_ENABLED
  m.flush_telemetry();
  const std::uint64_t misses0 =
      telemetry::snapshot().counter_value("rv32.decode_cache.misses");
#endif
  Rv32Cpu cpu(m, 0x1000, PrivMode::kMachine);
  cpu.set_reg(5, 50);
  const auto result = cpu.run(10000);
  ASSERT_TRUE(result.trap.has_value());
  EXPECT_EQ(result.trap->cause, TrapCause::kEbreak);
  EXPECT_EQ(cpu.reg(5), 0u);
#if CONVOLVE_TELEMETRY_ENABLED
  m.flush_telemetry();
  const std::uint64_t misses1 =
      telemetry::snapshot().counter_value("rv32.decode_cache.misses");
  EXPECT_EQ(misses1 - misses0, 2u)
      << "aliasing pages should decode once each, not ping-pong";
#endif
}

// The run_short request shape on one page: sum 64 input bytes staged at
// page + 0x600, store the sum at page + 0x700, ebreak.
std::vector<std::uint32_t> staged_sum_program() {
  return {
      rv::auipc(6, 0),          // x6 = page base
      rv::addi(5, 0, 0),
      rv::addi(7, 0, 0),
      rv::addi(8, 0, 64),
      rv::add(9, 6, 7),         // loop:
      rv::lbu(10, 9, 0x600),
      rv::add(5, 5, 10),
      rv::addi(7, 7, 1),
      rv::bne(7, 8, -16),
      rv::sw(5, 6, 0x700),
      rv::ebreak(),
  };
}

Bytes staged_input(std::uint8_t salt) {
  Bytes in(64);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>(1 + ((i * 37 + salt) % 200));
  }
  return in;
}

std::uint32_t byte_sum(const Bytes& in) {
  std::uint32_t sum = 0;
  for (const std::uint8_t b : in) sum += b;
  return sum;
}

std::shared_ptr<const MachineImage> frozen_program(const Bytes& program,
                                                   std::uint32_t load_addr) {
  Machine master(kMemBytes);
  master.store(load_addr, program, PrivMode::kMachine);
  const MemRange code{load_addr, program.size()};
  return master.freeze(std::span<const MemRange>(&code, 1));
}

// A lock-step pair on plain machines (`fork` false) or on two forks of a
// frozen image whose code table holds the program's pages.
std::unique_ptr<DuoCpu> make_duo(bool fork, const Bytes& program,
                                 std::uint32_t load_addr) {
  if (fork) {
    return std::make_unique<DuoCpu>(frozen_program(program, load_addr),
                                    load_addr, PrivMode::kMachine);
  }
  return std::make_unique<DuoCpu>(program, load_addr, load_addr,
                                  PrivMode::kMachine);
}

TEST(Rv32Engine, RefreshDataStagedIntoCodePageMatchesInterpreter) {
  for (const bool fork : {false, true}) {
    SCOPED_TRACE(fork ? "fork" : "plain");
    auto t = make_duo(fork, rv::assemble(staged_sum_program()), 0x1000);
    for (std::uint8_t salt : {0, 5, 5, 9}) {
      const Bytes in = staged_input(salt);
      t->store_all(0x1600, in);
      t->set_pc(0x1000);
      const auto trap = t->run_all(2000);
      ASSERT_TRUE(trap.has_value());
      EXPECT_EQ(trap->cause, TrapCause::kEbreak);
      EXPECT_EQ(t->bc_machine.load(0x1700, 4, PrivMode::kMachine),
                t->ref_machine.load(0x1700, 4, PrivMode::kMachine));
      EXPECT_EQ(t->bc->reg(5), byte_sum(in));
    }
  }
}

TEST(Rv32Engine, RefreshPatchedAddiAfterLuiMatchesInterpreter) {
  // Patching only the addi word (slot 1) of a lui+addi pair must re-decode
  // slot 1, or the stale immediate would run.
  for (const bool fork : {false, true}) {
    SCOPED_TRACE(fork ? "fork" : "plain");
    auto t = make_duo(fork,
                      rv::assemble({rv::lui(1, 0x12345),
                                    rv::addi(2, 1, 0x678), rv::ebreak()}),
                      0x1000);
    ASSERT_TRUE(t->run_all(10).has_value());
    EXPECT_EQ(t->bc->reg(2), 0x12345678u);
    t->store_all(0x1004, rv::assemble({rv::addi(2, 1, 0x123)}));
    t->set_pc(0x1000);
    ASSERT_TRUE(t->run_all(10).has_value());
    EXPECT_EQ(t->bc->reg(2), 0x12345123u);
  }
}

TEST(Rv32Engine, RefreshPatchedLastSlotOfPage) {
  // Slot 1023 of page 0x1000 is patched to a lui whose dependent addi
  // sits in slot 0 of the next page: the refresh re-decodes the last slot,
  // and both pages keep executing in lock-step.
  for (const bool fork : {false, true}) {
    SCOPED_TRACE(fork ? "fork" : "plain");
    auto t = make_duo(fork,
                      rv::assemble({rv::addi(3, 0, 7),       // 0x1ff8
                                    rv::nop(),               // 0x1ffc
                                    rv::addi(2, 2, 0x678),   // 0x2000
                                    rv::ebreak()}),          // 0x2004
                      0x1ff8);
    ASSERT_TRUE(t->run_all(10).has_value());
    EXPECT_EQ(t->bc->reg(2), 0x678u);
    t->store_all(0x1ffc, rv::assemble({rv::lui(2, 0x12345)}));
    t->set_pc(0x1ff8);
    const auto trap = t->run_all(10);
    ASSERT_TRUE(trap.has_value());
    EXPECT_EQ(trap->cause, TrapCause::kEbreak);
    EXPECT_EQ(t->bc->reg(2), 0x12345678u);
  }
}

TEST(Rv32Engine, RefreshWordWrittenBackToOriginalValue) {
  // Patch a word, run, write the original back, run: each run must see
  // the bytes in memory, including a store that changes nothing.
  for (const bool fork : {false, true}) {
    SCOPED_TRACE(fork ? "fork" : "plain");
    const Bytes original = rv::assemble({rv::addi(5, 0, 11)});
    auto t = make_duo(fork,
                      rv::assemble({rv::addi(5, 0, 11), rv::ebreak()}),
                      0x1000);
    const Bytes patched = rv::assemble({rv::addi(5, 0, 22)});
    for (const Bytes* word : {&original, &patched, &original, &original}) {
      t->store_all(0x1000, *word);
      t->set_pc(0x1000);
      ASSERT_TRUE(t->run_all(10).has_value());
      EXPECT_EQ(t->bc->reg(5), word == &patched ? 22u : 11u);
    }
  }
}

#if CONVOLVE_TELEMETRY_ENABLED
TEST(Rv32Engine, ForkRefreshRedecodesOnlyChangedWords) {
  // The run_short shape on a fork: a fresh fork executes the image's
  // shared decode; staging input copies it and re-decodes the 16 staged
  // words; the result store re-decodes its own slot; rewriting identical
  // bytes re-decodes nothing.
  const auto image = frozen_program(rv::assemble(staged_sum_program()), 0x1000);
  ASSERT_EQ(image->code.size(), 1u);
  struct Tally {
    std::uint64_t shared = 0, misses = 0, words = 0;
  };
  const auto tally = [] {
    const auto snap = telemetry::snapshot();
    return Tally{snap.counter_value("rv32.decode.shared_hits"),
                 snap.counter_value("rv32.decode_cache.misses"),
                 snap.counter_value("rv32.decode.words_redecoded")};
  };
  const auto run_delta = [&](Machine& m, std::uint64_t steps) {
    m.flush_telemetry();
    const Tally before = tally();
    Rv32Cpu cpu(m, 0x1000, PrivMode::kMachine);
    cpu.run(steps);
    m.flush_telemetry();
    const Tally after = tally();
    return Tally{after.shared - before.shared, after.misses - before.misses,
                 after.words - before.words};
  };

  Machine fresh(image);
  Tally d = run_delta(fresh, 1);
  EXPECT_EQ(d.shared, 1u);
  EXPECT_EQ(d.misses, 0u);
  EXPECT_EQ(&fresh.decoded_page(0x1000), &image->code[0]);

  Machine fork(image);
  const Bytes in = staged_input(3);
  fork.store(0x1600, in, PrivMode::kMachine);
  d = run_delta(fork, 2000);
  EXPECT_EQ(d.shared, 0u);
  EXPECT_EQ(d.misses, 2u);        // staged input, then the result store
  EXPECT_EQ(d.words, 16u + 1u);
  EXPECT_EQ(fork.load(0x1700, 4, PrivMode::kMachine),
            rv::assemble({byte_sum(in)}));

  fork.store(0x1600, in, PrivMode::kMachine);  // same bytes again
  d = run_delta(fork, 2000);
  EXPECT_EQ(d.misses, 2u);
  EXPECT_EQ(d.words, 0u);
}
#endif

// --- Non-4-byte-aligned memory tail ------------------------------------

TEST(Rv32Engine, TruncatedTailWordFaultsNotDecodes) {
  // A machine whose memory ends mid-instruction (0x1806 bytes): executing
  // into the 2-byte tail must raise an access fault on both engines, never
  // decode a partial word.
  DuoCpu t(rv::assemble({rv::addi(1, 1, 1)}), 0x1800, 0x1800,
           PrivMode::kMachine, 0x1806);
  const auto trap = t.run_all(10);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kInstructionAccessFault);
  EXPECT_EQ(trap->pc, 0x1804u);
  EXPECT_EQ(t.bc->reg(1), 1u);
  EXPECT_EQ(t.bc->instructions_retired(), 1u);
}

TEST(Rv32Engine, DefaultDecodedSlotsTrapIllegal) {
  // The filler slots past a truncated tail are default-constructed; the
  // decoder's and the bytecode's default records must both denote an
  // illegal instruction so a stray fetch into them traps instead of
  // executing garbage.
  EXPECT_EQ(DecodedInsn{}.kind, OpKind::kIllegal);
  EXPECT_EQ(BcOp{}.handler, static_cast<std::uint8_t>(BcHandler::kIllegal));
}

// --- Carried-over engine/system tests ----------------------------------

TEST(Rv32Engine, SelfModifyingCodeInvalidatesDecodeCache) {
  // The program patches a nop four instructions ahead with
  // `addi x5, x0, 42` and then executes it: the bytecode engine must detect
  // the store to the executable page and re-decode instead of running
  // the stale cached nop.
  const std::uint32_t patch = rv::addi(5, 0, 42);
  ASSERT_EQ(patch, 0x02a00293u);
  DuoCpu t(rv::assemble({
               rv::auipc(1, 0),          // 0x1000: x1 = 0x1000
               rv::lui(3, 0x02a00),      // 0x1004: x3 = patch word
               rv::addi(3, 3, 0x293),    // 0x1008
               rv::sw(3, 1, 0x14),       // 0x100c: patch [0x1014]
               rv::nop(),                // 0x1010
               rv::nop(),                // 0x1014 <- becomes addi x5,x0,42
               rv::ebreak(),             // 0x1018
           }),
           0x1000, 0x1000, PrivMode::kMachine);
  const auto trap = t.run_all(100);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kEbreak);
  EXPECT_EQ(t.bc->reg(5), 42u);
}

TEST(Rv32Engine, ExecutionAcrossPageBoundary) {
  // A straight-line program whose body crosses the 0x2000 page boundary:
  // the bytecode engine must chain decoded pages without losing state.
  std::vector<std::uint32_t> program;
  for (int i = 0; i < 8; ++i) program.push_back(rv::addi(6, 6, 1));
  program.push_back(rv::ebreak());
  DuoCpu t(rv::assemble(program), 0x1fe8, 0x1fe8, PrivMode::kMachine);
  const auto trap = t.run_all(100);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kEbreak);
  EXPECT_EQ(t.bc->reg(6), 8u);
}

TEST(Rv32Engine, PmpReprogramBetweenRunsIsRespected) {
  // The memoized PMP windows are keyed by the PMP epoch: revoking execute
  // permission between run() calls must fault the very next fetch.
  DuoCpu t(rv::assemble({rv::addi(1, 1, 1), rv::ecall(),
                         rv::addi(1, 1, 1), rv::ebreak()}),
           0x1000, 0x1000, PrivMode::kUser);
  PmpEntry e;
  e.mode = PmpAddressMode::kNapot;
  e.address = PmpUnit::encode_napot(0x1000, 0x1000);
  e.read = e.write = e.execute = true;
  t.set_pmp(0, e);

  auto trap = t.run_all(100);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kEcall);

  e.execute = false;  // revoke X, keep RW
  t.set_pmp(0, e);
  trap = t.run_all(100);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kInstructionAccessFault);
  EXPECT_EQ(trap->pc, 0x1008u);
}

TEST(Rv32Engine, MemoizedDataWindowInvalidatedOnReprogram) {
  // Load succeeds through the memoized read window, then read permission
  // is revoked: the next load must fault, not hit a stale memo.
  DuoCpu t(rv::assemble({rv::lw(3, 1, 0), rv::ecall(),
                         rv::lw(4, 1, 0), rv::ebreak()}),
           0x1000, 0x1000, PrivMode::kUser);
  PmpEntry code;
  code.mode = PmpAddressMode::kNapot;
  code.address = PmpUnit::encode_napot(0x1000, 0x1000);
  code.read = code.write = code.execute = true;
  PmpEntry data;
  data.mode = PmpAddressMode::kNapot;
  data.address = PmpUnit::encode_napot(0x3000, 0x1000);
  data.read = true;
  t.set_pmp(0, code);
  t.set_pmp(1, data);
  t.set_reg(1, 0x3000);

  auto trap = t.run_all(100);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kEcall);

  data.read = false;
  t.set_pmp(1, data);
  trap = t.run_all(100);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kLoadAccessFault);
  EXPECT_EQ(trap->tval, 0x3000u);
}

TEST(Rv32Engine, FastEnginesMatchLegacyOnStructuredLoop) {
  // The memcpy-style loop from the interpreter suite, with byte-level
  // loads/stores: identical final state on both engines.
  const auto program = rv::assemble({
      rv::lui(1, 0x3), rv::lui(2, 0x3), rv::addi(2, 2, 0x7ff),
      rv::addi(2, 2, 1), rv::addi(3, 0, 64),
      rv::lbu(4, 1, 0), rv::sb(4, 2, 0), rv::addi(1, 1, 1),
      rv::addi(2, 2, 1), rv::addi(3, 3, -1), rv::bne(3, 0, -20),
      rv::ebreak(),
  });
  DuoCpu t(program, 0x1000, 0x1000, PrivMode::kMachine);
  Bytes src(64);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  t.store_all(0x3000, src);
  const auto trap = t.run_all(10000);
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->cause, TrapCause::kEbreak);
  EXPECT_EQ(t.bc_machine.load(0x3800, 64, PrivMode::kMachine), src);
}

}  // namespace
}  // namespace convolve::tee
