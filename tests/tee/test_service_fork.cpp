// Fork-isolation differential suite.
//
// The CoW forking contract under adversarial conditions: N machines forked
// from one snapshot run DIVERGENT SELF-MODIFYING programs (each fork
// patches its own code page with a per-fork instruction before executing
// it), and we assert (1) every fork computes its own expected result --
// the patched code really ran, so CoW materialization and page-cache
// invalidation interact correctly; (2) forks are bit-exact independent:
// memories and page versions match a per-fork serial re-execution
// regardless of what other forks did, serial vs pool-concurrent; (3) the
// snapshot's bytes and page versions never change, no matter how many
// forks wrote "through" it; (4) a forked machine is engine-agnostic:
// interpreter / bytecode lock-step on the same fork input.
//
// The fuzz loop is sized >= 500 cycles (the tsan acceptance gate): each
// cycle is one fork + patch + run + verify.
#include <gtest/gtest.h>

#include "convolve/common/parallel.hpp"
#include "convolve/common/rng.hpp"
#include "convolve/tee/service/snapshot.hpp"

namespace convolve::tee::service {
namespace {

namespace rv = rv32asm;

// Self-modifying program: load a patch word from region offset 0x100,
// store it over the placeholder instruction at offset 0x20, fall through
// into it, then publish x7 at offset 0x200 and exit.
//   0x00 auipc x6, 0      -- x6 = region base
//   0x04 lw    x5, 0x100(x6)
//   0x08 sw    x5, 0x20(x6)   <- the self-modification
//   0x0c..0x1c nop x5
//   0x20 nop               <- patched to addi x7, x0, K before execution
//   0x24 sw    x7, 0x200(x6)
//   0x28 ecall
Bytes smc_program() {
  return rv::assemble({
      rv::auipc(6, 0),
      rv::lw(5, 6, 0x100),
      rv::sw(5, 6, 0x20),
      rv::nop(),
      rv::nop(),
      rv::nop(),
      rv::nop(),
      rv::nop(),
      rv::nop(),  // offset 0x20: patch target
      rv::sw(7, 6, 0x200),
      rv::ecall(),
  });
}

struct ForkLab {
  Machine machine{512 * 1024};
  BootRecord boot;
  std::unique_ptr<SecurityMonitor> sm;
  int enclave = -1;
  std::unique_ptr<MachineSnapshot> snapshot;

  ForkLab() {
    const Bootrom rom({false}, DeviceKeys::from_entropy(Bytes(32, 0x2F)));
    boot = rom.boot(Bytes(2048, 0xEC));
    sm = std::make_unique<SecurityMonitor>(machine, boot, SmConfig{});
    enclave = sm->create_enclave(smc_program(), 8192);
    snapshot = std::make_unique<MachineSnapshot>(
        MachineSnapshot::freeze(machine, *sm));
  }
};

struct ForkOutcome {
  std::uint32_t result = 0;       // word at 0x200
  std::uint64_t steps = 0;
  bool ecall = false;
  std::uint64_t cow_pages = 0;
  std::uint32_t code_page_version = 0;
  Bytes region;                   // full enclave region bytes after the run
};

// Fork, patch offset 0x100 with addi(x7, x0, k), run, collect outcome.
ForkOutcome run_fork(const ForkLab& lab, std::uint32_t fork_id,
                     std::int32_t k) {
  EnclaveWorld world = lab.snapshot->fork(fork_id);
  const auto& e = world.sm->enclave(lab.enclave);
  Bytes patch(4);
  store_le32(patch.data(), rv::addi(7, 0, k));
  world.machine->store(e.base + 0x100, patch, PrivMode::kMachine);
  const auto run = world.sm->run_enclave_program(lab.enclave, 1000);
  ForkOutcome out;
  out.steps = run.steps;
  out.ecall = run.trap && run.trap->cause == TrapCause::kEcall;
  const Bytes word = world.machine->load(e.base + 0x200, 4, PrivMode::kMachine);
  out.result = load_le32(word.data());
  out.cow_pages = world.machine->cow_pages_materialized();
  out.code_page_version = world.machine->page_version(e.base);
  out.region = world.machine->load(e.base, e.size, PrivMode::kMachine);
  return out;
}

TEST(ForkIsolation, FuzzedForkRunCycles) {
  ForkLab lab;
  const Bytes image_before(lab.snapshot->image().bytes);
  const std::vector<std::uint32_t> versions_before(
      lab.snapshot->image().page_versions);
  Xoshiro256 rng(0xF0DE5EED);

  constexpr int kCycles = 500;
  for (int i = 0; i < kCycles; ++i) {
    const auto k = static_cast<std::int32_t>(rng.uniform(2048));
    const ForkOutcome out =
        run_fork(lab, static_cast<std::uint32_t>(i + 1), k);
    ASSERT_TRUE(out.ecall) << "cycle " << i;
    ASSERT_EQ(out.result, static_cast<std::uint32_t>(k)) << "cycle " << i;
    // The patch touched exactly the code page (0x20 and 0x100 and 0x200
    // share page 0 of the region): one CoW materialization.
    ASSERT_EQ(out.cow_pages, 1u) << "cycle " << i;
  }
  // However many forks wrote, the frozen image never moved.
  EXPECT_EQ(lab.snapshot->image().bytes, image_before);
  EXPECT_EQ(lab.snapshot->image().page_versions, versions_before);
}

// FNV-1a over every shared decoded page: base, version, source words and
// each bytecode slot field by field.
std::uint64_t hash_code_table(const MachineImage& image) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  for (const DecodedPage& d : image.code) {
    mix(d.base);
    mix(d.version);
    for (const std::uint32_t w : d.words) mix(w);
    for (const BcOp& op : d.bytecode) {
      mix(op.handler | (op.rd << 8) | (op.rs1 << 16) |
          (static_cast<std::uint64_t>(op.rs2) << 24));
      mix(static_cast<std::uint32_t>(op.imm));
      mix(reinterpret_cast<std::uintptr_t>(op.target));
    }
  }
  return h;
}

TEST(ForkIsolation, FrozenCodeTableNeverWrittenByConcurrentForks) {
  // Every fork copies the shared decode of its code page and patches its
  // copy (the program rewrites itself); run them concurrently on the pool
  // and the frozen table must hash the same afterwards.
  ForkLab lab;
  const MachineImage& image = lab.snapshot->image();
  ASSERT_FALSE(image.code.empty());
  const std::uint64_t before = hash_code_table(image);
  Xoshiro256 rng(0x5EED7AB1E);
  constexpr int kForks = 256;
  std::vector<std::int32_t> ks(kForks);
  for (auto& k : ks) k = static_cast<std::int32_t>(rng.uniform(2048));
  std::vector<ForkOutcome> outs(kForks);
  par::ScopedThreadCount guard(4);
  par::parallel_for(kForks, [&](std::uint64_t i) {
    outs[i] = run_fork(lab, static_cast<std::uint32_t>(i + 1), ks[i]);
  });
  for (int i = 0; i < kForks; ++i) {
    ASSERT_TRUE(outs[i].ecall) << i;
    ASSERT_EQ(outs[i].result, static_cast<std::uint32_t>(ks[i])) << i;
  }
  EXPECT_EQ(hash_code_table(image), before);
}

TEST(ForkIsolation, ConcurrentForksMatchSerialBitExactly) {
  ForkLab lab;
  Xoshiro256 rng(0xCAFE0);
  constexpr int kForks = 128;
  std::vector<std::int32_t> ks(kForks);
  for (auto& k : ks) k = static_cast<std::int32_t>(rng.uniform(2048));

  std::vector<ForkOutcome> serial(kForks);
  for (int i = 0; i < kForks; ++i) {
    serial[i] = run_fork(lab, static_cast<std::uint32_t>(i + 1), ks[i]);
  }
  for (int threads : {2, 7}) {
    par::ScopedThreadCount guard(threads);
    std::vector<ForkOutcome> concurrent(kForks);
    par::parallel_for(kForks, [&](std::uint64_t i) {
      concurrent[i] = run_fork(lab, static_cast<std::uint32_t>(i + 1),
                               ks[i]);
    });
    for (int i = 0; i < kForks; ++i) {
      EXPECT_EQ(concurrent[i].result, serial[i].result) << i;
      EXPECT_EQ(concurrent[i].steps, serial[i].steps) << i;
      EXPECT_EQ(concurrent[i].code_page_version,
                serial[i].code_page_version)
          << i;
      // Full-region bit-exactness: nothing any co-running fork did shows
      // through -- memories diverge only by each fork's own writes.
      EXPECT_EQ(concurrent[i].region, serial[i].region) << i;
    }
  }
}

TEST(ForkIsolation, DivergentForksShareNothingButTheImage) {
  ForkLab lab;
  const ForkOutcome a = run_fork(lab, 1, 111);
  const ForkOutcome b = run_fork(lab, 2, 999);
  EXPECT_EQ(a.result, 111u);
  EXPECT_EQ(b.result, 999u);
  // Same starting version (inherited), same bump count, different bytes.
  EXPECT_EQ(a.code_page_version, b.code_page_version);
  EXPECT_NE(a.region, b.region);
  // The regions differ exactly at the patch word, the patched insn and
  // the result word -- byte-wise, everywhere else is identical.
  ASSERT_EQ(a.region.size(), b.region.size());
  for (std::size_t off = 0; off < a.region.size(); ++off) {
    const bool may_differ = (off >= 0x20 && off < 0x24) ||
                            (off >= 0x100 && off < 0x104) ||
                            (off >= 0x200 && off < 0x204);
    if (!may_differ) {
      ASSERT_EQ(a.region[off], b.region[off]) << "offset " << off;
    }
  }
}

// Fork e = 0 runs the reference interpreter under the enclave PMP view,
// fork e = 1 the bytecode engine through run_enclave_program.
TEST(ForkIsolation, TwoEngineLockStepOnForkedMachines) {
  ForkLab lab;
  Xoshiro256 rng(0x7E57E61);
  for (int i = 0; i < 50; ++i) {
    const auto k = static_cast<std::int32_t>(rng.uniform(2048));
    ForkOutcome outs[2];
    for (int e = 0; e < 2; ++e) {
      EnclaveWorld world =
          lab.snapshot->fork(static_cast<std::uint32_t>(i * 3 + e + 1));
      const auto& enc = world.sm->enclave(lab.enclave);
      Bytes patch(4);
      store_le32(patch.data(), rv::addi(7, 0, k));
      world.machine->store(enc.base + 0x100, patch, PrivMode::kMachine);
      Rv32Cpu::RunResult run;
      if (e == 0) {
        world.sm->enter_enclave(lab.enclave);
        Rv32Cpu cpu(*world.machine, static_cast<std::uint32_t>(enc.base),
                    PrivMode::kUser);
        run = cpu.run_interpreted(1000);
        world.sm->enter_os();
      } else {
        run = world.sm->run_enclave_program(lab.enclave, 1000);
      }
      outs[e].steps = run.steps;
      outs[e].ecall = run.trap && run.trap->cause == TrapCause::kEcall;
      outs[e].region =
          world.machine->load(enc.base, enc.size, PrivMode::kMachine);
    }
    ASSERT_EQ(outs[1].ecall, outs[0].ecall) << "cycle " << i;
    ASSERT_EQ(outs[1].steps, outs[0].steps) << "cycle " << i;
    ASSERT_EQ(outs[1].region, outs[0].region) << "cycle " << i;
  }
}

TEST(ForkIsolation, MasterKeepsRunningAfterSnapshot) {
  // Freezing is non-destructive: the master world executes after the
  // snapshot, and its divergence never leaks into (or from) the image.
  ForkLab lab;
  const auto& e = lab.sm->enclave(lab.enclave);
  Bytes patch(4);
  store_le32(patch.data(), rv::addi(7, 0, 777));
  lab.machine.store(e.base + 0x100, patch, PrivMode::kMachine);
  const auto run = lab.sm->run_enclave_program(lab.enclave, 1000);
  ASSERT_TRUE(run.trap && run.trap->cause == TrapCause::kEcall);
  const Bytes word = lab.machine.load(e.base + 0x200, 4, PrivMode::kMachine);
  EXPECT_EQ(load_le32(word.data()), 777u);
  // A fork taken from the (pre-divergence) snapshot still sees the
  // original placeholder, not the master's patch.
  const ForkOutcome fresh = run_fork(lab, 9000, 5);
  EXPECT_EQ(fresh.result, 5u);
}

}  // namespace
}  // namespace convolve::tee::service
