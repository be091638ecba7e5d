#include "convolve/tee/machine.hpp"

#include <gtest/gtest.h>

namespace convolve::tee {
namespace {

TEST(Machine, MachineModeCanReadWrite) {
  Machine m(64 * 1024);
  const Bytes data = {1, 2, 3, 4};
  m.store(0x100, data, PrivMode::kMachine);
  EXPECT_EQ(m.load(0x100, 4, PrivMode::kMachine), data);
}

TEST(Machine, SupervisorDeniedWithoutPmpEntry) {
  Machine m(64 * 1024);
  EXPECT_THROW(m.load(0x100, 4, PrivMode::kSupervisor), AccessFault);
  EXPECT_THROW(m.store(0x100, Bytes{1}, PrivMode::kUser), AccessFault);
}

TEST(Machine, SupervisorAllowedThroughPmpEntry) {
  Machine m(64 * 1024);
  PmpEntry e;
  e.mode = PmpAddressMode::kNapot;
  e.address = PmpUnit::encode_napot(0x1000, 0x1000);
  e.read = true;
  e.write = true;
  m.pmp().set_entry(0, e);
  m.store(0x1000, Bytes{9}, PrivMode::kSupervisor);
  EXPECT_EQ(m.load_byte(0x1000, PrivMode::kSupervisor), 9);
}

TEST(Machine, OutOfBoundsFaults) {
  Machine m(4096);
  EXPECT_THROW(m.load(4095, 2, PrivMode::kMachine), AccessFault);
  EXPECT_THROW(m.store(4096, Bytes{1}, PrivMode::kMachine), AccessFault);
}

TEST(Machine, AccessFaultCarriesDetails) {
  Machine m(4096);
  try {
    m.load(0x20, 4, PrivMode::kUser);
    FAIL() << "expected AccessFault";
  } catch (const AccessFault& fault) {
    EXPECT_EQ(fault.address, 0x20u);
    EXPECT_EQ(fault.access, AccessType::kRead);
  }
}

TEST(Machine, OutOfBoundsFaultsCarryRealAccessType) {
  // Regression: bounds faults used to be attributed to kRead regardless
  // of the access, mislabeling store/fetch trap causes in SM logs.
  Machine m(4096);
  try {
    m.store(4096, Bytes{1}, PrivMode::kMachine);
    FAIL() << "expected AccessFault";
  } catch (const AccessFault& fault) {
    EXPECT_EQ(fault.access, AccessType::kWrite);
  }
  try {
    m.fetch32(4094, PrivMode::kMachine);
    FAIL() << "expected AccessFault";
  } catch (const AccessFault& fault) {
    EXPECT_EQ(fault.access, AccessType::kExecute);
  }
  try {
    m.load(4095, 2, PrivMode::kMachine);
    FAIL() << "expected AccessFault";
  } catch (const AccessFault& fault) {
    EXPECT_EQ(fault.access, AccessType::kRead);
  }
  try {
    m.fill(4000, 200, 0, PrivMode::kMachine);
    FAIL() << "expected AccessFault";
  } catch (const AccessFault& fault) {
    EXPECT_EQ(fault.access, AccessType::kWrite);
  }
}

TEST(Machine, CanExecuteRejectsWrappingRange) {
  // addr + len wraps past 2^64: the range is out of bounds, exactly as
  // the fetch on the same address faults.
  Machine m(64 * 1024);
  EXPECT_FALSE(m.can_execute(~0ull, 2, PrivMode::kMachine));
  EXPECT_THROW(m.fetch32(~0ull, PrivMode::kMachine), AccessFault);
  EXPECT_TRUE(m.can_execute(0x100, 4, PrivMode::kMachine));
}

TEST(Machine, FillMatchesStoreSemantics) {
  Machine m(64 * 1024);
  m.fill(0x200, 64, 0xAB, PrivMode::kMachine);
  EXPECT_EQ(m.load(0x200, 64, PrivMode::kMachine), Bytes(64, 0xAB));
  // Same PMP gating as store: U-mode without a matching entry is denied.
  EXPECT_THROW(m.fill(0x200, 64, 0, PrivMode::kUser), AccessFault);
}

TEST(Machine, FastAccessorsRoundTrip) {
  Machine m(64 * 1024);
  ASSERT_TRUE(m.write32(0x100, 0xdeadbeefu, PrivMode::kMachine));
  std::uint32_t w = 0;
  ASSERT_TRUE(m.read32(0x100, PrivMode::kMachine, w));
  EXPECT_EQ(w, 0xdeadbeefu);
  std::uint16_t h = 0;
  ASSERT_TRUE(m.read16(0x102, PrivMode::kMachine, h));
  EXPECT_EQ(h, 0xdeadu);
  std::uint8_t b = 0;
  ASSERT_TRUE(m.read8(0x103, PrivMode::kMachine, b));
  EXPECT_EQ(b, 0xdeu);
  // Fast path agrees with the legacy throwing path.
  EXPECT_EQ(m.load(0x100, 4, PrivMode::kMachine), (Bytes{0xef, 0xbe, 0xad, 0xde}));
  // Out of bounds / denied: status false, no throw.
  EXPECT_FALSE(m.read32(64 * 1024 - 2, PrivMode::kMachine, w));
  EXPECT_FALSE(m.read32(0x100, PrivMode::kUser, w));
  EXPECT_FALSE(m.write8(0x100, 1, PrivMode::kUser));
}

TEST(Machine, PmpMemoInvalidatedByReprogramming) {
  Machine m(64 * 1024);
  PmpEntry e;
  e.mode = PmpAddressMode::kNapot;
  e.address = PmpUnit::encode_napot(0x1000, 0x1000);
  e.read = true;
  m.pmp().set_entry(0, e);
  std::uint32_t w = 0;
  ASSERT_TRUE(m.read32(0x1000, PrivMode::kUser, w));  // memoizes the window
  ASSERT_TRUE(m.read32(0x1ffc, PrivMode::kUser, w));  // memo hit
  e.read = false;
  m.pmp().set_entry(0, e);  // bumps the PMP epoch
  EXPECT_FALSE(m.read32(0x1000, PrivMode::kUser, w));
  // And the memo must not leak across privilege modes either.
  e.read = true;
  m.pmp().set_entry(0, e);
  ASSERT_TRUE(m.read32(0x1000, PrivMode::kUser, w));
  e.read = false;
  e.locked = false;
  m.pmp().set_entry(1, PmpEntry{});  // unrelated entry: epoch still bumps
  ASSERT_TRUE(m.read32(0x1000, PrivMode::kUser, w));
}

TEST(Machine, PageVersionBumpsOnStores) {
  Machine m(64 * 1024);
  const auto v0 = m.page_version(0x1000);
  m.store(0x1000, Bytes{1, 2, 3, 4}, PrivMode::kMachine);
  const auto v1 = m.page_version(0x1000);
  EXPECT_NE(v0, v1);
  ASSERT_TRUE(m.write8(0x1fff, 7, PrivMode::kMachine));
  EXPECT_NE(v1, m.page_version(0x1000));
  // A write straddling two pages bumps both.
  const auto p2 = m.page_version(0x2000);
  ASSERT_TRUE(m.write32(0x1ffe, 0x11223344u, PrivMode::kMachine));
  EXPECT_NE(p2, m.page_version(0x2000));
  // Writes elsewhere leave the page untouched.
  const auto v2 = m.page_version(0x1000);
  m.fill(0x8000, 16, 0xFF, PrivMode::kMachine);
  EXPECT_EQ(v2, m.page_version(0x1000));
}

TEST(Machine, ExecutePermissionIsSeparate) {
  Machine m(64 * 1024);
  PmpEntry e;
  e.mode = PmpAddressMode::kNapot;
  e.address = PmpUnit::encode_napot(0x2000, 0x1000);
  e.read = true;  // readable but not executable
  m.pmp().set_entry(0, e);
  EXPECT_FALSE(m.can_execute(0x2000, 16, PrivMode::kUser));
  PmpEntry ex = e;
  ex.execute = true;
  m.pmp().set_entry(0, ex);
  EXPECT_TRUE(m.can_execute(0x2000, 16, PrivMode::kUser));
}

TEST(SimStack, TracksUsageAndWatermark) {
  SimStack stack(1000);
  EXPECT_EQ(stack.used(), 0u);
  {
    StackFrame a(stack, 400);
    EXPECT_EQ(stack.used(), 400u);
    {
      StackFrame b(stack, 500);
      EXPECT_EQ(stack.used(), 900u);
    }
    EXPECT_EQ(stack.used(), 400u);
  }
  EXPECT_EQ(stack.used(), 0u);
  EXPECT_EQ(stack.high_watermark(), 900u);
}

TEST(SimStack, OverflowThrows) {
  SimStack stack(100);
  StackFrame a(stack, 60);
  EXPECT_THROW(StackFrame(stack, 50), StackOverflow);
  // State unchanged after the failed push.
  EXPECT_EQ(stack.used(), 60u);
}

TEST(SimStack, WatermarkSurvivesPop) {
  SimStack stack(1 << 20);
  stack.push(5000);
  stack.pop(5000);
  EXPECT_EQ(stack.high_watermark(), 5000u);
  stack.reset_watermark();
  EXPECT_EQ(stack.high_watermark(), 0u);
}

// --- Copy-on-write forking ----------------------------------------------

TEST(MachineCow, ForkSeesFrozenBytesWithoutCopying) {
  Machine master(64 * 1024);
  master.store(0x100, Bytes{1, 2, 3, 4}, PrivMode::kMachine);
  master.store(0x5000, Bytes{9, 8, 7}, PrivMode::kMachine);
  const auto image = master.freeze();
  Machine fork(image);
  EXPECT_TRUE(fork.is_fork());
  EXPECT_FALSE(master.is_fork());
  EXPECT_EQ(fork.cow_pages_materialized(), 0u);
  EXPECT_EQ(fork.load(0x100, 4, PrivMode::kMachine), (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(fork.load(0x5000, 3, PrivMode::kMachine), (Bytes{9, 8, 7}));
  // Reads alone never materialize.
  EXPECT_EQ(fork.cow_pages_materialized(), 0u);
  // The fork's pages literally alias the image until first write.
  EXPECT_EQ(fork.page_data(0), image->bytes.data());
}

TEST(MachineCow, WriteMaterializesOnlyTheTouchedPage) {
  Machine master(64 * 1024);
  master.store(0x100, Bytes{0xAA}, PrivMode::kMachine);
  const auto image = master.freeze();
  Machine fork(image);
  fork.store(0x2004, Bytes{0x55}, PrivMode::kMachine);
  EXPECT_EQ(fork.cow_pages_materialized(), 1u);
  // The touched page is private now; untouched pages still alias.
  EXPECT_NE(fork.page_data(0x2000), image->bytes.data() + 0x2000);
  EXPECT_EQ(fork.page_data(0), image->bytes.data());
  // Fork sees its write plus the inherited bytes around it.
  EXPECT_EQ(fork.load_byte(0x2004, PrivMode::kMachine), 0x55);
  EXPECT_EQ(fork.load_byte(0x100, PrivMode::kMachine), 0xAA);
  // The image and the master never change.
  EXPECT_EQ(image->bytes[0x2004], 0);
  EXPECT_EQ(master.load_byte(0x2004, PrivMode::kMachine), 0);
}

TEST(MachineCow, ForksAreMutuallyIndependent) {
  Machine master(32 * 1024);
  master.store(0, Bytes{1, 1, 1, 1}, PrivMode::kMachine);
  const auto image = master.freeze();
  Machine a(image);
  Machine b(image);
  a.store(0, Bytes{2}, PrivMode::kMachine);
  b.store(1, Bytes{3}, PrivMode::kMachine);
  EXPECT_EQ(a.load(0, 4, PrivMode::kMachine), (Bytes{2, 1, 1, 1}));
  EXPECT_EQ(b.load(0, 4, PrivMode::kMachine), (Bytes{1, 3, 1, 1}));
  EXPECT_EQ(image->bytes[0], 1);
  EXPECT_EQ(image->bytes[1], 1);
}

TEST(MachineCow, ForkInheritsPmpAndPageVersions) {
  Machine master(64 * 1024);
  PmpEntry e;
  e.mode = PmpAddressMode::kNapot;
  e.address = PmpUnit::encode_napot(0x1000, 0x1000);
  e.read = true;
  e.write = true;
  master.pmp().set_entry(0, e);
  master.store(0x1000, Bytes{5}, PrivMode::kSupervisor);  // bumps version
  const std::uint32_t v = master.page_version(0x1000);
  Machine fork(master.freeze());
  // PMP plan carried over: S-mode read allowed without reprogramming.
  EXPECT_EQ(fork.load_byte(0x1000, PrivMode::kSupervisor), 5);
  EXPECT_THROW(fork.load(0x8000, 1, PrivMode::kSupervisor), AccessFault);
  // Page versions carried over, and keep advancing independently.
  EXPECT_EQ(fork.page_version(0x1000), v);
  fork.store(0x1000, Bytes{6}, PrivMode::kSupervisor);
  EXPECT_EQ(fork.page_version(0x1000), v + 1);
  EXPECT_EQ(master.page_version(0x1000), v);
}

TEST(MachineCow, PageCrossingAccessesSpliceAcrossMixedPages) {
  Machine master(16 * 1024);
  master.store(0x0FFE, Bytes{0x11, 0x22, 0x33, 0x44}, PrivMode::kMachine);
  Machine fork(master.freeze());
  // Materialize only the second page, leaving the first aliased: the
  // crossing read must splice one aliased and one private page.
  fork.store(0x1800, Bytes{0xEE}, PrivMode::kMachine);
  EXPECT_EQ(fork.cow_pages_materialized(), 1u);
  std::uint32_t v = 0;
  ASSERT_TRUE(fork.read32(0x0FFE, PrivMode::kMachine, v));
  EXPECT_EQ(v, 0x44332211u);
  // A crossing write materializes both pages and lands in both.
  ASSERT_TRUE(fork.write32(0x0FFE, 0xAABBCCDD, PrivMode::kMachine));
  EXPECT_EQ(fork.cow_pages_materialized(), 2u);
  ASSERT_TRUE(fork.read32(0x0FFE, PrivMode::kMachine, v));
  EXPECT_EQ(v, 0xAABBCCDDu);
  EXPECT_EQ(master.load_byte(0x0FFE, PrivMode::kMachine), 0x11);
}

TEST(MachineCow, StoreAndFillSpanManyPages) {
  Machine master(64 * 1024);
  Machine fork(master.freeze());
  const Bytes big(3 * 4096 + 123, 0x5C);
  fork.store(0x0800, big, PrivMode::kMachine);
  EXPECT_EQ(fork.load(0x0800, big.size(), PrivMode::kMachine), big);
  fork.fill(0x3000, 8192, 0x7F, PrivMode::kMachine);
  EXPECT_EQ(fork.load_byte(0x3000, PrivMode::kMachine), 0x7F);
  EXPECT_EQ(fork.load_byte(0x4FFF, PrivMode::kMachine), 0x7F);
  // Master untouched throughout.
  EXPECT_EQ(master.load_byte(0x3000, PrivMode::kMachine), 0);
}

TEST(MachineCow, RawMemoryMaterializesEverything) {
  Machine master(32 * 1024);
  master.store(0x100, Bytes{0xA1, 0xA2}, PrivMode::kMachine);
  const auto image = master.freeze();
  Machine fork(image);
  auto ram = fork.raw_memory();
  ASSERT_EQ(ram.size(), 32u * 1024);
  EXPECT_EQ(ram[0x100], 0xA1);
  EXPECT_EQ(fork.cow_pages_materialized(), 32u * 1024 / 4096);
  // The span is private: writing through it never reaches the image.
  ram[0x100] = 0xB1;
  EXPECT_EQ(image->bytes[0x100], 0xA1);
}

TEST(MachineCow, FreezeDecodesEachNonzeroCodePageOnce) {
  // Code ranges [0x1000, 0x4000) and [0x3800, 0x3900): page 0x2000 is all
  // zero and page 0x5000 lies outside both ranges, so only pages 0x1000
  // and 0x3000 (named twice) land in the table, each once, stamped with
  // its version.
  Machine master(64 * 1024);
  master.store(0x1000, Bytes{0x13, 0, 0, 0}, PrivMode::kMachine);
  master.store(0x3804, Bytes{0x73, 0, 0, 0}, PrivMode::kMachine);
  master.store(0x5000, Bytes{0x13, 0, 0, 0}, PrivMode::kMachine);
  const MemRange code[] = {{0x1000, 0x3000}, {0x3800, 0x100}};
  const auto image = master.freeze(code);
  ASSERT_EQ(image->code.size(), 2u);
  EXPECT_EQ(image->code[0].base, 0x1000u);
  EXPECT_EQ(image->code[1].base, 0x3000u);
  EXPECT_EQ(image->code[0].version, master.page_version(0x1000));
  EXPECT_EQ(image->code[1].version, master.page_version(0x3000));
  EXPECT_EQ(image->code[1].words[0x804 / 4], 0x73u);

  // A fork executes the shared decode until it writes the page; then it
  // gets a private, refreshed copy and the image's decode stays put.
  Machine fork(image);
  EXPECT_EQ(&fork.decoded_page(0x1000), &image->code[0]);
  fork.store(0x1004, Bytes{0x73, 0, 0, 0}, PrivMode::kMachine);
  const DecodedPage& mine = fork.decoded_page(0x1000);
  EXPECT_NE(&mine, &image->code[0]);
  EXPECT_EQ(mine.words[1], 0x73u);
  EXPECT_EQ(image->code[0].words[1], 0u);
  EXPECT_EQ(mine.bytecode[2].handler, image->code[0].bytecode[2].handler);
}

TEST(MachineCow, FreezingAForkCapturesItsDivergedState) {
  Machine master(32 * 1024);
  master.store(0, Bytes{1}, PrivMode::kMachine);
  Machine fork(master.freeze());
  fork.store(0, Bytes{2}, PrivMode::kMachine);
  fork.store(0x4000, Bytes{3}, PrivMode::kMachine);
  // Re-freeze the fork (mix of materialized and aliased pages).
  Machine grandchild(fork.freeze());
  EXPECT_EQ(grandchild.load_byte(0, PrivMode::kMachine), 2);
  EXPECT_EQ(grandchild.load_byte(0x4000, PrivMode::kMachine), 3);
}

TEST(MachineCow, PartialLastPageRoundTrips) {
  // A memory size that is not a page multiple: the tail page is partial
  // and must freeze/fork/materialize without reading past the end.
  const std::size_t size = 2 * 4096 + 100;
  Machine master(size);
  master.store(size - 4, Bytes{1, 2, 3, 4}, PrivMode::kMachine);
  Machine fork(master.freeze());
  EXPECT_EQ(fork.load(size - 4, 4, PrivMode::kMachine), (Bytes{1, 2, 3, 4}));
  fork.store(size - 1, Bytes{9}, PrivMode::kMachine);
  EXPECT_EQ(fork.load_byte(size - 1, PrivMode::kMachine), 9);
  EXPECT_EQ(master.load_byte(size - 1, PrivMode::kMachine), 4);
}

}  // namespace
}  // namespace convolve::tee
