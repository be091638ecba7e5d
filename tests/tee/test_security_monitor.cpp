#include "convolve/tee/security_monitor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "convolve/common/telemetry.hpp"
#include "convolve/crypto/keccak.hpp"

namespace convolve::tee {
namespace {

struct World {
  Machine machine{1 << 20};
  BootRecord boot;
  std::unique_ptr<SecurityMonitor> sm;

  explicit World(bool pq, std::size_t stack_bytes = 128 * 1024) {
    const Bootrom rom({pq}, DeviceKeys::from_entropy(Bytes(32, 0x42)));
    boot = rom.boot(Bytes(4096, 0xAB));  // SM image
    SmConfig config;
    config.stack_bytes = stack_bytes;
    sm = std::make_unique<SecurityMonitor>(machine, boot, config);
  }
};

TEST(SecurityMonitor, OsCannotTouchSmMemory) {
  World w(false);
  EXPECT_THROW(w.machine.load(0x100, 4, PrivMode::kSupervisor), AccessFault);
  EXPECT_THROW(w.machine.store(0x100, Bytes{1}, PrivMode::kSupervisor),
               AccessFault);
}

TEST(SecurityMonitor, OsCanUseRestOfDram) {
  World w(false);
  // Above the 128 KB SM region.
  w.machine.store(0x40000, Bytes{7}, PrivMode::kSupervisor);
  EXPECT_EQ(w.machine.load_byte(0x40000, PrivMode::kSupervisor), 7);
}

TEST(SecurityMonitor, EnclaveMemoryHiddenFromOs) {
  World w(false);
  const int id = w.sm->create_enclave(Bytes(256, 0xCD), 8192);
  const auto& e = w.sm->enclave(id);
  EXPECT_THROW(w.machine.load(e.base, 16, PrivMode::kSupervisor), AccessFault);
  EXPECT_THROW(w.machine.store(e.base, Bytes{0}, PrivMode::kSupervisor),
               AccessFault);
}

TEST(SecurityMonitor, EnclaveCanUseOwnMemoryWhileRunning) {
  World w(false);
  const int id = w.sm->create_enclave(Bytes(256, 0xCD), 8192);
  const auto& e = w.sm->enclave(id);
  w.sm->run_enclave(id, [&] {
    // U-mode access inside the enclave region succeeds...
    EXPECT_EQ(w.machine.load_byte(e.base, PrivMode::kUser), 0xCD);
    w.machine.store(e.base + 512, Bytes{0x77}, PrivMode::kUser);
    // ...but the OS's memory is unreachable from inside.
    EXPECT_THROW(w.machine.load(0x40000, 4, PrivMode::kUser), AccessFault);
  });
  // After the context switch back, the OS still cannot see the write.
  EXPECT_THROW(w.machine.load(e.base + 512, 1, PrivMode::kSupervisor),
               AccessFault);
}

TEST(SecurityMonitor, EnclavesIsolatedFromEachOther) {
  World w(false);
  const int a = w.sm->create_enclave(Bytes(128, 0x01), 8192);
  const int b = w.sm->create_enclave(Bytes(128, 0x02), 8192);
  const auto& eb = w.sm->enclave(b);
  w.sm->run_enclave(a, [&] {
    EXPECT_THROW(w.machine.load(eb.base, 4, PrivMode::kUser), AccessFault);
  });
}

TEST(SecurityMonitor, ExceptionInEnclaveRestoresOsView) {
  World w(false);
  const int id = w.sm->create_enclave(Bytes(128, 0x03), 8192);
  EXPECT_THROW(
      w.sm->run_enclave(id, [] { throw std::runtime_error("enclave crash"); }),
      std::runtime_error);
  // OS view restored: DRAM usable, enclave hidden.
  w.machine.store(0x40000, Bytes{1}, PrivMode::kSupervisor);
  EXPECT_THROW(w.machine.load(w.sm->enclave(id).base, 4, PrivMode::kSupervisor),
               AccessFault);
}

TEST(SecurityMonitor, DestroyWipesEnclaveMemory) {
  World w(false);
  const int id = w.sm->create_enclave(Bytes(64, 0xEE), 8192);
  const auto base = w.sm->enclave(id).base;
  w.sm->destroy_enclave(id);
  // Region is back under OS control and contains zeros.
  EXPECT_EQ(w.machine.load_byte(base, PrivMode::kSupervisor), 0x00);
  EXPECT_THROW(w.sm->run_enclave(id, [] {}), std::runtime_error);
}

TEST(SecurityMonitor, DestroyedEnclaveIsNotAttested) {
  World w(false);
  const int id = w.sm->create_enclave(Bytes(64, 0xEE), 8192);
  w.sm->destroy_enclave(id);
  // No signed report for an enclave that no longer exists.
  EXPECT_THROW(w.sm->attest(id, Bytes{1, 2, 3}), std::runtime_error);
  EXPECT_THROW(w.sm->local_attest(id), std::runtime_error);
  EXPECT_THROW(w.sm->run_enclave_program(id, 10), std::runtime_error);
}

TEST(SecurityMonitor, DestroyedEnclaveNeitherSealsNorUnseals) {
  World w(false);
  const int id = w.sm->create_enclave(Bytes(64, 0xEE), 8192);
  const Bytes blob = w.sm->seal(id, as_bytes("secret"));
  w.sm->destroy_enclave(id);
  EXPECT_THROW(w.sm->seal(id, as_bytes("secret")), std::runtime_error);
  EXPECT_THROW(w.sm->unseal(id, blob), std::runtime_error);
  // An unknown id stays out_of_range, not "destroyed".
  EXPECT_THROW(w.sm->seal(id + 1, as_bytes("secret")), std::out_of_range);
}

TEST(SecurityMonitor, AttestationVerifiesEndToEnd) {
  for (bool pq : {false, true}) {
    World w(pq);
    const Bytes binary(512, 0x3C);
    const int id = w.sm->create_enclave(binary, 8192);
    const auto report = w.sm->attest(id, as_bytes("session-key-fingerprint"));
    EXPECT_TRUE(verify_report(report, w.sm->trust_anchor())) << "pq=" << pq;
    // Pinned measurements.
    const Bytes expected_enclave = crypto::sha3_512(binary);
    EXPECT_TRUE(verify_report(report, w.sm->trust_anchor(),
                              &w.boot.sm_measurement, &expected_enclave));
    // Serialized size is exactly the Table III value.
    EXPECT_EQ(report.serialize().size(),
              pq ? kPqReportSize : kClassicalReportSize);
  }
}

TEST(SecurityMonitor, AttestationRoundTripsThroughSerialization) {
  World w(true);
  const int id = w.sm->create_enclave(Bytes(100, 0x9A), 8192);
  const auto report = w.sm->attest(id, as_bytes("data"));
  const auto parsed = AttestationReport::deserialize(report.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(verify_report(*parsed, w.sm->trust_anchor()));
  EXPECT_EQ(parsed->enclave_data, report.enclave_data);
}

TEST(SecurityMonitor, TamperedReportRejected) {
  World w(true);
  const int id = w.sm->create_enclave(Bytes(100, 0x9A), 8192);
  auto report = w.sm->attest(id, as_bytes("data"));
  {
    auto bad = report;
    bad.enclave_data[0] ^= 1;
    EXPECT_FALSE(verify_report(bad, w.sm->trust_anchor()));
  }
  {
    auto bad = report;
    bad.enclave_measurement[5] ^= 1;
    EXPECT_FALSE(verify_report(bad, w.sm->trust_anchor()));
  }
  {
    // Hybrid rule: breaking ONLY the ML-DSA signature must still reject.
    auto bad = report;
    bad.sm_sig_mldsa[100] ^= 1;
    EXPECT_FALSE(verify_report(bad, w.sm->trust_anchor()));
  }
  {
    // And breaking only the classical signature rejects too.
    auto bad = report;
    bad.sm_sig_ed25519[10] ^= 1;
    EXPECT_FALSE(verify_report(bad, w.sm->trust_anchor()));
  }
}

TEST(SecurityMonitor, WrongDeviceAnchorRejected) {
  World w1(true);
  World w2(true);
  // Different device entropy -> different anchor.
  const Bootrom rom2({true}, DeviceKeys::from_entropy(Bytes(32, 0x43)));
  const BootRecord boot2 = rom2.boot(Bytes(4096, 0xAB));
  SecurityMonitor sm2(w2.machine, boot2, {});
  const int id = w1.sm->create_enclave(Bytes(64, 1), 8192);
  const auto report = w1.sm->attest(id, {});
  EXPECT_FALSE(verify_report(report, sm2.trust_anchor()));
}

TEST(SecurityMonitor, DefaultStackOverflowsOnMlDsa) {
  // The paper's finding: 8 KB of SM stack is fine for Ed25519 but the
  // ML-DSA signing working set corrupts it; 128 KB fixes it.
  World classical(false, 8 * 1024);
  const int id1 = classical.sm->create_enclave(Bytes(64, 1), 8192);
  EXPECT_NO_THROW(classical.sm->attest(id1, {}));

  World pq_small(true, 8 * 1024);
  const int id2 = pq_small.sm->create_enclave(Bytes(64, 1), 8192);
  EXPECT_THROW(pq_small.sm->attest(id2, {}), StackOverflow);

  World pq_big(true, 128 * 1024);
  const int id3 = pq_big.sm->create_enclave(Bytes(64, 1), 8192);
  EXPECT_NO_THROW(pq_big.sm->attest(id3, {}));
  EXPECT_GT(pq_big.sm->stack().high_watermark(), 8u * 1024);
  EXPECT_LE(pq_big.sm->stack().high_watermark(), 128u * 1024);
}

TEST(SecurityMonitor, SealingRoundTrip) {
  World w(true);
  const int id = w.sm->create_enclave(Bytes(64, 0x10), 8192);
  const auto pt_view = as_bytes("proprietary model weights");
  const Bytes pt(pt_view.begin(), pt_view.end());
  const Bytes blob = w.sm->seal(id, pt);
  const auto opened = w.sm->unseal(id, blob);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(SecurityMonitor, SealingBoundToEnclaveMeasurement) {
  World w(true);
  const int a = w.sm->create_enclave(Bytes(64, 0x10), 8192);
  const int b = w.sm->create_enclave(Bytes(64, 0x20), 8192);  // different hash
  const Bytes blob = w.sm->seal(a, as_bytes("secret"));
  EXPECT_FALSE(w.sm->unseal(b, blob).has_value());
  EXPECT_TRUE(w.sm->unseal(a, blob).has_value());
}

TEST(SecurityMonitor, SealedBlobTamperRejected) {
  World w(false);
  const int id = w.sm->create_enclave(Bytes(64, 0x10), 8192);
  Bytes blob = w.sm->seal(id, as_bytes("secret"));
  blob[blob.size() - 1] ^= 1;
  EXPECT_FALSE(w.sm->unseal(id, blob).has_value());
}


TEST(SecurityMonitor, LocalAttestationVerifies) {
  World w(false);
  const int a = w.sm->create_enclave(Bytes(64, 0x01), 8192);
  const auto token = w.sm->local_attest(a);
  EXPECT_TRUE(w.sm->verify_local_attestation(token));
  EXPECT_EQ(token.target_measurement, w.sm->enclave(a).measurement);
}

TEST(SecurityMonitor, LocalAttestationTamperRejected) {
  World w(false);
  const int a = w.sm->create_enclave(Bytes(64, 0x01), 8192);
  auto token = w.sm->local_attest(a);
  token.target_measurement[3] ^= 1;
  EXPECT_FALSE(w.sm->verify_local_attestation(token));
  auto token2 = w.sm->local_attest(a);
  token2.mac[0] ^= 1;
  EXPECT_FALSE(w.sm->verify_local_attestation(token2));
  auto token3 = w.sm->local_attest(a);
  token3.target ^= 1;  // claim a different enclave id
  EXPECT_FALSE(w.sm->verify_local_attestation(token3));
}

TEST(SecurityMonitor, LocalAttestationDeviceBound) {
  World w1(false);
  World w2(false);
  // Same entropy but different SM images would differ; here even the same
  // construction yields different sealing roots per World machine? No --
  // same entropy + same image = same root. Use different entropy.
  const Bootrom rom({false}, DeviceKeys::from_entropy(Bytes(32, 0x44)));
  const BootRecord other_boot = rom.boot(Bytes(4096, 0xAB));
  SecurityMonitor other_sm(w2.machine, other_boot, {});
  const int a = w1.sm->create_enclave(Bytes(64, 0x02), 8192);
  const int b = other_sm.create_enclave(Bytes(64, 0x02), 8192);
  (void)b;
  const auto token = w1.sm->local_attest(a);
  EXPECT_FALSE(other_sm.verify_local_attestation(token));
}

TEST(SecurityMonitor, LocalAttestationRejectsAnotherMeasurement) {
  World w(false);
  const int a = w.sm->create_enclave(Bytes(64, 0x01), 8192);
  const int b = w.sm->create_enclave(Bytes(64, 0x02), 8192);
  auto token = w.sm->local_attest(a);
  token.target_measurement = w.sm->enclave(b).measurement;
  EXPECT_FALSE(w.sm->verify_local_attestation(token));
  // Nor does a's MAC vouch for b, whose measurement it never covered.
  auto swapped = w.sm->local_attest(b);
  swapped.mac = w.sm->local_attest(a).mac;
  EXPECT_FALSE(w.sm->verify_local_attestation(swapped));
}

TEST(SecurityMonitor, LocalAttestationRejectsWrongSizeFields) {
  World w(false);
  const int a = w.sm->create_enclave(Bytes(64, 0x01), 8192);
  const auto good = w.sm->local_attest(a);
  for (std::size_t n : {0u, 63u, 65u}) {
    auto token = good;
    token.target_measurement.resize(n, 0);
    EXPECT_FALSE(w.sm->verify_local_attestation(token)) << "measurement " << n;
  }
  for (std::size_t n : {0u, 31u, 33u, 64u}) {
    auto token = good;
    token.mac.resize(n, 0);
    EXPECT_FALSE(w.sm->verify_local_attestation(token)) << "mac " << n;
  }
  EXPECT_TRUE(w.sm->verify_local_attestation(good));
}

#if CONVOLVE_TELEMETRY_ENABLED
TEST(SecurityMonitor, LocalAttestationRejectionsRecordOneEventEach) {
  namespace tel = convolve::telemetry;
  World w(false);
  const int a = w.sm->create_enclave(Bytes(64, 0x01), 8192);
  const auto good = w.sm->local_attest(a);
  const auto mismatch_codes = [] {
    std::vector<int> codes;
    for (const tel::Event& e : tel::collect_events()) {
      if (e.kind ==
          static_cast<std::uint8_t>(tel::EventKind::kMeasurementMismatch)) {
        codes.push_back(e.code);
      }
    }
    return codes;
  };

  tel::reset_events();
  EXPECT_TRUE(w.sm->verify_local_attestation(good));
  EXPECT_TRUE(mismatch_codes().empty());

  auto malformed = good;
  malformed.mac.resize(31);
  tel::reset_events();
  EXPECT_FALSE(w.sm->verify_local_attestation(malformed));
  EXPECT_EQ(mismatch_codes(), std::vector<int>{0});  // 0 = malformed

  auto forged = good;
  forged.mac[7] ^= 0x80;
  tel::reset_events();
  EXPECT_FALSE(w.sm->verify_local_attestation(forged));
  EXPECT_EQ(mismatch_codes(), std::vector<int>{1});  // 1 = MAC mismatch
  tel::reset_events();
}
#endif

TEST(SecurityMonitor, AttestRejectsOversizedUserData) {
  World w(false);
  const int id = w.sm->create_enclave(Bytes(64, 1), 8192);
  EXPECT_THROW(w.sm->attest(id, Bytes(kEnclaveDataMax + 1, 0)),
               std::invalid_argument);
  EXPECT_NO_THROW(w.sm->attest(id, Bytes(kEnclaveDataMax, 0)));
}

TEST(SecurityMonitor, EnclaveSlotsAreBounded) {
  World w(false);
  for (int i = 0; i < 14; ++i) {
    w.sm->create_enclave(Bytes(16, static_cast<std::uint8_t>(i)), 4096);
  }
  EXPECT_THROW(w.sm->create_enclave(Bytes(16, 0xFF), 4096),
               std::runtime_error);
}

}  // namespace
}  // namespace convolve::tee
