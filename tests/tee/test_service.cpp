// Enclave-execution service: request-loop semantics over CoW forks.
//
// Covers the full request path -- TDM admission (per-tenant slots,
// backpressure), split(seq)-deterministic run inputs, attest/seal/unseal
// against forked SM state, containment of trapping requests, response
// ordering, and the stats/percentile summaries -- plus the determinism
// contract: a fixed submission sequence yields bit-identical response
// payloads at every thread count.
#include "convolve/tee/service/enclave_service.hpp"

#include <gtest/gtest.h>

#include "convolve/common/parallel.hpp"
#include "convolve/crypto/keccak.hpp"

namespace convolve::tee::service {
namespace {

namespace rv = rv32asm;

// Program: sum `len` input bytes at region offset 0x600 into a word at
// region offset 0x700, then ecall. x6 = region base via auipc at entry.
Bytes sum_input_program(int len) {
  return rv::assemble({
      rv::auipc(6, 0),
      rv::addi(5, 0, 0),
      rv::addi(7, 0, 0),
      rv::addi(8, 0, len),
      // loop: (offset 0x10)
      rv::add(9, 6, 7),
      // 0x600 stays inside the signed 12-bit I-type immediate range --
      // 0x800 would sign-extend to -2048 and read below the region.
      rv::lbu(10, 9, 0x600),
      rv::add(5, 5, 10),
      rv::addi(7, 7, 1),
      rv::bne(7, 8, -16),
      rv::sw(5, 6, 0x700),
      rv::ecall(),
  });
}

constexpr int kInputLen = 48;

struct ServiceWorld {
  Machine machine{1 << 20};
  BootRecord boot;
  std::unique_ptr<SecurityMonitor> sm;
  int enclave = -1;

  explicit ServiceWorld(const Bytes& binary) {
    const Bootrom rom({false}, DeviceKeys::from_entropy(Bytes(32, 0x11)));
    boot = rom.boot(Bytes(4096, 0xAB));
    sm = std::make_unique<SecurityMonitor>(machine, boot, SmConfig{});
    enclave = sm->create_enclave(binary, 8192);
  }

  EnclaveService make_service(const ServiceConfig& config = {}) const {
    return EnclaveService(MachineSnapshot::freeze(machine, *sm), config);
  }
};

Request run_request(int enclave, std::uint32_t input_len = kInputLen) {
  Request r;
  r.kind = RequestKind::kRun;
  r.enclave = enclave;
  r.max_steps = 100000;
  r.input_offset = 0x600;
  r.input_len = input_len;
  r.result_offset = 0x700;
  r.result_len = 4;
  return r;
}

std::uint32_t expected_sum(std::uint64_t seed, std::uint64_t seq,
                           std::uint32_t len) {
  Bytes input(len);
  Xoshiro256(seed).split(seq).fill_bytes(input);
  std::uint32_t sum = 0;
  for (std::uint8_t b : input) sum += b;
  return sum;
}

TEST(EnclaveService, RunComputesOverSplitStreamInput) {
  ServiceWorld w(sum_input_program(kInputLen));
  auto service = w.make_service();
  const Request req = run_request(w.enclave);
  const auto responses = service.run_batch({req, req, req});
  ASSERT_EQ(responses.size(), 3u);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    const Response& r = responses[seq];
    EXPECT_EQ(r.seq, seq);
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    ASSERT_TRUE(r.trap.has_value());
    EXPECT_EQ(r.trap->cause, TrapCause::kEcall);
    ASSERT_EQ(r.data.size(), 4u);
    // Each request saw its own split(seq) input stream.
    EXPECT_EQ(load_le32(r.data.data()),
              expected_sum(ServiceConfig{}.seed, seq, kInputLen));
  }
  // Distinct streams: at least one pair of sums should differ.
  EXPECT_FALSE(responses[0].data == responses[1].data &&
               responses[1].data == responses[2].data);
}

TEST(EnclaveService, BitIdenticalResponsesAtEveryThreadCount) {
  ServiceWorld w(sum_input_program(kInputLen));
  auto run_at = [&](int threads) {
    par::ScopedThreadCount guard(threads);
    auto service = w.make_service();
    std::vector<Request> batch;
    for (int i = 0; i < 24; ++i) {
      Request r = run_request(w.enclave);
      r.max_steps = (i % 3 == 0) ? 50 : 100000;  // mix in step-limited runs
      batch.push_back(r);
    }
    return service.run_batch(batch);
  };
  const auto base = run_at(1);
  for (int threads : {2, 4, 7}) {
    const auto got = run_at(threads);
    ASSERT_EQ(got.size(), base.size()) << threads << " threads";
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i].status, base[i].status) << i;
      EXPECT_EQ(got[i].data, base[i].data) << i;
      EXPECT_EQ(got[i].steps, base[i].steps) << i;
      EXPECT_EQ(got[i].trap.has_value(), base[i].trap.has_value()) << i;
    }
  }
}

TEST(EnclaveService, AttestSealUnsealRoundTrip) {
  ServiceWorld w(sum_input_program(kInputLen));
  auto service = w.make_service();

  Request attest;
  attest.kind = RequestKind::kAttest;
  attest.enclave = w.enclave;
  attest.payload = Bytes{1, 2, 3};

  Request seal;
  seal.kind = RequestKind::kSeal;
  seal.enclave = w.enclave;
  const ByteView secret = as_bytes("fork-sealed secret");
  seal.payload = Bytes(secret.begin(), secret.end());

  auto first = service.run_batch({attest, seal, seal});
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(first[0].status, Status::kOk) << first[0].error;
  ASSERT_TRUE(first[0].report.has_value());
  EXPECT_TRUE(verify_report(*first[0].report, w.sm->trust_anchor()));
  EXPECT_EQ(first[0].report->enclave_data, (Bytes{1, 2, 3}));

  ASSERT_EQ(first[1].status, Status::kOk) << first[1].error;
  ASSERT_EQ(first[2].status, Status::kOk);
  // Same plaintext sealed by two forks: fork-id-keyed nonces make the
  // blobs distinct (no nonce reuse across forks sharing one snapshot).
  EXPECT_NE(first[1].data, first[2].data);

  // Both blobs unseal -- and so does a blob sealed by the master before
  // the snapshot (fork id 0 keeps the pre-fork nonce space).
  const Bytes master_blob = w.sm->seal(w.enclave, seal.payload);
  Request unseal;
  unseal.kind = RequestKind::kUnseal;
  unseal.enclave = w.enclave;
  std::vector<Request> batch;
  for (const Bytes& blob : {first[1].data, first[2].data, master_blob}) {
    unseal.payload = blob;
    batch.push_back(unseal);
  }
  const auto second = service.run_batch(batch);
  for (const auto& r : second) {
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(r.data, seal.payload);
  }

  // A tampered blob fails authentication.
  unseal.payload = first[1].data;
  unseal.payload[unseal.payload.size() / 2] ^= 1;
  const auto bad = service.run_batch({unseal});
  EXPECT_EQ(bad[0].status, Status::kError);
}

TEST(EnclaveService, TrappingAndRunawayRequestsAreContained) {
  // Escape attempt: read OS memory at 0x80000 from inside the enclave.
  ServiceWorld w(rv::assemble({
      rv::lui(1, 0x80),
      rv::lw(2, 1, 0),
      rv::ecall(),
  }));
  auto service = w.make_service();
  Request escape;
  escape.kind = RequestKind::kRun;
  escape.enclave = w.enclave;
  escape.max_steps = 100;
  const auto r = service.run_batch({escape, escape});
  for (const auto& resp : r) {
    ASSERT_EQ(resp.status, Status::kTrap);
    ASSERT_TRUE(resp.trap.has_value());
    EXPECT_EQ(resp.trap->cause, TrapCause::kLoadAccessFault);
    EXPECT_EQ(resp.trap->tval, 0x80000u);
  }
  // The master world is untouched by the contained violations.
  EXPECT_NO_THROW(w.machine.store(0x80000, Bytes{1}, PrivMode::kSupervisor));

  ServiceWorld loop(rv::assemble({rv::jal(0, 0)}));
  auto loop_service = loop.make_service();
  Request runaway;
  runaway.kind = RequestKind::kRun;
  runaway.enclave = loop.enclave;
  runaway.max_steps = 500;
  const auto lr = loop_service.run_batch({runaway});
  ASSERT_EQ(lr[0].status, Status::kStepLimit);
  EXPECT_EQ(lr[0].steps, 500u);
}

TEST(EnclaveService, TdmBackpressureShedsFloodingTenant) {
  ServiceWorld w(sum_input_program(kInputLen));
  ServiceConfig config;
  config.tdm_period = 8;
  config.tdm_max_wait = 2;
  config.tenant_slots = {{0, 4}, {1, 2, 3, 5, 6, 7}};  // A: 2 slots, B: 6
  auto service = w.make_service(config);

  std::vector<Request> batch;
  for (int round = 0; round < 20; ++round) {
    for (int burst = 0; burst < 6; ++burst) {
      Request r = run_request(w.enclave, 4);
      r.tenant = 0;  // flooding tenant
      batch.push_back(r);
    }
    Request r = run_request(w.enclave, 4);
    r.tenant = 1;  // well-behaved tenant
    batch.push_back(r);
  }
  const auto responses = service.run_batch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  std::uint64_t tenant0_ok = 0, tenant0_rejected = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const bool is_tenant1 = (i % 7 == 6);
    if (is_tenant1) {
      // Composability: the flood never starves tenant 1.
      EXPECT_EQ(responses[i].status, Status::kOk) << responses[i].error;
      EXPECT_LT(responses[i].wait_slots, 2);
    } else if (responses[i].status == Status::kRejected) {
      ++tenant0_rejected;
      EXPECT_EQ(responses[i].steps, 0u);  // shed before any execution
    } else {
      ++tenant0_ok;
    }
  }
  EXPECT_GT(tenant0_rejected, 0u);
  EXPECT_GT(tenant0_ok, 0u);
  const auto& stats = service.stats();
  EXPECT_EQ(stats.rejected, tenant0_rejected);
  EXPECT_EQ(stats.admitted + stats.rejected, stats.submitted);
}

TEST(EnclaveService, QueueCapRejectsBeyondMaxPending) {
  ServiceWorld w(sum_input_program(4));
  ServiceConfig config;
  config.max_pending = 5;
  auto service = w.make_service(config);
  for (int i = 0; i < 9; ++i) service.submit(run_request(w.enclave, 4));
  EXPECT_EQ(service.pending(), 5u);
  const auto responses = service.drain();
  ASSERT_EQ(responses.size(), 9u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(responses[i].status, Status::kOk) << responses[i].error;
  }
  for (std::size_t i = 5; i < 9; ++i) {
    EXPECT_EQ(responses[i].status, Status::kRejected);
    EXPECT_EQ(responses[i].error, "pending queue full");
  }
  // The queue drained; the next batch is admitted again.
  service.submit(run_request(w.enclave, 4));
  EXPECT_EQ(service.drain()[0].status, Status::kOk);
}

TEST(EnclaveService, InvalidRequestsAnswerErrors) {
  ServiceWorld w(sum_input_program(4));
  auto service = w.make_service();

  Request bad_tenant = run_request(w.enclave, 4);
  bad_tenant.tenant = 3;  // single-tenant default config
  Request bad_enclave = run_request(7, 4);
  Request bad_window = run_request(w.enclave, 4);
  bad_window.result_offset = 8190;  // 8190 + 4 > 8192
  const auto responses =
      service.run_batch({bad_tenant, bad_enclave, bad_window});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, Status::kError);
  EXPECT_EQ(responses[0].error, "unknown tenant");
  EXPECT_EQ(responses[1].status, Status::kError);
  EXPECT_EQ(responses[2].status, Status::kError);
  EXPECT_NE(responses[2].error.find("window"), std::string::npos);
}

TEST(EnclaveService, DestroyedEnclaveAnswersErrorToEveryKind) {
  // The enclave is destroyed before the snapshot is frozen, so every fork
  // sees it dead: no run, no report, no sealing under its key.
  ServiceWorld w(sum_input_program(kInputLen));
  const Bytes blob = w.sm->seal(w.enclave, as_bytes("secret"));
  w.sm->destroy_enclave(w.enclave);
  auto service = w.make_service();

  Request attest;
  attest.kind = RequestKind::kAttest;
  attest.enclave = w.enclave;
  Request seal = attest;
  seal.kind = RequestKind::kSeal;
  seal.payload = Bytes{1, 2, 3};
  Request unseal = attest;
  unseal.kind = RequestKind::kUnseal;
  unseal.payload = blob;
  const auto responses =
      service.run_batch({run_request(w.enclave), attest, seal, unseal});
  ASSERT_EQ(responses.size(), 4u);
  for (const Response& r : responses) {
    EXPECT_EQ(r.status, Status::kError) << r.seq;
    EXPECT_NE(r.error.find("destroyed"), std::string::npos) << r.error;
    EXPECT_FALSE(r.report.has_value()) << r.seq;
    EXPECT_TRUE(r.data.empty()) << r.seq;
  }
}

TEST(EnclaveService, StatsFoldAndPercentiles) {
  ServiceWorld w(sum_input_program(8));
  auto service = w.make_service();
  std::vector<Request> batch(16, run_request(w.enclave, 8));
  service.run_batch(batch);
  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.submitted, 16u);
  EXPECT_EQ(stats.admitted, 16u);
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.ok, 16u);
  EXPECT_EQ(stats.forks, 16u);
  EXPECT_EQ(stats.latency_ns.count, 16u);
  EXPECT_EQ(stats.fork_ns.count, 16u);
  // Latency percentiles: nonzero, ordered, and p99 bounds the mean.
  const std::uint64_t p50 = stats.latency_ns.percentile(50);
  const std::uint64_t p99 = stats.latency_ns.percentile(99);
  EXPECT_GT(p50, 0u);
  EXPECT_LE(p50, p99);
  EXPECT_LE(stats.fork_ns.percentile(50), stats.latency_ns.percentile(50));
}

TEST(EnclaveService, SnapshotStaysPristineAcrossBatches) {
  ServiceWorld w(sum_input_program(kInputLen));
  auto service = w.make_service();
  const Bytes before(service.snapshot().image().bytes);
  std::vector<Request> batch(32, run_request(w.enclave));
  service.run_batch(batch);
  service.run_batch(batch);
  EXPECT_EQ(service.snapshot().image().bytes, before);
}

}  // namespace
}  // namespace convolve::tee::service
