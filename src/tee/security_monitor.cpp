#include "convolve/tee/security_monitor.hpp"

#include <stdexcept>
#include <string>

#include "convolve/common/telemetry.hpp"
#include "convolve/crypto/aead.hpp"
#include "convolve/crypto/hmac.hpp"
#include "convolve/crypto/keccak.hpp"

namespace convolve::tee {

namespace {

#if CONVOLVE_TELEMETRY_ENABLED
// Flight-recorder taxonomy of an enclave run's exit: voluntary exits
// (ecall/ebreak) are clean and emit nothing here -- the service's
// request_done event carries their status; everything else is a
// security-relevant occurrence attributed to the current context.
void record_trap_exit(const RequestContext& ctx,
                      const Rv32Cpu::RunResult& result) {
  namespace tel = convolve::telemetry;
  if (!result.trap) {
    tel::record_event(tel::EventKind::kStepLimit, ctx, 0, result.steps);
    return;
  }
  const Trap& trap = *result.trap;
  switch (trap.cause) {
    case TrapCause::kEcall:
    case TrapCause::kEbreak:
      return;
    case TrapCause::kLoadAccessFault:
      tel::record_event(tel::EventKind::kPmpFault, ctx, 0, trap.tval);
      return;
    case TrapCause::kStoreAccessFault:
      tel::record_event(tel::EventKind::kPmpFault, ctx, 1, trap.tval);
      return;
    case TrapCause::kInstructionAccessFault:
      tel::record_event(tel::EventKind::kPmpFault, ctx, 2, trap.tval);
      return;
    case TrapCause::kIllegalInstruction:
      tel::record_event(tel::EventKind::kIllegalInsn, ctx, 0, trap.tval);
      return;
    case TrapCause::kMisalignedFetch:
      tel::record_event(tel::EventKind::kMisalignedFetch, ctx, 0, trap.tval);
      return;
  }
}
#endif  // CONVOLVE_TELEMETRY_ENABLED

std::uint64_t next_power_of_two(std::uint64_t x) {
  std::uint64_t p = 8;
  while (p < x) p *= 2;
  return p;
}

std::uint64_t align_up(std::uint64_t x, std::uint64_t alignment) {
  return (x + alignment - 1) / alignment * alignment;
}

// PMP entry plan: 0 = SM region, 1..14 = enclaves, 15 = OS allow-all.
constexpr int kSmEntry = 0;
constexpr int kFirstEnclaveEntry = 1;
constexpr int kLastEnclaveEntry = 14;
constexpr int kOsEntry = 15;

}  // namespace

SecurityMonitor::SecurityMonitor(Machine& machine, const BootRecord& boot,
                                 const SmConfig& config)
    : machine_(machine),
      boot_(boot),
      config_(config),
      stack_(config.stack_bytes) {
  if (config_.sm_region_size == 0 ||
      (config_.sm_region_size & (config_.sm_region_size - 1)) != 0) {
    throw std::invalid_argument("SecurityMonitor: SM region must be 2^k");
  }
  // Wall off the SM's own memory: a permission-less entry denies S/U while
  // M-mode (the SM itself) passes because the entry is not locked.
  PmpEntry sm_entry;
  sm_entry.mode = PmpAddressMode::kNapot;
  sm_entry.address = PmpUnit::encode_napot(0, config_.sm_region_size);
  machine_.pmp().set_entry(kSmEntry, sm_entry);

  next_free_ = config_.sm_region_size;
  enter_os();
}

SecurityMonitor::SecurityMonitor(Machine& machine, const SmSnapshot& snap,
                                 std::uint32_t fork_id)
    : machine_(machine),
      boot_(snap.boot),
      config_(snap.config),
      stack_(snap.config.stack_bytes),
      enclaves_(snap.enclaves),
      next_free_(snap.next_free),
      seal_nonce_counter_(snap.seal_nonce_counter),
      fork_id_(fork_id) {
  // Deliberately no PMP writes: the forked machine's PMP is a copy of the
  // snapshotted plan already (Machine fork inherits it), and leaving it
  // untouched keeps the inherited PMP epoch.
}

SmSnapshot SecurityMonitor::snapshot() const {
  SmSnapshot snap;
  snap.boot = boot_;
  snap.config = config_;
  snap.enclaves = enclaves_;
  snap.next_free = next_free_;
  snap.seal_nonce_counter = seal_nonce_counter_;
  return snap;
}

int SecurityMonitor::create_enclave(ByteView binary,
                                    std::uint64_t region_size) {
  const int entry_index =
      kFirstEnclaveEntry + static_cast<int>(enclaves_.size());
  if (entry_index > kLastEnclaveEntry) {
    throw std::runtime_error("create_enclave: out of PMP entries");
  }
  const std::uint64_t size =
      next_power_of_two(std::max<std::uint64_t>(region_size, 4096));
  const std::uint64_t base = align_up(next_free_, size);
  if (base + size > machine_.memory_size()) {
    throw std::runtime_error("create_enclave: out of memory");
  }
  if (binary.size() > size) {
    throw std::runtime_error("create_enclave: binary larger than region");
  }
  next_free_ = base + size;

  // Load and measure (M-mode: the SM performs the copy).
  machine_.store(base, binary, PrivMode::kMachine);

  Enclave e;
  e.id = static_cast<int>(enclaves_.size());
  e.base = base;
  e.size = size;
  e.measurement = crypto::sha3_512(binary);
  enclaves_.push_back(std::move(e));

  enter_os();  // refresh the PMP view with the new region blanked out
  return enclaves_.back().id;
}

SecurityMonitor::Enclave& SecurityMonitor::enclave_mut(int id) {
  if (id < 0 || id >= static_cast<int>(enclaves_.size())) {
    throw std::out_of_range("enclave id");
  }
  return enclaves_[static_cast<std::size_t>(id)];
}

const SecurityMonitor::Enclave& SecurityMonitor::enclave(int id) const {
  if (id < 0 || id >= static_cast<int>(enclaves_.size())) {
    throw std::out_of_range("enclave id");
  }
  return enclaves_[static_cast<std::size_t>(id)];
}

const SecurityMonitor::Enclave& SecurityMonitor::live_enclave(
    int id, const char* op) const {
  const Enclave& e = enclave(id);
  if (!e.alive) throw std::runtime_error(std::string(op) + ": destroyed");
  return e;
}

void SecurityMonitor::destroy_enclave(int id) {
  Enclave& e = enclave_mut(id);
  if (!e.alive) return;
  // Wipe the enclave's memory before releasing it to the OS
  // (allocation-free: no scratch zero-buffer the size of the region).
  machine_.fill(e.base, e.size, 0, PrivMode::kMachine);
  e.alive = false;
  enter_os();
}

void SecurityMonitor::enter_os() {
  PmpUnit& pmp = machine_.pmp();
  // Blank out every live enclave for S/U.
  for (const Enclave& e : enclaves_) {
    PmpEntry entry;
    if (e.alive) {
      entry.mode = PmpAddressMode::kNapot;
      entry.address = PmpUnit::encode_napot(e.base, e.size);
      // No permissions: S/U denied.
    }
    pmp.set_entry(kFirstEnclaveEntry + e.id, entry);
  }
  // OS gets the rest of DRAM.
  PmpEntry os_entry;
  os_entry.mode = PmpAddressMode::kTor;
  os_entry.address = machine_.memory_size() >> 2;
  os_entry.read = os_entry.write = os_entry.execute = true;
  pmp.set_entry(kOsEntry, os_entry);
}

void SecurityMonitor::enter_enclave(int id) {
  live_enclave(id, "enter_enclave");
  PmpUnit& pmp = machine_.pmp();
  for (const Enclave& e : enclaves_) {
    PmpEntry entry;
    if (e.alive) {
      entry.mode = PmpAddressMode::kNapot;
      entry.address = PmpUnit::encode_napot(e.base, e.size);
      if (e.id == id) {
        entry.read = entry.write = entry.execute = true;
      }
    }
    pmp.set_entry(kFirstEnclaveEntry + e.id, entry);
  }
  // No allow-all while an enclave runs: everything outside the enclave is
  // unmatched and therefore denied to U-mode.
  pmp.set_entry(kOsEntry, PmpEntry{});
}

void SecurityMonitor::run_enclave(int id, const std::function<void()>& body) {
  enter_enclave(id);
  try {
    body();
  } catch (...) {
    enter_os();
    throw;
  }
  enter_os();
}

Rv32Cpu::RunResult SecurityMonitor::run_enclave_program(
    int id, std::uint64_t max_steps, std::uint32_t entry_offset) {
  const Enclave& e = live_enclave(id, "run_enclave_program");
  enter_enclave(id);
  Rv32Cpu cpu(machine_,
              static_cast<std::uint32_t>(e.base) + entry_offset,
              PrivMode::kUser);
  Rv32Cpu::RunResult result = cpu.run(max_steps);
  enter_os();
  CONVOLVE_TELEMETRY_ONLY(record_trap_exit(ctx_, result);)
  return result;
}

AttestationReport SecurityMonitor::attest(int id, ByteView user_data) {
  const Enclave& e = live_enclave(id, "attest");
  if (user_data.size() > kEnclaveDataMax) {
    throw std::invalid_argument("attest: user data too large");
  }
  AttestationReport report;
  report.pq_enabled = boot_.pq_enabled;
  report.device_ed25519_pk = boot_.device_ed25519_pk;
  report.sm_measurement = boot_.sm_measurement;
  report.sm_ed25519_pk = boot_.sm_ed25519.public_key;
  report.device_sig_ed25519 = boot_.device_sig_ed25519;
  report.enclave_measurement = e.measurement;
  report.enclave_data.assign(user_data.begin(), user_data.end());
  if (boot_.pq_enabled) {
    report.sm_mldsa_pk = boot_.sm_mldsa.pk;
    report.device_sig_mldsa = boot_.device_sig_mldsa;
  }

  // Enclave payload: measurement || data_len || padded data.
  Bytes payload = e.measurement;
  std::uint8_t len_le[8];
  store_le64(len_le, user_data.size());
  payload.insert(payload.end(), len_le, len_le + 8);
  Bytes padded(user_data.begin(), user_data.end());
  padded.resize(kEnclaveDataMax, 0);
  payload.insert(payload.end(), padded.begin(), padded.end());

  // Sign on the SM stack: this is where the paper's default 8 KB stack
  // breaks for ML-DSA.
  StackFrame assembly(stack_, kReportAssemblyStack);
  {
    StackFrame ed_frame(stack_, kEd25519SignStack);
    report.sm_sig_ed25519 = crypto::ed25519_sign(boot_.sm_ed25519, payload);
  }
  if (boot_.pq_enabled) {
    StackFrame mldsa_frame(stack_, kMlDsaSignStack);
    report.sm_sig_mldsa = crypto::dilithium::sign(boot_.sm_mldsa.sk, payload);
  }
  return report;
}

Bytes SecurityMonitor::sealing_key(const Enclave& e) const {
  return crypto::hkdf(boot_.sealing_root, e.measurement,
                      as_bytes("convolve-sealing-key-v1"), 32);
}

Bytes SecurityMonitor::seal(int id, ByteView plaintext) {
  const Enclave& e = live_enclave(id, "seal");
  Bytes nonce(12, 0);
  store_le64(nonce.data(), ++seal_nonce_counter_);
  // Forks resumed from one snapshot share the counter's starting value;
  // the fork id in the high nonce bytes keeps their nonce spaces disjoint
  // (fork 0 = master, leaving pre-fork blobs byte-identical).
  store_le32(nonce.data() + 8, fork_id_);
  const auto box =
      crypto::aead_seal(sealing_key(e), nonce, plaintext, e.measurement);
  return crypto::aead_serialize(box);
}

std::optional<Bytes> SecurityMonitor::unseal(int id, ByteView sealed_blob) {
  const Enclave& e = live_enclave(id, "unseal");
  const auto box = crypto::aead_deserialize(sealed_blob);
  if (!box) {
    CONVOLVE_RECORD_EVENT(kSealReject, ctx_, 0, sealed_blob.size());
    return std::nullopt;
  }
  auto opened = crypto::aead_open(sealing_key(e), *box, e.measurement);
  if (!opened) {
    // Authentication failure: wrong key, tampered ciphertext, or a
    // measurement-AAD mismatch (blob sealed for a different enclave).
    CONVOLVE_RECORD_EVENT(kSealReject, ctx_, 1, sealed_blob.size());
  }
  return opened;
}

Bytes SecurityMonitor::local_attestation_mac(int target,
                                             ByteView measurement) const {
  const Bytes key = crypto::hkdf(boot_.sealing_root, {},
                                 as_bytes("convolve-local-attest-v1"), 32);
  Bytes msg(4);
  store_le32(msg.data(), static_cast<std::uint32_t>(target));
  msg.insert(msg.end(), measurement.begin(), measurement.end());
  Bytes mac = crypto::hmac_sha512(key, msg);
  mac.resize(32);
  return mac;
}

SecurityMonitor::LocalAttestation SecurityMonitor::local_attest(int target) {
  const Enclave& e = live_enclave(target, "local_attest");
  LocalAttestation token;
  token.target = target;
  token.target_measurement = e.measurement;
  token.mac = local_attestation_mac(target, e.measurement);
  return token;
}

bool SecurityMonitor::verify_local_attestation(
    const LocalAttestation& token) const {
  if (token.target_measurement.size() != 64 || token.mac.size() != 32) {
    CONVOLVE_RECORD_EVENT(kMeasurementMismatch, ctx_, 0, token.target);
    return false;
  }
  const bool ok = ct_equal(
      local_attestation_mac(token.target, token.target_measurement),
      token.mac);
  if (!ok) {
    CONVOLVE_RECORD_EVENT(kMeasurementMismatch, ctx_, 1, token.target);
  }
  return ok;
}

VerifierTrustAnchor SecurityMonitor::trust_anchor() const {
  VerifierTrustAnchor anchor;
  anchor.device_ed25519_pk = boot_.device_ed25519_pk;
  anchor.device_mldsa_pk = boot_.device_mldsa_pk;
  return anchor;
}

}  // namespace convolve::tee
