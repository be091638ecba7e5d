// The security monitor (SM): Keystone-style enclave lifecycle on PMP.
//
// The SM runs in M-mode, walls off its own memory with a permission-less
// PMP entry (M-mode passes unmatched/unlocked entries; S/U are denied),
// and context-switches PMP state so that, at any instant, the running
// world sees only its own memory:
//  * OS running: every enclave region (and the SM) is blanked out, the
//    rest of DRAM is open to S/U;
//  * enclave running: exactly that enclave's region is RWX for U-mode,
//    everything else is unmatched and therefore denied.
// Attestation and sealing follow the paper's hybrid design; signing runs
// on a watermarked SM stack that reproduces the 8 KB -> 128 KB finding.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "convolve/common/request_context.hpp"
#include "convolve/tee/attestation.hpp"
#include "convolve/tee/bootrom.hpp"
#include "convolve/tee/machine.hpp"
#include "convolve/tee/rv32.hpp"

namespace convolve::tee {

struct SmConfig {
  std::size_t sm_region_size = 128 * 1024;  // SM-owned DRAM at address 0
  std::size_t stack_bytes = 8 * 1024;       // Keystone default (Table III)
};

struct SmSnapshot;

// Modeled stack frames of the SM's signing paths (bytes). The ML-DSA
// working set (matrix A, vectors y/z/w, hint buffers) mirrors the
// reference implementation's ~50 KB stack appetite, which overflows the
// 8 KB default stack -- the paper's stopgap is a 128 KB stack.
inline constexpr std::size_t kReportAssemblyStack = 1024;
inline constexpr std::size_t kEd25519SignStack = 5600;
inline constexpr std::size_t kMlDsaSignStack = 52400;

class SecurityMonitor {
 public:
  struct Enclave {
    int id = 0;
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    Bytes measurement;  // SHA3-512 of the loaded binary
    bool alive = true;
  };

  /// Install the SM: locks down its own region and the enclave PMP plan.
  SecurityMonitor(Machine& machine, const BootRecord& boot,
                  const SmConfig& config = {});

  /// Resume from a snapshot onto a (typically CoW-forked) machine whose
  /// PMP already carries the snapshotted plan -- the constructor adopts
  /// the enclave table and allocator state without reprogramming anything,
  /// so forked machines keep their inherited PMP configuration and epoch.
  /// `fork_id` disambiguates seal nonces across forks sharing one
  /// snapshot: each fork's nonce space is (counter, fork_id), so two
  /// forks sealing concurrently can never collide (fork_id 0 is the
  /// master and byte-compatible with blobs sealed before forking).
  SecurityMonitor(Machine& machine, const SmSnapshot& snap,
                  std::uint32_t fork_id);

  /// Freeze the SM's logical state (boot record, config, enclave table,
  /// allocator cursor, seal counter) for later resume on a forked
  /// machine. Pair with Machine::freeze(), which captures memory + PMP.
  SmSnapshot snapshot() const;

  /// Load a binary into a fresh region, measure it, isolate it.
  /// Throws std::runtime_error when out of memory or PMP entries.
  int create_enclave(ByteView binary, std::uint64_t region_size);

  /// Destroy: wipe memory, release the PMP entry.
  void destroy_enclave(int id);

  const Enclave& enclave(int id) const;

  /// Context switches. They reprogram the PMP; the caller then performs
  /// accesses through the machine at the corresponding privilege.
  ///
  /// enter_enclave and every per-enclave service below (run, attest,
  /// seal, unseal, local_attest) throw std::runtime_error for a destroyed
  /// enclave and std::out_of_range for an unknown id.
  void enter_os();
  void enter_enclave(int id);

  /// Run enclave code: switches in, invokes `body` (which should access
  /// memory in U-mode), switches back to the OS view.
  void run_enclave(int id, const std::function<void()>& body);

  /// Execute the enclave's loaded binary on an RV32IM hart in U-mode
  /// under the enclave PMP view, starting at `entry_offset` into the
  /// region. Execution ends at a trap (ecall = clean exit request, PMP
  /// faults = contained violations) or after `max_steps` instructions.
  /// The OS PMP view is restored before returning. Runs on the bytecode
  /// engine (Rv32Cpu::run).
  Rv32Cpu::RunResult run_enclave_program(int id, std::uint64_t max_steps,
                                         std::uint32_t entry_offset = 0);

  /// Generate a signed attestation report for an enclave. Consumes SM
  /// stack (throws StackOverflow if the configured stack cannot hold the
  /// signing working set -- the paper's ML-DSA finding).
  AttestationReport attest(int id, ByteView user_data);

  /// Data sealing: bound to this device, SM and enclave measurement.
  Bytes seal(int id, ByteView plaintext);
  std::optional<Bytes> unseal(int id, ByteView sealed_blob);

  /// Local attestation: a MAC-based assertion, consumable only on this
  /// device, that enclave `target` has the given measurement and runs
  /// under this SM. Cheaper than a signed report (no asymmetric crypto,
  /// fits the 8 KB stack) -- the mechanism enclaves use to authenticate
  /// each other before sharing data locally.
  struct LocalAttestation {
    int target = 0;
    Bytes target_measurement;  // 64
    Bytes mac;                 // 32, keyed by an SM-local secret
  };
  LocalAttestation local_attest(int target);
  bool verify_local_attestation(const LocalAttestation& token) const;

  /// Attribution context for the flight recorder: security-relevant
  /// occurrences inside this SM (trap exits, seal/unseal rejections,
  /// attestation verification failures) are emitted as telemetry events
  /// stamped with this context. The service sets it right after forking a
  /// world for a request; the default context (seq 0, this SM's fork id)
  /// covers direct SM use outside the service. Kept a plain member --
  /// carrying attribution is not telemetry, so the OFF build threads it
  /// identically while the emission sites compile away.
  void set_request_context(const RequestContext& ctx) { ctx_ = ctx; }
  const RequestContext& request_context() const { return ctx_; }

  const SimStack& stack() const { return stack_; }
  const BootRecord& boot_record() const { return boot_; }

  /// Verifier trust anchor for this device.
  VerifierTrustAnchor trust_anchor() const;

 private:
  Machine& machine_;
  BootRecord boot_;
  SmConfig config_;
  SimStack stack_;
  std::vector<Enclave> enclaves_;
  std::uint64_t next_free_ = 0;
  std::uint64_t seal_nonce_counter_ = 0;
  std::uint32_t fork_id_ = 0;
  RequestContext ctx_{};

  friend struct SmSnapshot;
  Enclave& enclave_mut(int id);
  /// enclave(id), or std::runtime_error("<op>: destroyed") if it is not
  /// alive.
  const Enclave& live_enclave(int id, const char* op) const;
  Bytes sealing_key(const Enclave& e) const;
  /// Truncated HMAC-SHA512 of id_le32 || measurement under the local
  /// attestation key: what local_attest hands out and verify checks.
  Bytes local_attestation_mac(int target, ByteView measurement) const;
};

/// Frozen logical SM state for fork/resume (see SecurityMonitor::snapshot).
/// Machine memory and the PMP plan live in the paired MachineImage; this
/// holds only what the SM tracks on the side.
struct SmSnapshot {
  BootRecord boot;
  SmConfig config;
  std::vector<SecurityMonitor::Enclave> enclaves;
  std::uint64_t next_free = 0;
  std::uint64_t seal_nonce_counter = 0;
};

}  // namespace convolve::tee
