// The three enclave-service workloads: run_short, run_cow, mixed_tenants.
//
// Untraced run: a closed loop driven from one client thread. The client
// submits a batch of 2*T requests, calls drain(), and repeats; T is the
// service pool size. A request's latency runs from its submit() call to
// the return of the drain() that answered it. The timed window is cut
// into segments; between segments, with the clock stopped, the oracle
// checks every response of the segment and drops it, so neither oracle
// time nor retained responses reach the reported numbers.
//
// Traced run: replays a fixed seeded stream through the layers' public
// functions (TdmAdmission::admit, MachineSnapshot::fork, Machine::store,
// SecurityMonitor::run_enclave_program / attest / seal / unseal,
// Machine::load), once without and once with spans, then submits the
// same stream once through EnclaveService::submit/drain for the pool
// metrics. The service's responses must equal the replay's bit for bit.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "convolve/common/parallel.hpp"
#include "convolve/common/rng.hpp"
#include "convolve/compsoc/admission.hpp"
#include "convolve/crypto/keccak.hpp"
#include "convolve/tee/service/enclave_service.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace convolve;
using namespace convolve::tee;
using namespace convolve::tee::service;
namespace rv = convolve::tee::rv32asm;

enum class Kind { kRunShort, kRunCow, kMixed };

constexpr std::uint64_t kMachineBytes = 4 << 20;
constexpr std::uint64_t kImageBytes = 256 * 1024;

// Distinct salts keep the benchmark's own seeded draws (request kinds,
// tenants, payloads, which run_cow requests patch code) independent of the
// service's split(seq) input streams, which use the seed unsalted.
constexpr std::uint64_t kMixSalt = 0x6D69786564ull;
constexpr std::uint64_t kPatchSalt = 0x7061746368ull;
constexpr std::uint64_t kPoolSalt = 0x706F6F6Cull;

// ---- run_short / mixed_tenants guest: the service bench's sum program --
// Sums kSumLen input bytes at kSumInput into a word at kSumResult.
constexpr std::uint32_t kSumInput = 0x600;
constexpr std::uint32_t kSumResult = 0x700;
constexpr std::uint32_t kSumLen = 256;
// 4 set-up instructions, 5 per byte, then sw + ecall.
constexpr std::uint64_t kSumSteps = 4 + 5 * kSumLen + 2;

Bytes sum_program() {
  Bytes code = rv::assemble({
      rv::auipc(6, 0),
      rv::addi(5, 0, 0),
      rv::addi(7, 0, 0),
      rv::addi(8, 0, kSumLen),
      // loop:
      rv::add(9, 6, 7),
      rv::lbu(10, 9, kSumInput),
      rv::add(5, 5, 10),
      rv::addi(7, 7, 1),
      rv::bne(7, 8, -16),
      rv::sw(5, 6, kSumResult),
      rv::ecall(),
  });
  code.resize(kImageBytes, 0x00);
  return code;
}

// ---- run_cow guest ------------------------------------------------------
// An LCG stream (x = x*a + c) stored word by word into kCowWords words of
// each of kCowPages distinct 4 KB data pages, folded into a checksum
// (xor of every stored word, plus a read-back of each page's first word).
// Seed and increment come from 8 input bytes on the I/O page; the checksum
// lands at I/O + 16. The patch entry first overwrites the `add` of the LCG
// step with a `sub` (self-modifying code on the shared code page), then
// runs the same loop.
constexpr std::uint32_t kCowIo = 0x1000;          // I/O page (page 1)
constexpr std::uint32_t kCowResult = kCowIo + 16;
constexpr std::uint32_t kCowData = 0x40000;        // data pages follow image
constexpr int kCowPages = 64;
constexpr int kCowWords = 144;
constexpr std::uint32_t kCowMul = 1664525;
constexpr std::uint32_t kCowPatchWordOffset = 0x7F0;
constexpr std::uint32_t kCowPatchEntry = 8;
constexpr std::uint64_t kCowRegion = kImageBytes + kCowPages * 4096;

struct CowLayout {
  Bytes image;
  std::uint64_t steps_plain = 0;
  std::uint64_t steps_patched = 0;
};

CowLayout cow_program() {
  std::vector<std::uint32_t> p;
  auto at = [&] { return static_cast<std::int32_t>(p.size() * 4); };
  // entry 0: main
  p.push_back(rv::auipc(6, 0));
  const std::size_t jal_main = p.size();
  p.push_back(0);  // jal x0, body (patched below)
  // entry 8: patch, then main
  p.push_back(rv::auipc(6, 0));
  p.push_back(rv::addi(6, 6, -8));
  p.push_back(rv::lw(7, 6, kCowPatchWordOffset));
  const std::size_t sw_patch = p.size();
  p.push_back(0);  // sw x7, target(x6) (patched below)
  const std::size_t jal_patch = p.size();
  p.push_back(0);  // jal x0, body
  const std::int32_t body = at();
  p.push_back(rv::lui(20, 1));        // x20 = 0x1000
  p.push_back(rv::add(20, 20, 6));    // x20 = I/O page
  p.push_back(rv::lw(5, 20, 0));      // x = seed
  p.push_back(rv::lw(16, 20, 4));     // c
  p.push_back(rv::ori(16, 16, 1));    // c odd
  p.push_back(rv::lui(15, kCowMul >> 12));
  p.push_back(rv::addi(15, 15, kCowMul & 0xFFF));
  p.push_back(rv::lui(11, kCowData >> 12));
  p.push_back(rv::add(11, 11, 6));    // x11 = first data page
  p.push_back(rv::addi(12, 0, kCowPages));
  p.push_back(rv::addi(17, 0, 0));    // checksum
  p.push_back(rv::lui(18, 1));        // page stride
  const std::int32_t outer = at();
  p.push_back(rv::addi(13, 0, kCowWords));
  p.push_back(rv::add(14, 11, 0));
  const std::int32_t inner = at();
  p.push_back(rv::mul(5, 5, 15));
  const std::int32_t target = at();
  p.push_back(rv::add(5, 5, 16));
  p.push_back(rv::sw(5, 14, 0));
  p.push_back(rv::xor_(17, 17, 5));
  p.push_back(rv::addi(14, 14, 4));
  p.push_back(rv::addi(13, 13, -1));
  p.push_back(rv::bne(13, 0, inner - at()));
  p.push_back(rv::lw(19, 11, 0));
  p.push_back(rv::add(17, 17, 19));
  p.push_back(rv::add(11, 11, 18));
  p.push_back(rv::addi(12, 12, -1));
  p.push_back(rv::bne(12, 0, outer - at()));
  p.push_back(rv::sw(17, 20, 16));
  p.push_back(rv::ecall());
  p[jal_main] = rv::jal(0, body - static_cast<std::int32_t>(jal_main * 4));
  p[sw_patch] = rv::sw(7, 6, target);
  p[jal_patch] = rv::jal(0, body - static_cast<std::int32_t>(jal_patch * 4));

  CowLayout out;
  out.image = rv::assemble(p);
  out.image.resize(kImageBytes, 0x00);
  store_le32(out.image.data() + kCowPatchWordOffset, rv::sub(5, 5, 16));
  const std::uint64_t prologue = 12, per_page = 2 + 7 * kCowWords + 5,
                      epilogue = 2;
  const std::uint64_t loop = prologue + per_page * kCowPages + epilogue;
  out.steps_plain = 2 + loop;
  out.steps_patched = 5 + loop;
  return out;
}

// Host model of the run_cow guest.
std::uint32_t cow_checksum(std::uint32_t seed, std::uint32_t inc,
                           bool patched) {
  std::uint32_t x = seed;
  const std::uint32_t c = inc | 1u;
  std::uint32_t checksum = 0;
  for (int page = 0; page < kCowPages; ++page) {
    std::uint32_t first = 0;
    for (int w = 0; w < kCowWords; ++w) {
      x = patched ? x * kCowMul - c : x * kCowMul + c;
      if (w == 0) first = x;
      checksum ^= x;
    }
    checksum += first;
  }
  return checksum;
}

// ---- mixed_tenants ------------------------------------------------------
// Tenant 0 floods (half of all requests) and owns one wheel slot; the
// other three own the rest. max_wait < period, so a tenant whose slots
// are all further ahead than max_wait is shed.
constexpr int kTdmPeriod = 8;
constexpr int kTdmMaxWait = 4;
const std::vector<std::vector<int>> kTenantSlots = {
    {0}, {1, 4}, {2, 5, 7}, {3, 6}};
constexpr int kBlobPool = 64;  // set-up-time sealed blobs; every 8th tampered
constexpr std::size_t kPayloadMin = 64;
constexpr std::size_t kPayloadMax = 4096;

Bytes random_bytes(Xoshiro256& g, std::size_t lo, std::size_t hi) {
  Bytes b(lo + g.uniform(hi - lo + 1));
  g.fill_bytes(b);
  return b;
}

// ---- the world every request forks from ---------------------------------
struct World {
  Kind kind = Kind::kRunShort;
  std::uint64_t seed = 0;
  BootRecord boot;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<SecurityMonitor> sm;
  int enclave = -1;
  std::optional<MachineSnapshot> snapshot;
  ServiceConfig config;
  CowLayout cow;
  Bytes sm_measurement;
  Bytes enclave_measurement;
  VerifierTrustAnchor anchor;
  std::vector<Bytes> pool_plain;   // mixed: plaintexts of the sealed pool
  std::vector<Bytes> pool_blobs;   // mixed: sealed (some tampered) blobs
  std::vector<bool> pool_tampered;
};

const Bytes& sm_image() {
  static const Bytes image(4096, 0x5C);
  return image;
}

// Boot, measure (create_enclave hashes the 256 KB image), freeze, and for
// mixed_tenants seal the unseal pool. Spans name each step.
std::unique_ptr<World> build_world(Kind kind, std::uint64_t seed,
                                   SpanRecorder* rec) {
  SpanScope setup(rec, "setup", 0);
  auto w = std::make_unique<World>();
  w->kind = kind;
  w->seed = seed;
  const bool pq = kind == Kind::kMixed;
  Bytes binary;
  std::uint64_t region = kImageBytes;
  if (kind == Kind::kRunCow) {
    w->cow = cow_program();
    binary = w->cow.image;
    region = kCowRegion;
  } else {
    binary = sum_program();
  }
  {
    SpanScope s(rec, "boot", 0);
    const Bootrom rom({pq}, DeviceKeys::from_entropy(Bytes(32, 0xB3)));
    w->boot = rom.boot(sm_image());
  }
  w->machine = std::make_unique<Machine>(kMachineBytes);
  SmConfig sm_config;
  // ML-DSA signing needs the paper's 128 KB SM stack.
  if (pq) sm_config.stack_bytes = 128 * 1024;
  w->sm = std::make_unique<SecurityMonitor>(*w->machine, w->boot, sm_config);
  {
    SpanScope s(rec, "create_enclave", 0);
    w->enclave = w->sm->create_enclave(binary, region);
  }
  {
    SpanScope s(rec, "freeze", 0);
    w->snapshot.emplace(MachineSnapshot::freeze(*w->machine, *w->sm));
  }
  w->config.seed = seed;
  if (pq) {
    w->config.tdm_period = kTdmPeriod;
    w->config.tdm_max_wait = kTdmMaxWait;
    w->config.tenant_slots = kTenantSlots;
    SpanScope s(rec, "seal_pool", 0);
    for (int i = 0; i < kBlobPool; ++i) {
      Xoshiro256 g = Xoshiro256(seed ^ kPoolSalt).split(
          static_cast<std::uint64_t>(i));
      Bytes plain = random_bytes(g, kPayloadMin, kPayloadMax);
      Bytes blob = w->sm->seal(w->enclave, plain);
      const bool tamper = i % 8 == 7;
      if (tamper) blob[g.uniform(blob.size())] ^= 0x01;
      w->pool_plain.push_back(std::move(plain));
      w->pool_blobs.push_back(std::move(blob));
      w->pool_tampered.push_back(tamper);
    }
  }
  return w;
}

// Oracle anchors, computed on the host rather than read back from the SM
// (the expected measurements are SHA3-512 of the images we loaded), and
// outside the timed set-up.
void add_oracle_anchors(World& w) {
  w.sm_measurement = crypto::sha3_512(sm_image());
  w.enclave_measurement = crypto::sha3_512(
      w.kind == Kind::kRunCow ? w.cow.image : sum_program());
  w.anchor = w.sm->trust_anchor();
}

// ---- request stream (deterministic in (seed, seq)) ----------------------
Request make_request(const World& w, std::uint64_t seq) {
  Request r;
  r.enclave = w.enclave;
  r.kind = RequestKind::kRun;
  switch (w.kind) {
    case Kind::kRunShort:
      break;
    case Kind::kRunCow:
      r.max_steps = 200000;
      r.input_offset = kCowIo;
      r.input_len = 8;
      r.result_offset = kCowResult;
      r.result_len = 4;
      if (Xoshiro256(w.seed ^ kPatchSalt).split(seq).uniform(8) == 0) {
        r.entry_offset = kCowPatchEntry;
      }
      return r;
    case Kind::kMixed: {
      Xoshiro256 g = Xoshiro256(w.seed ^ kMixSalt).split(seq);
      const std::uint64_t t = g.uniform(6);
      r.tenant = t < 3 ? 0 : static_cast<int>(t - 2);
      switch (g.uniform(5)) {
        case 0:
        case 1:
          break;  // run
        case 2:
          r.kind = RequestKind::kAttest;
          r.payload = random_bytes(g, kPayloadMin, kEnclaveDataMax);
          return r;
        case 3:
          r.kind = RequestKind::kSeal;
          r.payload = random_bytes(g, kPayloadMin, kPayloadMax);
          return r;
        default:
          r.kind = RequestKind::kUnseal;
          r.payload = w.pool_blobs[g.uniform(kBlobPool)];
          return r;
      }
      break;
    }
  }
  r.max_steps = 100000;
  r.input_offset = kSumInput;
  r.input_len = kSumLen;
  r.result_offset = kSumResult;
  r.result_len = 4;
  return r;
}

// Which pool blob an unseal request carries (re-derived, not stored).
std::size_t pool_index(const World& w, std::uint64_t seq) {
  Xoshiro256 g = Xoshiro256(w.seed ^ kMixSalt).split(seq);
  g.uniform(6);
  g.uniform(5);
  return static_cast<std::size_t>(g.uniform(kBlobPool));
}

compsoc::TdmAdmission make_admission(const World& w) {
  compsoc::TdmAdmission adm({w.config.tdm_period, w.config.tdm_max_wait});
  if (w.config.tenant_slots.empty()) {
    std::vector<int> all;
    for (int s = 0; s < w.config.tdm_period; ++s) all.push_back(s);
    adm.add_tenant(all);
  } else {
    for (const auto& slots : w.config.tenant_slots) adm.add_tenant(slots);
  }
  return adm;
}

// ---- oracle -------------------------------------------------------------
bool check_run(const World& w, const Request& req, const Response& r) {
  if (r.status != Status::kOk || r.data.size() != 4) return false;
  const std::uint32_t got = load_le32(r.data.data());
  Bytes input(req.input_len);
  Xoshiro256(w.seed).split(r.seq).fill_bytes(input);
  if (w.kind == Kind::kRunCow) {
    const bool patched = req.entry_offset == kCowPatchEntry;
    return r.steps == (patched ? w.cow.steps_patched : w.cow.steps_plain) &&
           got == cow_checksum(load_le32(input.data()),
                               load_le32(input.data() + 4), patched);
  }
  std::uint32_t sum = 0;
  for (std::uint8_t b : input) sum += b;
  return r.steps == kSumSteps && got == sum;
}

// Checks one response against its regenerated request. `expect_shed` is
// the shadow admission's verdict for the same seq.
bool check_response(const World& w, const Response& r, bool expect_shed) {
  if (expect_shed) return r.status == Status::kRejected;
  if (r.status == Status::kRejected) return false;
  const Request req = make_request(w, r.seq);
  switch (req.kind) {
    case RequestKind::kRun:
      return check_run(w, req, r);
    case RequestKind::kAttest:
      return r.status == Status::kOk && r.report && r.report->pq_enabled &&
             r.report->enclave_data == req.payload &&
             verify_report(*r.report, w.anchor, &w.sm_measurement,
                           &w.enclave_measurement);
    case RequestKind::kSeal: {
      if (r.status != Status::kOk) return false;
      // Round trip on a fork that shares no request's id.
      EnclaveWorld fork = w.snapshot->fork(0xFFFFFFF0u);
      const auto plain = fork.sm->unseal(w.enclave, r.data);
      return plain && *plain == req.payload;
    }
    case RequestKind::kUnseal: {
      const std::size_t i = pool_index(w, r.seq);
      if (w.pool_tampered[i]) return r.status == Status::kError;
      return r.status == Status::kOk && r.data == w.pool_plain[i];
    }
  }
  return false;
}

// Checks a batch of responses in seq order (the shadow admission must see
// every seq exactly once, in order); the per-response work runs on the
// pool. Returns the number of failures.
class Oracle {
 public:
  explicit Oracle(const World& w) : w_(w), shadow_(make_admission(w)) {}

  std::uint64_t check(const std::vector<Response>& rs,
                      std::uint64_t* shed = nullptr) {
    // 0 = expect an answer, 1 = expect a shed, 2 = out of order (failed).
    std::vector<char> expect(rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (rs[i].seq != next_seq_++) {
        expect[i] = 2;
        continue;
      }
      const Request req = make_request(w_, rs[i].seq);
      expect[i] = shadow_.admit(req.tenant).admitted ? 0 : 1;
    }
    std::vector<char> ok(rs.size(), 0);
    convolve::par::parallel_for(rs.size(), [&](std::uint64_t i) {
      ok[i] = expect[i] != 2 && check_response(w_, rs[i], expect[i] == 1);
    });
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (!ok[i]) ++failed;
      if (shed && expect[i] == 1) ++*shed;
    }
    return failed;
  }

 private:
  const World& w_;
  compsoc::TdmAdmission shadow_;
  std::uint64_t next_seq_ = 0;
};

Kind kind_of(const std::string& name) {
  if (name == "run_short") return Kind::kRunShort;
  if (name == "run_cow") return Kind::kRunCow;
  if (name == "mixed_tenants") return Kind::kMixed;
  throw std::invalid_argument("unknown service workload " + name);
}

// Times `reps` full set-ups, appending each to `seconds`; returns the last
// world.
std::unique_ptr<World> timed_setups(Kind kind, std::uint64_t seed, int reps,
                                    std::vector<double>& seconds,
                                    SpanRecorder* rec) {
  std::unique_ptr<World> w;
  for (int i = 0; i < reps; ++i) {
    w.reset();
    const double t0 = now_s();
    w = build_world(kind, seed, rec);
    seconds.push_back(now_s() - t0);
  }
  return w;
}

// ---- untraced run -------------------------------------------------------
Result untraced_run(const Options& opt, Kind kind) {
  Result res;
  std::vector<double> setup_s;
  std::unique_ptr<World> w = timed_setups(kind, opt.seed, 3, setup_s, nullptr);
  add_oracle_anchors(*w);
  EnclaveService service(*w->snapshot, w->config);
  Oracle oracle(*w);

  const std::size_t batch = static_cast<std::size_t>(2 * opt.threads);
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> t_submit(batch);
  std::vector<Request> reqs(batch);

  // One closed-loop batch; latencies are appended when `lat` is non-null.
  auto one_batch = [&](std::vector<Response>& keep, std::vector<double>* lat) {
    const std::uint64_t first = seq;
    for (std::size_t i = 0; i < batch; ++i) reqs[i] = make_request(*w, seq++);
    for (std::size_t i = 0; i < batch; ++i) {
      t_submit[i] = now_ns();
      service.submit(reqs[i]);
    }
    std::vector<Response> out = service.drain();
    const std::uint64_t t_done = now_ns();
    for (Response& r : out) {
      if (lat && r.status != Status::kRejected) {
        lat->push_back(static_cast<double>(t_done - t_submit[r.seq - first]) *
                       1e-3);
      }
      keep.push_back(std::move(r));
    }
  };

  // Warm-up: untimed requests until lazy state and the allocator settle.
  const double warmup_s = std::clamp(opt.seconds / 5, 0.5, 2.0);
  std::uint64_t warm_failed = 0;
  {
    const double t0 = now_s();
    std::vector<Response> keep;
    while (now_s() - t0 < warmup_s) {
      one_batch(keep, nullptr);
      if (keep.size() >= 1024) {
        warm_failed += oracle.check(keep);
        keep.clear();
      }
    }
    warm_failed += oracle.check(keep);
  }

  // Timed run, window by window (see WindowStats). Within a window the
  // clock also stops whenever `keep_cap` responses are waiting for the
  // oracle, so retained responses never dominate peak RSS.
  const std::size_t keep_cap = kind == Kind::kMixed ? 256 : 4096;
  WindowStats stats;
  double timed_s = 0;
  std::uint64_t failed = 0, shed = 0;
  std::vector<Response> keep;
  while (timed_s < opt.seconds) {
    const double len = std::min(kWindowS, opt.seconds - timed_s);
    std::vector<double> latency_us;
    double win_s = 0, win_cpu_s = 0;
    std::uint64_t win_ops = 0, win_shed = 0, win_failed = 0;
    while (win_s < len) {
      const ProcSample p0 = proc_sample();
      const double t0 = now_s();
      double t = t0;
      while (keep.size() < keep_cap && win_s + (t - t0) < len) {
        one_batch(keep, &latency_us);
        t = now_s();
      }
      win_cpu_s += proc_sample().cpu_s - p0.cpu_s;
      win_s += t - t0;
      win_ops += keep.size();
      win_failed += oracle.check(keep, &win_shed);
      keep.clear();
    }
    timed_s += win_s;
    failed += win_failed;
    shed += win_shed;
    // One more set-up per window, so the set-up median samples the whole
    // run rather than its first moments.
    timed_setups(kind, opt.seed, 1, setup_s, nullptr);
    stats.add(win_s, win_ops - win_shed - win_failed, win_ops, win_cpu_s,
              std::move(latency_us));
  }
  const ProcSample end = proc_sample();

  res.attempted = stats.ops;
  res.failed = failed;
  res.correct = failed == 0 && warm_failed == 0;
  res.add("setup_s", median(setup_s), setup_s.size());
  stats.report(res);
  res.add("peak_rss_mib", end.maxrss_mib);
  char line[200];
  std::snprintf(line, sizeof line,
                "error_ratio %.6f (failed %llu + shed %llu of %llu)  "
                "timed %.3f s  warm-up %.1f s",
                static_cast<double>(failed + shed) /
                    static_cast<double>(stats.ops),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(stats.ops), timed_s,
                warmup_s);
  res.info.push_back(line);
  if (warm_failed) res.info.push_back("warm-up responses failed the oracle");
  return res;
}

// ---- traced run ---------------------------------------------------------
struct ReplayTotals {
  std::uint64_t runs = 0, steps = 0, cow_pages = 0;
  std::uint64_t decisions = 0, shed = 0;
  std::uint64_t tampered = 0, tampered_rejected = 0;
  double seal_kib = 0, unseal_kib = 0;
};

// One request through the layers' public functions, mirroring what the
// service does for it (same fork id, same split(seq) input stream).
Response replay_one(const World& w, const Request& req, std::uint64_t seq,
                    compsoc::TdmAdmission& adm, SpanRecorder* rec,
                    ReplayTotals& tot) {
  SpanScope request_span(rec, "request", seq);
  Response r;
  r.seq = seq;
  bool admitted = false;
  {
    SpanScope s(rec, "admit", seq);
    admitted = adm.admit(req.tenant).admitted;
  }
  ++tot.decisions;
  if (!admitted) {
    ++tot.shed;
    r.status = Status::kRejected;
    return r;
  }
  RequestContext ctx;
  ctx.seq = seq;
  ctx.fork_id = static_cast<std::uint32_t>(seq + 1);
  ctx.tenant = static_cast<std::uint8_t>(req.tenant);
  ctx.enclave = static_cast<std::uint8_t>(req.enclave);
  EnclaveWorld world;
  {
    SpanScope s(rec, "fork", seq);
    world = w.snapshot->fork(ctx.fork_id, ctx);
  }
  const auto& enclave = world.sm->enclave(req.enclave);
  switch (req.kind) {
    case RequestKind::kRun: {
      {
        SpanScope s(rec, "stage", seq);
        Bytes input(req.input_len);
        Xoshiro256(w.seed).split(seq).fill_bytes(input);
        world.machine->store(enclave.base + req.input_offset, input,
                             PrivMode::kMachine);
      }
      Rv32Cpu::RunResult run;
      {
        SpanScope s(rec, "run", seq);
        run = world.sm->run_enclave_program(req.enclave, req.max_steps,
                                            req.entry_offset);
      }
      r.steps = run.steps;
      r.trap = run.trap;
      r.status = !run.trap ? Status::kStepLimit
                 : run.trap->cause == TrapCause::kEcall ? Status::kOk
                                                        : Status::kTrap;
      {
        SpanScope s(rec, "result", seq);
        r.data = world.machine->load(enclave.base + req.result_offset,
                                     req.result_len, PrivMode::kMachine);
      }
      ++tot.runs;
      tot.steps += run.steps;
      tot.cow_pages += world.machine->cow_pages_materialized();
      break;
    }
    case RequestKind::kAttest: {
      SpanScope s(rec, "attest", seq);
      r.report = world.sm->attest(req.enclave, req.payload);
      r.status = Status::kOk;
      break;
    }
    case RequestKind::kSeal: {
      SpanScope s(rec, "seal", seq);
      r.data = world.sm->seal(req.enclave, req.payload);
      r.status = Status::kOk;
      tot.seal_kib += static_cast<double>(req.payload.size()) / 1024.0;
      break;
    }
    case RequestKind::kUnseal: {
      std::optional<Bytes> plain;
      {
        SpanScope s(rec, "unseal", seq);
        plain = world.sm->unseal(req.enclave, req.payload);
      }
      tot.unseal_kib += static_cast<double>(req.payload.size()) / 1024.0;
      const bool tampered = w.pool_tampered[pool_index(w, seq)];
      tot.tampered += tampered ? 1 : 0;
      if (plain) {
        r.data = std::move(*plain);
        r.status = Status::kOk;
      } else {
        r.status = Status::kError;
        tot.tampered_rejected += tampered ? 1 : 0;
      }
      break;
    }
  }
  return r;
}

void digest_response(Digest& d, const Response& r) {
  d.add_u64(r.seq);
  d.add_u64(static_cast<std::uint64_t>(r.status));
  d.add_u64(r.steps);
  d.add(r.data.data(), r.data.size());
  if (r.report) {
    const Bytes wire = r.report->serialize();
    d.add(wire.data(), wire.size());
  }
}

bool same_payload(const Response& a, const Response& b) {
  const bool trap_same =
      a.trap.has_value() == b.trap.has_value() &&
      (!a.trap || (a.trap->cause == b.trap->cause && a.trap->pc == b.trap->pc &&
                   a.trap->tval == b.trap->tval));
  const bool report_same =
      a.report.has_value() == b.report.has_value() &&
      (!a.report || a.report->serialize() == b.report->serialize());
  return a.seq == b.seq && a.status == b.status && a.steps == b.steps &&
         a.data == b.data && trap_same && report_same;
}

Result traced_run(const Options& opt, Kind kind) {
  Result res;
  SpanRecorder rec;
  std::vector<double> setup_s;
  std::unique_ptr<World> w = timed_setups(kind, opt.seed, 3, setup_s, &rec);
  add_oracle_anchors(*w);
  const World& world = *w;

  const std::uint64_t n = kind == Kind::kRunShort ? 4096
                          : kind == Kind::kRunCow ? 1024
                                                  : 512;
  std::vector<Request> stream;
  stream.reserve(n);
  for (std::uint64_t s = 0; s < n; ++s) stream.push_back(make_request(world, s));

  auto replay = [&](SpanRecorder* r, std::uint64_t count, ReplayTotals& tot,
                    std::vector<Response>* out) {
    compsoc::TdmAdmission adm = make_admission(world);
    for (std::uint64_t s = 0; s < count; ++s) {
      Response resp = replay_one(world, stream[s], s, adm, r, tot);
      if (out) out->push_back(std::move(resp));
    }
  };

  // A full untraced warm-up pass, then two rounds of the same stream
  // untraced and traced. Every traced pass records spans; the totals and
  // replies of the first traced pass go to the metrics and the oracle.
  ReplayTotals discard;
  replay(nullptr, n, discard, nullptr);
  ReplayTotals tot;
  std::vector<Response> replayed;
  replayed.reserve(n);
  double untraced_s = 0, traced_s = 0, untraced_cpu_s = 0;
  std::uint64_t untraced_minflt = 0;
  for (int round = 0; round < 2; ++round) {
    const ProcSample u0 = proc_sample();
    const double tu0 = now_s();
    replay(nullptr, n, discard, nullptr);
    untraced_s += now_s() - tu0;
    const ProcSample u1 = proc_sample();
    untraced_cpu_s += u1.cpu_s - u0.cpu_s;
    untraced_minflt += u1.minflt - u0.minflt;
    const double tt0 = now_s();
    replay(&rec, n, round == 0 ? tot : discard,
           round == 0 ? &replayed : nullptr);
    traced_s += now_s() - tt0;
  }

  // First guest step on a fresh fork: CPU set-up + decode. The fork itself
  // is outside the span (snapshot.fork_us_* covers it).
  for (std::uint32_t i = 0; i < 256; ++i) {
    EnclaveWorld f = world.snapshot->fork(0x40000000u + i);
    SpanScope s(&rec, "first_step", i);
    f.sm->run_enclave_program(world.enclave, 1);
  }

  // The stream's admission decisions alone, one clock pair around each
  // round on a fresh wheel: admit() scans a few slots, so a clock pair per
  // call would time the clock. The per-call admit spans of the replay are
  // for the Chrome trace only.
  constexpr int kAdmitRounds = 64;
  std::vector<double> admit_ns;
  std::uint64_t admitted = 0;
  for (int round = 0; round < kAdmitRounds; ++round) {
    compsoc::TdmAdmission adm = make_admission(world);
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t s = 0; s < n; ++s) {
      admitted += adm.admit(stream[s].tenant).admitted ? 1 : 0;
    }
    admit_ns.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(n));
  }

  // One traced pass through EnclaveService::submit/drain.
  EnclaveService service(*world.snapshot, world.config);
  const std::size_t batch = static_cast<std::size_t>(2 * opt.threads);
  std::vector<double> queue_wait_us, submit_ns;
  std::vector<Response> served;
  served.reserve(n);
  double busy_ns = 0, drain_wall_ns = 0;
  const ProcSample d0 = proc_sample();
  const double td0 = now_s();
  for (std::uint64_t first = 0; first < n; first += batch) {
    const std::uint64_t last = std::min<std::uint64_t>(first + batch, n);
    // One span and one figure per batch: the clock read before each
    // submit() is the client latency's start, as in the timed runs.
    std::vector<std::uint64_t> t_submit(last - first);
    std::uint64_t dr0 = 0;
    {
      SpanScope sp(&rec, "submit", first);
      for (std::uint64_t s = first; s < last; ++s) {
        t_submit[s - first] = now_ns();
        service.submit(stream[s]);
      }
      dr0 = now_ns();
    }
    submit_ns.push_back(static_cast<double>(dr0 - t_submit[0]) /
                        static_cast<double>(last - first));
    std::vector<Response> out;
    {
      SpanScope sp(&rec, "drain", first);
      out = service.drain();
    }
    const std::uint64_t t_done = now_ns();
    drain_wall_ns += static_cast<double>(t_done - dr0);
    for (Response& r : out) {
      if (r.status != Status::kRejected) {
        busy_ns += static_cast<double>(r.latency_ns);
        const double client =
            static_cast<double>(t_done - t_submit[r.seq - first]);
        queue_wait_us.push_back((client - static_cast<double>(r.latency_ns)) *
                                1e-3);
      }
      served.push_back(std::move(r));
    }
  }
  const double drain_pass_s = now_s() - td0;
  const ProcSample d1 = proc_sample();

  // Oracle on the replay; the service must match the replay bit for bit.
  Oracle oracle(world);
  std::uint64_t failed = oracle.check(replayed);
  Digest digest;
  for (std::uint64_t i = 0; i < n; ++i) {
    digest_response(digest, replayed[i]);
    if (i >= served.size() || !same_payload(replayed[i], served[i])) ++failed;
  }
  const bool rejects_ok = tot.tampered == tot.tampered_rejected;
  const bool admit_ok = admitted == kAdmitRounds * (tot.decisions - tot.shed);
  res.attempted = n;
  res.failed = failed;
  res.correct = failed == 0 && rejects_ok && admit_ok;
  if (!rejects_ok) res.info.push_back("a tampered blob was accepted");
  if (!admit_ok) res.info.push_back("admission rounds disagree with the replay");

  auto us = [](std::vector<double> ns, double pct) {
    return percentile(std::move(ns), pct) * 1e-3;
  };
  const auto runs = static_cast<double>(std::max<std::uint64_t>(tot.runs, 1));
  LayerValues v;
  v["compsoc.admit_ns_p50"] = median(admit_ns);
  v["compsoc.shed_ratio"] =
      static_cast<double>(tot.shed) / static_cast<double>(tot.decisions);
  v["service.submit_ns_p50"] = median(submit_ns);
  v["service.queue_wait_us_p99"] = percentile(queue_wait_us, 99);
  v["service.pool_busy_ratio"] = busy_ns / (drain_wall_ns * opt.threads);
  v["snapshot.fork_us_p50"] = us(rec.durations_ns("fork"), 50);
  v["snapshot.fork_us_p99"] = us(rec.durations_ns("fork"), 99);
  v["snapshot.freeze_ms"] = median(rec.durations_ns("freeze")) * 1e-6;
  v["rv32.first_step_us_p50"] = us(rec.durations_ns("first_step"), 50);
  v["rv32.run_us_p50"] = us(rec.durations_ns("run"), 50);
  v["rv32.steps_per_req"] = static_cast<double>(tot.steps) / runs;
  v["rv32.mips"] =
      static_cast<double>(tot.steps) / (total(rec.durations_ns("run")) * 1e-3);
  v["machine.cow_pages_per_req"] = static_cast<double>(tot.cow_pages) / runs;
  v["machine.stage_us_p50"] = us(rec.durations_ns("stage"), 50);
  v["machine.result_us_p50"] = us(rec.durations_ns("result"), 50);
  v["os.minflt_per_req"] =
      static_cast<double>(untraced_minflt) / (2.0 * static_cast<double>(n));
  if (kind == Kind::kMixed) {
    v["sm.attest_us_p50"] = us(rec.durations_ns("attest"), 50);
    v["sm.seal_us_per_kib"] =
        total(rec.durations_ns("seal")) * 1e-3 / tot.seal_kib;
    v["sm.unseal_us_per_kib"] =
        total(rec.durations_ns("unseal")) * 1e-3 / tot.unseal_kib;
    v["sm.unseal_reject_ratio"] =
        tot.tampered ? static_cast<double>(tot.tampered_rejected) /
                           static_cast<double>(tot.tampered)
                     : 0.0;
  }
  v["sm.create_enclave_ms"] =
      median(rec.durations_ns("create_enclave")) * 1e-6;
  v["os.cpu_util"] =
      (d1.cpu_s - d0.cpu_s) / (drain_pass_s * static_cast<double>(opt.threads));
  v["trace.overhead_ratio"] = traced_s / untraced_s;
  for (const auto& [name, value] : v) res.add(name, value);

  char line[200];
  std::snprintf(line, sizeof line,
                "replay 2 x %llu requests: untraced %.3f s, traced %.3f s "
                "(untraced cpu %.3f s); service pass %.3f s; median set-up "
                "%.4f s",
                static_cast<unsigned long long>(n), untraced_s, traced_s,
                untraced_cpu_s, drain_pass_s, median(setup_s));
  res.info.push_back(line);
  finish_traced_run(opt, rec, res);
  res.add_exact("digest", digest.hex());
  res.add_exact("compsoc.shed_ratio", exact_double(v["compsoc.shed_ratio"]));
  res.add_exact("rv32.steps_per_req", exact_double(v["rv32.steps_per_req"]));
  res.add_exact("machine.cow_pages_per_req",
                exact_double(v["machine.cow_pages_per_req"]));
  res.add_exact("sm.unseal_reject_ratio",
                exact_double(v["sm.unseal_reject_ratio"]));
  return res;
}

}  // namespace

Result run_service_workload(const Options& opt) {
  const Kind kind = kind_of(opt.workload);
  return opt.trace ? traced_run(opt, kind) : untraced_run(opt, kind);
}

}  // namespace perfbench
