#include "convolve/analysis/ct_taint.hpp"

#include <array>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "convolve/crypto/aes.hpp"
#include "convolve/crypto/chacha20.hpp"
#include "convolve/crypto/detail/aes_core.hpp"
#include "convolve/crypto/detail/chacha_core.hpp"
#include "convolve/crypto/detail/keccak_core.hpp"
#include "convolve/crypto/detail/pqc_ntt.hpp"
#include "convolve/crypto/detail/sha512_core.hpp"
#include "convolve/crypto/hmac.hpp"
#include "convolve/crypto/keccak.hpp"

namespace convolve::analysis {

namespace {

thread_local TaintSink* g_sink = nullptr;

}  // namespace

const char* hazard_name(Hazard h) {
  switch (h) {
    case Hazard::kBranch:
      return "secret-dependent branch";
    case Hazard::kTableIndex:
      return "secret-dependent table index";
    case Hazard::kVariableShift:
      return "secret-dependent shift amount";
    case Hazard::kDivision:
      return "division on secret operand";
  }
  return "unknown hazard";
}

TaintSink* TaintSink::current() { return g_sink; }

void TaintSink::record(Hazard h) {
  std::string path;
  for (const char* c : context_) {
    if (!path.empty()) path += '/';
    path += c;
  }
  ++counts_[{h, std::move(path)}];
  ++total_;
}

void TaintSink::push_context(const char* label) { context_.push_back(label); }

void TaintSink::pop_context() {
  if (!context_.empty()) context_.pop_back();
}

std::vector<TaintFinding> TaintSink::findings() const {
  std::vector<TaintFinding> out;
  out.reserve(counts_.size());
  for (const auto& [key, count] : counts_) {
    out.push_back(TaintFinding{key.first, key.second, count});
  }
  return out;
}

ScopedTaintSink::ScopedTaintSink() : prev_(g_sink) { g_sink = &sink_; }

ScopedTaintSink::~ScopedTaintSink() { g_sink = prev_; }

TaintScope::TaintScope(const char* label) {
  if (g_sink != nullptr) g_sink->push_context(label);
}

TaintScope::~TaintScope() {
  if (g_sink != nullptr) g_sink->pop_context();
}

namespace detail {

void report_hazard(Hazard h) {
  if (g_sink != nullptr) g_sink->record(h);
}

}  // namespace detail

namespace {

namespace cd = convolve::crypto::detail;

using T8 = Tainted<std::uint8_t>;
using T32 = Tainted<std::uint32_t>;
using T64 = Tainted<std::uint64_t>;

LintResult finish(const char* suite, const TaintSink& sink, bool matches) {
  LintResult r;
  r.suite = suite;
  r.findings = sink.findings();
  r.hazard_count = sink.total();
  r.output_matches = matches;
  return r;
}

/// Deterministic test-pattern byte (public; keeps lints self-contained).
std::uint8_t pattern(std::size_t i, std::uint8_t salt) {
  return static_cast<std::uint8_t>(0x61u + 0x45u * i + salt);
}

}  // namespace

LintResult lint_aes256() {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 16> pt{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = pattern(i, 0x11);
  for (std::size_t i = 0; i < pt.size(); ++i) pt[i] = pattern(i, 0x7f);

  // Production reference.
  const crypto::Aes aes(crypto::Aes::KeySize::k256, key);
  std::array<std::uint8_t, 16> want_ct{};
  aes.encrypt_block(pt.data(), want_ct.data());

  ScopedTaintSink guard;
  TaintScope scope("aes256");

  std::array<T8, 32> tkey;
  for (std::size_t i = 0; i < key.size(); ++i) tkey[i] = T8::secret(key[i]);
  std::array<T8, 15 * 16> round_keys;
  {
    TaintScope s("key-expand");
    cd::aes_key_expand(tkey.data(), std::size_t{8}, aes.rounds(),
                       round_keys.data());
  }

  std::array<T8, 16> tpt;
  for (std::size_t i = 0; i < pt.size(); ++i) tpt[i] = T8(pt[i]);
  std::array<T8, 16> tct;
  {
    TaintScope s("encrypt");
    cd::aes_encrypt_block(round_keys.data(), aes.rounds(), tpt.data(),
                          tct.data());
  }
  std::array<T8, 16> tback;
  {
    TaintScope s("decrypt");
    cd::aes_decrypt_block(round_keys.data(), aes.rounds(),
                          crypto::aes_inv_sbox_table(), tct.data(),
                          tback.data());
  }

  // The production CTR core: secret round-key planes over two batches,
  // the second one partial and ending mid-block.
  std::array<std::uint8_t, 12> nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] = pattern(i, 0x35);
  std::vector<std::uint8_t> msg(cd::kAesBatchBlocks * 16 + 37);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = pattern(i, 0x4b);
  const std::uint32_t counter = 7;
  std::vector<T8> tmsg_ct(msg.size());
  {
    TaintScope s("ctr");
    std::array<T64, 15 * 128> rk_planes;
    cd::aes_round_key_planes(round_keys.data(), aes.rounds(),
                             rk_planes.data());
    cd::aes_ctr_xor(rk_planes.data(), aes.rounds(), nonce.data(), counter,
                    msg.data(), tmsg_ct.data(), msg.size());
  }
  const Bytes want_msg_ct = crypto::aes256_ctr(key, nonce, counter, msg);

  bool matches = true;
  for (std::size_t i = 0; i < 16; ++i) {
    matches = matches && tct[i].value() == want_ct[i] && tct[i].tainted();
    matches = matches && tback[i].value() == pt[i];
  }
  for (std::size_t i = 0; i < msg.size(); ++i) {
    matches = matches && tmsg_ct[i].value() == want_msg_ct[i] &&
              tmsg_ct[i].tainted();
  }
  return finish("aes256", guard.sink(), matches);
}

LintResult lint_chacha20() {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = pattern(i, 0x29);
  for (std::size_t i = 0; i < nonce.size(); ++i) nonce[i] = pattern(i, 0x3d);
  const std::uint32_t counter = 1;

  const auto want = crypto::chacha20_block(key, nonce, counter);

  ScopedTaintSink guard;
  TaintScope scope("chacha20");

  auto le32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  };

  T32 x[16];
  x[0] = T32(0x61707865u);
  x[1] = T32(0x3320646eu);
  x[2] = T32(0x79622d32u);
  x[3] = T32(0x6b206574u);
  for (int i = 0; i < 8; ++i) x[4 + i] = T32::secret(le32(key.data() + 4 * i));
  x[12] = T32(counter);
  for (int i = 0; i < 3; ++i) x[13 + i] = T32(le32(nonce.data() + 4 * i));

  {
    TaintScope s("core");
    cd::chacha20_core(x);
  }

  bool matches = true;
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t w = le32(want.data() + 4 * i);
    matches = matches && x[i].value() == w && x[i].tainted();
  }
  return finish("chacha20", guard.sink(), matches);
}

LintResult lint_keccak_f1600() {
  std::array<std::uint64_t, 25> state{};
  for (std::size_t i = 0; i < 25; ++i) {
    state[i] = 0x0123456789abcdefull * (i + 1) + 0xf00du * i;
  }
  auto want = state;
  crypto::keccak_f1600(want);

  ScopedTaintSink guard;
  TaintScope scope("keccak");

  T64 a[25];
  for (std::size_t i = 0; i < 25; ++i) a[i] = T64::secret(state[i]);
  {
    TaintScope s("permute");
    cd::keccak_permute(a);
  }

  bool matches = true;
  for (std::size_t i = 0; i < 25; ++i) {
    matches = matches && a[i].value() == want[i] && a[i].tainted();
  }
  return finish("keccak", guard.sink(), matches);
}

LintResult lint_hmac_sha512() {
  std::vector<std::uint8_t> key(40);
  std::vector<std::uint8_t> msg(113);  // spans a block boundary with padding
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = pattern(i, 0x55);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = pattern(i, 0xa3);

  const auto want = crypto::hmac_sha512(key, msg);

  ScopedTaintSink guard;
  TaintScope scope("hmac-sha512");

  std::vector<T8> tkey(key.size());
  for (std::size_t i = 0; i < key.size(); ++i) tkey[i] = T8::secret(key[i]);
  std::vector<T8> tmsg(msg.size());
  for (std::size_t i = 0; i < msg.size(); ++i) tmsg[i] = T8(msg[i]);

  std::array<T8, 64> mac;
  {
    TaintScope s("mac");
    cd::hmac_sha512_ct<T64>(tkey.data(), tkey.size(), tmsg.data(), tmsg.size(),
                            mac.data());
  }

  bool matches = want.size() == 64;
  for (std::size_t i = 0; i < 64 && matches; ++i) {
    matches = mac[i].value() == want[i] && mac[i].tainted();
  }
  return finish("hmac", guard.sink(), matches);
}

namespace {

/// Drive a secret polynomial through the shipped NTT parameter set P with
/// tainted coefficients: forward transform, a pointwise square through the
/// shared reduction, then the inverse of the forward result. Each stage is
/// compared against the plain instantiation, and the inverse must give the
/// input back.
template <class P>
LintResult lint_ntt(const char* suite) {
  using C = typename P::Coeff;
  using W = typename P::Wide;
  using TC = Tainted<C>;
  using TW = Tainted<W>;
  constexpr std::size_t kN = P::n;

  std::array<C, kN> poly{};
  for (std::size_t i = 0; i < kN; ++i) {
    poly[i] = static_cast<C>((i * 31 + 7) % static_cast<std::size_t>(P::q));
  }
  auto plain = poly;
  cd::ntt_forward<P>(plain.data());
  std::array<C, kN> plain_sq{};
  for (std::size_t i = 0; i < kN; ++i) {
    plain_sq[i] = cd::reduce<P>(W(plain[i]) * W(plain[i]));
  }

  ScopedTaintSink guard;
  TaintScope scope(suite);

  std::array<TC, kN> tpoly;
  for (std::size_t i = 0; i < kN; ++i) tpoly[i] = TC::secret(poly[i]);
  {
    TaintScope s("forward");
    cd::ntt_forward<P>(tpoly.data());
  }
  bool matches = true;
  for (std::size_t i = 0; i < kN; ++i) {
    matches = matches && tpoly[i].value() == plain[i] && tpoly[i].tainted();
  }
  {
    TaintScope s("reduce");
    for (std::size_t i = 0; i < kN; ++i) {
      const TC sq = cd::reduce<P>(TW(tpoly[i]) * TW(tpoly[i]));
      matches = matches && sq.value() == plain_sq[i] && sq.tainted();
    }
  }
  {
    TaintScope s("inverse");
    cd::ntt_inverse<P>(tpoly.data());
  }
  for (std::size_t i = 0; i < kN; ++i) {
    matches = matches && tpoly[i].value() == poly[i];
  }
  return finish(suite, guard.sink(), matches);
}

}  // namespace

LintResult lint_kyber_ntt() { return lint_ntt<cd::KyberNtt>("kyber-ntt"); }

LintResult lint_dilithium_ntt() {
  return lint_ntt<cd::DilithiumNtt>("dilithium-ntt");
}

std::vector<LintResult> lint_all() {
  return {lint_aes256(),       lint_chacha20(),  lint_keccak_f1600(),
          lint_hmac_sha512(),  lint_kyber_ntt(), lint_dilithium_ntt()};
}

}  // namespace convolve::analysis
