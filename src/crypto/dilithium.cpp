#include "convolve/crypto/dilithium.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "convolve/crypto/detail/pqc_ntt.hpp"
#include "convolve/crypto/keccak.hpp"

namespace convolve::crypto::dilithium {

namespace {

using Poly = std::array<std::int32_t, kN>;

using Ntt = detail::DilithiumNtt;
static_assert(Ntt::q == kQ && Ntt::n == kN);

// Coefficients are kept in [0, q). Every caller stays inside the shared
// reduction's bound: |a| <= (q-1)^2 (a product of two residues).
std::int32_t mod_q(std::int64_t a) { return detail::reduce<Ntt>(a); }

std::int32_t mul_q(std::int64_t a, std::int64_t b) { return mod_q(a * b); }

// Centered representative in [-(q-1)/2, (q-1)/2].
std::int32_t centered(std::int32_t a) {
  return (a > (kQ - 1) / 2) ? a - kQ : a;
}

void ntt(Poly& f) { detail::ntt_forward<Ntt>(f.data()); }

void intt(Poly& f) { detail::ntt_inverse<Ntt>(f.data()); }

Poly pointwise(const Poly& a, const Poly& b) {
  Poly r;
  for (int i = 0; i < kN; ++i) r[i] = mul_q(a[i], b[i]);
  return r;
}

Poly poly_add(const Poly& a, const Poly& b) {
  Poly r;
  for (int i = 0; i < kN; ++i) r[i] = detail::add_q<Ntt>(a[i], b[i]);
  return r;
}

Poly poly_sub(const Poly& a, const Poly& b) {
  Poly r;
  for (int i = 0; i < kN; ++i) r[i] = detail::sub_q<Ntt>(a[i], b[i]);
  return r;
}

std::int32_t poly_inf_norm(const Poly& a) {
  std::int32_t m = 0;
  for (auto c : a) m = std::max(m, std::abs(centered(c)));
  return m;
}

template <std::size_t Len>
using Vec = std::array<Poly, Len>;

template <std::size_t Len>
void vec_ntt(Vec<Len>& v) {
  for (auto& p : v) ntt(p);
}

template <std::size_t Len>
void vec_intt(Vec<Len>& v) {
  for (auto& p : v) intt(p);
}

template <std::size_t Len>
std::int32_t vec_inf_norm(const Vec<Len>& v) {
  std::int32_t m = 0;
  for (const auto& p : v) m = std::max(m, poly_inf_norm(p));
  return m;
}

// ---------------------------------------------------------------------
// Rounding (FIPS 204 section 7.4, implemented straight from the spec).
// ---------------------------------------------------------------------

// r = r1 * 2^d + r0 with r0 in (-2^{d-1}, 2^{d-1}].
void power2round(std::int32_t r, std::int32_t& r1, std::int32_t& r0) {
  const std::int32_t half = 1 << (kD - 1);
  r0 = r & ((1 << kD) - 1);
  if (r0 > half) r0 -= (1 << kD);
  r1 = (r - r0) >> kD;
}

// r = r1 * (2*gamma2) + r0, r0 centered; the q-1 wraparound maps to r1 = 0.
void decompose(std::int32_t r, std::int32_t& r1, std::int32_t& r0) {
  const std::int32_t alpha = 2 * kGamma2;
  r0 = r % alpha;
  if (r0 > alpha / 2) r0 -= alpha;
  if (r - r0 == kQ - 1) {
    r1 = 0;
    r0 -= 1;
  } else {
    r1 = (r - r0) / alpha;
  }
}

std::int32_t high_bits(std::int32_t r) {
  std::int32_t r1, r0;
  decompose(r, r1, r0);
  return r1;
}

std::int32_t low_bits(std::int32_t r) {
  std::int32_t r1, r0;
  decompose(r, r1, r0);
  return r0;
}

// Hint: does adding z change the high bits of r?
bool make_hint(std::int32_t z, std::int32_t r) {
  return high_bits(r) != high_bits(mod_q(static_cast<std::int64_t>(r) + z));
}

std::int32_t use_hint(bool hint, std::int32_t r) {
  constexpr std::int32_t m = (kQ - 1) / (2 * kGamma2);  // 44
  std::int32_t r1, r0;
  decompose(r, r1, r0);
  if (!hint) return r1;
  return (r0 > 0) ? (r1 + 1) % m : (r1 - 1 + m) % m;
}

// ---------------------------------------------------------------------
// Samplers.
// ---------------------------------------------------------------------

Poly expand_a_entry(ByteView rho, int row, int col) {
  Shake xof(Shake::Variant::k128);
  const std::uint8_t idx[2] = {static_cast<std::uint8_t>(col),
                               static_cast<std::uint8_t>(row)};
  xof.absorb(rho);
  xof.absorb({idx, 2});
  Poly f{};
  int count = 0;
  std::uint8_t buf[3];
  while (count < kN) {
    xof.squeeze({buf, 3});
    const std::int32_t v =
        (buf[0] | (buf[1] << 8) | (buf[2] << 16)) & 0x7fffff;
    if (v < kQ) f[count++] = v;
  }
  return f;
}

// eta = 2 short secret via nibble rejection.
Poly expand_s_entry(ByteView rho_prime, std::uint16_t nonce) {
  Shake xof(Shake::Variant::k256);
  const std::uint8_t n[2] = {static_cast<std::uint8_t>(nonce),
                             static_cast<std::uint8_t>(nonce >> 8)};
  xof.absorb(rho_prime);
  xof.absorb({n, 2});
  Poly f{};
  int count = 0;
  std::uint8_t byte;
  while (count < kN) {
    xof.squeeze({&byte, 1});
    for (const int nib : {byte & 0x0f, byte >> 4}) {
      if (nib < 15 && count < kN) {
        f[count++] = mod_q(kEta - (nib % (2 * kEta + 1)));
      }
    }
  }
  return f;
}

// y coefficients in [-(gamma1-1), gamma1], 18 bits each.
Poly expand_mask_entry(ByteView rho_pp, std::uint16_t nonce) {
  Shake xof(Shake::Variant::k256);
  std::uint8_t n[2] = {static_cast<std::uint8_t>(nonce),
                       static_cast<std::uint8_t>(nonce >> 8)};
  xof.absorb(rho_pp);
  xof.absorb({n, 2});
  const Bytes buf = xof.squeeze(576);
  Poly f{};
  std::size_t bit = 0;
  for (int i = 0; i < kN; ++i) {
    std::uint32_t raw = 0;
    for (int b = 0; b < 18; ++b) {
      raw |= static_cast<std::uint32_t>((buf[bit / 8] >> (bit % 8)) & 1) << b;
      ++bit;
    }
    f[i] = mod_q(kGamma1 - static_cast<std::int32_t>(raw));
  }
  return f;
}

// Sparse +-1 challenge polynomial with tau nonzero coefficients.
Poly sample_in_ball(ByteView c_tilde) {
  Shake xof(Shake::Variant::k256);
  xof.absorb(c_tilde);
  std::uint8_t signs[8];
  xof.squeeze({signs, 8});
  std::uint64_t sign_bits = load_le64(signs);
  Poly c{};
  for (int i = kN - kTau; i < kN; ++i) {
    std::uint8_t j;
    do {
      xof.squeeze({&j, 1});
    } while (j > i);
    c[i] = c[j];
    c[j] = (sign_bits & 1) ? mod_q(-1) : 1;
    sign_bits >>= 1;
  }
  return c;
}

// ---------------------------------------------------------------------
// Bit packing.
// ---------------------------------------------------------------------

void pack_bits(Bytes& out, const Poly& f, int bits,
               std::int32_t (*transform)(std::int32_t)) {
  std::uint64_t acc = 0;
  int acc_bits = 0;
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t raw =
        static_cast<std::uint32_t>(transform(f[i])) &
        ((1u << bits) - 1);
    acc |= raw << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  assert(acc_bits == 0);
}

Poly unpack_bits(const std::uint8_t*& p, int bits,
                 std::int32_t (*transform)(std::int32_t)) {
  Poly f{};
  std::uint64_t acc = 0;
  int acc_bits = 0;
  for (int i = 0; i < kN; ++i) {
    while (acc_bits < bits) {
      acc |= static_cast<std::uint64_t>(*p++) << acc_bits;
      acc_bits += 8;
    }
    f[i] = transform(static_cast<std::int32_t>(acc & ((1u << bits) - 1)));
    acc >>= bits;
    acc_bits -= bits;
  }
  return f;
}

// Per-field transforms (raw <-> coefficient).
std::int32_t id_fwd(std::int32_t x) { return x; }
std::int32_t eta_fwd(std::int32_t c) { return kEta - centered(c); }
std::int32_t eta_bwd(std::int32_t raw) { return mod_q(kEta - raw); }
std::int32_t t0_fwd(std::int32_t c) { return (1 << (kD - 1)) - centered(c); }
std::int32_t t0_bwd(std::int32_t raw) { return mod_q((1 << (kD - 1)) - raw); }
std::int32_t z_fwd(std::int32_t c) { return kGamma1 - centered(c); }
std::int32_t z_bwd(std::int32_t raw) { return mod_q(kGamma1 - raw); }

// Hint vector: omega position bytes plus k cumulative-count bytes.
Bytes pack_hints(const Vec<kK>& h) {
  Bytes out(kOmega + kK, 0);
  std::size_t idx = 0;
  for (int i = 0; i < kK; ++i) {
    for (int j = 0; j < kN; ++j) {
      if (h[static_cast<std::size_t>(i)][j] != 0) {
        out[idx++] = static_cast<std::uint8_t>(j);
      }
    }
    out[kOmega + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(idx);
  }
  return out;
}

bool unpack_hints(ByteView data, Vec<kK>& h) {
  if (data.size() != kOmega + kK) return false;
  for (auto& p : h) p.fill(0);
  std::size_t idx = 0;
  for (int i = 0; i < kK; ++i) {
    const std::size_t end = data[kOmega + static_cast<std::size_t>(i)];
    if (end < idx || end > kOmega) return false;
    std::size_t prev_pos = 0;
    for (std::size_t j = idx; j < end; ++j) {
      const std::size_t pos = data[j];
      if (j > idx && pos <= prev_pos) return false;  // must be ascending
      h[static_cast<std::size_t>(i)][pos] = 1;
      prev_pos = pos;
    }
    idx = end;
  }
  // Remaining position bytes must be zero padding.
  for (std::size_t j = idx; j < kOmega; ++j) {
    if (data[j] != 0) return false;
  }
  return true;
}

int count_hints(const Vec<kK>& h) {
  int n = 0;
  for (const auto& p : h) {
    for (auto c : p) n += (c != 0);
  }
  return n;
}

// w1 has coefficients in [0, 43]: 6 bits each.
Bytes pack_w1(const Vec<kK>& w1) {
  Bytes out;
  for (const auto& p : w1) pack_bits(out, p, 6, id_fwd);
  return out;
}

// ---------------------------------------------------------------------
// Matrix application.
// ---------------------------------------------------------------------

struct Matrix {
  std::array<Vec<kL>, kK> rows;  // NTT domain
};

Matrix expand_a(ByteView rho) {
  Matrix a;
  for (int i = 0; i < kK; ++i) {
    for (int j = 0; j < kL; ++j) {
      a.rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          expand_a_entry(rho, i, j);
    }
  }
  return a;
}

// Computes A * v_hat in the NTT domain (input and output in NTT domain).
Vec<kK> matvec(const Matrix& a, const Vec<kL>& v_hat) {
  Vec<kK> w{};
  for (int i = 0; i < kK; ++i) {
    Poly acc{};
    for (int j = 0; j < kL; ++j) {
      acc = poly_add(
          acc, pointwise(
                   a.rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                   v_hat[static_cast<std::size_t>(j)]));
    }
    w[static_cast<std::size_t>(i)] = acc;
  }
  return w;
}

}  // namespace

KeyPair keygen(ByteView seed32) {
  if (seed32.size() != 32) throw std::invalid_argument("keygen: seed != 32B");
  Shake h(Shake::Variant::k256);
  const std::uint8_t kl[2] = {kK, kL};
  h.absorb(seed32);
  h.absorb({kl, 2});
  const Bytes expanded = h.squeeze(128);
  const ByteView rho{expanded.data(), 32};
  const ByteView rho_prime{expanded.data() + 32, 64};
  const ByteView cap_k{expanded.data() + 96, 32};

  const Matrix a = expand_a(rho);
  Vec<kL> s1{};
  Vec<kK> s2{};
  std::uint16_t nonce = 0;
  for (auto& p : s1) p = expand_s_entry(rho_prime, nonce++);
  for (auto& p : s2) p = expand_s_entry(rho_prime, nonce++);

  Vec<kL> s1_hat = s1;
  vec_ntt(s1_hat);
  Vec<kK> t = matvec(a, s1_hat);
  vec_intt(t);
  for (int i = 0; i < kK; ++i) {
    t[static_cast<std::size_t>(i)] =
        poly_add(t[static_cast<std::size_t>(i)],
                 s2[static_cast<std::size_t>(i)]);
  }

  Vec<kK> t1{}, t0{};
  for (int i = 0; i < kK; ++i) {
    for (int j = 0; j < kN; ++j) {
      std::int32_t hi, lo;
      power2round(t[static_cast<std::size_t>(i)][j], hi, lo);
      t1[static_cast<std::size_t>(i)][j] = hi;
      t0[static_cast<std::size_t>(i)][j] = mod_q(lo);
    }
  }

  KeyPair kp;
  kp.pk.insert(kp.pk.end(), rho.begin(), rho.end());
  for (const auto& p : t1) pack_bits(kp.pk, p, 10, id_fwd);
  assert(kp.pk.size() == kPkBytes);

  const Bytes tr = shake256(kp.pk, 64);
  kp.sk.insert(kp.sk.end(), rho.begin(), rho.end());
  kp.sk.insert(kp.sk.end(), cap_k.begin(), cap_k.end());
  kp.sk.insert(kp.sk.end(), tr.begin(), tr.end());
  for (const auto& p : s1) pack_bits(kp.sk, p, 3, eta_fwd);
  for (const auto& p : s2) pack_bits(kp.sk, p, 3, eta_fwd);
  for (const auto& p : t0) pack_bits(kp.sk, p, 13, t0_fwd);
  assert(kp.sk.size() == kSkBytes);
  return kp;
}

Bytes sign(ByteView sk, ByteView message) {
  if (sk.size() != kSkBytes) throw std::invalid_argument("sign: bad sk");
  const ByteView rho{sk.data(), 32};
  const ByteView cap_k{sk.data() + 32, 32};
  const ByteView tr{sk.data() + 64, 64};
  const std::uint8_t* p = sk.data() + 128;
  Vec<kL> s1{};
  Vec<kK> s2{}, t0{};
  for (auto& poly : s1) poly = unpack_bits(p, 3, eta_bwd);
  for (auto& poly : s2) poly = unpack_bits(p, 3, eta_bwd);
  for (auto& poly : t0) poly = unpack_bits(p, 13, t0_bwd);

  const Matrix a = expand_a(rho);
  Vec<kL> s1_hat = s1;
  vec_ntt(s1_hat);
  Vec<kK> s2_hat = s2;
  vec_ntt(s2_hat);
  Vec<kK> t0_hat = t0;
  vec_ntt(t0_hat);

  Shake hmu(Shake::Variant::k256);
  hmu.absorb(tr);
  hmu.absorb(message);
  const Bytes mu = hmu.squeeze(64);

  // Deterministic variant: rnd is 32 zero bytes.
  Shake hrho(Shake::Variant::k256);
  const Bytes rnd(32, 0);
  hrho.absorb(cap_k);
  hrho.absorb(rnd);
  hrho.absorb(mu);
  const Bytes rho_pp = hrho.squeeze(64);

  for (std::uint16_t kappa = 0;; kappa = static_cast<std::uint16_t>(kappa + kL)) {
    Vec<kL> y{};
    for (int i = 0; i < kL; ++i) {
      y[static_cast<std::size_t>(i)] = expand_mask_entry(
          rho_pp, static_cast<std::uint16_t>(kappa + i));
    }
    Vec<kL> y_hat = y;
    vec_ntt(y_hat);
    Vec<kK> w = matvec(a, y_hat);
    vec_intt(w);

    Vec<kK> w1{};
    for (int i = 0; i < kK; ++i) {
      for (int j = 0; j < kN; ++j) {
        w1[static_cast<std::size_t>(i)][j] =
            high_bits(w[static_cast<std::size_t>(i)][j]);
      }
    }

    Shake hc(Shake::Variant::k256);
    hc.absorb(mu);
    const Bytes w1_packed = pack_w1(w1);
    hc.absorb(w1_packed);
    const Bytes c_tilde = hc.squeeze(32);

    Poly c = sample_in_ball(c_tilde);
    Poly c_hat = c;
    ntt(c_hat);

    // z = y + c*s1
    Vec<kL> z{};
    bool reject = false;
    for (int i = 0; i < kL; ++i) {
      Poly cs1 = pointwise(c_hat, s1_hat[static_cast<std::size_t>(i)]);
      intt(cs1);
      z[static_cast<std::size_t>(i)] =
          poly_add(y[static_cast<std::size_t>(i)], cs1);
    }
    if (vec_inf_norm<kL>(z) >= kGamma1 - kBeta) reject = true;

    Vec<kK> w_minus_cs2{}, ct0{};
    if (!reject) {
      for (int i = 0; i < kK; ++i) {
        Poly cs2 = pointwise(c_hat, s2_hat[static_cast<std::size_t>(i)]);
        intt(cs2);
        w_minus_cs2[static_cast<std::size_t>(i)] =
            poly_sub(w[static_cast<std::size_t>(i)], cs2);
      }
      Vec<kK> r0{};
      for (int i = 0; i < kK; ++i) {
        for (int j = 0; j < kN; ++j) {
          r0[static_cast<std::size_t>(i)][j] =
              mod_q(low_bits(w_minus_cs2[static_cast<std::size_t>(i)][j]));
        }
      }
      if (vec_inf_norm<kK>(r0) >= kGamma2 - kBeta) reject = true;
    }

    if (!reject) {
      for (int i = 0; i < kK; ++i) {
        Poly x = pointwise(c_hat, t0_hat[static_cast<std::size_t>(i)]);
        intt(x);
        ct0[static_cast<std::size_t>(i)] = x;
      }
      if (vec_inf_norm<kK>(ct0) >= kGamma2) reject = true;
    }

    if (!reject) {
      Vec<kK> h{};
      int ones = 0;
      for (int i = 0; i < kK; ++i) {
        for (int j = 0; j < kN; ++j) {
          const std::int32_t neg_ct0 =
              mod_q(-static_cast<std::int64_t>(
                  ct0[static_cast<std::size_t>(i)][j]));
          const std::int32_t r = mod_q(
              static_cast<std::int64_t>(
                  w_minus_cs2[static_cast<std::size_t>(i)][j]) +
              ct0[static_cast<std::size_t>(i)][j]);
          const bool hint = make_hint(centered(neg_ct0), r);
          h[static_cast<std::size_t>(i)][j] = hint ? 1 : 0;
          ones += hint;
        }
      }
      if (ones <= kOmega) {
        Bytes sig;
        sig.insert(sig.end(), c_tilde.begin(), c_tilde.end());
        for (const auto& zp : z) pack_bits(sig, zp, 18, z_fwd);
        const Bytes hp = pack_hints(h);
        sig.insert(sig.end(), hp.begin(), hp.end());
        assert(sig.size() == kSigBytes);
        return sig;
      }
    }
  }
}

bool verify(ByteView pk, ByteView message, ByteView signature) {
  if (pk.size() != kPkBytes || signature.size() != kSigBytes) return false;
  const ByteView rho{pk.data(), 32};
  const std::uint8_t* pt = pk.data() + 32;
  Vec<kK> t1{};
  for (auto& poly : t1) poly = unpack_bits(pt, 10, id_fwd);

  const ByteView c_tilde{signature.data(), 32};
  const std::uint8_t* pz = signature.data() + 32;
  Vec<kL> z{};
  for (auto& poly : z) poly = unpack_bits(pz, 18, z_bwd);
  Vec<kK> h{};
  if (!unpack_hints({signature.data() + 32 + 576 * kL, kOmega + kK}, h)) {
    return false;
  }
  if (count_hints(h) > kOmega) return false;
  if (vec_inf_norm<kL>(z) >= kGamma1 - kBeta) return false;

  const Matrix a = expand_a(rho);
  const Bytes tr = shake256(pk, 64);
  Shake hmu(Shake::Variant::k256);
  hmu.absorb(tr);
  hmu.absorb(message);
  const Bytes mu = hmu.squeeze(64);

  Poly c = sample_in_ball(c_tilde);
  Poly c_hat = c;
  ntt(c_hat);

  Vec<kL> z_hat = z;
  vec_ntt(z_hat);
  Vec<kK> az = matvec(a, z_hat);

  // w' = A z - c * t1 * 2^d  (all in NTT domain, then inverse).
  Vec<kK> w_approx{};
  for (int i = 0; i < kK; ++i) {
    Poly t1_shifted = t1[static_cast<std::size_t>(i)];
    for (auto& coeff : t1_shifted) {
      coeff = mod_q(static_cast<std::int64_t>(coeff) << kD);
    }
    ntt(t1_shifted);
    Poly ct1 = pointwise(c_hat, t1_shifted);
    Poly diff = poly_sub(az[static_cast<std::size_t>(i)], ct1);
    intt(diff);
    w_approx[static_cast<std::size_t>(i)] = diff;
  }

  Vec<kK> w1{};
  for (int i = 0; i < kK; ++i) {
    for (int j = 0; j < kN; ++j) {
      w1[static_cast<std::size_t>(i)][j] = use_hint(
          h[static_cast<std::size_t>(i)][j] != 0,
          w_approx[static_cast<std::size_t>(i)][j]);
    }
  }

  Shake hc(Shake::Variant::k256);
  hc.absorb(mu);
  const Bytes w1_packed = pack_w1(w1);
  hc.absorb(w1_packed);
  const Bytes c_tilde_prime = hc.squeeze(32);
  return ct_equal(c_tilde, c_tilde_prime);
}

}  // namespace convolve::crypto::dilithium
