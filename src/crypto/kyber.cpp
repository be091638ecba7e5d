#include "convolve/crypto/kyber.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "convolve/crypto/detail/pqc_ntt.hpp"
#include "convolve/crypto/keccak.hpp"

namespace convolve::crypto::kyber {

namespace {

using Poly = std::array<std::int16_t, kN>;
using PolyVec = std::array<Poly, kK>;

using Ntt = detail::KyberNtt;
static_assert(Ntt::q == kQ && Ntt::n == kN);

// Canonical residues in [0, q). Every caller stays far inside the shared
// reduction's bound: |a| <= 4095^2 (12-bit decoded keys times residues).
std::int16_t mod_q(std::int32_t a) { return detail::reduce<Ntt>(a); }

std::int16_t mul_q(std::int32_t a, std::int32_t b) { return mod_q(a * b); }

void ntt(Poly& f) { detail::ntt_forward<Ntt>(f.data()); }

void intt(Poly& f) { detail::ntt_inverse<Ntt>(f.data()); }

// Pairwise multiplication in the NTT domain: factor i is X^2 - gamma_i with
// gamma_{2m} = zeta_{64+m} and gamma_{2m+1} = -zeta_{64+m}, the last-layer
// twiddles (stored times R, so mont_mul applies them directly).
Poly basemul(const Poly& a, const Poly& b) {
  Poly r{};
  for (int i = 0; i < 128; ++i) {
    const std::int16_t zeta = Ntt::zetas[static_cast<std::size_t>(64 + i / 2)];
    const std::int16_t g = (i & 1) ? static_cast<std::int16_t>(-zeta) : zeta;
    const std::int16_t a0 = a[2 * i], a1 = a[2 * i + 1];
    const std::int16_t b0 = b[2 * i], b1 = b[2 * i + 1];
    r[2 * i] = detail::add_q<Ntt>(
        mul_q(a0, b0), detail::mont_mul<Ntt>(mul_q(a1, b1), g));
    r[2 * i + 1] = detail::add_q<Ntt>(mul_q(a0, b1), mul_q(a1, b0));
  }
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

// ---------------------------------------------------------------------
// Samplers.
// ---------------------------------------------------------------------

// Rejection-sample a uniform polynomial from SHAKE128(rho || j || i).
Poly sample_uniform(ByteView rho, std::uint8_t j, std::uint8_t i) {
  Shake xof(Shake::Variant::k128);
  const std::uint8_t idx[2] = {j, i};
  xof.absorb(rho);
  xof.absorb({idx, 2});
  Poly f{};
  int count = 0;
  std::uint8_t buf[3];
  while (count < kN) {
    xof.squeeze({buf, 3});
    const int d1 = buf[0] | ((buf[1] & 0x0f) << 8);
    const int d2 = (buf[1] >> 4) | (buf[2] << 4);
    if (d1 < kQ) f[count++] = static_cast<std::int16_t>(d1);
    if (d2 < kQ && count < kN) f[count++] = static_cast<std::int16_t>(d2);
  }
  return f;
}

// Centered binomial distribution with parameter eta from
// PRF = SHAKE256(seed || nonce).
Poly sample_cbd(ByteView seed, std::uint8_t nonce, int eta) {
  Shake prf(Shake::Variant::k256);
  prf.absorb(seed);
  prf.absorb({&nonce, 1});
  const Bytes buf = prf.squeeze(static_cast<std::size_t>(64 * eta));
  Poly f{};
  // Consume 2*eta bits per coefficient.
  std::size_t bit = 0;
  auto next_bit = [&]() {
    const std::uint8_t byte = buf[bit / 8];
    const int b = (byte >> (bit % 8)) & 1;
    ++bit;
    return b;
  };
  for (int i = 0; i < kN; ++i) {
    int a = 0, b = 0;
    for (int j = 0; j < eta; ++j) a += next_bit();
    for (int j = 0; j < eta; ++j) b += next_bit();
    f[i] = mod_q(a - b);
  }
  return f;
}

// ---------------------------------------------------------------------
// Compression and serialization.
// ---------------------------------------------------------------------

std::int16_t decompress(std::int16_t y, int d) {
  const std::int64_t num = static_cast<std::int64_t>(y) * kQ + (1ll << (d - 1));
  return static_cast<std::int16_t>(num >> d);
}

// Pack each coefficient into `bits` bits, little-endian bit order.
void pack_bits(const Poly& f, int bits, Bytes& out) {
  std::uint32_t acc = 0;
  int acc_bits = 0;
  for (int i = 0; i < kN; ++i) {
    acc |= static_cast<std::uint32_t>(f[i] & ((1 << bits) - 1)) << acc_bits;
    acc_bits += bits;
    while (acc_bits >= 8) {
      out.push_back(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  assert(acc_bits == 0);
}

Poly unpack_bits(const std::uint8_t*& p, int bits) {
  Poly f{};
  std::uint32_t acc = 0;
  int acc_bits = 0;
  for (int i = 0; i < kN; ++i) {
    while (acc_bits < bits) {
      acc |= static_cast<std::uint32_t>(*p++) << acc_bits;
      acc_bits += 8;
    }
    f[i] = static_cast<std::int16_t>(acc & ((1u << bits) - 1));
    acc >>= bits;
    acc_bits -= bits;
  }
  return f;
}

// ---------------------------------------------------------------------
// The K-PKE scheme.
// ---------------------------------------------------------------------

struct Matrix {
  PolyVec rows[kK];  // A[i][j], already in the NTT domain
};

Matrix expand_a(ByteView rho, bool transposed) {
  Matrix a;
  for (int i = 0; i < kK; ++i) {
    for (int j = 0; j < kK; ++j) {
      a.rows[i][j] = transposed
                         ? sample_uniform(rho, static_cast<std::uint8_t>(i),
                                          static_cast<std::uint8_t>(j))
                         : sample_uniform(rho, static_cast<std::uint8_t>(j),
                                          static_cast<std::uint8_t>(i));
    }
  }
  return a;
}

PolyVec matvec_ntt(const Matrix& a, const PolyVec& s_hat) {
  PolyVec t{};
  for (int i = 0; i < kK; ++i) {
    Poly acc{};
    for (int j = 0; j < kK; ++j) {
      acc = poly_add(acc, basemul(a.rows[i][j], s_hat[j]));
    }
    t[i] = acc;
  }
  return t;
}

Poly dot_ntt(const PolyVec& a, const PolyVec& b) {
  Poly acc{};
  for (int i = 0; i < kK; ++i) acc = poly_add(acc, basemul(a[i], b[i]));
  return acc;
}

}  // namespace

std::int16_t compress(std::int16_t x, int d) {
  // round(2^d * x / q) = floor(n / q) with n = (x << d) + (q - 1) / 2.
  // M = ceil(2^36 / q) = 20642679 is M = (2^36 + e) / q with e = 1655, so
  // n * M / 2^36 = n / q + n * e / (q * 2^36). The extra term stays below
  // 1 / q -- too small to cross the next multiple of 1 / q -- while
  // n < 2^36 / e = 41.5M, which covers every n up to (q - 1) << 13. One
  // multiply and a shift replace the division, so secret coefficients
  // get no data-dependent latency.
  constexpr std::uint64_t kMul = 20642679;
  constexpr int kShift = 36;
  static_assert(kMul * kQ - (1ull << kShift) == 1655);
  const std::uint64_t n =
      (static_cast<std::uint64_t>(static_cast<std::uint16_t>(x)) << d) +
      kQ / 2;
  return static_cast<std::int16_t>(((n * kMul) >> kShift) &
                                   ((1u << d) - 1u));
}

PkeKeyPair pke_keygen(ByteView d32) {
  if (d32.size() != 32) throw std::invalid_argument("pke_keygen: seed != 32B");
  const Bytes g = sha3_512(d32);
  const ByteView rho{g.data(), 32};
  const ByteView sigma{g.data() + 32, 32};

  const Matrix a = expand_a(rho, /*transposed=*/false);
  PolyVec s{}, e{};
  std::uint8_t nonce = 0;
  for (int i = 0; i < kK; ++i) s[i] = sample_cbd(sigma, nonce++, kEta1);
  for (int i = 0; i < kK; ++i) e[i] = sample_cbd(sigma, nonce++, kEta1);
  for (auto& p : s) ntt(p);
  for (auto& p : e) ntt(p);

  PolyVec t = matvec_ntt(a, s);
  for (int i = 0; i < kK; ++i) t[i] = poly_add(t[i], e[i]);

  PkeKeyPair kp;
  for (int i = 0; i < kK; ++i) pack_bits(t[i], 12, kp.pk);
  kp.pk.insert(kp.pk.end(), rho.begin(), rho.end());
  for (int i = 0; i < kK; ++i) pack_bits(s[i], 12, kp.sk);
  return kp;
}

Bytes pke_encrypt(ByteView pk, ByteView msg32, ByteView coins32) {
  if (pk.size() != kEkBytes) throw std::invalid_argument("pke_encrypt: bad pk");
  if (msg32.size() != 32 || coins32.size() != 32) {
    throw std::invalid_argument("pke_encrypt: bad msg/coins");
  }
  const std::uint8_t* p = pk.data();
  PolyVec t{};
  for (int i = 0; i < kK; ++i) t[i] = unpack_bits(p, 12);
  const ByteView rho{pk.data() + 384 * kK, 32};

  const Matrix at = expand_a(rho, /*transposed=*/true);
  PolyVec r{}, e1{};
  std::uint8_t nonce = 0;
  for (int i = 0; i < kK; ++i) r[i] = sample_cbd(coins32, nonce++, kEta1);
  for (int i = 0; i < kK; ++i) e1[i] = sample_cbd(coins32, nonce++, kEta2);
  const Poly e2 = sample_cbd(coins32, nonce++, kEta2);

  for (auto& pr : r) ntt(pr);

  PolyVec u = matvec_ntt(at, r);
  for (auto& pu : u) intt(pu);
  for (int i = 0; i < kK; ++i) u[i] = poly_add(u[i], e1[i]);

  Poly v = dot_ntt(t, r);
  intt(v);
  v = poly_add(v, e2);
  // Add decompress_1(msg): bit -> 0 or ceil(q/2).
  Poly m{};
  for (int i = 0; i < kN; ++i) {
    const int bit = (msg32[static_cast<std::size_t>(i / 8)] >> (i % 8)) & 1;
    m[i] = static_cast<std::int16_t>(bit * ((kQ + 1) / 2));
  }
  v = poly_add(v, m);

  Bytes ct;
  for (int i = 0; i < kK; ++i) {
    Poly cu;
    for (int j = 0; j < kN; ++j) cu[j] = compress(u[i][j], kDu);
    pack_bits(cu, kDu, ct);
  }
  Poly cv;
  for (int j = 0; j < kN; ++j) cv[j] = compress(v[j], kDv);
  pack_bits(cv, kDv, ct);
  assert(ct.size() == kCtBytes);
  return ct;
}

Bytes pke_decrypt(ByteView sk, ByteView ciphertext) {
  if (sk.size() < static_cast<std::size_t>(384 * kK)) {
    throw std::invalid_argument("pke_decrypt: bad sk");
  }
  if (ciphertext.size() != kCtBytes) {
    throw std::invalid_argument("pke_decrypt: bad ciphertext");
  }
  const std::uint8_t* p = sk.data();
  PolyVec s{};
  for (int i = 0; i < kK; ++i) s[i] = unpack_bits(p, 12);

  const std::uint8_t* c = ciphertext.data();
  PolyVec u{};
  for (int i = 0; i < kK; ++i) {
    Poly cu = unpack_bits(c, kDu);
    for (int j = 0; j < kN; ++j) u[i][j] = decompress(cu[j], kDu);
  }
  Poly cv = unpack_bits(c, kDv);
  Poly v;
  for (int j = 0; j < kN; ++j) v[j] = decompress(cv[j], kDv);

  for (auto& pu : u) ntt(pu);
  Poly su = dot_ntt(s, u);
  intt(su);
  const Poly w = poly_sub(v, su);

  Bytes msg(32, 0);
  for (int i = 0; i < kN; ++i) {
    // compress_1: closest of {0, q/2}, i.e. 1 exactly for q/4 < w < 3q/4.
    const int bit = compress(w[i], 1);
    msg[static_cast<std::size_t>(i / 8)] |=
        static_cast<std::uint8_t>(bit << (i % 8));
  }
  return msg;
}

KeyPair keygen(ByteView seed64) {
  if (seed64.size() != 64) throw std::invalid_argument("keygen: seed != 64B");
  const ByteView d{seed64.data(), 32};
  const ByteView z{seed64.data() + 32, 32};

  PkeKeyPair pke = pke_keygen(d);
  KeyPair kp;
  kp.ek = pke.pk;
  kp.dk = pke.sk;
  kp.dk.insert(kp.dk.end(), kp.ek.begin(), kp.ek.end());
  const Bytes h = sha3_256(kp.ek);
  kp.dk.insert(kp.dk.end(), h.begin(), h.end());
  kp.dk.insert(kp.dk.end(), z.begin(), z.end());
  assert(kp.ek.size() == kEkBytes);
  assert(kp.dk.size() == kDkBytes);
  return kp;
}

Encapsulation encaps(ByteView ek, ByteView m32) {
  if (ek.size() != kEkBytes) throw std::invalid_argument("encaps: bad ek");
  if (m32.size() != 32) throw std::invalid_argument("encaps: bad m");
  const Bytes hek = sha3_256(ek);
  const Bytes g = sha3_512(concat({m32, hek}));
  Encapsulation out;
  std::copy(g.begin(), g.begin() + 32, out.shared_secret.begin());
  const ByteView coins{g.data() + 32, 32};
  out.ciphertext = pke_encrypt(ek, m32, coins);
  return out;
}

std::array<std::uint8_t, kSsBytes> decaps(ByteView dk, ByteView ciphertext) {
  if (dk.size() != kDkBytes) throw std::invalid_argument("decaps: bad dk");
  if (ciphertext.size() != kCtBytes) {
    throw std::invalid_argument("decaps: bad ciphertext");
  }
  const ByteView sk_pke{dk.data(), 384 * kK};
  const ByteView ek{dk.data() + 384 * kK, kEkBytes};
  const ByteView hek{dk.data() + 384 * kK + kEkBytes, 32};
  const ByteView z{dk.data() + 384 * kK + kEkBytes + 32, 32};

  const Bytes m = pke_decrypt(sk_pke, ciphertext);
  const Bytes g = sha3_512(concat({ByteView{m}, hek}));
  const ByteView k_prime{g.data(), 32};
  const ByteView coins{g.data() + 32, 32};

  const Bytes c_prime = pke_encrypt(ek, m, coins);

  std::array<std::uint8_t, kSsBytes> out{};
  if (ct_equal(c_prime, ciphertext)) {
    std::copy(k_prime.begin(), k_prime.end(), out.begin());
  } else {
    // Implicit rejection: K = SHAKE256(z || c).
    const Bytes rej = shake256(concat({z, ciphertext}), 32);
    std::copy(rej.begin(), rej.end(), out.begin());
  }
  return out;
}

}  // namespace convolve::crypto::kyber
