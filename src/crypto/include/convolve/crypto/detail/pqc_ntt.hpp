// The lattice number-theoretic transform: the one module that knows the
// Kyber (ML-KEM) and Dilithium (ML-DSA) NTT parameter sets and their
// modular reduction.
//
// Both schemes work in Z_q[X]/(X^256 + 1). Each parameter set names q, the
// root of unity, the coefficient type and how far the transform splits
// (min_len); the twiddle tables and the inverse scale are derived from
// those at compile time, not transcribed.
//
// Constant-time: every reduction is a signed Montgomery reduction (a
// low-word multiply by q^-1 mod R, a multiply by q and an arithmetic shift)
// followed by a masked freeze into [0, q). There is no `%`, no `/` and no
// branch on a coefficient, so the templates can be instantiated with the
// taint-tracking words of the constant-time lint (ct_lint's kyber-ntt and
// dilithium-ntt suites), which check exactly that on the shipped tables.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace convolve::crypto::detail {

/// The word type that wraps integer `T` the way `W` wraps its integer.
/// Plain integers map to `T`; the taint tracker specializes this so a
/// tainted coefficient widens to a tainted product.
template <class W, class T>
struct RebindWord {
  using type = T;
};

template <class W, class T>
using rebind_word_t = typename RebindWord<W, T>::type;

namespace ntt_spec {

// Compile-time only: derives the public tables from the spec constants.
constexpr std::int64_t pow_mod(std::int64_t base, std::int64_t exp,
                               std::int64_t q) {
  std::int64_t r = 1;
  for (base %= q; exp > 0; exp >>= 1) {
    if (exp & 1) r = r * base % q;
    base = base * base % q;
  }
  return r;
}

constexpr int bitrev(int i, int bits) {
  int r = 0;
  for (int b = 0; b < bits; ++b) r = (r << 1) | ((i >> b) & 1);
  return r;
}

/// root^(±bitrev(i)) * r_mod_q mod q for i in [0, Count): the bit-reversed
/// order the butterflies consume, in Montgomery form. root has order
/// 2 * Count.
template <class C, int Count>
constexpr std::array<C, Count> twiddles(std::int64_t q, std::int64_t root,
                                        std::int64_t r_mod_q, bool inverse) {
  int bits = 0;
  while ((1 << bits) < Count) ++bits;
  std::array<C, Count> t{};
  for (int i = 0; i < Count; ++i) {
    const int e = bitrev(i, bits);
    const int exp = inverse ? (2 * Count - e) % (2 * Count) : e;
    t[static_cast<std::size_t>(i)] =
        static_cast<C>(pow_mod(root, exp, q) * r_mod_q % q);
  }
  return t;
}

/// q^-1 mod 2^64 by Newton iteration (each step doubles the correct bits).
constexpr std::uint64_t inverse_mod_2_64(std::uint64_t q) {
  std::uint64_t x = q;  // correct to 3 bits for odd q
  for (int i = 0; i < 5; ++i) x *= 2 - q * x;
  return x;
}

}  // namespace ntt_spec

/// One NTT parameter set. Coefficients are `C`; products are formed in
/// `W`, twice as wide; the Montgomery radix is R = 2^(bits of C). `Root` is
/// a primitive (2 * n / MinLen)-th root of unity mod Q, and the forward
/// transform splits down to degree-(MinLen - 1) factors.
template <class C, class W, std::int32_t Q, std::int32_t Root, int MinLen>
struct NttParams {
  static_assert(std::is_signed_v<C> && std::is_signed_v<W> &&
                sizeof(W) == 2 * sizeof(C));

  using Coeff = C;
  using Wide = W;
  static constexpr std::int32_t q = Q;
  static constexpr int n = 256;
  static constexpr int min_len = MinLen;
  static constexpr int kRBits = 8 * static_cast<int>(sizeof(C));
  /// Twiddles per direction: one per butterfly group, plus unused slot 0.
  static constexpr int kTwiddles = n / MinLen;

  // Butterfly sums of two residues must fit a coefficient word.
  static_assert(std::int64_t{Q} < (std::int64_t{1} << (kRBits - 2)));
  static_assert(ntt_spec::pow_mod(Root, kTwiddles, Q) == Q - 1,
                "Root must have order 2 * n / MinLen");

  static constexpr std::int64_t kRModQ = (std::int64_t{1} << kRBits) % Q;
  /// R^2 mod q: a second Montgomery reduction by it undoes the first's R^-1.
  static constexpr C kR2 = static_cast<C>(kRModQ * kRModQ % Q);
  /// q^-1 mod R, as a signed coefficient word.
  static constexpr C kQInv = static_cast<C>(ntt_spec::inverse_mod_2_64(Q));
  static_assert(static_cast<C>(std::int64_t{Q} * kQInv) == 1);

  /// Forward twiddles root^bitrev(i) and inverse twiddles root^-bitrev(i),
  /// both times R.
  static constexpr std::array<C, kTwiddles> zetas =
      ntt_spec::twiddles<C, kTwiddles>(Q, Root, kRModQ, false);
  static constexpr std::array<C, kTwiddles> inv_zetas =
      ntt_spec::twiddles<C, kTwiddles>(Q, Root, kRModQ, true);
  /// (n / min_len)^-1 times R: the scale the inverse transform ends with.
  static constexpr C n_inv = static_cast<C>(
      ntt_spec::pow_mod(kTwiddles, Q - 2, Q) * kRModQ % Q);

  /// reduce() and montgomery_reduce() are exact for |a| < kReduceBound.
  static constexpr W kReduceBound = static_cast<W>(W{Q} << (kRBits - 1));
};

/// ML-KEM: q = 3329, 17 has order 256, 128 degree-1 factors.
using KyberNtt = NttParams<std::int16_t, std::int32_t, 3329, 17, 2>;
/// ML-DSA: q = 8380417, 1753 has order 512, full splitting.
using DilithiumNtt = NttParams<std::int32_t, std::int64_t, 8380417, 1753, 1>;

/// a * R^-1 mod q, in (-q, q), for |a| < P::kReduceBound. The low-word
/// product t = (a mod R) * q^-1 is formed from the narrowed a, so it fits
/// the wide type; a - t * q is then divisible by R and the shift is exact.
template <class P, class W>
rebind_word_t<W, typename P::Coeff> montgomery_reduce(W a) {
  using C = rebind_word_t<W, typename P::Coeff>;
  static_assert(std::is_same_v<rebind_word_t<W, typename P::Wide>, W>,
                "montgomery_reduce takes the parameter set's wide word");
  const C t = static_cast<C>(W(static_cast<C>(a)) * W(P::kQInv));
  return static_cast<C>((a - W(t) * W(P::q)) >> P::kRBits);
}

/// Masked freeze: r + q when r < 0, without a branch. Maps (-q, q) onto the
/// canonical residues [0, q).
template <class P, class C>
C freeze(C r) {
  return static_cast<C>(r + ((r >> (P::kRBits - 1)) & C(P::q)));
}

/// Canonical a + b and a - b mod q, for canonical a and b.
template <class P, class C>
C add_q(C a, C b) {
  return freeze<P>(static_cast<C>(a + b - C(P::q)));
}

template <class P, class C>
C sub_q(C a, C b) {
  return freeze<P>(static_cast<C>(a - b));
}

/// Canonical a * b * R^-1 mod q, for |a * b| < P::kReduceBound (any two
/// values in (-q, q) qualify). With b a twiddle stored times R this is
/// a * twiddle.
template <class P, class C>
C mont_mul(C a, C b) {
  using W = rebind_word_t<C, typename P::Wide>;
  return freeze<P>(montgomery_reduce<P>(W(a) * W(b)));
}

/// The canonical residue a mod q in [0, q), for |a| < P::kReduceBound. The
/// first reduction yields a * R^-1; multiplying by R^2 and reducing again
/// restores a.
template <class P, class W>
rebind_word_t<W, typename P::Coeff> reduce(W a) {
  using C = rebind_word_t<W, typename P::Coeff>;
  return mont_mul<P>(montgomery_reduce<P>(a), C(P::kR2));
}

/// Cooley-Tukey forward NTT of n canonical coefficients, in place,
/// consuming P::zetas[1..] in order. Outputs are canonical.
template <class P, class C>
void ntt_forward(C* f) {
  int k = 1;
  for (int len = P::n / 2; len >= P::min_len; len /= 2) {
    for (int start = 0; start < P::n; start += 2 * len) {
      const C zeta(P::zetas[static_cast<std::size_t>(k++)]);
      for (int j = start; j < start + len; ++j) {
        const C t = mont_mul<P>(zeta, f[j + len]);
        f[j + len] = sub_q<P>(f[j], t);
        f[j] = add_q<P>(f[j], t);
      }
    }
  }
}

/// Gentleman-Sande inverse of ntt_forward, including the (n / min_len)^-1
/// scale. Inputs and outputs are canonical.
template <class P, class C>
void ntt_inverse(C* f) {
  for (int len = P::min_len; len <= P::n / 2; len *= 2) {
    for (int start = 0; start < P::n; start += 2 * len) {
      const int k = (P::n / 2) / len + start / (2 * len);
      const C zeta_inv(P::inv_zetas[static_cast<std::size_t>(k)]);
      for (int j = start; j < start + len; ++j) {
        const C t = f[j];
        f[j] = add_q<P>(t, f[j + len]);
        f[j + len] = mont_mul<P>(zeta_inv, static_cast<C>(t - f[j + len]));
      }
    }
  }
  const C n_inv(P::n_inv);
  for (int i = 0; i < P::n; ++i) f[i] = mont_mul<P>(n_inv, f[i]);
}

}  // namespace convolve::crypto::detail
