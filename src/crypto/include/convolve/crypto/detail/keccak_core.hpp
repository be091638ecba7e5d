// Keccak-f[1600] permutation, generic over the 64-bit lane type.
//
// The permutation runs in place on the 25 lanes (lane x + 5y), one
// unrolled round at a time: theta from the 5 column parities (each lane
// picks up its column term as it is read), rho+pi as one 24-lane cycle that
// carries each lane to its pi position rotated by its rho offset, chi row
// by row through a 5-lane temporary, then iota.
// Rotation offsets, lane indices and round constants are all public; the
// only data-dependent operations are xor/and/not on whole lanes, so the
// permutation is constant-time by construction. The taint-tracking
// instantiation in the static analyzer certifies exactly that for the code
// production keccak.cpp runs.
#pragma once

#include <cstdint>

namespace convolve::crypto::detail {

inline constexpr int kKeccakRounds = 24;

inline constexpr std::uint64_t kKeccakRoundConstants[kKeccakRounds] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull,
};

template <class W>
constexpr W keccak_rotl(W x, unsigned n) {
  if (n == 0) return x;
  return W((x << static_cast<int>(n)) | (x >> static_cast<int>(64 - n)));
}

/// One step of the rho+pi cycle: lane `to` receives the travelling lane
/// `t` rotated by `rho` (the offset of the lane `t` came from), and its own
/// value, with theta's column term `d` applied, travels on in `t`.
template <class W>
void keccak_pi_step(W a[25], W& t, const W d[5], int to, unsigned rho) {
  const W next = a[to] ^ d[to % 5];
  a[to] = keccak_rotl(t, rho);
  t = next;
}

template <class W>
void keccak_permute(W a[25]) {
  for (int round = 0; round < kKeccakRounds; ++round) {
    // Theta: the column parities give one term per column, which every
    // lane picks up as the rho+pi cycle below reads it.
    const W c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
    const W c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
    const W c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
    const W c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
    const W c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
    const W d[5] = {c4 ^ keccak_rotl(c1, 1), c0 ^ keccak_rotl(c2, 1),
                    c1 ^ keccak_rotl(c3, 1), c2 ^ keccak_rotl(c4, 1),
                    c3 ^ keccak_rotl(c0, 1)};
    // Rho + Pi: lane (x, y) goes to (y, 2x + 3y), which walks every lane
    // but lane 0 in one cycle starting at lane 1.
    a[0] = a[0] ^ d[0];
    W t = a[1] ^ d[1];
    keccak_pi_step(a, t, d, 10, 1);
    keccak_pi_step(a, t, d, 7, 3);
    keccak_pi_step(a, t, d, 11, 6);
    keccak_pi_step(a, t, d, 17, 10);
    keccak_pi_step(a, t, d, 18, 15);
    keccak_pi_step(a, t, d, 3, 21);
    keccak_pi_step(a, t, d, 5, 28);
    keccak_pi_step(a, t, d, 16, 36);
    keccak_pi_step(a, t, d, 8, 45);
    keccak_pi_step(a, t, d, 21, 55);
    keccak_pi_step(a, t, d, 24, 2);
    keccak_pi_step(a, t, d, 4, 14);
    keccak_pi_step(a, t, d, 15, 27);
    keccak_pi_step(a, t, d, 23, 41);
    keccak_pi_step(a, t, d, 19, 56);
    keccak_pi_step(a, t, d, 13, 8);
    keccak_pi_step(a, t, d, 12, 25);
    keccak_pi_step(a, t, d, 2, 43);
    keccak_pi_step(a, t, d, 20, 62);
    keccak_pi_step(a, t, d, 14, 18);
    keccak_pi_step(a, t, d, 22, 39);
    keccak_pi_step(a, t, d, 9, 61);
    keccak_pi_step(a, t, d, 6, 20);
    keccak_pi_step(a, t, d, 1, 44);
    // Chi.
    for (int y = 0; y < 25; y += 5) {
      const W r0 = a[y], r1 = a[y + 1], r2 = a[y + 2], r3 = a[y + 3],
              r4 = a[y + 4];
      a[y] = r0 ^ (~r1 & r2);
      a[y + 1] = r1 ^ (~r2 & r3);
      a[y + 2] = r2 ^ (~r3 & r4);
      a[y + 3] = r3 ^ (~r4 & r0);
      a[y + 4] = r4 ^ (~r0 & r1);
    }
    // Iota.
    a[0] = a[0] ^ W(kKeccakRoundConstants[round]);
  }
}

}  // namespace convolve::crypto::detail
