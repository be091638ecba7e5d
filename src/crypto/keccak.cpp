#include "convolve/crypto/keccak.hpp"

#include <algorithm>
#include <stdexcept>

#include "convolve/crypto/detail/keccak_core.hpp"

namespace convolve::crypto {

void keccak_f1600(std::array<std::uint64_t, 25>& a) {
  detail::keccak_permute(a.data());
}

KeccakSponge::KeccakSponge(std::size_t rate_bytes, std::uint8_t domain_suffix)
    : rate_(rate_bytes), suffix_(domain_suffix) {
  if (rate_bytes == 0 || rate_bytes >= 200 || rate_bytes % 8 != 0) {
    throw std::invalid_argument("KeccakSponge: invalid rate");
  }
}

void KeccakSponge::xor_byte_into_state(std::size_t pos, std::uint8_t b) {
  state_[pos / 8] ^= static_cast<std::uint64_t>(b) << (8 * (pos % 8));
}

std::uint8_t KeccakSponge::state_byte(std::size_t pos) const {
  return static_cast<std::uint8_t>(state_[pos / 8] >> (8 * (pos % 8)));
}

void KeccakSponge::absorb(ByteView data) {
  if (squeezing_) throw std::logic_error("KeccakSponge: absorb after squeeze");
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n > 0) {
    if (offset_ % 8 == 0 && n >= 8) {
      // Whole lanes up to the end of the block or of the data.
      const std::size_t lanes = std::min(rate_ - offset_, n) / 8;
      for (std::size_t i = 0; i < lanes; ++i) {
        state_[offset_ / 8 + i] ^= load_le64(p + 8 * i);
      }
      offset_ += 8 * lanes;
      p += 8 * lanes;
      n -= 8 * lanes;
    } else {
      xor_byte_into_state(offset_++, *p++);
      --n;
    }
    if (offset_ == rate_) {
      keccak_f1600(state_);
      offset_ = 0;
    }
  }
}

void KeccakSponge::finalize() {
  if (squeezing_) return;
  xor_byte_into_state(offset_, suffix_);
  xor_byte_into_state(rate_ - 1, 0x80);
  keccak_f1600(state_);
  offset_ = 0;
  squeezing_ = true;
}

void KeccakSponge::squeeze(std::span<std::uint8_t> out) {
  finalize();
  std::uint8_t* p = out.data();
  std::size_t n = out.size();
  while (n > 0) {
    if (offset_ == rate_) {
      keccak_f1600(state_);
      offset_ = 0;
    }
    if (offset_ % 8 == 0 && n >= 8) {
      const std::size_t lanes = std::min(rate_ - offset_, n) / 8;
      for (std::size_t i = 0; i < lanes; ++i) {
        store_le64(p + 8 * i, state_[offset_ / 8 + i]);
      }
      offset_ += 8 * lanes;
      p += 8 * lanes;
      n -= 8 * lanes;
    } else {
      *p++ = state_byte(offset_++);
      --n;
    }
  }
}

namespace {
Bytes fixed_hash(ByteView data, std::size_t digest_len) {
  KeccakSponge sponge(200 - 2 * digest_len, 0x06);
  sponge.absorb(data);
  Bytes out(digest_len);
  sponge.squeeze(out);
  return out;
}
}  // namespace

Bytes sha3_256(ByteView data) { return fixed_hash(data, 32); }
Bytes sha3_512(ByteView data) { return fixed_hash(data, 64); }

Bytes shake128(ByteView data, std::size_t out_len) {
  Shake x(Shake::Variant::k128);
  x.absorb(data);
  return x.squeeze(out_len);
}

Bytes shake256(ByteView data, std::size_t out_len) {
  Shake x(Shake::Variant::k256);
  x.absorb(data);
  return x.squeeze(out_len);
}

}  // namespace convolve::crypto
