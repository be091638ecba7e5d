#include "convolve/masking/shares.hpp"

#include <stdexcept>

namespace convolve::masking {

std::uint64_t RandomnessSource::draw(unsigned width) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("RandomnessSource::draw: bad width");
  }
  bits_drawn_ += width;
  const std::uint64_t v = rng_.next_u64();
  return (width >= 64) ? v : (v & ((1ull << width) - 1));
}

MaskedWord MaskedWord::encode(std::uint64_t value, unsigned order,
                              unsigned width, RandomnessSource& rnd) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("MaskedWord::encode: bad width");
  }
  MaskedWord w;
  w.width_ = width;
  w.shares_.resize(order + 1);
  std::uint64_t acc = value & w.mask();
  for (unsigned i = 1; i <= order; ++i) {
    w.shares_[i] = rnd.draw(width);
    acc ^= w.shares_[i];
  }
  w.shares_[0] = acc;
  return w;
}

std::uint64_t MaskedWord::decode() const {
  std::uint64_t v = 0;
  for (auto s : shares_) v ^= s;
  return v & mask();
}

MaskedWord operator^(const MaskedWord& a, const MaskedWord& b) {
  if (a.shares_.size() != b.shares_.size() || a.width_ != b.width_) {
    throw std::invalid_argument("MaskedWord::xor: incompatible operands");
  }
  MaskedWord r = a;
  for (std::size_t i = 0; i < r.shares_.size(); ++i) r.shares_[i] ^= b.shares_[i];
  return r;
}

MaskedWord MaskedWord::operator~() const {
  MaskedWord r = *this;
  r.shares_[0] = (~r.shares_[0]) & mask();
  return r;
}

MaskedWord MaskedWord::rotl(unsigned n) const {
  MaskedWord r = *this;
  const unsigned w = width_;
  n %= w;
  if (n == 0) return r;  // s >> w would be UB at w == 64
  for (auto& s : r.shares_) {
    s = ((s << n) | (s >> (w - n))) & mask();
  }
  return r;
}

MaskedWord MaskedWord::zero(unsigned order, unsigned width) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("MaskedWord::zero: bad width");
  }
  MaskedWord w;
  w.width_ = width;
  w.shares_.assign(order + 1, 0);
  return w;
}

MaskedWord MaskedWord::from_shares(std::vector<std::uint64_t> shares,
                                   unsigned width) {
  if (width == 0 || width > 64 || shares.empty()) {
    throw std::invalid_argument("MaskedWord::from_shares: bad arguments");
  }
  MaskedWord w;
  w.width_ = width;
  w.shares_ = std::move(shares);
  for (auto& s : w.shares_) s &= w.mask();
  return w;
}

MaskedWord MaskedWord::and_mask(std::uint64_t m) const {
  MaskedWord r = *this;
  for (auto& s : r.shares_) s &= m & mask();
  return r;
}

MaskedWord MaskedWord::xor_const(std::uint64_t value) const {
  MaskedWord r = *this;
  r.shares_[0] ^= value & mask();
  return r;
}

MaskedWord MaskedWord::shifted_left(unsigned n, unsigned new_width) const {
  if (new_width == 0 || new_width > 64) {
    throw std::invalid_argument("MaskedWord::shifted_left: bad width");
  }
  MaskedWord r = *this;
  r.width_ = new_width;
  const std::uint64_t m =
      (new_width >= 64) ? ~0ull : ((1ull << new_width) - 1);
  for (auto& s : r.shares_) s = (s << n) & m;
  return r;
}

MaskedWord MaskedWord::truncated(unsigned new_width) const {
  if (new_width == 0 || new_width > width_) {
    throw std::invalid_argument("MaskedWord::truncated: bad width");
  }
  MaskedWord r = *this;
  r.width_ = new_width;
  for (auto& s : r.shares_) s &= (new_width >= 64) ? ~0ull : ((1ull << new_width) - 1);
  return r;
}

MaskedWord MaskedWord::replicate_bit(unsigned bit, unsigned out_width) const {
  if (out_width == 0 || out_width > 64) {
    throw std::invalid_argument("MaskedWord::replicate_bit: bad width");
  }
  MaskedWord r = *this;
  r.width_ = out_width;
  const std::uint64_t m =
      (out_width >= 64) ? ~0ull : ((1ull << out_width) - 1);
  for (auto& s : r.shares_) s = ((s >> bit) & 1ull) ? m : 0ull;
  return r;
}

MaskedWord MaskedWord::dom_and(const MaskedWord& a, const MaskedWord& b,
                               RandomnessSource& rnd) {
  if (a.shares_.size() != b.shares_.size() || a.width_ != b.width_) {
    throw std::invalid_argument("MaskedWord::dom_and: incompatible operands");
  }
  const std::size_t n = a.shares_.size();  // d + 1
  MaskedWord r;
  r.width_ = a.width_;
  r.shares_.assign(n, 0);
  // Inner-domain terms.
  for (std::size_t i = 0; i < n; ++i) {
    r.shares_[i] = a.shares_[i] & b.shares_[i];
  }
  // Cross-domain terms, each blinded by fresh randomness r_ij shared
  // between the (i,j) and (j,i) terms.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::uint64_t fresh = rnd.draw(a.width_);
      r.shares_[i] ^= (a.shares_[i] & b.shares_[j]) ^ fresh;
      r.shares_[j] ^= (a.shares_[j] & b.shares_[i]) ^ fresh;
    }
  }
  return r;
}

MaskedWord MaskedWord::refresh(RandomnessSource& rnd) const {
  MaskedWord r = *this;
  for (std::size_t i = 1; i < r.shares_.size(); ++i) {
    const std::uint64_t fresh = rnd.draw(width_);
    r.shares_[0] ^= fresh;
    r.shares_[i] ^= fresh;
  }
  return r;
}

}  // namespace convolve::masking
