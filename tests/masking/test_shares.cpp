#include "convolve/masking/shares.hpp"

#include <gtest/gtest.h>

namespace convolve::masking {
namespace {

class SharesTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SharesTest, EncodeDecodeRoundTrip) {
  const unsigned order = GetParam();
  RandomnessSource rnd(1234);
  for (std::uint64_t v : {0ull, 1ull, 0xffull, 0xdeadbeefull}) {
    const auto w = MaskedWord::encode(v, order, 32, rnd);
    EXPECT_EQ(w.decode(), v & 0xffffffffull);
    EXPECT_EQ(w.order(), order);
  }
}

TEST_P(SharesTest, XorIsHomomorphic) {
  const unsigned order = GetParam();
  RandomnessSource rnd(99);
  Xoshiro256 values(5);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = values.next_u64() & 0xffffffff;
    const std::uint64_t b = values.next_u64() & 0xffffffff;
    const auto ma = MaskedWord::encode(a, order, 32, rnd);
    const auto mb = MaskedWord::encode(b, order, 32, rnd);
    EXPECT_EQ((ma ^ mb).decode(), a ^ b);
  }
}

TEST_P(SharesTest, DomAndIsCorrect) {
  const unsigned order = GetParam();
  RandomnessSource rnd(7);
  Xoshiro256 values(6);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = values.next_u64() & 0xffffffff;
    const std::uint64_t b = values.next_u64() & 0xffffffff;
    const auto ma = MaskedWord::encode(a, order, 32, rnd);
    const auto mb = MaskedWord::encode(b, order, 32, rnd);
    EXPECT_EQ(MaskedWord::dom_and(ma, mb, rnd).decode(), a & b);
  }
}

TEST_P(SharesTest, NotComplementsValue) {
  const unsigned order = GetParam();
  RandomnessSource rnd(11);
  const auto w = MaskedWord::encode(0x0f0f0f0f, order, 32, rnd);
  EXPECT_EQ((~w).decode(), 0xf0f0f0f0u);
}

TEST_P(SharesTest, RotlActsOnValue) {
  const unsigned order = GetParam();
  RandomnessSource rnd(13);
  const auto w = MaskedWord::encode(0x80000001, order, 32, rnd);
  EXPECT_EQ(w.rotl(1).decode(), 0x00000003u);
  EXPECT_EQ(w.rotl(4).decode(), 0x00000018u);
  EXPECT_EQ(w.rotl(0).decode(), 0x80000001u);
  EXPECT_EQ(w.rotl(32).decode(), 0x80000001u);
  const auto w64 = MaskedWord::encode(0x8000000000000001ull, order, 64, rnd);
  EXPECT_EQ(w64.rotl(1).decode(), 0x0000000000000003ull);
  EXPECT_EQ(w64.rotl(0).decode(), 0x8000000000000001ull);
  EXPECT_EQ(w64.rotl(64).decode(), 0x8000000000000001ull);
}

TEST_P(SharesTest, RefreshPreservesValueChangesShares) {
  const unsigned order = GetParam();
  RandomnessSource rnd(17);
  const auto w = MaskedWord::encode(0xabcd, order, 16, rnd);
  const auto r = w.refresh(rnd);
  EXPECT_EQ(r.decode(), 0xabcdull);
  if (order > 0) {
    EXPECT_NE(r.shares(), w.shares());
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, SharesTest, ::testing::Values(0u, 1u, 2u, 3u),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

TEST(Shares, RandomnessCostMatchesDomFormula) {
  // DOM-AND at order d must draw exactly d(d+1)/2 fresh words.
  for (unsigned d : {0u, 1u, 2u, 3u, 4u}) {
    RandomnessSource rnd(21);
    const auto a = MaskedWord::encode(1, d, 8, rnd);
    const auto b = MaskedWord::encode(2, d, 8, rnd);
    rnd.reset_counter();
    (void)MaskedWord::dom_and(a, b, rnd);
    EXPECT_EQ(rnd.bits_drawn(), MaskedWord::dom_and_random_bits(d, 8))
        << "order " << d;
    EXPECT_EQ(rnd.bits_drawn(), static_cast<std::uint64_t>(d) * (d + 1) / 2 * 8);
  }
}

TEST(Shares, EncodingSharesLookRandom) {
  // At order 1, share 1 must not equal the secret systematically.
  RandomnessSource rnd(31);
  int equal = 0;
  for (int i = 0; i < 200; ++i) {
    const auto w = MaskedWord::encode(0xaa, 1, 8, rnd);
    equal += (w.shares()[1] == 0xaa);
  }
  EXPECT_LT(equal, 20);  // ~200/256 expected by chance
}

TEST(Shares, IncompatibleOperandsThrow) {
  RandomnessSource rnd(41);
  const auto a = MaskedWord::encode(1, 1, 8, rnd);
  const auto b = MaskedWord::encode(1, 2, 8, rnd);
  const auto c = MaskedWord::encode(1, 1, 16, rnd);
  EXPECT_THROW((void)(a ^ b), std::invalid_argument);
  EXPECT_THROW((void)(a ^ c), std::invalid_argument);
  EXPECT_THROW(MaskedWord::dom_and(a, b, rnd), std::invalid_argument);
}

TEST(Shares, BadWidthsThrow) {
  RandomnessSource rnd(43);
  EXPECT_THROW(MaskedWord::encode(0, 1, 0, rnd), std::invalid_argument);
  EXPECT_THROW(MaskedWord::encode(0, 1, 65, rnd), std::invalid_argument);
  EXPECT_THROW(rnd.draw(0), std::invalid_argument);
  EXPECT_THROW(rnd.draw(65), std::invalid_argument);
}

TEST(Shares, FullWidth64Works) {
  RandomnessSource rnd(47);
  const std::uint64_t v = 0x123456789abcdef0ull;
  const auto w = MaskedWord::encode(v, 2, 64, rnd);
  EXPECT_EQ(w.decode(), v);
}

}  // namespace
}  // namespace convolve::masking
