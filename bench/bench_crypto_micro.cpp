// google-benchmark microbenchmarks of the cryptographic substrate.
//
// These are the primitives the TEE's boot, attestation and sealing paths
// spend their time in; the relative costs (ML-DSA sign >> Ed25519 sign >>
// AES block) are what motivates the paper's hardware acceleration of
// Keccak/AES and its bootrom/stack findings.
#include <benchmark/benchmark.h>

#include "convolve/crypto/aead.hpp"
#include "convolve/crypto/aes.hpp"
#include "convolve/crypto/chacha20.hpp"
#include "convolve/crypto/dilithium.hpp"
#include "convolve/crypto/ed25519.hpp"
#include "convolve/crypto/keccak.hpp"
#include "convolve/crypto/kyber.hpp"
#include "convolve/crypto/sha512.hpp"

namespace {

using namespace convolve;
using namespace convolve::crypto;

void BM_Sha3_256_1KiB(benchmark::State& state) {
  const Bytes data(1024, 0x5a);
  for (auto _ : state) benchmark::DoNotOptimize(sha3_256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha3_256_1KiB);

// The enclave measurement in create_enclave: SHA3-512 of a 256 KiB image.
void BM_Sha3_512_256KiB(benchmark::State& state) {
  const Bytes data(256 * 1024, 0x5a);
  for (auto _ : state) benchmark::DoNotOptimize(sha3_512(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Sha3_512_256KiB);

void BM_Sha512_1KiB(benchmark::State& state) {
  const Bytes data(1024, 0x5a);
  for (auto _ : state) benchmark::DoNotOptimize(sha512(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha512_1KiB);

void BM_Aes256_Block(benchmark::State& state) {
  const Aes aes(Aes::KeySize::k256, Bytes(32, 1));
  std::uint8_t block[16] = {};
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_Aes256_Block);

// Bitsliced CTR: 64 B is one partial batch, 4096 B four full ones.
void BM_Aes256Ctr(benchmark::State& state) {
  const Bytes key(32, 1), nonce(12, 2);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes256_ctr(key, nonce, 0, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Aes256Ctr)->Arg(64)->Arg(1024)->Arg(4096);

void BM_ChaCha20_1KiB(benchmark::State& state) {
  const Bytes key(32, 2), nonce(12, 3), data(1024, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chacha20_xor(key, nonce, 0, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_ChaCha20_1KiB);

void BM_Ed25519_Sign(benchmark::State& state) {
  const auto kp = ed25519_keypair(Bytes(32, 4));
  const Bytes msg(64, 7);
  for (auto _ : state) benchmark::DoNotOptimize(ed25519_sign(kp, msg));
}
BENCHMARK(BM_Ed25519_Sign);

void BM_Ed25519_Verify(benchmark::State& state) {
  const auto kp = ed25519_keypair(Bytes(32, 4));
  const Bytes msg(64, 7);
  const auto sig = ed25519_sign(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ed25519_verify({kp.public_key.data(), 32}, msg, {sig.data(), 64}));
  }
}
BENCHMARK(BM_Ed25519_Verify);

void BM_MlDsa44_Sign(benchmark::State& state) {
  const auto kp = dilithium::keygen(Bytes(32, 5));
  const Bytes msg(64, 8);
  for (auto _ : state) benchmark::DoNotOptimize(dilithium::sign(kp.sk, msg));
}
BENCHMARK(BM_MlDsa44_Sign);

void BM_MlDsa44_Verify(benchmark::State& state) {
  const auto kp = dilithium::keygen(Bytes(32, 5));
  const Bytes msg(64, 8);
  const Bytes sig = dilithium::sign(kp.sk, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dilithium::verify(kp.pk, msg, sig));
  }
}
BENCHMARK(BM_MlDsa44_Verify);

void BM_MlKem512_EncapsDecaps(benchmark::State& state) {
  const auto kp = kyber::keygen(Bytes(64, 6));
  for (auto _ : state) {
    const auto enc = kyber::encaps(kp.ek, Bytes(32, 9));
    benchmark::DoNotOptimize(kyber::decaps(kp.dk, enc.ciphertext));
  }
}
BENCHMARK(BM_MlKem512_EncapsDecaps);

void BM_Seal(benchmark::State& state) {
  const Bytes key(32, 10), nonce(12, 11);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead_seal(key, nonce, data, {}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Seal)->Arg(64)->Arg(1024)->Arg(4096);

}  // namespace
