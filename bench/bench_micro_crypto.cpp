// Engineering micro-benchmarks: SHA-256 throughput (served and portable
// variants), BigUint modexp, RSA keygen/sign/verify/decrypt across key
// sizes, and one gradient upload's hybrid encrypt + decrypt round trip.

#include <benchmark/benchmark.h>

#include "crypto/hybrid.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "support/simd.hpp"

namespace {

using namespace fairbfl;

/// Sha256::hash on the variant this CPU serves (the label says which).
/// 31425 bytes is one signed d=7850 upload transaction.
void BM_Sha256Throughput(benchmark::State& state) {
    const std::vector<std::uint8_t> data(
        static_cast<std::size_t>(state.range(0)), 0xAB);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
    state.SetLabel(support::simd::sha256_variant());
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(1024)->Arg(31425)->Arg(65536);

/// The same messages through the portable compression, so the ledger
/// carries both rates on a CPU that serves the SHA extensions.  The message
/// is padded once outside the loop; padding is a few bytes of the work.
void BM_Sha256ThroughputPortable(benchmark::State& state) {
    const auto size = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint8_t> blocks(size, 0xAB);
    blocks.push_back(0x80);
    while (blocks.size() % 64 != 56) blocks.push_back(0);
    for (int i = 7; i >= 0; --i)
        blocks.push_back(static_cast<std::uint8_t>((size * 8) >> (8 * i)));
    const support::simd::Sha256Blocks portable =
        support::simd::detail::portable_sha256_blocks();
    for (auto _ : state) {
        std::uint32_t words[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                  0xa54ff53a, 0x510e527f, 0x9b05688c,
                                  0x1f83d9ab, 0x5be0cd19};
        portable(words, blocks.data(), blocks.size() / 64);
        benchmark::DoNotOptimize(words);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
    state.SetLabel("portable");
}
BENCHMARK(BM_Sha256ThroughputPortable)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(31425)
    ->Arg(65536);

void BM_BigUintMul(benchmark::State& state) {
    support::Rng rng(1);
    const auto a = crypto::BigUint::random_bits(
        static_cast<std::size_t>(state.range(0)), rng);
    const auto b = crypto::BigUint::random_bits(
        static_cast<std::size_t>(state.range(0)), rng);
    for (auto _ : state) benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_BigUintMul)->Arg(256)->Arg(512)->Arg(1024);

void BM_BigUintModPow(benchmark::State& state) {
    support::Rng rng(2);
    const auto bits = static_cast<std::size_t>(state.range(0));
    auto modulus = crypto::BigUint::random_bits(bits, rng);
    if (!modulus.is_odd()) modulus = modulus + crypto::BigUint(1);
    const auto base = crypto::BigUint::random_bits(bits - 1, rng);
    const auto exponent = crypto::BigUint::random_bits(bits - 1, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            crypto::BigUint::mod_pow(base, exponent, modulus));
}
BENCHMARK(BM_BigUintModPow)->Arg(256)->Arg(512);

void BM_RsaKeygen(benchmark::State& state) {
    std::uint64_t seed = 0;
    for (auto _ : state) {
        support::Rng rng(seed++);
        benchmark::DoNotOptimize(crypto::generate_keypair(
            static_cast<std::size_t>(state.range(0)), rng));
    }
}
BENCHMARK(BM_RsaKeygen)->Arg(384)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_RsaSign(benchmark::State& state) {
    support::Rng rng(3);
    const auto keys = crypto::generate_keypair(
        static_cast<std::size_t>(state.range(0)), rng);
    const std::vector<std::uint8_t> payload(2600, 0x42);  // ~a gradient tx
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::sign_payload(keys.priv, payload));
}
BENCHMARK(BM_RsaSign)->Arg(384)->Arg(512)->Arg(1024);

void BM_RsaVerify(benchmark::State& state) {
    support::Rng rng(4);
    const auto keys = crypto::generate_keypair(
        static_cast<std::size_t>(state.range(0)), rng);
    const std::vector<std::uint8_t> payload(2600, 0x42);
    const auto signature = crypto::sign_payload(keys.priv, payload);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            crypto::verify_payload(keys.pub, payload, signature));
}
BENCHMARK(BM_RsaVerify)->Arg(384)->Arg(512)->Arg(1024);

void BM_RsaDecrypt(benchmark::State& state) {
    support::Rng rng(5);
    const auto keys = crypto::generate_keypair(
        static_cast<std::size_t>(state.range(0)), rng);
    const std::vector<std::uint8_t> message(24, 0x5A);  // key || nonce
    const auto ciphertext = crypto::encrypt(keys.pub, message);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::decrypt(keys.priv, ciphertext));
}
BENCHMARK(BM_RsaDecrypt)->Arg(384)->Arg(512)->Arg(1024);

/// One encrypted upload as FAIR-BFL's Procedure II runs it: a 31,440-byte
/// payload (about one 7,850-parameter gradient transaction) sealed to a
/// 512-bit miner key and opened again.
void BM_HybridRoundTrip(benchmark::State& state) {
    support::Rng rng(6);
    const auto keys = crypto::generate_keypair(512, rng);
    const std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(state.range(0)), 0x42);
    for (auto _ : state) {
        const auto ciphertext = crypto::hybrid_encrypt(keys.pub, payload, rng);
        benchmark::DoNotOptimize(crypto::hybrid_decrypt(keys.priv, ciphertext));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_HybridRoundTrip)->Arg(31440)->Unit(benchmark::kMicrosecond);

}  // namespace
