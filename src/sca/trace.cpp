#include "convolve/sca/trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "convolve/common/leakage_model.hpp"

namespace convolve::sca {

using masking::Gate;
using masking::GateKind;

namespace {
// kSpread[b]: byte j of the entry equals bit j of b. Spreading one byte of
// a counter plane drops the plane bit of 8 adjacent lanes into 8 separate
// byte slots, so a whole lane group assembles its counter value with one
// table load + shift per plane instead of per (lane, plane) bit tests.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> t{};
  for (int b = 0; b < 256; ++b) {
    std::uint64_t v = 0;
    for (int j = 0; j < 8; ++j) {
      v |= static_cast<std::uint64_t>((b >> j) & 1) << (8 * j);
    }
    t[static_cast<std::size_t>(b)] = v;
  }
  return t;
}();
// One block's subset-popcount accumulation (see accumulate_block_sums):
// for every sample, AND together each nonempty subset of its counter
// planes and add two masked popcounts -- class lanes low, active lanes
// high -- into the packed count words. kPlanes > 0 instantiations have a
// compile-time subset count, so the loop unrolls and the subset ANDs stay
// in registers; kPlanes == 0 is the any-width fallback.
template <int kPlanes>
[[gnu::always_inline]] inline void subset_counts_one_sample(
    const std::uint64_t* pl, std::size_t nsub, std::uint64_t in_mask,
    std::uint64_t active, std::uint64_t* cnt) {
  constexpr std::size_t kN =
      kPlanes > 0 ? (std::size_t{1} << kPlanes) - 1 : 255;
  std::uint64_t sub[kN + 1];
  const std::size_t n = kPlanes > 0 ? kN : nsub;
#pragma GCC unroll 16
  for (std::size_t m = 1; m <= n; ++m) {
    const int low = std::countr_zero(m);
    const std::size_t rest = m & (m - 1);
    const std::uint64_t a = rest == 0 ? pl[low] : (sub[rest] & pl[low]);
    sub[m] = a;
    cnt[m - 1] +=
        static_cast<std::uint64_t>(std::popcount(a & in_mask)) |
        (static_cast<std::uint64_t>(std::popcount(a & active)) << 32);
  }
}

using SubsetSweepFn = void (*)(const std::uint64_t*, int, int, std::size_t,
                               std::uint64_t, std::uint64_t, std::uint64_t*);

template <int kPlanes>
void subset_counts_sweep(const std::uint64_t* counters, int samples,
                         int planes, std::size_t nsub, std::uint64_t in_mask,
                         std::uint64_t active, std::uint64_t* cnt) {
  for (int s = 0; s < samples; ++s) {
    subset_counts_one_sample<kPlanes>(
        counters + static_cast<std::size_t>(s) * planes, nsub, in_mask,
        active, cnt + static_cast<std::size_t>(s) * nsub);
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
// Same body compiled with the POPCNT instruction enabled; the baseline
// build stays generic x86-64 and this version is only ever selected after
// a __builtin_cpu_supports check, so the binary remains portable.
template <int kPlanes>
__attribute__((target("popcnt"))) void subset_counts_sweep_popcnt(
    const std::uint64_t* counters, int samples, int planes, std::size_t nsub,
    std::uint64_t in_mask, std::uint64_t active, std::uint64_t* cnt) {
  for (int s = 0; s < samples; ++s) {
    subset_counts_one_sample<kPlanes>(
        counters + static_cast<std::size_t>(s) * planes, nsub, in_mask,
        active, cnt + static_cast<std::size_t>(s) * nsub);
  }
}
#endif

SubsetSweepFn pick_subset_sweep(int planes) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("popcnt")) {
    switch (planes) {
      case 1: return subset_counts_sweep_popcnt<1>;
      case 2: return subset_counts_sweep_popcnt<2>;
      case 3: return subset_counts_sweep_popcnt<3>;
      case 4: return subset_counts_sweep_popcnt<4>;
      default: return subset_counts_sweep_popcnt<0>;
    }
  }
#endif
  switch (planes) {
    case 1: return subset_counts_sweep<1>;
    case 2: return subset_counts_sweep<2>;
    case 3: return subset_counts_sweep<3>;
    case 4: return subset_counts_sweep<4>;
    default: return subset_counts_sweep<0>;
  }
}

}  // namespace

PowerTraceSimulator::PowerTraceSimulator(const masking::Circuit& circuit,
                                         TraceConfig config)
    : circuit_(circuit), config_(config) {
  depth_.resize(circuit.num_gates(), 0);
  const auto& gates = circuit.gates();
  int max_depth = 0;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    int d = 0;
    switch (g.kind) {
      case GateKind::kInput:
      case GateKind::kRandom:
      case GateKind::kConst:
        d = 0;
        break;
      case GateKind::kNot:
      case GateKind::kReg:
        d = depth_[static_cast<std::size_t>(g.a)] + 1;
        break;
      case GateKind::kAnd:
      case GateKind::kXor:
        d = std::max(depth_[static_cast<std::size_t>(g.a)],
                     depth_[static_cast<std::size_t>(g.b)]) +
            1;
        break;
    }
    depth_[i] = d;
    max_depth = std::max(max_depth, d);
  }
  samples_ = max_depth + 1;

  // Sizing for the bitsliced vertical counters: a depth group of k gates
  // accumulates Hamming sums up to k, so bit_width(k) planes per group
  // suffice; use the widest group's width as a uniform stride.
  std::vector<int> group_count(static_cast<std::size_t>(samples_), 0);
  for (int d : depth_) ++group_count[static_cast<std::size_t>(d)];
  int max_count = 0;
  for (int c : group_count) max_count = std::max(max_count, c);
  counter_planes_ =
      std::bit_width(static_cast<unsigned>(max_count));

  // Counting sort of the gates by depth group (stable: ascending gate
  // index within a group) for the register-resident counter accumulation.
  group_end_.resize(static_cast<std::size_t>(samples_));
  int acc = 0;
  for (int s = 0; s < samples_; ++s) {
    acc += group_count[static_cast<std::size_t>(s)];
    group_end_[static_cast<std::size_t>(s)] = acc;
  }
  gates_by_depth_.resize(depth_.size());
  std::vector<int> next(static_cast<std::size_t>(samples_), 0);
  for (int s = 1; s < samples_; ++s) {
    next[static_cast<std::size_t>(s)] = group_end_[static_cast<std::size_t>(s - 1)];
  }
  for (std::size_t i = 0; i < depth_.size(); ++i) {
    gates_by_depth_[static_cast<std::size_t>(
        next[static_cast<std::size_t>(depth_[i])]++)] = static_cast<int>(i);
  }

  // Subset moment coefficients (see k13_/k24_ in the header). A counter
  // value is v = sum_p 2^p * b_p with b_p in {0,1}, so b_p^2 = b_p and
  // expanding v^k collapses every term onto a *subset* T of planes; the
  // coefficient of popcount(AND of T) follows by inclusion-exclusion over
  // sub-subsets, where a subset's weight sum_p 2^p is just its mask value.
  if (counter_planes_ <= 8) {
    const std::size_t nsub =
        (static_cast<std::size_t>(1) << counter_planes_) - 1;
    k13_.assign(nsub + 1, 0);
    k24_.assign(nsub + 1, 0);
    for (std::size_t m = 1; m <= nsub; ++m) {
      std::int64_t c1 = 0, c2 = 0, c3 = 0, c4 = 0;
      std::size_t sub = m;
      while (true) {
        const std::int64_t sign =
            ((std::popcount(m) - std::popcount(sub)) & 1) ? -1 : 1;
        const std::int64_t w = static_cast<std::int64_t>(sub);
        c1 += sign * w;
        c2 += sign * w * w;
        c3 += sign * w * w * w;
        c4 += sign * w * w * w * w;
        if (sub == 0) break;
        sub = (sub - 1) & m;
      }
      // The tuple counts are non-negative; c1 (only the singleton subsets)
      // fits 16 bits and c2 (subsets of size <= 2) fits 24, matching the
      // PackedMoments fields they accumulate into.
      k13_[m] = static_cast<std::uint64_t>(c1) |
                (static_cast<std::uint64_t>(c3) << 16);
      k24_[m] = static_cast<std::uint64_t>(c2) |
                (static_cast<std::uint64_t>(c4) << 24);
    }
  }
}

TraceScratch PowerTraceSimulator::make_scratch() const {
  TraceScratch s;
  s.inputs.resize(static_cast<std::size_t>(circuit_.num_inputs()), 0);
  s.randoms.resize(static_cast<std::size_t>(circuit_.num_randoms()), 0);
  s.wire.resize(circuit_.num_gates(), 0);
  s.wire_prev.resize(circuit_.num_gates(), 0);
  return s;
}

void PowerTraceSimulator::fill_randoms(Xoshiro256& rng,
                                       TraceScratch& scratch) const {
  std::uint64_t word = 0;
  for (std::size_t j = 0; j < scratch.randoms.size(); ++j) {
    if (j % 64 == 0) word = rng.next_u64();
    scratch.randoms[j] = static_cast<std::uint8_t>((word >> (j % 64)) & 1u);
  }
}

void PowerTraceSimulator::accumulate(std::span<const std::uint8_t> wire,
                                     std::span<double> out) const {
  for (std::size_t i = 0; i < wire.size(); ++i) {
    out[static_cast<std::size_t>(depth_[i])] += leakage::settle_energy(wire[i]);
  }
}

void PowerTraceSimulator::add_noise(Xoshiro256& rng,
                                    std::span<double> out) const {
  if (config_.noise_sigma <= 0.0) return;
  for (double& s : out) s += rng.normal(0.0, config_.noise_sigma);
}

void PowerTraceSimulator::capture(std::span<const std::uint8_t> inputs,
                                  Xoshiro256& rng, TraceScratch& scratch,
                                  std::span<double> out) const {
  if (static_cast<int>(out.size()) != samples_) {
    throw std::invalid_argument("capture: wrong trace length");
  }
  fill_randoms(rng, scratch);
  circuit_.evaluate_all_into(inputs, scratch.randoms, scratch.wire);
  std::fill(out.begin(), out.end(), 0.0);
  accumulate(scratch.wire, out);
  add_noise(rng, out);
}

BlockScratch PowerTraceSimulator::make_block_scratch() const {
  BlockScratch s;
  s.inputs.resize(static_cast<std::size_t>(circuit_.num_inputs()), 0);
  s.randoms.resize(static_cast<std::size_t>(circuit_.num_randoms()), 0);
  s.wire.resize(circuit_.num_gates(), 0);
  s.counters.resize(static_cast<std::size_t>(samples_) *
                        static_cast<std::size_t>(counter_planes_),
                    0);
  return s;
}

// Requires counter_planes_ <= 8 (counts fit a byte). Byte slots hold up
// to 8 bits: lane group k (lanes 8k..8k+7) assembles in one uint64 `acc`
// whose byte j accumulates lane 8k+j's counter, plane p contributing bit
// p of every byte -- then the whole group stores with a single 8-byte
// write instead of per-lane shifts.
void PowerTraceSimulator::extract_sample_bytes(const BlockScratch& scratch,
                                               int sample,
                                               std::uint8_t* vals) const {
  const int planes = counter_planes_;
  const std::uint64_t* pl = scratch.counters.data() +
                            static_cast<std::size_t>(sample) *
                                static_cast<std::size_t>(planes);
  for (int k = 0; k < 8; ++k) {
    std::uint64_t acc = 0;
    for (int p = 0; p < planes; ++p) {
      acc |= kSpread[(pl[p] >> (8 * k)) & 0xFF] << p;
    }
    std::memcpy(vals + 8 * k, &acc, 8);
  }
}

void PowerTraceSimulator::extract_sample_values(const BlockScratch& scratch,
                                                int sample,
                                                std::uint32_t* vals) const {
  const int planes = counter_planes_;
  if (planes <= 8) {
    std::uint8_t bytes[kLanes];
    extract_sample_bytes(scratch, sample, bytes);
    for (int j = 0; j < kLanes; ++j) vals[j] = bytes[j];
  } else {
    // Counter values >= 256 (depth groups with 256+ gates): generic
    // per-lane bit gather.
    const std::uint64_t* pl = scratch.counters.data() +
                              static_cast<std::size_t>(sample) *
                                  static_cast<std::size_t>(planes);
    for (int j = 0; j < kLanes; ++j) {
      std::uint32_t v = 0;
      for (int p = 0; p < planes; ++p) {
        v |= static_cast<std::uint32_t>((pl[p] >> j) & 1ull) << p;
      }
      vals[j] = v;
    }
  }
}

void PowerTraceSimulator::block_evaluate(std::span<Xoshiro256> rngs,
                                         BlockScratch& scratch,
                                         std::size_t out_size) const {
  const std::size_t n_active = rngs.size();
  if (n_active == 0 || n_active > static_cast<std::size_t>(kLanes)) {
    throw std::invalid_argument("capture_block: need 1..64 active lanes");
  }
  if (out_size != n_active * static_cast<std::size_t>(samples_)) {
    throw std::invalid_argument("capture_block: wrong output size");
  }

  // Per-lane randomness, replicating the scalar fill_randoms draw order:
  // lane j consumes one next_u64() from rngs[j] per started group of 64
  // randoms, bit r%64 of that word feeding random r.
  std::fill(scratch.randoms.begin(), scratch.randoms.end(), 0ull);
  for (std::size_t j = 0; j < n_active; ++j) {
    std::uint64_t word = 0;
    for (std::size_t r = 0; r < scratch.randoms.size(); ++r) {
      if (r % 64 == 0) word = rngs[j].next_u64();
      scratch.randoms[r] |= ((word >> (r % 64)) & 1ull) << j;
    }
  }

  circuit_.evaluate_all_lanes_into<std::uint64_t>(scratch.inputs,
                                                  scratch.randoms,
                                                  scratch.wire);

  // Vertical-counter accumulation: counter plane p of depth group d holds
  // bit p of that group's per-lane Hamming sum. Adding a wire plane is a
  // bit-serial ripple add across all 64 lanes at once. 1-bit addition is
  // exact, so walking gates grouped by depth (instead of topological
  // order) leaves every counter value unchanged -- and lets one group's
  // planes live in registers for the whole group.
  std::fill(scratch.counters.begin(), scratch.counters.end(), 0ull);
  const int planes = counter_planes_;
  if (planes <= 4) {
    std::size_t i = 0;
    for (int s = 0; s < samples_; ++s) {
      const auto end =
          static_cast<std::size_t>(group_end_[static_cast<std::size_t>(s)]);
      std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
      for (; i < end; ++i) {
        const std::uint64_t w = scratch.wire[static_cast<std::size_t>(
            gates_by_depth_[i])];
        std::uint64_t t = c0;
        c0 ^= w;
        std::uint64_t carry = t & w;
        t = c1;
        c1 ^= carry;
        carry &= t;
        t = c2;
        c2 ^= carry;
        carry &= t;
        c3 ^= carry;
      }
      const std::uint64_t cc[4] = {c0, c1, c2, c3};
      std::uint64_t* c = scratch.counters.data() +
                         static_cast<std::size_t>(s) *
                             static_cast<std::size_t>(planes);
      for (int p = 0; p < planes; ++p) c[p] = cc[p];
    }
    return;
  }
  for (std::size_t i = 0; i < scratch.wire.size(); ++i) {
    std::uint64_t* c =
        scratch.counters.data() +
        static_cast<std::size_t>(depth_[i]) * static_cast<std::size_t>(planes);
    std::uint64_t carry = scratch.wire[i];
    for (int p = 0; p < planes && carry != 0; ++p) {
      const std::uint64_t t = c[p];
      c[p] = t ^ carry;
      carry &= t;
    }
  }
}

void PowerTraceSimulator::capture_block(std::span<Xoshiro256> rngs,
                                        BlockScratch& scratch,
                                        std::span<double> out,
                                        BlockLayout layout) const {
  const std::size_t n_active = rngs.size();
  block_evaluate(rngs, scratch, out.size());

  // Extract the active lanes' samples in the requested layout. The spread
  // table assembles all 64 lanes; tails just drop the inactive suffix.
  std::uint32_t vals[kLanes];
  for (int s = 0; s < samples_; ++s) {
    extract_sample_values(scratch, s, vals);
    if (layout == BlockLayout::kSampleMajor) {
      double* col = out.data() + static_cast<std::size_t>(s) * n_active;
      for (std::size_t j = 0; j < n_active; ++j) {
        col[j] = static_cast<double>(vals[j]);
      }
    } else {
      for (std::size_t j = 0; j < n_active; ++j) {
        out[j * static_cast<std::size_t>(samples_) +
            static_cast<std::size_t>(s)] = static_cast<double>(vals[j]);
      }
    }
  }

  // Noise last. Lane j always draws its samples in ascending-s order from
  // rngs[j] -- the scalar per-trace order -- regardless of layout, so the
  // emitted values are layout-invariant.
  if (config_.noise_sigma > 0.0) {
    if (layout == BlockLayout::kSampleMajor) {
      for (std::size_t j = 0; j < n_active; ++j) {
        for (int s = 0; s < samples_; ++s) {
          out[static_cast<std::size_t>(s) * n_active + j] +=
              rngs[j].normal(0.0, config_.noise_sigma);
        }
      }
    } else {
      for (std::size_t j = 0; j < n_active; ++j) {
        add_noise(rngs[j],
                  out.subspan(j * static_cast<std::size_t>(samples_),
                              static_cast<std::size_t>(samples_)));
      }
    }
  }
}

BlockSumsAccum PowerTraceSimulator::make_block_sums_accum() const {
  BlockSumsAccum a;
  if (!k13_.empty()) {
    a.counts.assign(static_cast<std::size_t>(samples_) * (k13_.size() - 1),
                    0);
  }
  return a;
}

void PowerTraceSimulator::accumulate_block_sums(std::span<Xoshiro256> rngs,
                                                BlockScratch& scratch,
                                                std::uint64_t class_mask,
                                                BlockSumsAccum& accum) const {
  if (config_.noise_sigma > 0.0) {
    throw std::invalid_argument(
        "accumulate_block_sums: noise only exists in the double domain");
  }
  if (counter_planes_ > 8) {
    throw std::invalid_argument(
        "accumulate_block_sums: counts exceed a byte (counter_planes > 8)");
  }
  const std::size_t n_active = rngs.size();
  block_evaluate(rngs, scratch,
                 n_active * static_cast<std::size_t>(samples_));
  const std::uint64_t active = n_active == static_cast<std::size_t>(kLanes)
                                   ? ~0ull
                                   : (1ull << n_active) - 1ull;
  const std::uint64_t in_mask = class_mask & active;
  const int planes = counter_planes_;
  const std::size_t nsub = k13_.empty() ? 0 : k13_.size() - 1;
  if (accum.counts.size() != static_cast<std::size_t>(samples_) * nsub) {
    throw std::invalid_argument(
        "accumulate_block_sums: accum not from make_block_sums_accum");
  }
  if (nsub == 0) return;
  // Subset ANDs build incrementally -- subset m is its lowest plane ANDed
  // with the rest of m -- so each of the 2^planes - 1 subsets costs one
  // AND, two masked popcounts and one add into the packed count word. The
  // sweep is dispatched once per block to an unrolled (and, where the CPU
  // has it, hardware-POPCNT) instantiation.
  pick_subset_sweep(planes)(scratch.counters.data(), samples_, planes, nsub,
                            in_mask, active, accum.counts.data());
}

void PowerTraceSimulator::finalize_block_sums(
    BlockSumsAccum& accum, std::span<PackedMoments> in_class,
    std::span<PackedMoments> out_class) const {
  if (in_class.size() != static_cast<std::size_t>(samples_) ||
      out_class.size() != static_cast<std::size_t>(samples_)) {
    throw std::invalid_argument(
        "finalize_block_sums: spans must cover samples_per_trace()");
  }
  const std::size_t nsub = k13_.empty() ? 0 : k13_.size() - 1;
  for (int s = 0; s < samples_; ++s) {
    std::uint64_t* cnt = accum.counts.data() +
                         static_cast<std::size_t>(s) * nsub;
    std::uint64_t in13 = 0, in24 = 0, all13 = 0, all24 = 0;
    for (std::size_t m = 1; m <= nsub; ++m) {
      const std::uint64_t c = cnt[m - 1];
      const std::uint64_t ci = c & 0xFFFFFFFFull;
      const std::uint64_t ca = c >> 32;
      in13 += ci * k13_[m];
      in24 += ci * k24_[m];
      all13 += ca * k13_[m];
      all24 += ca * k24_[m];
      cnt[m - 1] = 0;
    }
    in_class[static_cast<std::size_t>(s)] = {in13, in24};
    // Field-wise subtraction is exact: every all-lanes field dominates its
    // in-class counterpart, so no borrow crosses a field boundary.
    out_class[static_cast<std::size_t>(s)] = {all13 - in13, all24 - in24};
  }
}

void PowerTraceSimulator::capture_transition(
    std::span<const std::uint8_t> from, std::span<const std::uint8_t> to,
    Xoshiro256& rng, TraceScratch& scratch, std::span<double> out) const {
  if (static_cast<int>(out.size()) != samples_) {
    throw std::invalid_argument("capture_transition: wrong trace length");
  }
  fill_randoms(rng, scratch);
  circuit_.evaluate_all_into(from, scratch.randoms, scratch.wire_prev);
  fill_randoms(rng, scratch);
  circuit_.evaluate_all_into(to, scratch.randoms, scratch.wire);
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < scratch.wire.size(); ++i) {
    out[static_cast<std::size_t>(depth_[i])] +=
        leakage::switch_energy(scratch.wire_prev[i], scratch.wire[i]);
  }
  add_noise(rng, out);
}

}  // namespace convolve::sca
