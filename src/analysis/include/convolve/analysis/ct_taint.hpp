// Secret-taint constant-time lint.
//
// `Tainted<T>` wraps an integer together with a secrecy flag. Arithmetic
// and bitwise operators propagate the flag; the operations that leak
// through microarchitectural timing -- branching on a secret, indexing a
// table with a secret, shifting by a secret amount, dividing by or a
// secret -- report a hazard to the active TaintSink instead of passing
// silently. Because the production crypto cores in
// src/crypto/include/convolve/crypto/detail/ are templates over the word
// type, the lint instantiates the *exact shipped code* with Tainted words
// and a secret-flagged key: zero recorded hazards plus a bit-identical
// output against the plain instantiation is a machine-checked
// constant-time verdict for that algorithm, not for a lookalike model.
//
// Threat model: an attacker observing execution time / instruction trace /
// data-cache line addresses. Value-dependent operand timing (e.g. early
// -exit multipliers) is out of scope except for division, which is flagged
// because division latency is operand-dependent on essentially all cores.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "convolve/crypto/detail/aes_sbox_ct.hpp"
#include "convolve/crypto/detail/pqc_ntt.hpp"

namespace convolve::analysis {

enum class Hazard {
  kBranch,         // control flow depends on a secret
  kTableIndex,     // memory address depends on a secret
  kVariableShift,  // shift amount depends on a secret
  kDivision,       // division/modulo with a secret operand
};

const char* hazard_name(Hazard h);

/// One deduplicated finding: a hazard kind at a context-label path, with
/// the number of dynamic occurrences.
struct TaintFinding {
  Hazard kind = Hazard::kBranch;
  std::string context;
  std::uint64_t count = 0;
};

/// Collects hazards recorded by Tainted operations on the current thread.
class TaintSink {
 public:
  void record(Hazard h);
  void push_context(const char* label);
  void pop_context();

  std::vector<TaintFinding> findings() const;
  std::uint64_t total() const { return total_; }

  /// The sink Tainted operations report to (nullptr when none is active --
  /// hazards are then silently ignored, so production code paths can use
  /// Tainted values without a registered sink).
  static TaintSink* current();

 private:
  friend class ScopedTaintSink;
  std::map<std::pair<Hazard, std::string>, std::uint64_t> counts_;
  std::vector<const char*> context_;
  std::uint64_t total_ = 0;
};

/// RAII: installs a fresh sink as TaintSink::current() for this thread.
class ScopedTaintSink {
 public:
  ScopedTaintSink();
  ~ScopedTaintSink();
  ScopedTaintSink(const ScopedTaintSink&) = delete;
  ScopedTaintSink& operator=(const ScopedTaintSink&) = delete;

  TaintSink& sink() { return sink_; }

 private:
  TaintSink sink_;
  TaintSink* prev_;
};

/// RAII context label, e.g. TaintScope scope("key-expand");
class TaintScope {
 public:
  explicit TaintScope(const char* label);
  ~TaintScope();
  TaintScope(const TaintScope&) = delete;
  TaintScope& operator=(const TaintScope&) = delete;
};

namespace detail {
void report_hazard(Hazard h);
}  // namespace detail

/// Result of comparing a tainted value: carries the outcome plus whether
/// it is secret-derived. Converting it to bool is a secret-dependent
/// branch and is reported.
class TaintedBool {
 public:
  constexpr TaintedBool(bool v, bool tainted) : v_(v), t_(tainted) {}

  operator bool() const {
    if (t_) detail::report_hazard(Hazard::kBranch);
    return v_;
  }
  bool raw() const { return v_; }
  bool tainted() const { return t_; }

 private:
  bool v_;
  bool t_;
};

/// An integer carrying a secrecy flag. Mirrors the implicit conversions of
/// plain integers closely enough that the detail/ crypto templates compile
/// unchanged with W = Tainted<...>.
template <class T>
class Tainted {
  static_assert(std::is_integral_v<T>);

 public:
  using value_type = T;

  constexpr Tainted() = default;
  /// Implicit from any plain integer (public data).
  template <class U, class = std::enable_if_t<std::is_integral_v<U>>>
  constexpr Tainted(U v) : v_(static_cast<T>(v)) {}  // NOLINT(runtime/explicit)
  /// Explicit width conversion between tainted values (keeps the flag).
  template <class U>
  constexpr explicit Tainted(Tainted<U> o)
      : v_(static_cast<T>(o.value())), t_(o.tainted()) {}

  static constexpr Tainted secret(T v) { return Tainted(v, true); }

  constexpr T value() const { return v_; }
  constexpr bool tainted() const { return t_; }
  /// Deliberate declassification (e.g. a published MAC); clears the flag.
  constexpr Tainted declassified() const { return Tainted(v_, false); }

  // Bitwise / arithmetic: value semantics of T, taint is OR of operands.
  friend constexpr Tainted operator^(Tainted a, Tainted b) {
    return Tainted(static_cast<T>(a.v_ ^ b.v_), a.t_ || b.t_);
  }
  friend constexpr Tainted operator&(Tainted a, Tainted b) {
    return Tainted(static_cast<T>(a.v_ & b.v_), a.t_ || b.t_);
  }
  friend constexpr Tainted operator|(Tainted a, Tainted b) {
    return Tainted(static_cast<T>(a.v_ | b.v_), a.t_ || b.t_);
  }
  friend constexpr Tainted operator+(Tainted a, Tainted b) {
    return Tainted(static_cast<T>(a.v_ + b.v_), a.t_ || b.t_);
  }
  friend constexpr Tainted operator-(Tainted a, Tainted b) {
    return Tainted(static_cast<T>(a.v_ - b.v_), a.t_ || b.t_);
  }
  friend constexpr Tainted operator*(Tainted a, Tainted b) {
    return Tainted(static_cast<T>(a.v_ * b.v_), a.t_ || b.t_);
  }
  constexpr Tainted operator~() const {
    return Tainted(static_cast<T>(~v_), t_);
  }

  // Division and modulo have operand-dependent latency: hazard when any
  // operand is secret.
  friend Tainted operator/(Tainted a, Tainted b) {
    if (a.t_ || b.t_) detail::report_hazard(Hazard::kDivision);
    return Tainted(static_cast<T>(a.v_ / b.v_), a.t_ || b.t_);
  }
  friend Tainted operator%(Tainted a, Tainted b) {
    if (a.t_ || b.t_) detail::report_hazard(Hazard::kDivision);
    return Tainted(static_cast<T>(a.v_ % b.v_), a.t_ || b.t_);
  }

  // Shifts by a public amount are constant-time.
  friend constexpr Tainted operator<<(Tainted a, int n) {
    return Tainted(static_cast<T>(a.v_ << n), a.t_);
  }
  friend constexpr Tainted operator>>(Tainted a, int n) {
    return Tainted(static_cast<T>(a.v_ >> n), a.t_);
  }
  // Shifts by a secret amount leak on cores with iterative shifters and
  // via port contention: hazard.
  friend Tainted operator<<(Tainted a, Tainted n) {
    if (n.t_) detail::report_hazard(Hazard::kVariableShift);
    return Tainted(static_cast<T>(a.v_ << n.v_), a.t_ || n.t_);
  }
  friend Tainted operator>>(Tainted a, Tainted n) {
    if (n.t_) detail::report_hazard(Hazard::kVariableShift);
    return Tainted(static_cast<T>(a.v_ >> n.v_), a.t_ || n.t_);
  }

  // Comparisons produce a TaintedBool: the comparison itself is fine, the
  // branch on it is the hazard.
  friend constexpr TaintedBool operator==(Tainted a, Tainted b) {
    return TaintedBool(a.v_ == b.v_, a.t_ || b.t_);
  }
  friend constexpr TaintedBool operator!=(Tainted a, Tainted b) {
    return TaintedBool(a.v_ != b.v_, a.t_ || b.t_);
  }
  friend constexpr TaintedBool operator<(Tainted a, Tainted b) {
    return TaintedBool(a.v_ < b.v_, a.t_ || b.t_);
  }
  friend constexpr TaintedBool operator>(Tainted a, Tainted b) {
    return TaintedBool(a.v_ > b.v_, a.t_ || b.t_);
  }
  friend constexpr TaintedBool operator<=(Tainted a, Tainted b) {
    return TaintedBool(a.v_ <= b.v_, a.t_ || b.t_);
  }
  friend constexpr TaintedBool operator>=(Tainted a, Tainted b) {
    return TaintedBool(a.v_ >= b.v_, a.t_ || b.t_);
  }

 private:
  constexpr Tainted(T v, bool t) : v_(v), t_(t) {}

  T v_{};
  bool t_ = false;
};

/// What a *naive* table lookup does with a secret index: reports
/// kTableIndex when the index is tainted (contrast with
/// crypto::detail::ct_table_lookup256, which scans).
template <class T>
Tainted<T> tainted_lookup(const T* table, Tainted<std::uint8_t> index) {
  if (index.tainted()) {
    detail::report_hazard(Hazard::kTableIndex);
    return Tainted<T>::secret(table[index.value()]);
  }
  return Tainted<T>(table[index.value()]);
}

}  // namespace convolve::analysis

namespace convolve::crypto::detail {

/// Bitslicing a tainted byte uses a tainted 16-lane plane word.
template <>
struct PlaneWordFor<convolve::analysis::Tainted<std::uint8_t>> {
  using type = convolve::analysis::Tainted<std::uint16_t>;
};

/// A tainted NTT coefficient widens to a tainted product word.
template <class U, class T>
struct RebindWord<convolve::analysis::Tainted<U>, T> {
  using type = convolve::analysis::Tainted<T>;
};

}  // namespace convolve::crypto::detail

namespace convolve::analysis {

/// Outcome of linting one algorithm: hazards recorded while running the
/// shipped detail/ template with tainted secrets, plus an output check
/// that the tainted instantiation computed the same bytes as production.
struct LintResult {
  std::string suite;
  std::vector<TaintFinding> findings;
  std::uint64_t hazard_count = 0;
  bool output_matches = false;

  bool clean() const { return hazard_count == 0 && output_matches; }
};

LintResult lint_aes256();
LintResult lint_chacha20();
LintResult lint_keccak_f1600();
LintResult lint_hmac_sha512();
LintResult lint_kyber_ntt();
LintResult lint_dilithium_ntt();

/// All suites above, in that order.
std::vector<LintResult> lint_all();

}  // namespace convolve::analysis
