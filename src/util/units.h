// Zero-overhead dimensional types for the quantities Contender passes
// around: virtual time (Seconds), storage volumes (Bytes),
// checked [0,1] ratios (Fraction), continuum coordinates (ContinuumPoint),
// Concurrent Query Intensity values (Cqi) and multiprogramming levels
// (Mpl).
//
// The paper's math is full of same-shaped scalars — latencies, continuum
// points, CQI fractions and MPLs are all "a double" — so a swapped
// argument pair compiles silently and only shows up as a skewed Fig. 7/8
// reproduction. Each type here supports only the arithmetic its dimension
// legally admits (Seconds/Seconds yields a dimensionless double; there is
// no Seconds + Bytes), construction from a raw double is explicit, and
// every type is static_assert-ed to be trivially copyable and no larger
// than a pointer, so the wrappers vanish at -O1.
//
// Conventions:
//   * `value()` exposes the underlying scalar for boundary code (I/O,
//     regression feature vectors, printing). Core model code should stay
//     in the typed domain.
//   * Checked constructions (`Fraction::Make`, `LatencyRange::Make`)
//     return StatusOr and reject dimension-violating inputs; `Clamp`
//     variants exist for trusted measurement paths.

#ifndef CONTENDER_UTIL_UNITS_H_
#define CONTENDER_UTIL_UNITS_H_

#include <compare>
#include <cstddef>
#include <type_traits>

#include "util/statusor.h"

namespace contender::units {

/// Virtual time, in seconds. Closed under addition/subtraction and scaling
/// by a dimensionless factor; the ratio of two durations is dimensionless.
class Seconds {
 public:
  constexpr Seconds() = default;
  constexpr explicit Seconds(double seconds) : v_(seconds) {}

  [[nodiscard]] constexpr double value() const { return v_; }

  constexpr Seconds& operator+=(Seconds o) {
    v_ += o.v_;
    return *this;
  }
  constexpr Seconds& operator-=(Seconds o) {
    v_ -= o.v_;
    return *this;
  }

  friend constexpr Seconds operator+(Seconds a, Seconds b) {
    return Seconds(a.v_ + b.v_);
  }
  friend constexpr Seconds operator-(Seconds a, Seconds b) {
    return Seconds(a.v_ - b.v_);
  }
  friend constexpr Seconds operator-(Seconds a) { return Seconds(-a.v_); }
  friend constexpr Seconds operator*(Seconds a, double k) {
    return Seconds(a.v_ * k);
  }
  friend constexpr Seconds operator*(double k, Seconds a) {
    return Seconds(k * a.v_);
  }
  friend constexpr Seconds operator/(Seconds a, double k) {
    return Seconds(a.v_ / k);
  }
  /// Duration ratio: dimensionless.
  friend constexpr double operator/(Seconds a, Seconds b) {
    return a.v_ / b.v_;
  }

  constexpr auto operator<=>(const Seconds&) const = default;

 private:
  double v_ = 0.0;
};

/// A storage or memory volume, in bytes.
class Bytes {
 public:
  constexpr Bytes() = default;
  constexpr explicit Bytes(double bytes) : v_(bytes) {}

  [[nodiscard]] constexpr double value() const { return v_; }

  constexpr Bytes& operator+=(Bytes o) {
    v_ += o.v_;
    return *this;
  }
  constexpr Bytes& operator-=(Bytes o) {
    v_ -= o.v_;
    return *this;
  }

  friend constexpr Bytes operator+(Bytes a, Bytes b) {
    return Bytes(a.v_ + b.v_);
  }
  friend constexpr Bytes operator-(Bytes a, Bytes b) {
    return Bytes(a.v_ - b.v_);
  }
  friend constexpr Bytes operator*(Bytes a, double k) {
    return Bytes(a.v_ * k);
  }
  friend constexpr Bytes operator*(double k, Bytes a) {
    return Bytes(k * a.v_);
  }
  friend constexpr Bytes operator/(Bytes a, double k) {
    return Bytes(a.v_ / k);
  }
  /// Volume ratio: dimensionless.
  friend constexpr double operator/(Bytes a, Bytes b) { return a.v_ / b.v_; }

  constexpr auto operator<=>(const Bytes&) const = default;

 private:
  double v_ = 0.0;
};

/// A checked ratio in [0, 1] (I/O fractions, cache hit rates). `Make`
/// rejects NaN and out-of-range values with the documented Status codes;
/// `Clamp` is for trusted measurement paths where floating-point noise may
/// push a legal ratio epsilon outside the range.
class Fraction {
 public:
  constexpr Fraction() = default;

  /// Checked construction: NaN -> InvalidArgument, outside [0, 1] ->
  /// OutOfRange.
  [[nodiscard]] static StatusOr<Fraction> Make(double v) {
    if (v != v) {
      return Status::InvalidArgument("Fraction: NaN is not a ratio");
    }
    if (v < 0.0 || v > 1.0) {
      return Status::OutOfRange("Fraction: value outside [0, 1]");
    }
    return Fraction(v);
  }

  /// Clamps into [0, 1]; NaN maps to 0. Use only where the input is a
  /// measured ratio that is in range up to floating-point noise.
  [[nodiscard]] static constexpr Fraction Clamp(double v) {
    if (!(v > 0.0)) return Fraction(0.0);  // also catches NaN
    return Fraction(v < 1.0 ? v : 1.0);
  }

  [[nodiscard]] constexpr double value() const { return v_; }
  [[nodiscard]] constexpr Fraction complement() const {
    return Fraction(1.0 - v_);
  }

  /// A fraction of a duration or volume keeps the dimension.
  friend constexpr Seconds operator*(Fraction f, Seconds s) {
    return Seconds(f.v_ * s.value());
  }
  friend constexpr Seconds operator*(Seconds s, Fraction f) { return f * s; }
  friend constexpr Bytes operator*(Fraction f, Bytes b) {
    return Bytes(f.v_ * b.value());
  }
  friend constexpr Bytes operator*(Bytes b, Fraction f) { return f * b; }

  constexpr auto operator<=>(const Fraction&) const = default;

 private:
  constexpr explicit Fraction(double v) : v_(v) {}
  double v_ = 0.0;
};

/// A coordinate on a template's performance continuum (paper Eq. 6).
/// Unchecked: observations may legitimately fall slightly outside [0, 1]
/// (steady-state artifacts, paper Section 6.1).
class ContinuumPoint {
 public:
  constexpr ContinuumPoint() = default;
  constexpr explicit ContinuumPoint(double point) : v_(point) {}

  [[nodiscard]] constexpr double value() const { return v_; }

  constexpr auto operator<=>(const ContinuumPoint&) const = default;

 private:
  double v_ = 0.0;
};

/// A Concurrent Query Intensity value (paper Eq. 5): the mean competing
/// I/O fraction of a mix's concurrent queries.
class Cqi {
 public:
  constexpr Cqi() = default;
  constexpr explicit Cqi(double cqi) : v_(cqi) {}

  [[nodiscard]] constexpr double value() const { return v_; }

  constexpr auto operator<=>(const Cqi&) const = default;

 private:
  double v_ = 0.0;
};

/// A multiprogramming level (number of concurrently executing queries).
class Mpl {
 public:
  constexpr Mpl() = default;
  constexpr explicit Mpl(int level) : level_(level) {}

  [[nodiscard]] constexpr int value() const { return level_; }

  constexpr auto operator<=>(const Mpl&) const = default;

 private:
  int level_ = 0;
};

/// A validated continuum range [l_min, l_max]: the isolated latency and
/// the spoiler latency of one template. Construction enforces the Eq. 6
/// preconditions (l_min > 0, l_max > l_min), so holders never carry a
/// degenerate range.
class LatencyRange {
 public:
  /// l_min <= 0 or l_max <= l_min -> InvalidArgument.
  [[nodiscard]] static StatusOr<LatencyRange> Make(Seconds l_min,
                                                   Seconds l_max) {
    if (!(l_min.value() > 0.0)) {
      return Status::InvalidArgument("LatencyRange: l_min must be positive");
    }
    if (!(l_max > l_min)) {
      return Status::InvalidArgument("LatencyRange: l_max must exceed l_min");
    }
    return LatencyRange(l_min, l_max);
  }

  [[nodiscard]] constexpr Seconds min() const { return l_min_; }
  [[nodiscard]] constexpr Seconds max() const { return l_max_; }
  [[nodiscard]] constexpr Seconds width() const { return l_max_ - l_min_; }

 private:
  constexpr LatencyRange(Seconds l_min, Seconds l_max)
      : l_min_(l_min), l_max_(l_max) {}

  Seconds l_min_;
  Seconds l_max_;
};

// The wrappers must be free: bitwise-copyable and no bigger than the
// scalar they wrap (pointer-sized), so they pass in registers and vanish
// under optimization.
static_assert(std::is_trivially_copyable_v<Seconds> &&
              sizeof(Seconds) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Bytes> &&
              sizeof(Bytes) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Fraction> &&
              sizeof(Fraction) == sizeof(double));
static_assert(std::is_trivially_copyable_v<ContinuumPoint> &&
              sizeof(ContinuumPoint) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Cqi> &&
              sizeof(Cqi) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Mpl> && sizeof(Mpl) == sizeof(int));
static_assert(sizeof(Seconds) <= sizeof(void*) &&
              sizeof(Mpl) <= sizeof(void*));
static_assert(std::is_trivially_copyable_v<LatencyRange>);

// Raw doubles must not silently become dimensioned quantities.
static_assert(!std::is_convertible_v<double, Seconds> &&
              !std::is_convertible_v<double, Bytes> &&
              !std::is_convertible_v<double, Fraction> &&
              !std::is_convertible_v<double, ContinuumPoint> &&
              !std::is_convertible_v<double, Cqi> &&
              !std::is_convertible_v<int, Mpl>);

}  // namespace contender::units

#endif  // CONTENDER_UTIL_UNITS_H_
