// Unit tests for the dimensional types, including a negative-compile
// harness: the arithmetic each dimension must NOT admit is asserted
// uninstantiable via expression-detection traits, so a regression that
// reintroduces (say) Seconds + Bytes fails this test at compile time.

#include "util/units.h"

#include <limits>
#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

#include "core/continuum.h"
#include "sim/spoiler.h"

namespace contender::units {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Fraction: checked construction.

TEST(FractionTest, MakeAcceptsClosedUnitInterval) {
  for (double v : {0.0, 0.25, 0.5, 1.0}) {
    auto f = Fraction::Make(v);
    ASSERT_TRUE(f.ok()) << v;
    EXPECT_DOUBLE_EQ(f->value(), v);
  }
}

TEST(FractionTest, MakeRejectsNaNWithInvalidArgument) {
  auto f = Fraction::Make(kNaN);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
}

TEST(FractionTest, MakeRejectsOutOfRangeWithOutOfRange) {
  for (double v : {-0.001, 1.001, -1e9, 1e9}) {
    auto f = Fraction::Make(v);
    ASSERT_FALSE(f.ok()) << v;
    EXPECT_EQ(f.status().code(), StatusCode::kOutOfRange) << v;
  }
}

TEST(FractionTest, ClampSaturatesAndMapsNaNToZero) {
  EXPECT_DOUBLE_EQ(Fraction::Clamp(-3.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(Fraction::Clamp(0.7).value(), 0.7);
  EXPECT_DOUBLE_EQ(Fraction::Clamp(42.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(Fraction::Clamp(kNaN).value(), 0.0);
}

TEST(FractionTest, ComplementIsOneMinusValue) {
  EXPECT_DOUBLE_EQ(Fraction::Clamp(0.3).complement().value(), 0.7);
}

// ---------------------------------------------------------------------------
// Arithmetic closure: each dimension supports exactly its legal algebra.

TEST(UnitsTest, SecondsFormAnAdditiveGroupUnderScaling) {
  const Seconds a(10.0), b(4.0);
  EXPECT_DOUBLE_EQ((a + b).value(), 14.0);
  EXPECT_DOUBLE_EQ((a - b).value(), 6.0);
  EXPECT_DOUBLE_EQ((-a).value(), -10.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 20.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 20.0);
  EXPECT_DOUBLE_EQ((a / 2.0).value(), 5.0);
  Seconds c = a;
  c += b;
  c -= Seconds(1.0);
  EXPECT_DOUBLE_EQ(c.value(), 13.0);
}

TEST(UnitsTest, DurationRatioIsDimensionless) {
  static_assert(std::is_same_v<decltype(Seconds(8.0) / Seconds(2.0)), double>);
  EXPECT_DOUBLE_EQ(Seconds(8.0) / Seconds(2.0), 4.0);
}

TEST(UnitsTest, FractionOfDurationKeepsDimension) {
  static_assert(
      std::is_same_v<decltype(Fraction::Clamp(0.5) * Seconds(10.0)), Seconds>);
  EXPECT_DOUBLE_EQ((Fraction::Clamp(0.5) * Seconds(10.0)).value(), 5.0);
  EXPECT_DOUBLE_EQ((Seconds(10.0) * Fraction::Clamp(0.5)).value(), 5.0);
  EXPECT_DOUBLE_EQ((Fraction::Clamp(0.25) * Bytes(400.0)).value(), 100.0);
}

TEST(UnitsTest, ComparisonsAreOrderedWithinOneDimension) {
  EXPECT_LT(Seconds(1.0), Seconds(2.0));
  EXPECT_GT(Bytes(5.0), Bytes(4.0));
  EXPECT_EQ(Mpl(3), Mpl(3));
  EXPECT_LT(Cqi(0.2), Cqi(0.8));
}

TEST(UnitsTest, LatencyRangeExposesValidatedBounds) {
  auto range = LatencyRange::Make(Seconds(100.0), Seconds(300.0));
  ASSERT_TRUE(range.ok());
  EXPECT_DOUBLE_EQ(range->min().value(), 100.0);
  EXPECT_DOUBLE_EQ(range->max().value(), 300.0);
  EXPECT_DOUBLE_EQ(range->width().value(), 200.0);
}

// ---------------------------------------------------------------------------
// Negative-compile harness. Detection idiom: valid<T>(0) resolves to the
// decltype overload (true) only when the probed expression instantiates.
// These are the exact bugs the layer exists to reject — if one of these
// static_asserts fires, an illegal dimension mix has become expressible.

template <typename A, typename B, typename = void>
struct CanAdd : std::false_type {};
template <typename A, typename B>
struct CanAdd<A, B,
              std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanMultiply : std::false_type {};
template <typename A, typename B>
struct CanMultiply<A, B,
                   std::void_t<decltype(std::declval<A>() * std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanCompare : std::false_type {};
template <typename A, typename B>
struct CanCompare<A, B,
                  std::void_t<decltype(std::declval<A>() < std::declval<B>())>>
    : std::true_type {};

// Cross-dimension sums do not exist.
static_assert(!CanAdd<Seconds, Bytes>::value);
static_assert(!CanAdd<Seconds, double>::value);
static_assert(!CanAdd<Cqi, ContinuumPoint>::value);
static_assert(!CanAdd<Fraction, Fraction>::value);  // sums can exceed 1

// Dimension-squaring products do not exist.
static_assert(!CanMultiply<Seconds, Seconds>::value);
static_assert(!CanMultiply<Bytes, Bytes>::value);
static_assert(!CanMultiply<Seconds, Bytes>::value);

// Cross-dimension comparisons do not exist.
static_assert(!CanCompare<Seconds, Bytes>::value);
static_assert(!CanCompare<Seconds, double>::value);
static_assert(!CanCompare<Cqi, ContinuumPoint>::value);

// No implicit lift from raw scalars (the acceptance-critical property: a
// bare double cannot slide into a dimensioned parameter slot).
static_assert(!std::is_convertible_v<double, Seconds>);
static_assert(!std::is_convertible_v<double, Fraction>);
static_assert(!std::is_convertible_v<int, Mpl>);

// Fraction admits no unchecked public construction from a double.
static_assert(!std::is_constructible_v<Fraction, double>);

// LatencyRange is only buildable through its validating factory.
static_assert(!std::is_constructible_v<LatencyRange, Seconds, Seconds>);
static_assert(!std::is_default_constructible_v<LatencyRange>);

// The historical bug shapes the refactor retires, asserted dead:
// ContinuumPoint(l_max, l_min, latency) — three positionally-swappable
// doubles — no longer exists in any spelling.
static_assert(!std::is_invocable_v<decltype(&contender::ContinuumPoint),
                                   double, double, double>);
static_assert(!std::is_invocable_v<decltype(&contender::ContinuumPoint),
                                   Seconds, Seconds, Seconds>);
// The only legal shape: a latency against a validated range.
static_assert(std::is_invocable_v<decltype(&contender::ContinuumPoint),
                                  Seconds, const LatencyRange&>);
// MakeSpoiler no longer accepts a bare int for its MPL.
static_assert(!std::is_invocable_v<decltype(&sim::MakeSpoiler),
                                   const sim::SimConfig&, int>);
static_assert(std::is_invocable_v<decltype(&sim::MakeSpoiler),
                                  const sim::SimConfig&, Mpl>);

// Zero-overhead layout (duplicated from the header on purpose: the test
// still guards the property if the header's own asserts are deleted).
static_assert(std::is_trivially_copyable_v<Seconds>);
static_assert(sizeof(Seconds) == sizeof(double));
static_assert(sizeof(Fraction) == sizeof(double));
static_assert(sizeof(Mpl) == sizeof(int));
static_assert(sizeof(LatencyRange) == 2 * sizeof(double));

}  // namespace
}  // namespace contender::units
