#pragma once
// Value: the argument / return-value domain for abstract data type operations.
//
// The paper (Section 2.1) models operation invocations and responses as
// carrying arguments and return values drawn from arbitrary sets.  We use a
// small closed algebra of values -- nil, 64-bit integers, strings, and
// (recursively) vectors of values -- which is rich enough to express every
// operation of every data type studied in the paper (registers, RMW
// registers, FIFO queues, stacks, rooted trees) plus the extra types this
// library ships (sets, counters).

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace lintime::adt {

class FpHasher;
class Value;

/// Vector-of-values alias used for composite arguments (e.g. tree Insert
/// takes [parent, child]).
using ValueVec = std::vector<Value>;

/// A closed, hashable, totally-ordered value domain.
///
/// `Value` is a regular type: copyable, equality-comparable, hashable and
/// printable, so it can be used as a map key, a gtest parameter and a wire
/// payload without further ceremony.
class Value {
 public:
  /// Constructs nil (the "no argument" / "no return value" marker written
  /// "-" in the paper, e.g. read(-, v) or write(v, -)).
  Value() = default;
  Value(std::int64_t v) : rep_(v) {}                     // NOLINT(google-explicit-constructor)
  Value(int v) : rep_(static_cast<std::int64_t>(v)) {}   // NOLINT(google-explicit-constructor)
  Value(std::string v) : rep_(std::move(v)) {}           // NOLINT(google-explicit-constructor)
  Value(const char* v) : rep_(std::string(v)) {}         // NOLINT(google-explicit-constructor)
  Value(ValueVec v) : rep_(std::move(v)) {}              // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool is_nil() const { return std::holds_alternative<std::monostate>(rep_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(rep_); }
  [[nodiscard]] bool is_str() const { return std::holds_alternative<std::string>(rep_); }
  [[nodiscard]] bool is_vec() const { return std::holds_alternative<ValueVec>(rep_); }

  /// Position of this value's kind in the total order -- nil 0 < int 1 <
  /// string 2 < vector 3 -- the first key operator< compares.
  [[nodiscard]] int kind_order() const { return static_cast<int>(rep_.index()); }

  /// Accessors throw std::bad_variant_access on type mismatch; callers in
  /// this library always check or know the type from the operation spec.
  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(rep_); }
  [[nodiscard]] const std::string& as_str() const { return std::get<std::string>(rep_); }
  [[nodiscard]] const ValueVec& as_vec() const { return std::get<ValueVec>(rep_); }

  /// Mutable view of the vector alternative, or nullptr if this value is not
  /// a vector.  Lets hot paths rebuild a small composite argument in place
  /// (reusing the element storage) instead of allocating a fresh vector per
  /// reconstruction; see sim::PayloadVal::to_value_into.
  [[nodiscard]] ValueVec* vec_if() { return std::get_if<ValueVec>(&rep_); }

  friend bool operator==(const Value& a, const Value& b) { return a.rep_ == b.rep_; }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b);

  /// Canonical textual form, e.g. `nil`, `42`, `"abc"`, `[1, 2]`.
  [[nodiscard]] std::string to_string() const;

  /// Stable hash suitable for memoization keys.
  [[nodiscard]] std::size_t hash() const;

  /// Streams this value's structure (kind tag, then payload) into a state
  /// fingerprint hasher; see adt/fingerprint.hpp for the contract.
  void feed(FpHasher& h) const;

  /// Convenience factory for nil, reads better than `Value{}` at call sites.
  static Value nil() { return Value{}; }

 private:
  std::variant<std::monostate, std::int64_t, std::string, ValueVec> rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace lintime::adt

template <>
struct std::hash<lintime::adt::Value> {
  std::size_t operator()(const lintime::adt::Value& v) const noexcept { return v.hash(); }
};
