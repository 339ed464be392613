#pragma once
// Parameter-grid expansion: declare axes, get the cartesian product as an
// enumerated list of points in a deterministic order (row-major in axis
// declaration order, values in declaration order).  Campaign builders map
// each point to one Job; the point's label/coordinates become the job's
// name/tags so every artifact row is traceable to its grid cell.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lintime::campaign {

/// One cell of an expanded grid: ordered (axis, value) pairs, all values
/// kept as their canonical strings (see Grid::axis overloads).
class GridPoint {
 public:
  explicit GridPoint(std::vector<std::pair<std::string, std::string>> coords)
      : coords_(std::move(coords)) {}

  /// The value of axis `name`; throws std::out_of_range if absent.
  [[nodiscard]] const std::string& get(const std::string& name) const;
  /// get() parsed as a double / integer; throws std::invalid_argument on
  /// non-numeric values.
  [[nodiscard]] double num(const std::string& name) const;
  [[nodiscard]] std::int64_t integer(const std::string& name) const;

  /// "axis1=v1/axis2=v2/..." -- the canonical job name for this point.
  [[nodiscard]] std::string label() const;

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& coords() const {
    return coords_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> coords_;
};

/// Axis declarations plus cartesian expansion.
class Grid {
 public:
  /// Declares a string-valued axis.  Axis names must be unique; every axis
  /// must have at least one value (both checked at expansion).
  Grid& axis(std::string name, std::vector<std::string> values);

  /// Numeric axes; values are canonicalized with round-trip formatting
  /// (sink.hpp fmt_double) so labels are stable and re-parsable.
  Grid& axis(std::string name, const std::vector<double>& values);
  Grid& axis(std::string name, const std::vector<int>& values);

  /// Convenience: integer range [lo, hi] inclusive (e.g. seeds).
  Grid& range(std::string name, int lo, int hi);

  /// Number of points the expansion will produce (product of axis sizes).
  [[nodiscard]] std::size_t size() const;

  /// The full cartesian product.  Deterministic: the first declared axis
  /// varies slowest, the last varies fastest.
  [[nodiscard]] std::vector<GridPoint> points() const;

 private:
  struct Axis {
    std::string name;
    std::vector<std::string> values;
  };
  std::vector<Axis> axes_;
};

}  // namespace lintime::campaign
