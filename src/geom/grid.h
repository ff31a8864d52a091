// grid.h — dense 2-D grid container used for gcell congestion maps, placement
// density bins and utilization bookkeeping.
//
// A `Grid2D<T>` is a rectangular array of cells addressed by (col, row) with
// row-major storage.  It deliberately does not know about nanometer
// coordinates; `GcellGrid` (router.h) maps chip space onto grid indices.
//
// A `RepeatedSum` is the table of k-fold sums of one fixed addend.  A grid
// whose cells only ever accumulate that one addend (the router's pin-access
// demand, the extractor's wire-density samples) can then be kept as integer
// counts: a count maintained by +/- deltas reads back, through the table,
// the bit-exact value a fresh accumulation in any order computes.

#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace ffet::geom {

template <typename T>
class Grid2D {
 public:
  Grid2D() = default;
  Grid2D(int cols, int rows, T init = T{})
      : cols_(cols), rows_(rows),
        data_(static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows),
              init) {
    assert(cols >= 0 && rows >= 0);
  }

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  bool in_bounds(int c, int r) const {
    return c >= 0 && c < cols_ && r >= 0 && r < rows_;
  }

  T& at(int c, int r) {
    assert(in_bounds(c, r));
    return data_[index(c, r)];
  }
  const T& at(int c, int r) const {
    assert(in_bounds(c, r));
    return data_[index(c, r)];
  }

  /// Flat index for (c, r); useful as a node id in graph searches.
  std::size_t index(int c, int r) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(c);
  }

  int col_of(std::size_t idx) const { return static_cast<int>(idx % cols_); }
  int row_of(std::size_t idx) const { return static_cast<int>(idx / cols_); }

  void fill(const T& v) { std::fill(data_.begin(), data_.end(), v); }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

 private:
  int cols_ = 0;
  int rows_ = 0;
  std::vector<T> data_;
};

class RepeatedSum {
 public:
  explicit RepeatedSum(double step = 0.0) : step_(step), sums_{0.0} {}

  double step() const { return step_; }

  /// 0.0 plus `step` added k times, one floating-point addition at a time.
  double operator()(int k) {
    assert(k >= 0);
    while (sums_.size() <= static_cast<std::size_t>(k)) {
      sums_.push_back(sums_.back() + step_);
    }
    return sums_[static_cast<std::size_t>(k)];
  }

 private:
  double step_;
  std::vector<double> sums_;
};

}  // namespace ffet::geom
