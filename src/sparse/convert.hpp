#pragma once
// Precision and index-width conversions between CSR instantiations.
//
// value narrowing double -> Half is the paper's core storage decision
// (16-bit matrix entries); index narrowing uint32 -> uint16 is the paper's
// §V "future work" optimization (our Ablation A) and is only legal when
// num_cols <= 65536 — true for the prostate cases, not the liver cases, just
// as the paper notes.

#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "fp16/half.hpp"
#include "sparse/csr.hpp"

namespace pd::sparse {

namespace detail {

/// out[i] = VTo(double(in[i])).  double -> Half takes the bulk converter,
/// which is bitwise equal to Half(double).
template <typename VTo, typename VFrom>
std::vector<VTo> convert_value_array(const std::vector<VFrom>& in) {
  std::vector<VTo> out(in.size());
  if constexpr (std::is_same_v<VTo, pd::Half> &&
                std::is_same_v<VFrom, double>) {
    pd::convert_to_half(in.data(), in.size(), out.data());
  } else {
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = static_cast<VTo>(static_cast<double>(in[i]));
    }
  }
  return out;
}

}  // namespace detail

/// Convert the value type, preserving structure.  Narrowing goes through
/// the target type's conversion from double: for Half that is Half(double),
/// which rounds double -> float -> half and so can round twice
/// (fp16/half.hpp); for float it is round-to-nearest-even.
template <typename VTo, typename VFrom, typename I>
CsrMatrix<VTo, I> convert_values(const CsrMatrix<VFrom, I>& in) {
  CsrMatrix<VTo, I> out;
  out.num_rows = in.num_rows;
  out.num_cols = in.num_cols;
  out.row_ptr = in.row_ptr;
  out.col_idx = in.col_idx;
  out.values = detail::convert_value_array<VTo>(in.values);
  return out;
}

/// Same bits, consuming `in`: the structure arrays are moved instead of
/// copied and the source values are freed as soon as they are converted.
/// `in` is left empty.
template <typename VTo, typename VFrom, typename I>
CsrMatrix<VTo, I> convert_values(CsrMatrix<VFrom, I>&& in) {
  CsrMatrix<VTo, I> out;
  out.num_rows = in.num_rows;
  out.num_cols = in.num_cols;
  out.row_ptr = std::move(in.row_ptr);
  out.col_idx = std::move(in.col_idx);
  out.values = detail::convert_value_array<VTo>(in.values);
  in = {};
  return out;
}

/// Narrow column indices; throws pd::Error if any column does not fit.
template <typename ITo, typename V, typename IFrom>
CsrMatrix<V, ITo> narrow_col_index(const CsrMatrix<V, IFrom>& in) {
  PD_CHECK_MSG(in.num_cols <= std::uint64_t{std::numeric_limits<ITo>::max()} + 1,
               "narrow_col_index: matrix has more columns than the index type "
               "can address");
  CsrMatrix<V, ITo> out;
  out.num_rows = in.num_rows;
  out.num_cols = in.num_cols;
  out.row_ptr = in.row_ptr;
  out.values = in.values;
  out.col_idx.reserve(in.col_idx.size());
  for (const IFrom c : in.col_idx) {
    out.col_idx.push_back(static_cast<ITo>(c));
  }
  return out;
}

/// Whether the 16-bit column-index optimization applies (paper §V: prostate
/// yes, liver "not much larger than 65535" — no).
template <typename V, typename I>
bool fits_u16_columns(const CsrMatrix<V, I>& m) {
  return m.num_cols <= 65536;
}

}  // namespace pd::sparse
