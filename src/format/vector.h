// Null-aware typed column vectors — the unit of vectorized execution and
// of column-chunk encoding.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "format/type.h"

namespace pixels {

/// A column of values of a single type with a validity (non-null) mask.
/// Integer-like types (bool, int32, int64, date, timestamp) share the
/// int64 payload; doubles and strings have their own payloads.
class ColumnVector {
 public:
  explicit ColumnVector(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const { return valid_.size(); }
  bool empty() const { return valid_.empty(); }

  bool IsNull(size_t i) const { return !valid_[i]; }
  /// O(1): maintained incrementally by the append paths.
  size_t NullCount() const { return null_count_; }

  /// Typed accessors; callers must respect the vector's type and nullness.
  int64_t GetInt(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const { return doubles_[i]; }
  const std::string& GetString(size_t i) const { return strings_[i]; }
  bool GetBool(size_t i) const { return ints_[i] != 0; }

  /// Generic accessor producing a scalar Value (numeric widening applied).
  Value GetValue(size_t i) const;

  void AppendNull();
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendBool(bool v);

  /// Appends a Value, coercing numerics to this vector's type. Null-kind
  /// appends a null. Returns TypeError on string/numeric mismatch.
  Status AppendValue(const Value& v);

  /// Appends row `i` of `other` (must be the same type).
  void AppendFrom(const ColumnVector& other, size_t i);

  /// Appends every row of `other`, exactly as AppendFrom row by row; one
  /// bulk copy when both vectors share a payload class.
  void AppendAll(const ColumnVector& other);

  /// Builds a vector straight from dense payload and validity arrays of
  /// equal length (`type` must use the int64 payload). Null rows'
  /// payload slots are zeroed.
  static std::shared_ptr<ColumnVector> FromInts(TypeId type,
                                                std::vector<int64_t> values,
                                                std::vector<uint8_t> valid);
  static std::shared_ptr<ColumnVector> FromDoubles(std::vector<double> values,
                                                   std::vector<uint8_t> valid);
  static std::shared_ptr<ColumnVector> FromStrings(
      std::vector<std::string> values, std::vector<uint8_t> valid);

  void Reserve(size_t n);
  void Clear();

  /// Returns a new vector containing rows `sel` in order. Bulk-copies the
  /// payload arrays (one type dispatch per call, not per row).
  std::shared_ptr<ColumnVector> Gather(const std::vector<uint32_t>& sel) const;

  /// Raw payload access for vectorized kernels. The payload that matches
  /// the vector's type class is dense (one slot per row, nulls zeroed);
  /// the others are empty.
  const uint8_t* valid_data() const { return valid_.data(); }
  const int64_t* ints_data() const { return ints_.data(); }
  const double* doubles_data() const { return doubles_.data(); }
  const std::string* strings_data() const { return strings_.data(); }

 private:
  TypeId type_;
  size_t null_count_ = 0;
  std::vector<uint8_t> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

using ColumnVectorPtr = std::shared_ptr<ColumnVector>;

/// Creates an empty vector of the given type.
ColumnVectorPtr MakeVector(TypeId type);

}  // namespace pixels
