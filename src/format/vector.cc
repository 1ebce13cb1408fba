#include "format/vector.h"

namespace pixels {

Value ColumnVector::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case TypeId::kBool:
      return Value::Bool(ints_[i] != 0);
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kTimestamp:
      return Value::Int(ints_[i]);
    case TypeId::kDouble:
      return Value::Double(doubles_[i]);
    case TypeId::kString:
      return Value::String(strings_[i]);
  }
  return Value::Null();
}

void ColumnVector::AppendNull() {
  valid_.push_back(0);
  ++null_count_;
  if (type_ == TypeId::kDouble) {
    doubles_.push_back(0);
  } else if (type_ == TypeId::kString) {
    strings_.emplace_back();
  } else {
    ints_.push_back(0);
  }
}

void ColumnVector::AppendInt(int64_t v) {
  valid_.push_back(1);
  if (type_ == TypeId::kDouble) {
    doubles_.push_back(static_cast<double>(v));
  } else {
    ints_.push_back(v);
  }
}

void ColumnVector::AppendDouble(double v) {
  valid_.push_back(1);
  if (type_ == TypeId::kDouble) {
    doubles_.push_back(v);
  } else {
    ints_.push_back(static_cast<int64_t>(v));
  }
}

void ColumnVector::AppendString(std::string v) {
  valid_.push_back(1);
  strings_.push_back(std::move(v));
}

void ColumnVector::AppendBool(bool v) {
  valid_.push_back(1);
  ints_.push_back(v ? 1 : 0);
}

Status ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  const bool want_string = type_ == TypeId::kString;
  const bool have_string = v.kind == Value::Kind::kString;
  if (want_string != have_string) {
    return Status::TypeError(std::string("cannot append ") +
                             (have_string ? "string" : "numeric") +
                             " value to " + TypeName(type_) + " column");
  }
  if (want_string) {
    AppendString(v.s);
  } else if (type_ == TypeId::kDouble) {
    AppendDouble(v.AsDouble());
  } else {
    AppendInt(v.AsInt());
  }
  return Status::OK();
}

void ColumnVector::AppendFrom(const ColumnVector& other, size_t i) {
  if (other.IsNull(i)) {
    AppendNull();
    return;
  }
  if (type_ == TypeId::kDouble) {
    valid_.push_back(1);
    doubles_.push_back(other.type_ == TypeId::kDouble
                           ? other.doubles_[i]
                           : static_cast<double>(other.ints_[i]));
  } else if (type_ == TypeId::kString) {
    valid_.push_back(1);
    strings_.push_back(other.strings_[i]);
  } else {
    valid_.push_back(1);
    ints_.push_back(other.type_ == TypeId::kDouble
                        ? static_cast<int64_t>(other.doubles_[i])
                        : other.ints_[i]);
  }
}

void ColumnVector::AppendAll(const ColumnVector& other) {
  const bool same_class =
      (type_ == TypeId::kDouble) == (other.type_ == TypeId::kDouble) &&
      (type_ == TypeId::kString) == (other.type_ == TypeId::kString);
  if (!same_class) {
    Reserve(size() + other.size());
    for (size_t i = 0; i < other.size(); ++i) AppendFrom(other, i);
    return;
  }
  const size_t base = size();
  valid_.insert(valid_.end(), other.valid_.begin(), other.valid_.end());
  ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
  doubles_.insert(doubles_.end(), other.doubles_.begin(), other.doubles_.end());
  strings_.insert(strings_.end(), other.strings_.begin(), other.strings_.end());
  null_count_ += other.null_count_;
  if (other.null_count_ == 0) return;
  // AppendFrom writes a zero/empty payload for nulls; so does the copy.
  for (size_t i = base; i < valid_.size(); ++i) {
    if (valid_[i]) continue;
    if (type_ == TypeId::kDouble) {
      doubles_[i] = 0;
    } else if (type_ == TypeId::kString) {
      strings_[i].clear();
    } else {
      ints_[i] = 0;
    }
  }
}

namespace {

/// Zeroes the payload of null rows and counts them.
template <typename T>
size_t ZeroNulls(std::vector<T>* values, const std::vector<uint8_t>& valid) {
  size_t nulls = 0;
  for (size_t i = 0; i < valid.size(); ++i) {
    if (valid[i]) continue;
    (*values)[i] = T();
    ++nulls;
  }
  return nulls;
}

}  // namespace

std::shared_ptr<ColumnVector> ColumnVector::FromInts(
    TypeId type, std::vector<int64_t> values, std::vector<uint8_t> valid) {
  auto out = std::make_shared<ColumnVector>(type);
  out->null_count_ = ZeroNulls(&values, valid);
  out->ints_ = std::move(values);
  out->valid_ = std::move(valid);
  return out;
}

std::shared_ptr<ColumnVector> ColumnVector::FromDoubles(
    std::vector<double> values, std::vector<uint8_t> valid) {
  auto out = std::make_shared<ColumnVector>(TypeId::kDouble);
  out->null_count_ = ZeroNulls(&values, valid);
  out->doubles_ = std::move(values);
  out->valid_ = std::move(valid);
  return out;
}

std::shared_ptr<ColumnVector> ColumnVector::FromStrings(
    std::vector<std::string> values, std::vector<uint8_t> valid) {
  auto out = std::make_shared<ColumnVector>(TypeId::kString);
  out->null_count_ = ZeroNulls(&values, valid);
  out->strings_ = std::move(values);
  out->valid_ = std::move(valid);
  return out;
}

void ColumnVector::Reserve(size_t n) {
  valid_.reserve(n);
  if (type_ == TypeId::kDouble) {
    doubles_.reserve(n);
  } else if (type_ == TypeId::kString) {
    strings_.reserve(n);
  } else {
    ints_.reserve(n);
  }
}

void ColumnVector::Clear() {
  null_count_ = 0;
  valid_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
}

std::shared_ptr<ColumnVector> ColumnVector::Gather(
    const std::vector<uint32_t>& sel) const {
  auto out = std::make_shared<ColumnVector>(type_);
  const size_t n = sel.size();
  out->valid_.resize(n);
  for (size_t i = 0; i < n; ++i) out->valid_[i] = valid_[sel[i]];
  size_t nulls = 0;
  for (size_t i = 0; i < n; ++i) nulls += (out->valid_[i] == 0);
  out->null_count_ = nulls;
  if (type_ == TypeId::kDouble) {
    out->doubles_.resize(n);
    for (size_t i = 0; i < n; ++i) out->doubles_[i] = doubles_[sel[i]];
  } else if (type_ == TypeId::kString) {
    out->strings_.resize(n);
    for (size_t i = 0; i < n; ++i) out->strings_[i] = strings_[sel[i]];
  } else {
    out->ints_.resize(n);
    for (size_t i = 0; i < n; ++i) out->ints_[i] = ints_[sel[i]];
  }
  return out;
}

ColumnVectorPtr MakeVector(TypeId type) {
  return std::make_shared<ColumnVector>(type);
}

}  // namespace pixels
