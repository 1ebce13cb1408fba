#include "exec/expression.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "format/compare.h"

namespace pixels {

bool LikeMatch(const std::string& text, const std::string& pattern) {
  size_t t = 0, p = 0, star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

// Two's-complement int64 arithmetic: overflow wraps instead of being
// undefined, and INT64_MIN / -1 cannot trap.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
/// `b` must be non-zero.
int64_t IntDiv(int64_t a, int64_t b) { return b == -1 ? WrapSub(0, a) : a / b; }
int64_t IntMod(int64_t a, int64_t b) { return b == -1 ? 0 : a % b; }

std::string ToLower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string ToUpper(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

Result<Value> EvalFunction(const Expr& e, const RowBatch& batch, size_t row) {
  // Aggregates must have been rewritten away by the binder.
  if (IsAggregateFunction(e.name)) {
    return Status::Internal("aggregate '" + e.name +
                            "' reached scalar evaluation");
  }
  std::vector<Value> args;
  args.reserve(e.args.size());
  for (const auto& a : e.args) {
    PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*a, batch, row));
    args.push_back(std::move(v));
  }
  auto need_args = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::InvalidArgument("function " + e.name +
                                     ": wrong argument count");
    }
    return Status::OK();
  };

  if (e.name == "coalesce") {
    for (auto& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  // All remaining functions are null-propagating.
  for (const auto& v : args) {
    if (v.is_null()) return Value::Null();
  }

  if (e.name == "abs") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].kind == Value::Kind::kDouble) {
      return Value::Double(std::fabs(args[0].d));
    }
    return Value::Int(args[0].i < 0 ? -args[0].i : args[0].i);
  }
  if (e.name == "round") {
    PIXELS_RETURN_NOT_OK(need_args(1, 2));
    double scale = args.size() == 2 ? std::pow(10.0, args[1].AsDouble()) : 1.0;
    return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
  }
  if (e.name == "floor") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    return Value::Double(std::floor(args[0].AsDouble()));
  }
  if (e.name == "ceil" || e.name == "ceiling") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    return Value::Double(std::ceil(args[0].AsDouble()));
  }
  if (e.name == "sqrt") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].AsDouble() < 0) return Value::Null();
    return Value::Double(std::sqrt(args[0].AsDouble()));
  }
  if (e.name == "length") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].kind != Value::Kind::kString) {
      return Status::TypeError("length() requires a string");
    }
    return Value::Int(static_cast<int64_t>(args[0].s.size()));
  }
  if (e.name == "lower") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    return Value::String(ToLower(args[0].s));
  }
  if (e.name == "upper") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    return Value::String(ToUpper(args[0].s));
  }
  if (e.name == "substr" || e.name == "substring") {
    PIXELS_RETURN_NOT_OK(need_args(2, 3));
    if (args[0].kind != Value::Kind::kString) {
      return Status::TypeError("substr() requires a string");
    }
    const std::string& s = args[0].s;
    int64_t start = args[1].AsInt();  // 1-based
    if (start < 1) start = 1;
    if (static_cast<size_t>(start) > s.size()) return Value::String("");
    size_t pos = static_cast<size_t>(start - 1);
    size_t len = args.size() == 3
                     ? static_cast<size_t>(std::max<int64_t>(args[2].AsInt(), 0))
                     : std::string::npos;
    return Value::String(s.substr(pos, len));
  }
  if (e.name == "concat") {
    std::string out;
    for (const auto& v : args) {
      out += v.kind == Value::Kind::kString ? v.s : v.ToString();
    }
    return Value::String(std::move(out));
  }
  if (e.name == "year" || e.name == "month" || e.name == "day") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    // Interprets the int payload as days since epoch.
    std::string date = FormatDate(static_cast<int32_t>(args[0].AsInt()));
    if (e.name == "year") return Value::Int(std::stoll(date.substr(0, 4)));
    if (e.name == "month") return Value::Int(std::stoll(date.substr(5, 2)));
    return Value::Int(std::stoll(date.substr(8, 2)));
  }
  if (e.name == "cast_int" || e.name == "cast_integer" ||
      e.name == "cast_bigint") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].kind == Value::Kind::kString) {
      char* end = nullptr;
      long long v = std::strtoll(args[0].s.c_str(), &end, 10);
      if (end == args[0].s.c_str()) return Value::Null();
      return Value::Int(v);
    }
    return Value::Int(args[0].AsInt());
  }
  if (e.name == "cast_double") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].kind == Value::Kind::kString) {
      char* end = nullptr;
      double v = std::strtod(args[0].s.c_str(), &end);
      if (end == args[0].s.c_str()) return Value::Null();
      return Value::Double(v);
    }
    return Value::Double(args[0].AsDouble());
  }
  if (e.name == "cast_varchar" || e.name == "cast_string") {
    PIXELS_RETURN_NOT_OK(need_args(1, 1));
    if (args[0].kind == Value::Kind::kString) return args[0];
    return Value::String(args[0].ToString());
  }
  return Status::NotImplemented("unknown function: " + e.name);
}

}  // namespace

Result<Value> EvaluateExprRow(const Expr& e, const RowBatch& batch, size_t row) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kColumnRef: {
      int idx = batch.FindColumn(e.QualifiedName());
      if (idx < 0) {
        return Status::InvalidArgument("column not found at execution: " +
                                       e.QualifiedName());
      }
      return batch.column(static_cast<size_t>(idx))->GetValue(row);
    }
    case Expr::Kind::kStar:
      return Status::Internal("bare * reached evaluation");
    case Expr::Kind::kUnary: {
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*e.args[0], batch, row));
      if (v.is_null()) return Value::Null();
      if (e.op == "NOT") return Value::Bool(!v.AsBool());
      if (e.op == "-") {
        if (v.kind == Value::Kind::kDouble) return Value::Double(-v.d);
        return Value::Int(WrapSub(0, v.i));
      }
      return Status::NotImplemented("unary op " + e.op);
    }
    case Expr::Kind::kBinary: {
      if (e.op == "AND") {
        PIXELS_ASSIGN_OR_RETURN(Value a, EvaluateExprRow(*e.args[0], batch, row));
        if (!a.is_null() && !a.AsBool()) return Value::Bool(false);
        PIXELS_ASSIGN_OR_RETURN(Value b, EvaluateExprRow(*e.args[1], batch, row));
        if (!b.is_null() && !b.AsBool()) return Value::Bool(false);
        if (a.is_null() || b.is_null()) return Value::Null();
        return Value::Bool(true);
      }
      if (e.op == "OR") {
        PIXELS_ASSIGN_OR_RETURN(Value a, EvaluateExprRow(*e.args[0], batch, row));
        if (!a.is_null() && a.AsBool()) return Value::Bool(true);
        PIXELS_ASSIGN_OR_RETURN(Value b, EvaluateExprRow(*e.args[1], batch, row));
        if (!b.is_null() && b.AsBool()) return Value::Bool(true);
        if (a.is_null() || b.is_null()) return Value::Null();
        return Value::Bool(false);
      }
      PIXELS_ASSIGN_OR_RETURN(Value a, EvaluateExprRow(*e.args[0], batch, row));
      PIXELS_ASSIGN_OR_RETURN(Value b, EvaluateExprRow(*e.args[1], batch, row));
      if (a.is_null() || b.is_null()) return Value::Null();
      if (e.op == "=") return Value::Bool(a.Compare(b) == 0);
      if (e.op == "<>") return Value::Bool(a.Compare(b) != 0);
      if (e.op == "<") return Value::Bool(a.Compare(b) < 0);
      if (e.op == "<=") return Value::Bool(a.Compare(b) <= 0);
      if (e.op == ">") return Value::Bool(a.Compare(b) > 0);
      if (e.op == ">=") return Value::Bool(a.Compare(b) >= 0);
      if (e.op == "LIKE") {
        if (a.kind != Value::Kind::kString || b.kind != Value::Kind::kString) {
          return Status::TypeError("LIKE requires strings");
        }
        return Value::Bool(LikeMatch(a.s, b.s));
      }
      if (e.op == "||") {
        std::string lhs = a.kind == Value::Kind::kString ? a.s : a.ToString();
        std::string rhs = b.kind == Value::Kind::kString ? b.s : b.ToString();
        return Value::String(lhs + rhs);
      }
      const bool dbl =
          a.kind == Value::Kind::kDouble || b.kind == Value::Kind::kDouble;
      if (e.op == "+") {
        return dbl ? Value::Double(a.AsDouble() + b.AsDouble())
                   : Value::Int(WrapAdd(a.i, b.i));
      }
      if (e.op == "-") {
        return dbl ? Value::Double(a.AsDouble() - b.AsDouble())
                   : Value::Int(WrapSub(a.i, b.i));
      }
      if (e.op == "*") {
        return dbl ? Value::Double(a.AsDouble() * b.AsDouble())
                   : Value::Int(WrapMul(a.i, b.i));
      }
      if (e.op == "/") {
        if (dbl) {
          if (b.AsDouble() == 0) return Value::Null();
          return Value::Double(a.AsDouble() / b.AsDouble());
        }
        if (b.i == 0) return Value::Null();
        return Value::Int(IntDiv(a.i, b.i));
      }
      if (e.op == "%") {
        if (b.AsInt() == 0) return Value::Null();
        return Value::Int(IntMod(a.AsInt(), b.AsInt()));
      }
      return Status::NotImplemented("binary op " + e.op);
    }
    case Expr::Kind::kFunction:
      return EvalFunction(e, batch, row);
    case Expr::Kind::kBetween: {
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*e.args[0], batch, row));
      PIXELS_ASSIGN_OR_RETURN(Value lo, EvaluateExprRow(*e.args[1], batch, row));
      PIXELS_ASSIGN_OR_RETURN(Value hi, EvaluateExprRow(*e.args[2], batch, row));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      bool in = v.Compare(lo) >= 0 && v.Compare(hi) <= 0;
      return Value::Bool(e.negated ? !in : in);
    }
    case Expr::Kind::kInList: {
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*e.args[0], batch, row));
      if (v.is_null()) return Value::Null();
      bool found = false;
      for (size_t i = 1; i < e.args.size() && !found; ++i) {
        PIXELS_ASSIGN_OR_RETURN(Value item,
                                EvaluateExprRow(*e.args[i], batch, row));
        found = !item.is_null() && v.Compare(item) == 0;
      }
      return Value::Bool(e.negated ? !found : found);
    }
    case Expr::Kind::kIsNull: {
      PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(*e.args[0], batch, row));
      return Value::Bool(e.negated ? !v.is_null() : v.is_null());
    }
    case Expr::Kind::kCase: {
      size_t pairs = (e.args.size() - (e.has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        PIXELS_ASSIGN_OR_RETURN(Value cond,
                                EvaluateExprRow(*e.args[2 * i], batch, row));
        if (!cond.is_null() && cond.AsBool()) {
          return EvaluateExprRow(*e.args[2 * i + 1], batch, row);
        }
      }
      if (e.has_else) return EvaluateExprRow(*e.args.back(), batch, row);
      return Value::Null();
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<ColumnVectorPtr> BuildVectorFromValues(const std::vector<Value>& values) {
  TypeId type = TypeId::kInt64;
  bool saw_string = false, saw_double = false, saw_numeric = false;
  for (const auto& v : values) {
    if (v.is_null()) continue;
    if (v.kind == Value::Kind::kString) {
      saw_string = true;
    } else {
      saw_numeric = true;
      if (v.kind == Value::Kind::kDouble) saw_double = true;
    }
  }
  if (saw_string && saw_numeric) {
    return Status::TypeError("expression produced mixed string/numeric values");
  }
  if (saw_string) {
    type = TypeId::kString;
  } else if (saw_double) {
    type = TypeId::kDouble;
  }
  auto col = MakeVector(type);
  col->Reserve(values.size());
  for (const auto& v : values) {
    PIXELS_RETURN_NOT_OK(col->AppendValue(v));
  }
  return col;
}

namespace {

enum class PayloadClass : uint8_t { kInt, kDouble, kString };

PayloadClass ClassOf(const ColumnVector& v) {
  if (v.type() == TypeId::kDouble) return PayloadClass::kDouble;
  if (v.type() == TypeId::kString) return PayloadClass::kString;
  return PayloadClass::kInt;
}

/// Value::AsBool of every row's payload (null rows read false): numbers
/// are true when non-zero, strings never are.
std::vector<uint8_t> Truth(const ColumnVector& v) {
  const size_t n = v.size();
  std::vector<uint8_t> t(n, 0);
  if (ClassOf(v) == PayloadClass::kInt) {
    const int64_t* x = v.ints_data();
    for (size_t i = 0; i < n; ++i) t[i] = x[i] != 0;
  } else if (ClassOf(v) == PayloadClass::kDouble) {
    const double* x = v.doubles_data();
    for (size_t i = 0; i < n; ++i) t[i] = x[i] != 0;
  }
  return t;
}

/// A numeric payload as doubles (Value::AsDouble); `tmp` holds the
/// widened copy of an int payload.
const double* DoublesOf(const ColumnVector& v, std::vector<double>* tmp) {
  if (ClassOf(v) == PayloadClass::kDouble) return v.doubles_data();
  tmp->assign(v.ints_data(), v.ints_data() + v.size());
  return tmp->data();
}

/// A numeric payload as int64s (Value::AsInt: doubles truncate).
const int64_t* IntsOf(const ColumnVector& v, std::vector<int64_t>* tmp) {
  if (ClassOf(v) == PayloadClass::kInt) return v.ints_data();
  tmp->resize(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    (*tmp)[i] = static_cast<int64_t>(v.doubles_data()[i]);
  }
  return tmp->data();
}

template <typename T>
int Sign3(const T& a, const T& b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// A three-valued boolean result under construction. Row-wise
/// evaluation produces Bool values, which build int64 vectors.
struct BoolColumn {
  explicit BoolColumn(size_t n) : ok(n, 0), val(n, 0) {}
  ColumnVectorPtr Finish() {
    return ColumnVector::FromInts(TypeId::kInt64, std::move(val), std::move(ok));
  }
  std::vector<uint8_t> ok;
  std::vector<int64_t> val;
};

/// Evaluates an expression over a batch, or over the rows of a
/// selection, as flat loops over typed payloads: one result vector per
/// node, column refs resolved once per call. Every shape handled here is
/// total, so nothing can fail; a null result means "evaluate the whole
/// expression row by row" — for functions, `||`, LIKE on a non-string
/// operand (an error on the rows that reach it), a missing column, and
/// any node whose per-row value kinds would not survive a typed vector.
class ColumnarEval {
 public:
  ColumnarEval(const RowBatch& batch, const SelectionVector* sel)
      : batch_(batch),
        sel_(sel),
        n_(sel != nullptr ? sel->size() : batch.num_rows()) {}

  /// `root` marks the node whose values become the result vector: only
  /// there may a CASE mix int and double branches (the vector widens
  /// them all, as BuildVectorFromValues does).
  ColumnVectorPtr Eval(const Expr& e, bool root = false) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return Broadcast(e.literal);
      case Expr::Kind::kColumnRef:
        return Column(e);
      case Expr::Kind::kUnary: {
        if (e.op != "-" && e.op != "NOT") return nullptr;
        ColumnVectorPtr a = Eval(*e.args[0]);
        if (a == nullptr) return nullptr;
        return e.op == "-" ? Negate(*a) : Not(*a);
      }
      case Expr::Kind::kBinary:
        return Binary(e);
      case Expr::Kind::kBetween:
        return Between(e);
      case Expr::Kind::kInList:
        return InList(e);
      case Expr::Kind::kIsNull: {
        ColumnVectorPtr a = Eval(*e.args[0]);
        if (a == nullptr) return nullptr;
        BoolColumn out(n_);
        const uint8_t* ok = a->valid_data();
        for (size_t i = 0; i < n_; ++i) {
          out.ok[i] = 1;
          out.val[i] = (ok[i] == 0) != e.negated;
        }
        return out.Finish();
      }
      case Expr::Kind::kCase:
        return Case(e, root);
      default:
        return nullptr;
    }
  }

 private:
  std::vector<uint8_t> Valid(const ColumnVector& a) const {
    return std::vector<uint8_t>(a.valid_data(), a.valid_data() + n_);
  }

  ColumnVectorPtr Column(const Expr& e) const {
    const int idx = batch_.FindColumn(e.QualifiedName());
    if (idx < 0) return nullptr;  // row-wise reports it, if a row reaches it
    const ColumnVectorPtr& col = batch_.column(static_cast<size_t>(idx));
    return sel_ != nullptr ? col->Gather(*sel_) : col;
  }

  ColumnVectorPtr Broadcast(const Value& v) const {
    std::vector<uint8_t> ok(n_, v.is_null() ? 0 : 1);
    if (v.kind == Value::Kind::kString) {
      return ColumnVector::FromStrings(std::vector<std::string>(n_, v.s),
                                       std::move(ok));
    }
    if (v.kind == Value::Kind::kDouble) {
      return ColumnVector::FromDoubles(std::vector<double>(n_, v.d),
                                       std::move(ok));
    }
    return ColumnVector::FromInts(TypeId::kInt64,
                                  std::vector<int64_t>(n_, v.i), std::move(ok));
  }

  ColumnVectorPtr Negate(const ColumnVector& a) const {
    if (ClassOf(a) == PayloadClass::kString) return nullptr;
    if (ClassOf(a) == PayloadClass::kDouble) {
      std::vector<double> out(n_);
      for (size_t i = 0; i < n_; ++i) out[i] = -a.doubles_data()[i];
      return ColumnVector::FromDoubles(std::move(out), Valid(a));
    }
    std::vector<int64_t> out(n_);
    for (size_t i = 0; i < n_; ++i) out[i] = WrapSub(0, a.ints_data()[i]);
    return ColumnVector::FromInts(TypeId::kInt64, std::move(out), Valid(a));
  }

  ColumnVectorPtr Not(const ColumnVector& a) const {
    BoolColumn out(n_);
    const std::vector<uint8_t> t = Truth(a);
    out.ok = Valid(a);
    for (size_t i = 0; i < n_; ++i) out.val[i] = out.ok[i] && !t[i];
    return out.Finish();
  }

  ColumnVectorPtr Binary(const Expr& e) {
    const std::string& op = e.op;
    if (op == "AND" || op == "OR") return Logic(e, op == "AND");
    if (op == "LIKE") return Like(e);
    if (op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
        op == ">=") {
      CmpOp cmp = *ParseCmpOp(op);
      const Expr* lhs = e.args[0].get();
      const Expr* rhs = e.args[1].get();
      // Keep a literal on the right, where it folds into a TypedPredicate.
      if (lhs->kind == Expr::Kind::kLiteral &&
          rhs->kind != Expr::Kind::kLiteral) {
        std::swap(lhs, rhs);
        cmp = FlipCmpOp(cmp);
      }
      ColumnVectorPtr a = Eval(*lhs);
      return a == nullptr ? nullptr : CompareTo(*a, *rhs, cmp);
    }
    if (op != "+" && op != "-" && op != "*" && op != "/" && op != "%") {
      return nullptr;
    }
    ColumnVectorPtr a = Eval(*e.args[0]);
    if (a == nullptr) return nullptr;
    ColumnVectorPtr b = Eval(*e.args[1]);
    if (b == nullptr) return nullptr;
    return Arith(op, *a, *b);
  }

  /// AND / OR in three-valued logic: a false (AND) or true (OR) operand
  /// decides alone; otherwise any null makes the result null.
  ColumnVectorPtr Logic(const Expr& e, bool is_and) {
    ColumnVectorPtr a = Eval(*e.args[0]);
    if (a == nullptr) return nullptr;
    ColumnVectorPtr b = Eval(*e.args[1]);
    if (b == nullptr) return nullptr;
    const std::vector<uint8_t> ta = Truth(*a);
    const std::vector<uint8_t> tb = Truth(*b);
    const uint8_t* aok = a->valid_data();
    const uint8_t* bok = b->valid_data();
    BoolColumn out(n_);
    for (size_t i = 0; i < n_; ++i) {
      const bool decides = (aok[i] && ta[i] != is_and) ||
                           (bok[i] && tb[i] != is_and);
      out.ok[i] = decides || (aok[i] && bok[i]);
      out.val[i] = decides ? !is_and : (out.ok[i] && is_and);
    }
    return out.Finish();
  }

  ColumnVectorPtr Arith(const std::string& op, const ColumnVector& a,
                        const ColumnVector& b) const {
    // Row-wise arithmetic on strings reads their zero int payload.
    if (ClassOf(a) == PayloadClass::kString ||
        ClassOf(b) == PayloadClass::kString) {
      return nullptr;
    }
    std::vector<uint8_t> ok(n_);
    for (size_t i = 0; i < n_; ++i) ok[i] = a.valid_data()[i] & b.valid_data()[i];
    const bool dbl = op != "%" && (ClassOf(a) == PayloadClass::kDouble ||
                                   ClassOf(b) == PayloadClass::kDouble);
    if (dbl) {
      std::vector<double> ta, tb;
      const double* x = DoublesOf(a, &ta);
      const double* y = DoublesOf(b, &tb);
      std::vector<double> out(n_);
      if (op == "+") {
        for (size_t i = 0; i < n_; ++i) out[i] = x[i] + y[i];
      } else if (op == "-") {
        for (size_t i = 0; i < n_; ++i) out[i] = x[i] - y[i];
      } else if (op == "*") {
        for (size_t i = 0; i < n_; ++i) out[i] = x[i] * y[i];
      } else {
        for (size_t i = 0; i < n_; ++i) {
          if (y[i] == 0) {
            ok[i] = 0;  // division by zero is NULL
          } else {
            out[i] = x[i] / y[i];
          }
        }
      }
      return ColumnVector::FromDoubles(std::move(out), std::move(ok));
    }
    // Int results; `%` truncates double operands (Value::AsInt).
    std::vector<int64_t> ta, tb;
    const int64_t* x = IntsOf(a, &ta);
    const int64_t* y = IntsOf(b, &tb);
    std::vector<int64_t> out(n_);
    if (op == "+") {
      for (size_t i = 0; i < n_; ++i) out[i] = WrapAdd(x[i], y[i]);
    } else if (op == "-") {
      for (size_t i = 0; i < n_; ++i) out[i] = WrapSub(x[i], y[i]);
    } else if (op == "*") {
      for (size_t i = 0; i < n_; ++i) out[i] = WrapMul(x[i], y[i]);
    } else {
      const bool div = op == "/";
      for (size_t i = 0; i < n_; ++i) {
        if (y[i] == 0) {
          ok[i] = 0;
        } else {
          out[i] = div ? IntDiv(x[i], y[i]) : IntMod(x[i], y[i]);
        }
      }
    }
    return ColumnVector::FromInts(TypeId::kInt64, std::move(out), std::move(ok));
  }

  /// `a op rhs` with Value::Compare semantics. A literal right-hand side
  /// lowers to one TypedPredicate; anything else compares payloads
  /// pairwise (kind order, exact ints, any-double widening, NaN ties).
  ColumnVectorPtr CompareTo(const ColumnVector& a, const Expr& rhs, CmpOp op) {
    BoolColumn out(n_);
    const uint8_t* aok = a.valid_data();
    if (rhs.kind == Expr::Kind::kLiteral) {
      if (rhs.literal.is_null()) return out.Finish();  // NULL compares NULL
      const TypedPredicate p = TypedPredicate::Make(a.type(), op, rhs.literal);
      out.ok = Valid(a);
      switch (ClassOf(a)) {
        case PayloadClass::kInt:
          for (size_t i = 0; i < n_; ++i) {
            out.val[i] = aok[i] && p.MatchInt(a.ints_data()[i]);
          }
          break;
        case PayloadClass::kDouble:
          for (size_t i = 0; i < n_; ++i) {
            out.val[i] = aok[i] && p.MatchDouble(a.doubles_data()[i]);
          }
          break;
        case PayloadClass::kString:
          for (size_t i = 0; i < n_; ++i) {
            out.val[i] = aok[i] && p.MatchString(a.strings_data()[i]);
          }
          break;
      }
      return out.Finish();
    }
    ColumnVectorPtr b = Eval(rhs);
    if (b == nullptr) return nullptr;
    const uint8_t* bok = b->valid_data();
    for (size_t i = 0; i < n_; ++i) out.ok[i] = aok[i] & bok[i];
    auto fill = [&](auto&& three_way) {
      for (size_t i = 0; i < n_; ++i) {
        out.val[i] = out.ok[i] && ApplyCmp(op, three_way(i));
      }
    };
    const PayloadClass ac = ClassOf(a);
    const PayloadClass bc = ClassOf(*b);
    if ((ac == PayloadClass::kString) != (bc == PayloadClass::kString)) {
      const int c = ac == PayloadClass::kString ? 1 : -1;  // numerics first
      fill([c](size_t) { return c; });
    } else if (ac == PayloadClass::kString) {
      const std::string* x = a.strings_data();
      const std::string* y = b->strings_data();
      fill([&](size_t i) { return Sign3(x[i].compare(y[i]), 0); });
    } else if (ac == PayloadClass::kInt && bc == PayloadClass::kInt) {
      const int64_t* x = a.ints_data();
      const int64_t* y = b->ints_data();
      fill([&](size_t i) { return Sign3(x[i], y[i]); });
    } else {
      std::vector<double> ta, tb;
      const double* x = DoublesOf(a, &ta);
      const double* y = DoublesOf(*b, &tb);
      fill([&](size_t i) { return Sign3(x[i], y[i]); });
    }
    return out.Finish();
  }

  /// NULL when any of value, low or high is NULL.
  ColumnVectorPtr Between(const Expr& e) {
    ColumnVectorPtr v = Eval(*e.args[0]);
    if (v == nullptr) return nullptr;
    ColumnVectorPtr ge = CompareTo(*v, *e.args[1], CmpOp::kGe);
    if (ge == nullptr) return nullptr;
    ColumnVectorPtr le = CompareTo(*v, *e.args[2], CmpOp::kLe);
    if (le == nullptr) return nullptr;
    BoolColumn out(n_);
    for (size_t i = 0; i < n_; ++i) {
      out.ok[i] = ge->valid_data()[i] & le->valid_data()[i];
      const bool in = ge->ints_data()[i] && le->ints_data()[i];
      out.val[i] = out.ok[i] && in != e.negated;
    }
    return out.Finish();
  }

  /// NULL only for a NULL probe; NULL items never match.
  ColumnVectorPtr InList(const Expr& e) {
    ColumnVectorPtr v = Eval(*e.args[0]);
    if (v == nullptr) return nullptr;
    std::vector<uint8_t> found(n_, 0);
    for (size_t k = 1; k < e.args.size(); ++k) {
      ColumnVectorPtr eq = CompareTo(*v, *e.args[k], CmpOp::kEq);
      if (eq == nullptr) return nullptr;
      for (size_t i = 0; i < n_; ++i) found[i] |= eq->ints_data()[i] != 0;
    }
    BoolColumn out(n_);
    out.ok = Valid(*v);
    for (size_t i = 0; i < n_; ++i) {
      out.val[i] = out.ok[i] && (found[i] != 0) != e.negated;
    }
    return out.Finish();
  }

  /// String operand against a literal pattern.
  ColumnVectorPtr Like(const Expr& e) {
    const Expr& pattern = *e.args[1];
    if (pattern.kind != Expr::Kind::kLiteral) return nullptr;
    ColumnVectorPtr a = Eval(*e.args[0]);
    if (a == nullptr) return nullptr;
    BoolColumn out(n_);
    if (pattern.literal.is_null()) return out.Finish();
    if (pattern.literal.kind != Value::Kind::kString ||
        ClassOf(*a) != PayloadClass::kString) {
      return nullptr;
    }
    out.ok = Valid(*a);
    const std::string* s = a->strings_data();
    for (size_t i = 0; i < n_; ++i) {
      out.val[i] = out.ok[i] && LikeMatch(s[i], pattern.literal.s);
    }
    return out.Finish();
  }

  /// Picks each row's branch from the conditions, then assembles the
  /// result from the branch vectors. Its type follows the values that
  /// reach it, as in BuildVectorFromValues.
  ColumnVectorPtr Case(const Expr& e, bool root) {
    const size_t pairs = (e.args.size() - (e.has_else ? 1 : 0)) / 2;
    std::vector<int32_t> pick(n_, -1);  // -1: no branch, NULL
    for (size_t k = 0; k < pairs; ++k) {
      ColumnVectorPtr c = Eval(*e.args[2 * k]);
      if (c == nullptr) return nullptr;
      const std::vector<uint8_t> t = Truth(*c);
      const uint8_t* ok = c->valid_data();
      for (size_t i = 0; i < n_; ++i) {
        if (pick[i] < 0 && ok[i] && t[i]) pick[i] = static_cast<int32_t>(k);
      }
    }
    std::vector<ColumnVectorPtr> vals(pairs + (e.has_else ? 1 : 0));
    for (size_t b = 0; b < vals.size(); ++b) {
      vals[b] = Eval(b < pairs ? *e.args[2 * b + 1] : *e.args.back());
      if (vals[b] == nullptr) return nullptr;
    }
    if (e.has_else) {
      for (int32_t& p : pick) {
        if (p < 0) p = static_cast<int32_t>(pairs);
      }
    }
    std::vector<uint8_t> ok(n_, 0);
    bool seen[3] = {false, false, false};
    for (size_t i = 0; i < n_; ++i) {
      if (pick[i] < 0 || !vals[pick[i]]->valid_data()[i]) continue;
      ok[i] = 1;
      seen[static_cast<int>(ClassOf(*vals[pick[i]]))] = true;
    }
    const bool str = seen[static_cast<int>(PayloadClass::kString)];
    const bool dbl = seen[static_cast<int>(PayloadClass::kDouble)];
    const bool ints = seen[static_cast<int>(PayloadClass::kInt)];
    // Strings mixed with numbers: a type error at the root, kind-ordered
    // values below it. Ints mixed with doubles below the root keep
    // int arithmetic on the int rows. Both stay row-wise.
    if ((str && (dbl || ints)) || (dbl && ints && !root)) return nullptr;
    if (str) {
      std::vector<std::string> out(n_);
      for (size_t i = 0; i < n_; ++i) {
        if (ok[i]) out[i] = vals[pick[i]]->strings_data()[i];
      }
      return ColumnVector::FromStrings(std::move(out), std::move(ok));
    }
    if (dbl) {
      std::vector<double> out(n_);
      for (size_t i = 0; i < n_; ++i) {
        if (!ok[i]) continue;
        const ColumnVector& v = *vals[pick[i]];
        out[i] = ClassOf(v) == PayloadClass::kDouble
                     ? v.doubles_data()[i]
                     : static_cast<double>(v.ints_data()[i]);
      }
      return ColumnVector::FromDoubles(std::move(out), std::move(ok));
    }
    std::vector<int64_t> out(n_);
    for (size_t i = 0; i < n_; ++i) {
      if (ok[i]) out[i] = vals[pick[i]]->ints_data()[i];
    }
    return ColumnVector::FromInts(TypeId::kInt64, std::move(out), std::move(ok));
  }

  const RowBatch& batch_;
  const SelectionVector* sel_;
  const size_t n_;
};

}  // namespace

Result<ColumnVectorPtr> EvaluateExpr(const Expr& expr, const RowBatch& batch,
                                     const SelectionVector* sel) {
  // A bare column reference is the column itself, with its exact type.
  if (expr.kind == Expr::Kind::kColumnRef) {
    int idx = batch.FindColumn(expr.QualifiedName());
    if (idx < 0) {
      return Status::InvalidArgument("column not found at execution: " +
                                     expr.QualifiedName());
    }
    const ColumnVectorPtr& col = batch.column(static_cast<size_t>(idx));
    return sel != nullptr ? col->Gather(*sel) : col;
  }
  const size_t n = sel != nullptr ? sel->size() : batch.num_rows();
  if (n > 0) {
    ColumnVectorPtr out = ColumnarEval(batch, sel).Eval(expr, /*root=*/true);
    if (out != nullptr) {
      // BuildVectorFromValues types a result without values as int64.
      if (out->NullCount() == n && out->type() != TypeId::kInt64) {
        return ColumnVectorPtr(ColumnVector::FromInts(
            TypeId::kInt64, std::vector<int64_t>(n), std::vector<uint8_t>(n)));
      }
      return out;
    }
  }
  std::vector<Value> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PIXELS_ASSIGN_OR_RETURN(
        Value v, EvaluateExprRow(expr, batch, sel != nullptr ? (*sel)[i] : i));
    values.push_back(std::move(v));
  }
  return BuildVectorFromValues(values);
}

Result<SelectionVector> EvaluatePredicate(const Expr& pred,
                                          const RowBatch& batch,
                                          const SelectionVector* sel) {
  const size_t n = sel != nullptr ? sel->size() : batch.num_rows();
  auto row = [&](size_t i) {
    return sel != nullptr ? (*sel)[i] : static_cast<uint32_t>(i);
  };
  SelectionVector out;
  ColumnVectorPtr mask =
      n > 0 ? ColumnarEval(batch, sel).Eval(pred, /*root=*/true) : nullptr;
  if (mask != nullptr) {
    const std::vector<uint8_t> t = Truth(*mask);
    const uint8_t* ok = mask->valid_data();
    for (size_t i = 0; i < n; ++i) {
      if (ok[i] && t[i]) out.push_back(row(i));
    }
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    PIXELS_ASSIGN_OR_RETURN(Value v, EvaluateExprRow(pred, batch, row(i)));
    if (!v.is_null() && v.AsBool()) out.push_back(row(i));
  }
  return out;
}

}  // namespace pixels
