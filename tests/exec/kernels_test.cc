// Kernel-vs-reference equivalence: CompiledPredicate::Select and the
// columnar EvaluateExpr / EvaluatePredicate must agree with the
// row-at-a-time reference evaluator on randomized batches for every
// vectorized shape (values, nulls, errors and vector type), across
// type x null pattern x selection, and fall back (not fail) on shapes
// outside the columnar set.
#include "exec/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/expression.h"
#include "sql/parser.h"
#include "storage/memory_store.h"
#include "testing/reference_eval.h"
#include "workload/tpch.h"

namespace pixels {
namespace {

// A batch with qualified names, mixed types, and nulls everywhere.
RowBatchPtr RandomBatch(uint64_t seed, int rows) {
  Random rng(seed);
  auto batch = std::make_shared<RowBatch>();
  auto a = MakeVector(TypeId::kInt64);
  auto b = MakeVector(TypeId::kDouble);
  auto s = MakeVector(TypeId::kString);
  auto f = MakeVector(TypeId::kBool);
  const char* words[] = {"apple", "banana", "cherry", "date"};
  for (int i = 0; i < rows; ++i) {
    rng.Bernoulli(0.1) ? a->AppendNull() : a->AppendInt(rng.Uniform(-20, 20));
    rng.Bernoulli(0.1) ? b->AppendNull()
                       : b->AppendDouble(rng.UniformDouble(-5.0, 5.0));
    rng.Bernoulli(0.1) ? s->AppendNull()
                       : s->AppendString(words[rng.Uniform(0, 3)]);
    rng.Bernoulli(0.1) ? f->AppendNull() : f->AppendBool(rng.Bernoulli(0.5));
  }
  batch->AddColumn("t.a", a);
  batch->AddColumn("t.b", b);
  batch->AddColumn("t.s", s);
  batch->AddColumn("t.flag", f);
  return batch;
}

// FilterOperator's scalar semantics: a row passes when the predicate
// evaluates to non-null true.
SelectionVector ScalarSelect(const Expr& pred, const RowBatch& batch) {
  auto col = testing::ReferenceEvaluateExpr(pred, batch);
  EXPECT_TRUE(col.ok()) << col.status().ToString();
  SelectionVector sel;
  for (size_t i = 0; i < (*col)->size(); ++i) {
    if (!(*col)->IsNull(i) && (*col)->GetValue(i).i != 0) {
      sel.push_back(static_cast<uint32_t>(i));
    }
  }
  return sel;
}

ExprPtr Parse(const std::string& text) {
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
  return e.ok() ? std::move(*e) : nullptr;
}

class CompiledPredicateTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CompiledPredicateTest, SelectMatchesScalarEvaluator) {
  const std::string text = GetParam();
  auto pred = Parse(text);
  ASSERT_NE(pred, nullptr);
  auto compiled = CompiledPredicate::Compile(*pred);
  for (uint64_t seed : {1u, 7u, 42u}) {
    auto batch = RandomBatch(seed, 503);
    auto got = compiled.Select(*batch);
    ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
    EXPECT_EQ(*got, ScalarSelect(*pred, *batch))
        << text << " seed=" << seed
        << " kernel_steps=" << compiled.num_kernel_steps()
        << " residual=" << compiled.has_residual();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CompiledPredicateTest,
    ::testing::Values(
        // Kernel-shaped conjuncts.
        "a > 3", "a >= 3", "a < 3", "a <= 3", "a = 3", "a <> 3",
        "b > 0.5", "b <= -1.0", "s = 'banana'", "s <> 'apple'",
        "s < 'cherry'", "t.a > 0", "3 < a",
        "a BETWEEN -5 AND 5", "a NOT BETWEEN -5 AND 5",
        "s IN ('apple', 'cherry')", "s NOT IN ('apple', 'cherry')",
        "a IS NULL", "a IS NOT NULL", "flag", "NOT flag",
        // Conjunctions, mixed kernel shapes.
        "a > 0 AND b < 1.0", "a > -10 AND a < 10 AND s <> 'date'",
        "flag AND a IS NOT NULL AND b > 0.0",
        // Type widening and cross-kind comparisons.
        "a > 1.5", "b = 2", "s > 5", "a = 'x'",
        // Constant-folding shapes.
        "a = NULL", "a BETWEEN 1 AND NULL",
        // Residual shapes (not kernel-lowerable) and mixes.
        "a + b > 0", "a * 2 < b", "a > 0 OR b > 0",
        "a > 0 AND a + b > 0", "NOT (a > 0)"));

TEST(CompiledPredicateTest, KernelShapesActuallyLower) {
  auto pred = Parse("a > 3 AND s = 'x' AND b BETWEEN 0 AND 1");
  auto compiled = CompiledPredicate::Compile(*pred);
  EXPECT_EQ(compiled.num_kernel_steps(), 3u);
  EXPECT_FALSE(compiled.has_residual());
}

TEST(CompiledPredicateTest, NonKernelShapeBecomesResidual) {
  auto pred = Parse("a + b > 0");
  auto compiled = CompiledPredicate::Compile(*pred);
  EXPECT_EQ(compiled.num_kernel_steps(), 0u);
  EXPECT_TRUE(compiled.has_residual());
}

TEST(CompiledPredicateTest, MixedShapeKeepsKernelAndResidual) {
  auto pred = Parse("a > 0 AND a + b > 0");
  auto compiled = CompiledPredicate::Compile(*pred);
  EXPECT_EQ(compiled.num_kernel_steps(), 1u);
  EXPECT_TRUE(compiled.has_residual());
}

TEST(CompiledPredicateTest, UnknownColumnFailsLikeScalar) {
  auto pred = Parse("zz > 3");
  auto compiled = CompiledPredicate::Compile(*pred);
  auto batch = RandomBatch(3, 10);
  EXPECT_FALSE(compiled.Select(*batch).ok());
}

// ---- columnar expression evaluation ----

// Exact equality of two evaluation results: same status, or same type,
// nulls and payloads (doubles bit for bit).
void ExpectSameResult(const Result<ColumnVectorPtr>& got,
                      const Result<ColumnVectorPtr>& want,
                      const std::string& label) {
  ASSERT_EQ(got.ok(), want.ok())
      << label << ": got " << (got.ok() ? "OK" : got.status().ToString())
      << ", want " << (want.ok() ? "OK" : want.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << label;
    return;
  }
  const ColumnVector& g = **got;
  const ColumnVector& w = **want;
  ASSERT_EQ(g.size(), w.size()) << label;
  EXPECT_EQ(g.type(), w.type()) << label;
  for (size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(g.IsNull(i), w.IsNull(i)) << label << " row " << i;
    if (w.IsNull(i)) continue;
    const Value gv = g.GetValue(i);
    const Value wv = w.GetValue(i);
    ASSERT_EQ(gv.kind, wv.kind) << label << " row " << i;
    if (wv.kind == Value::Kind::kDouble) {
      EXPECT_EQ(std::memcmp(&gv.d, &wv.d, sizeof(double)), 0)
          << label << " row " << i << ": " << gv.d << " vs " << wv.d;
    } else {
      EXPECT_EQ(gv.i, wv.i) << label << " row " << i;
      EXPECT_EQ(gv.s, wv.s) << label << " row " << i;
    }
  }
}

class VectorizedExprTest : public ::testing::TestWithParam<const char*> {};

TEST_P(VectorizedExprTest, MatchesScalarEvaluator) {
  const std::string text = GetParam();
  auto expr = Parse(text);
  ASSERT_NE(expr, nullptr);
  for (uint64_t seed : {2u, 11u}) {
    auto batch = RandomBatch(seed, 389);
    ExpectSameResult(EvaluateExpr(*expr, *batch),
                     testing::ReferenceEvaluateExpr(*expr, *batch), text);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, VectorizedExprTest,
    ::testing::Values("a", "t.b", "7", "'lit'", "a + 1", "a - b", "a * 2",
                      "b / 2.0", "-a", "-b", "a + b * 2 - 1", "a > b",
                      "a = 3", "b <> 0.5", "s = 'apple'", "a % 3",
                      // CASE, three-valued logic, IN, BETWEEN, IS NULL, LIKE.
                      "CASE WHEN a > 0 THEN 1 ELSE 0 END",
                      "CASE WHEN s = 'apple' OR s = 'date' THEN a END",
                      "CASE WHEN flag THEN a ELSE b END",
                      "CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' END",
                      "a > 0 AND b < 1", "a > 0 OR flag", "NOT flag",
                      "a IN (1, 2, NULL, 3)", "s NOT IN ('apple', a)",
                      "a BETWEEN -3 AND b", "b NOT BETWEEN -1 AND 1",
                      "a IS NULL", "(a + b) IS NOT NULL", "s LIKE '%an%'",
                      "s NOT LIKE 'c%'", "s LIKE NULL",
                      // Outside the columnar shapes: row-wise, identical.
                      "length(s) + a", "s || 'x'",
                      "CASE WHEN flag THEN a ELSE b END + 1"));

// One column per type, each with the same null pattern.
enum class NullPattern { kNone, kSparse, kAlternating, kAll };

RowBatchPtr TypedBatch(NullPattern nulls, uint64_t seed, int rows) {
  Random rng(seed);
  auto batch = std::make_shared<RowBatch>();
  auto i = MakeVector(TypeId::kInt64);
  auto i32 = MakeVector(TypeId::kInt32);
  auto d = MakeVector(TypeId::kDouble);
  auto s = MakeVector(TypeId::kString);
  auto f = MakeVector(TypeId::kBool);
  auto dt = MakeVector(TypeId::kDate);
  auto big = MakeVector(TypeId::kInt64);
  const char* words[] = {"", "a", "ab", "b_c", "apple", "PROMO tin"};
  const int64_t extremes[] = {std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(), -1, 0, 1};
  for (int r = 0; r < rows; ++r) {
    bool null = false;
    switch (nulls) {
      case NullPattern::kNone: break;
      case NullPattern::kSparse: null = rng.Bernoulli(0.1); break;
      case NullPattern::kAlternating: null = r % 2 == 1; break;
      case NullPattern::kAll: null = true; break;
    }
    if (null) {
      for (auto& c : {i, i32, d, s, f, dt, big}) c->AppendNull();
      continue;
    }
    i->AppendInt(rng.Uniform(-20, 20));
    i32->AppendInt(rng.Uniform(-3, 3));
    const int64_t pick = rng.Uniform(0, 19);
    d->AppendDouble(pick == 0   ? std::nan("")
                    : pick == 1 ? -0.0
                                : rng.UniformDouble(-5.0, 5.0));
    s->AppendString(words[rng.Uniform(0, 5)]);
    f->AppendBool(rng.Bernoulli(0.5));
    dt->AppendInt(9131 + rng.Uniform(0, 730));  // 1995-01-01 .. 1996-12-31
    big->AppendInt(extremes[rng.Uniform(0, 4)]);
  }
  batch->AddColumn("t.i", i);
  batch->AddColumn("t.i32", i32);
  batch->AddColumn("t.d", d);
  batch->AddColumn("t.s", s);
  batch->AddColumn("t.f", f);
  batch->AddColumn("t.dt", dt);
  batch->AddColumn("t.big", big);
  return batch;
}

const char* const kMatrixExprs[] = {
    // Arithmetic, including wrapping overflow and division by zero / -1.
    "i + d", "i * 3 - i32", "-d", "-i", "i / i32", "i % i32", "d / 0",
    "d % 2", "big * 2", "big + big", "-big", "big / -1", "big % -1",
    "big - i32",
    // Comparisons: exact ints, widening, kind order, NaN, literals.
    "i < d", "i32 = dt", "d >= 0", "s >= 'b'", "s = s", "s > i", "5 > i",
    "d = NULL", "dt < DATE '1996-01-01'",
    // BETWEEN and IN, with column and NULL bounds and items.
    "dt BETWEEN DATE '1995-06-01' AND DATE '1996-01-01'",
    "i BETWEEN i32 AND 10", "d NOT BETWEEN -1 AND 1", "i BETWEEN NULL AND 3",
    "i IN (1, 2, NULL, 3)", "i NOT IN (1, 2.5, NULL)", "s IN ('a', i32)",
    "d IN (i, i32)", "s NOT IN ('apple', 'ab')",
    // IS [NOT] NULL.
    "i IS NULL", "s IS NOT NULL", "(i + d) IS NULL",
    // Three-valued logic over every truthiness class.
    "f AND i > 0", "f OR d < 0", "NOT f", "NOT s", "NOT d", "s AND f",
    "(i > 0) AND NULL", "NULL OR f", "NOT (i > 0 OR d > 0)",
    // LIKE with literal patterns.
    "s LIKE 'a%'", "s LIKE '%b_'", "s LIKE 'PROMO%'", "NOT (s LIKE '_')",
    "s LIKE NULL",
    // CASE: one payload class, int/double mix at the root, strings,
    // NULL branches, nested arithmetic.
    "CASE WHEN f THEN 1 ELSE 0 END", "CASE WHEN f THEN i ELSE d END",
    "CASE WHEN i > 100 THEN d ELSE 0 END",
    "CASE WHEN s LIKE 'PROMO%' THEN d * (1 - i32) ELSE 0 END",
    "CASE WHEN i > 0 THEN 'pos' WHEN i < 0 THEN 'neg' END",
    "CASE WHEN i > 0 THEN NULL END", "CASE WHEN d > 0 THEN f END",
    "CASE WHEN i IS NULL THEN -1 ELSE i / 2 END",
    "CASE i > 0 WHEN TRUE THEN 1 END",
    // Mixed per-row kinds below the root, strings with numbers: row-wise.
    "CASE WHEN f THEN i ELSE d END / 2", "CASE WHEN f THEN s ELSE i END",
    "CASE WHEN f THEN s ELSE i END = 'a'",
    // Errors only where a row reaches them (LIKE on a non-string).
    "i LIKE 'x'", "i > 1000 AND i LIKE 'x'", "i < 1000 AND i LIKE 'x'",
    "CASE WHEN i > 1000 THEN i LIKE 'x' ELSE 0 END",
    "CASE WHEN i < 1000 THEN i LIKE 'x' END",
    // Outside the columnar shapes; a missing column.
    "length(s) + i", "i || s", "zz + 1",
};

TEST(ColumnarEvalMatrixTest, MatchesReferenceAcrossTypesNullsAndSelections) {
  for (NullPattern nulls : {NullPattern::kNone, NullPattern::kSparse,
                            NullPattern::kAlternating, NullPattern::kAll}) {
    auto batch = TypedBatch(nulls, 17 + static_cast<uint64_t>(nulls), 97);
    SelectionVector every_third, all;
    for (uint32_t r = 0; r < batch->num_rows(); ++r) {
      if (r % 3 == 0) every_third.push_back(r);
      all.push_back(r);
    }
    const SelectionVector empty;
    const SelectionVector* sels[] = {nullptr, &every_third, &all, &empty};
    for (const char* text : kMatrixExprs) {
      auto parsed = ParseExpression(text);
      if (!parsed.ok()) continue;  // grammar outside the parser (CASE x WHEN)
      const Expr& expr = **parsed;
      for (const SelectionVector* sel : sels) {
        const std::string label =
            std::string(text) + " nulls=" +
            std::to_string(static_cast<int>(nulls)) + " sel=" +
            (sel == nullptr ? "none" : std::to_string(sel->size()));
        RowBatchPtr rows = sel == nullptr ? batch : batch->Gather(*sel);
        ExpectSameResult(EvaluateExpr(expr, *batch, sel),
                         testing::ReferenceEvaluateExpr(expr, *rows), label);

        // Predicate use: each row's value tested with AsBool.
        Result<SelectionVector> want = SelectionVector{};
        for (size_t r = 0; r < rows->num_rows() && want.ok(); ++r) {
          auto v = EvaluateExprRow(expr, *rows, r);
          if (!v.ok()) {
            want = v.status();
          } else if (!v->is_null() && v->AsBool()) {
            want->push_back(sel == nullptr ? static_cast<uint32_t>(r)
                                           : (*sel)[r]);
          }
        }
        auto got = EvaluatePredicate(expr, *batch, sel);
        ASSERT_EQ(got.ok(), want.ok()) << label;
        if (want.ok()) {
          EXPECT_EQ(*got, *want) << label;
        } else {
          EXPECT_EQ(got.status().ToString(), want.status().ToString()) << label;
        }
      }
    }
  }
}

TEST(ColumnarEvalTest, ShortCircuitKeepsLikeTypeErrorsUnreached) {
  auto batch = TypedBatch(NullPattern::kNone, 5, 64);
  auto eval = [&](const char* text) {
    return EvaluateExpr(*Parse(text), *batch);
  };
  // LIKE on an int column is a TypeError only on rows that reach it.
  EXPECT_TRUE(eval("i > 1000 AND i LIKE 'x'").ok());
  EXPECT_TRUE(eval("i > -1000 OR i LIKE 'x'").ok());
  EXPECT_TRUE(eval("CASE WHEN i > 1000 THEN i LIKE 'x' ELSE 0 END").ok());
  auto reached = eval("CASE WHEN i < 1000 THEN i LIKE 'x' END");
  ASSERT_FALSE(reached.ok());
  EXPECT_TRUE(reached.status().IsTypeError()) << reached.status().ToString();
  EXPECT_FALSE(eval("i LIKE 'x'").ok());
}

TEST(ColumnarEvalTest, DeepestParsableExpressionEvaluates) {
  auto batch = TypedBatch(NullPattern::kSparse, 6, 64);
  auto nested = [](int levels) {
    std::string text = "i";
    for (int k = 0; k < levels; ++k) text = "-(" + text + ")";
    return text;
  };
  // Each level is a sign and a parenthesis: two levels of nesting.
  ASSERT_TRUE(ParseExpression(nested(128)).status().IsInvalidArgument());
  auto expr = ParseExpression(nested(127));
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  ExpectSameResult(EvaluateExpr(**expr, *batch),
                   testing::ReferenceEvaluateExpr(**expr, *batch), "deep");
}

TEST(ColumnarEvalTest, OutputTypingFollowsValues) {
  auto batch = TypedBatch(NullPattern::kNone, 8, 50);
  auto type_of = [&](const char* text) {
    auto r = EvaluateExpr(*Parse(text), *batch);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return r.ok() ? (*r)->type() : TypeId::kBool;
  };
  // A mixed int/double CASE is double only when a double value is chosen.
  EXPECT_EQ(type_of("CASE WHEN f THEN i ELSE d END"), TypeId::kDouble);
  EXPECT_EQ(type_of("CASE WHEN i > 100 THEN d ELSE 0 END"), TypeId::kInt64);
  // No values at all: int64, whatever the branch types.
  EXPECT_EQ(type_of("CASE WHEN i > 100 THEN 'x' END"), TypeId::kInt64);
  EXPECT_EQ(type_of("d + NULL"), TypeId::kInt64);
  // Booleans and dates build int64; a bare column keeps its own type.
  EXPECT_EQ(type_of("CASE WHEN f THEN f END"), TypeId::kInt64);
  EXPECT_EQ(type_of("-dt"), TypeId::kInt64);
  EXPECT_EQ(type_of("dt"), TypeId::kDate);
}

// The engine end to end: every canned TPC-H query returns the same rows
// and bills the same bytes on one thread and on four, which split
// batches and hash partitions differently. With fused decode off, the
// filters hand selection vectors to Project, HashAgg and the join probe,
// which then evaluate over deselected rows or over the selection.
TEST(ColumnarEvalTest, TpchQuerySetIdenticalAtParallelism1And4) {
  auto storage = std::make_shared<MemoryStore>();
  auto catalog = std::make_shared<Catalog>(storage);
  TpchOptions options;
  options.scale_factor = 0.002;
  options.rows_per_file = 2500;
  options.row_group_size = 1024;
  ASSERT_TRUE(GenerateTpch(catalog.get(), "tpch", options).ok());
  auto run = [&](const std::string& sql, int par, bool fused,
                 uint64_t* bytes) {
    ExecContext ctx;
    ctx.catalog = catalog.get();
    ctx.parallelism = par;
    ctx.fused_decode = fused;
    auto r = ExecuteQuery(sql, "tpch", &ctx);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    *bytes = ctx.bytes_scanned;
    std::vector<std::string> rows;
    if (r.ok()) {
      for (const auto& b : (*r)->batches()) {
        for (size_t i = 0; i < b->num_rows(); ++i) {
          rows.push_back(b->RowToString(i));
        }
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  ASSERT_EQ(TpchQuerySet().size(), 9u);
  for (const auto& q : TpchQuerySet()) {
    uint64_t want_bytes = 0;
    const auto want = run(q.sql, 1, true, &want_bytes);
    EXPECT_FALSE(want.empty()) << q.name;
    for (int par : {1, 4}) {
      for (bool fused : {true, false}) {
        uint64_t bytes = 0;
        EXPECT_EQ(run(q.sql, par, fused, &bytes), want)
            << q.name << " par=" << par << " fused=" << fused;
        EXPECT_EQ(bytes, want_bytes)
            << q.name << " par=" << par << " fused=" << fused;
      }
    }
  }
}

// ---- bloom selection kernels ----

TEST(BloomSelectTest, NoFalseNegativesAndNullsNeverPass) {
  Random rng(5);
  BloomFilter bloom(64, 10);
  std::vector<int64_t> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(rng.Uniform(-1000000, 1000000));
    bloom.Add(RfHashInt(keys.back()));
  }
  auto col = MakeVector(TypeId::kInt64);
  for (int i = 0; i < 200; ++i) {
    if (i % 10 == 0) {
      col->AppendNull();
    } else if (i % 2 == 0) {
      col->AppendInt(keys[i % keys.size()]);  // definitely present
    } else {
      col->AppendInt(5000000 + i);  // definitely absent
    }
  }
  auto sel = BloomFilterSelect(*col, bloom, nullptr);
  // Every inserted key's row survives; no null row survives.
  std::vector<bool> selected(col->size(), false);
  for (uint32_t i : sel) selected[i] = true;
  for (size_t i = 0; i < col->size(); ++i) {
    if (col->IsNull(i)) {
      EXPECT_FALSE(selected[i]) << "null row " << i << " passed the bloom";
    } else if (i % 10 != 0 && i % 2 == 0) {
      EXPECT_TRUE(selected[i]) << "inserted key dropped at row " << i;
    }
  }
}

TEST(BloomSelectTest, RespectsInputSelection) {
  BloomFilter bloom(4, 10);
  bloom.Add(RfHashInt(1));
  auto col = MakeVector(TypeId::kInt64);
  for (int i = 0; i < 8; ++i) col->AppendInt(1);  // all keys present
  SelectionVector in = {2, 5, 7};
  auto sel = BloomFilterSelect(*col, bloom, &in);
  EXPECT_EQ(sel, in);
}

TEST(RfHashColumnTest, MatchesPerValueHash) {
  auto check = [](const ColumnVectorPtr& col) {
    auto hashes = RfHashColumn(*col);
    ASSERT_EQ(hashes.size(), col->size());
    for (size_t i = 0; i < col->size(); ++i) {
      if (col->IsNull(i)) continue;
      EXPECT_EQ(hashes[i], RfHashValue(col->GetValue(i))) << "row " << i;
    }
  };
  Random rng(9);
  auto ints = MakeVector(TypeId::kInt64);
  auto dbls = MakeVector(TypeId::kDouble);
  auto strs = MakeVector(TypeId::kString);
  auto bools = MakeVector(TypeId::kBool);
  for (int i = 0; i < 100; ++i) {
    ints->AppendInt(rng.Uniform(-50, 50));
    dbls->AppendDouble(rng.UniformDouble(-2, 2));
    strs->AppendString(rng.NextString(rng.Uniform(0, 8)));
    bools->AppendBool(rng.Bernoulli(0.5));
  }
  ints->AppendNull();
  check(ints);
  check(dbls);
  check(strs);
  check(bools);
}

}  // namespace
}  // namespace pixels
