#include "sql/parser.h"

#include <gtest/gtest.h>

namespace pixels {
namespace {

SelectStmtPtr MustParse(const std::string& sql) {
  auto r = ParseSelect(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).ValueOrDie() : nullptr;
}

TEST(ParserTest, MinimalSelect) {
  auto stmt = MustParse("SELECT a FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->items[0].expr->name, "a");
  EXPECT_EQ(stmt->from.table, "t");
  EXPECT_EQ(stmt->limit, -1);
}

TEST(ParserTest, SelectStar) {
  auto stmt = MustParse("SELECT * FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items[0].expr->kind, Expr::Kind::kStar);
}

TEST(ParserTest, SelectWithoutFrom) {
  auto stmt = MustParse("SELECT 1 + 2");
  ASSERT_NE(stmt, nullptr);
  EXPECT_FALSE(stmt->has_from);
  // Parser folds negative literals only; 1+2 stays a binary op.
  EXPECT_EQ(stmt->items[0].expr->kind, Expr::Kind::kBinary);
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  auto stmt = MustParse("SELECT a AS x, b y FROM t AS u");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items[0].alias, "x");
  EXPECT_EQ(stmt->items[1].alias, "y");
  EXPECT_EQ(stmt->from.alias, "u");
}

TEST(ParserTest, QualifiedColumns) {
  auto stmt = MustParse("SELECT t.a FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items[0].expr->qualifier, "t");
  EXPECT_EQ(stmt->items[0].expr->name, "a");
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = MustParse("SELECT 1 + 2 * 3 FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items[0].expr->ToString(), "(1 + (2 * 3))");
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto stmt = MustParse("SELECT (1 + 2) * 3 FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items[0].expr->ToString(), "((1 + 2) * 3)");
}

TEST(ParserTest, LogicalPrecedence) {
  auto stmt = MustParse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3");
  ASSERT_NE(stmt, nullptr);
  // AND binds tighter than OR.
  EXPECT_EQ(stmt->where->op, "OR");
  EXPECT_EQ(stmt->where->args[1]->op, "AND");
}

TEST(ParserTest, NotPrecedence) {
  auto stmt = MustParse("SELECT a FROM t WHERE NOT x = 1 AND y = 2");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->where->op, "AND");
  EXPECT_EQ(stmt->where->args[0]->op, "NOT");
}

TEST(ParserTest, ComparisonOperators) {
  for (const char* op : {"=", "<>", "<", "<=", ">", ">="}) {
    auto stmt = MustParse(std::string("SELECT a FROM t WHERE a ") + op + " 1");
    ASSERT_NE(stmt, nullptr);
    EXPECT_EQ(stmt->where->op, op);
  }
}

TEST(ParserTest, BetweenAndNotBetween) {
  auto stmt = MustParse("SELECT a FROM t WHERE a BETWEEN 1 AND 10");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->where->kind, Expr::Kind::kBetween);
  EXPECT_FALSE(stmt->where->negated);

  stmt = MustParse("SELECT a FROM t WHERE a NOT BETWEEN 1 AND 10");
  ASSERT_NE(stmt, nullptr);
  EXPECT_TRUE(stmt->where->negated);
}

TEST(ParserTest, BetweenBindsBeforeAnd) {
  auto stmt = MustParse("SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b = 2");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->where->op, "AND");
  EXPECT_EQ(stmt->where->args[0]->kind, Expr::Kind::kBetween);
}

TEST(ParserTest, InList) {
  auto stmt = MustParse("SELECT a FROM t WHERE a IN (1, 2, 3)");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->where->kind, Expr::Kind::kInList);
  EXPECT_EQ(stmt->where->args.size(), 4u);  // expr + 3 items
  stmt = MustParse("SELECT a FROM t WHERE a NOT IN ('x')");
  EXPECT_TRUE(stmt->where->negated);
}

TEST(ParserTest, IsNullAndIsNotNull) {
  auto stmt = MustParse("SELECT a FROM t WHERE a IS NULL");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->where->kind, Expr::Kind::kIsNull);
  EXPECT_FALSE(stmt->where->negated);
  stmt = MustParse("SELECT a FROM t WHERE a IS NOT NULL");
  EXPECT_TRUE(stmt->where->negated);
}

TEST(ParserTest, LikeAndNotLike) {
  auto stmt = MustParse("SELECT a FROM t WHERE name LIKE '%x%'");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->where->op, "LIKE");
  stmt = MustParse("SELECT a FROM t WHERE name NOT LIKE 'y'");
  EXPECT_EQ(stmt->where->op, "NOT");
}

TEST(ParserTest, FunctionsAndAggregates) {
  auto stmt = MustParse(
      "SELECT count(*), sum(a), avg(b), min(c), max(d), count(DISTINCT e) "
      "FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items.size(), 6u);
  EXPECT_EQ(stmt->items[0].expr->name, "count");
  EXPECT_EQ(stmt->items[0].expr->args[0]->kind, Expr::Kind::kStar);
  EXPECT_TRUE(stmt->items[5].expr->distinct);
  EXPECT_TRUE(stmt->items[1].expr->ContainsAggregate());
}

TEST(ParserTest, DateLiteral) {
  auto stmt = MustParse("SELECT a FROM t WHERE d < DATE '1995-03-15'");
  ASSERT_NE(stmt, nullptr);
  const Expr& lit = *stmt->where->args[1];
  EXPECT_EQ(lit.kind, Expr::Kind::kLiteral);
  EXPECT_EQ(lit.literal.i, 9204);  // days since epoch for 1995-03-15
}

TEST(ParserTest, BadDateLiteralFails) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE d < DATE '99-99-99'").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE d < DATE 5").ok());
}

TEST(ParserTest, NullTrueFalseLiterals) {
  auto stmt = MustParse("SELECT NULL, TRUE, FALSE FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_TRUE(stmt->items[0].expr->literal.is_null());
  EXPECT_EQ(stmt->items[1].expr->literal.kind, Value::Kind::kBool);
}

TEST(ParserTest, NegativeNumbersFold) {
  auto stmt = MustParse("SELECT -5, -2.5 FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items[0].expr->literal.i, -5);
  EXPECT_DOUBLE_EQ(stmt->items[1].expr->literal.d, -2.5);
}

TEST(ParserTest, CaseExpression) {
  auto stmt = MustParse(
      "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' "
      "END FROM t");
  ASSERT_NE(stmt, nullptr);
  const Expr& c = *stmt->items[0].expr;
  EXPECT_EQ(c.kind, Expr::Kind::kCase);
  EXPECT_TRUE(c.has_else);
  EXPECT_EQ(c.args.size(), 5u);
}

TEST(ParserTest, CaseWithoutElse) {
  auto stmt = MustParse("SELECT CASE WHEN a = 1 THEN 2 END FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_FALSE(stmt->items[0].expr->has_else);
}

TEST(ParserTest, Cast) {
  auto stmt = MustParse("SELECT CAST(a AS double) FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items[0].expr->name, "cast_double");
}

TEST(ParserTest, Joins) {
  auto stmt = MustParse(
      "SELECT a FROM t1 JOIN t2 ON t1.x = t2.y LEFT JOIN t3 AS z ON t2.k = "
      "z.k CROSS JOIN t4");
  ASSERT_NE(stmt, nullptr);
  ASSERT_EQ(stmt->joins.size(), 3u);
  EXPECT_EQ(stmt->joins[0].type, JoinClause::Type::kInner);
  EXPECT_EQ(stmt->joins[1].type, JoinClause::Type::kLeft);
  EXPECT_EQ(stmt->joins[1].table.alias, "z");
  EXPECT_EQ(stmt->joins[2].type, JoinClause::Type::kCross);
  EXPECT_EQ(stmt->joins[2].on, nullptr);
}

TEST(ParserTest, CommaJoinIsCross) {
  auto stmt = MustParse("SELECT a FROM t1, t2 WHERE t1.x = t2.y");
  ASSERT_NE(stmt, nullptr);
  ASSERT_EQ(stmt->joins.size(), 1u);
  EXPECT_EQ(stmt->joins[0].type, JoinClause::Type::kCross);
}

TEST(ParserTest, GroupByHaving) {
  auto stmt = MustParse(
      "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 5");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_NE(stmt->having, nullptr);
  EXPECT_EQ(stmt->having->op, ">");
}

TEST(ParserTest, OrderByDirections) {
  auto stmt = MustParse("SELECT a, b FROM t ORDER BY a DESC, b ASC, a + b");
  ASSERT_NE(stmt, nullptr);
  ASSERT_EQ(stmt->order_by.size(), 3u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_TRUE(stmt->order_by[1].ascending);
  EXPECT_TRUE(stmt->order_by[2].ascending);
}

TEST(ParserTest, Limit) {
  auto stmt = MustParse("SELECT a FROM t LIMIT 10");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->limit, 10);
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
}

TEST(ParserTest, Distinct) {
  auto stmt = MustParse("SELECT DISTINCT a FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_TRUE(stmt->distinct);
}

TEST(ParserTest, StringConcat) {
  auto stmt = MustParse("SELECT a || b FROM t");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->items[0].expr->op, "||");
}

TEST(ParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra garbage ; x").ok());
}

TEST(ParserTest, RejectsSubqueries) {
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE x = (SELECT 1)").ok());
}

TEST(ParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT").ok());
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP a").ok());
  EXPECT_FALSE(ParseSelect("SELECT f(a FROM t").ok());
}

TEST(ParserTest, ToStringRoundTrip) {
  const char* queries[] = {
      "SELECT a, sum(b) AS total FROM t WHERE c > 5 GROUP BY a HAVING "
      "sum(b) > 10 ORDER BY a ASC LIMIT 3",
      "SELECT * FROM t1 JOIN t2 ON t1.x = t2.y",
      "SELECT DISTINCT a FROM t",
      "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
  };
  for (const char* q : queries) {
    auto first = MustParse(q);
    ASSERT_NE(first, nullptr);
    auto second = MustParse(first->ToString());
    ASSERT_NE(second, nullptr) << first->ToString();
    EXPECT_EQ(first->ToString(), second->ToString());
  }
}

TEST(ParserTest, CloneIsDeepAndEqual) {
  auto stmt = MustParse(
      "SELECT a, sum(b) FROM t WHERE c BETWEEN 1 AND 2 GROUP BY a ORDER BY a "
      "DESC LIMIT 1");
  ASSERT_NE(stmt, nullptr);
  auto clone = stmt->Clone();
  EXPECT_EQ(stmt->ToString(), clone->ToString());
  // Mutating the clone leaves the original untouched.
  clone->limit = 99;
  EXPECT_NE(stmt->ToString(), clone->ToString());
}

TEST(ParserTest, ExprEquals) {
  auto a = ParseExpression("x + 1 * y");
  auto b = ParseExpression("x + 1 * y");
  auto c = ParseExpression("x + 2 * y");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_TRUE((*a)->Equals(**b));
  EXPECT_FALSE((*a)->Equals(**c));
}

TEST(ParserTest, StandaloneExpressionRejectsTrailing) {
  EXPECT_FALSE(ParseExpression("1 + 2 extra").ok());
}

TEST(ParserTest, NestingDepthLimitRejectsInsteadOfOverflowing) {
  auto repeat = [](const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += s;
    return out;
  };
  const int kLevels = 20000;
  const std::string parens = repeat("(", kLevels) + "1" + repeat(")", kLevels);
  const std::string deep[] = {
      parens,
      "SELECT " + parens + " FROM t",
      repeat("NOT ", kLevels) + "x",
      repeat("- ", kLevels) + "x",
      "x" + repeat(" OR x", kLevels),
      "x" + repeat(" + 1", kLevels),
      repeat("abs(", kLevels) + "1" + repeat(")", kLevels),
      repeat("CASE WHEN x THEN ", kLevels) + "1" + repeat(" END", kLevels),
  };
  for (const std::string& text : deep) {
    Status st = text.rfind("SELECT", 0) == 0 ? ParseSelect(text).status()
                                             : ParseExpression(text).status();
    EXPECT_TRUE(st.IsInvalidArgument())
        << text.substr(0, 40) << "...: " << st.ToString();
  }
  // Ordinary nesting well under the limit still parses.
  auto ok = ParseExpression(repeat("(", 200) + "x + 1" + repeat(")", 200));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)->ToString(), "(x + 1)");
  EXPECT_TRUE(ParseExpression("x" + repeat(" AND x", 200)).ok());
}

}  // namespace
}  // namespace pixels
