#include "sql/parser.h"

#include "sql/lexer.h"

namespace pixels {

namespace {

/// Deepest expression nesting accepted. Each parenthesis, function
/// argument, CASE part, IN item, NOT, sign and chained binary operator
/// counts a level, so the recursion of the parser and of everything that
/// walks the tree it returns (binder, optimizer, evaluators) stays within
/// a thread's stack, also in sanitizer builds, whose frames are larger.
constexpr int kMaxExprDepth = 256;

/// Token-stream parser. Grammar layering (loosest to tightest):
/// or_expr > and_expr > not_expr > comparison > additive > multiplicative
/// > unary > primary.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStmtPtr> ParseSelectStmt() {
    PIXELS_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelectBody());
    if (!Peek().IsOp(")") && Peek().type != TokenType::kEof) {
      return Err("unexpected token '" + Peek().text + "' after statement");
    }
    return stmt;
  }

  Result<ExprPtr> ParseStandaloneExpr() {
    PIXELS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (Peek().type != TokenType::kEof) {
      return Err("unexpected token '" + Peek().text + "' after expression");
    }
    return e;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool ConsumeKeyword(const char* kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeOp(const char* op) {
    if (Peek().IsOp(op)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " (at offset " +
                              std::to_string(Peek().offset) + ")");
  }

  Status ExpectKeyword(const char* kw) {
    if (!ConsumeKeyword(kw)) {
      return Err(std::string("expected ") + kw + ", got '" + Peek().text + "'");
    }
    return Status::OK();
  }
  Status ExpectOp(const char* op) {
    if (!ConsumeOp(op)) {
      return Err(std::string("expected '") + op + "', got '" + Peek().text +
                 "'");
    }
    return Status::OK();
  }

  /// Restores the nesting depth when a parse function returns.
  class DepthScope {
   public:
    explicit DepthScope(int* depth) : depth_(depth), saved_(*depth) {}
    ~DepthScope() { *depth_ = saved_; }

   private:
    int* depth_;
    int saved_;
  };

  /// Enters one more level of nesting.
  Status Nest() {
    if (++depth_ > kMaxExprDepth) {
      return Status::InvalidArgument(
          "expression nested deeper than " + std::to_string(kMaxExprDepth) +
          " levels (at offset " + std::to_string(Peek().offset) + ")");
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Err("expected identifier, got '" + Peek().text + "'");
    }
    return Advance().text;
  }

  Result<SelectStmtPtr> ParseSelectBody() {
    PIXELS_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStmt>();
    stmt->distinct = ConsumeKeyword("DISTINCT");
    if (ConsumeKeyword("ALL")) {
      // SELECT ALL is the default.
    }
    // Select list.
    while (true) {
      SelectItem item;
      if (Peek().IsOp("*")) {
        Advance();
        item.expr = MakeStar();
      } else {
        PIXELS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
      if (ConsumeKeyword("AS")) {
        PIXELS_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      } else if (Peek().type == TokenType::kIdentifier) {
        // Bare alias.
        item.alias = Advance().text;
      }
      stmt->items.push_back(std::move(item));
      if (!ConsumeOp(",")) break;
    }
    // FROM.
    if (ConsumeKeyword("FROM")) {
      stmt->has_from = true;
      PIXELS_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());
      // JOIN chain; comma = cross join.
      while (true) {
        JoinClause join;
        if (ConsumeOp(",")) {
          join.type = JoinClause::Type::kCross;
        } else if (ConsumeKeyword("CROSS")) {
          PIXELS_RETURN_NOT_OK(ExpectKeyword("JOIN"));
          join.type = JoinClause::Type::kCross;
        } else if (ConsumeKeyword("LEFT")) {
          ConsumeKeyword("OUTER");
          PIXELS_RETURN_NOT_OK(ExpectKeyword("JOIN"));
          join.type = JoinClause::Type::kLeft;
        } else if (ConsumeKeyword("INNER")) {
          PIXELS_RETURN_NOT_OK(ExpectKeyword("JOIN"));
          join.type = JoinClause::Type::kInner;
        } else if (ConsumeKeyword("JOIN")) {
          join.type = JoinClause::Type::kInner;
        } else {
          break;
        }
        PIXELS_ASSIGN_OR_RETURN(join.table, ParseTableRef());
        if (join.type != JoinClause::Type::kCross) {
          PIXELS_RETURN_NOT_OK(ExpectKeyword("ON"));
          PIXELS_ASSIGN_OR_RETURN(join.on, ParseExpr());
        }
        stmt->joins.push_back(std::move(join));
      }
    }
    if (ConsumeKeyword("WHERE")) {
      PIXELS_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (ConsumeKeyword("GROUP")) {
      PIXELS_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        PIXELS_ASSIGN_OR_RETURN(ExprPtr g, ParseExpr());
        stmt->group_by.push_back(std::move(g));
        if (!ConsumeOp(",")) break;
      }
    }
    if (ConsumeKeyword("HAVING")) {
      PIXELS_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (ConsumeKeyword("ORDER")) {
      PIXELS_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        PIXELS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.ascending = false;
        } else {
          ConsumeKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
        if (!ConsumeOp(",")) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Peek().type != TokenType::kIntLiteral) {
        return Err("LIMIT expects an integer");
      }
      stmt->limit = Advance().int_value;
      if (stmt->limit < 0) return Err("LIMIT must be non-negative");
    }
    return stmt;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    PIXELS_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
    if (ConsumeKeyword("AS")) {
      PIXELS_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  Result<ExprPtr> ParseExpr() {
    DepthScope scope(&depth_);
    PIXELS_RETURN_NOT_OK(Nest());
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    DepthScope scope(&depth_);
    PIXELS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (ConsumeKeyword("OR")) {
      PIXELS_RETURN_NOT_OK(Nest());
      PIXELS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary("OR", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    DepthScope scope(&depth_);
    PIXELS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (ConsumeKeyword("AND")) {
      PIXELS_RETURN_NOT_OK(Nest());
      PIXELS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = MakeBinary("AND", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      DepthScope scope(&depth_);
      PIXELS_RETURN_NOT_OK(Nest());
      PIXELS_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return MakeUnary("NOT", std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    PIXELS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    // IS [NOT] NULL.
    if (ConsumeKeyword("IS")) {
      bool negated = ConsumeKeyword("NOT");
      PIXELS_RETURN_NOT_OK(ExpectKeyword("NULL"));
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kIsNull;
      e->negated = negated;
      e->args.push_back(std::move(lhs));
      return e;
    }
    bool negated = false;
    if (Peek().IsKeyword("NOT") &&
        (Peek(1).IsKeyword("BETWEEN") || Peek(1).IsKeyword("IN") ||
         Peek(1).IsKeyword("LIKE"))) {
      Advance();
      negated = true;
    }
    if (ConsumeKeyword("BETWEEN")) {
      PIXELS_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      PIXELS_RETURN_NOT_OK(ExpectKeyword("AND"));
      PIXELS_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kBetween;
      e->negated = negated;
      e->args.push_back(std::move(lhs));
      e->args.push_back(std::move(lo));
      e->args.push_back(std::move(hi));
      return e;
    }
    if (ConsumeKeyword("IN")) {
      PIXELS_RETURN_NOT_OK(ExpectOp("("));
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kInList;
      e->negated = negated;
      e->args.push_back(std::move(lhs));
      while (true) {
        PIXELS_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
        e->args.push_back(std::move(item));
        if (!ConsumeOp(",")) break;
      }
      PIXELS_RETURN_NOT_OK(ExpectOp(")"));
      return e;
    }
    if (ConsumeKeyword("LIKE")) {
      PIXELS_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
      ExprPtr like = MakeBinary("LIKE", std::move(lhs), std::move(pattern));
      if (negated) return MakeUnary("NOT", std::move(like));
      return like;
    }
    if (negated) return Err("dangling NOT");
    static const char* kCompOps[] = {"=", "<>", "<", "<=", ">", ">="};
    for (const char* op : kCompOps) {
      if (Peek().IsOp(op)) {
        Advance();
        PIXELS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
        return MakeBinary(op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    DepthScope scope(&depth_);
    PIXELS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Peek().IsOp("+") || Peek().IsOp("-") || Peek().IsOp("||")) {
      std::string op = Advance().text;
      PIXELS_RETURN_NOT_OK(Nest());
      PIXELS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    DepthScope scope(&depth_);
    PIXELS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Peek().IsOp("*") || Peek().IsOp("/") || Peek().IsOp("%")) {
      std::string op = Advance().text;
      PIXELS_RETURN_NOT_OK(Nest());
      PIXELS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    DepthScope scope(&depth_);
    if (ConsumeOp("-")) {
      PIXELS_RETURN_NOT_OK(Nest());
      PIXELS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      // Fold negative literals.
      if (operand->kind == Expr::Kind::kLiteral &&
          operand->literal.kind == Value::Kind::kInt) {
        operand->literal.i = -operand->literal.i;
        return operand;
      }
      if (operand->kind == Expr::Kind::kLiteral &&
          operand->literal.kind == Value::Kind::kDouble) {
        operand->literal.d = -operand->literal.d;
        return operand;
      }
      return MakeUnary("-", std::move(operand));
    }
    if (ConsumeOp("+")) {
      PIXELS_RETURN_NOT_OK(Nest());
      return ParseUnary();
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kIntLiteral:
        Advance();
        return MakeLiteral(Value::Int(tok.int_value));
      case TokenType::kDoubleLiteral:
        Advance();
        return MakeLiteral(Value::Double(tok.double_value));
      case TokenType::kStringLiteral:
        Advance();
        return MakeLiteral(Value::String(tok.text));
      case TokenType::kKeyword: {
        if (ConsumeKeyword("NULL")) return MakeLiteral(Value::Null());
        if (ConsumeKeyword("TRUE")) return MakeLiteral(Value::Bool(true));
        if (ConsumeKeyword("FALSE")) return MakeLiteral(Value::Bool(false));
        if (ConsumeKeyword("DATE")) {
          // DATE 'yyyy-mm-dd' literal → int days since epoch.
          if (Peek().type != TokenType::kStringLiteral) {
            return Err("DATE expects a string literal");
          }
          PIXELS_ASSIGN_OR_RETURN(int32_t days, ParseDate(Advance().text));
          return MakeLiteral(Value::Int(days));
        }
        if (ConsumeKeyword("CASE")) return ParseCase();
        if (ConsumeKeyword("CAST")) {
          // CAST(expr AS type) — parsed, represented as function cast_<type>.
          PIXELS_RETURN_NOT_OK(ExpectOp("("));
          PIXELS_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          PIXELS_RETURN_NOT_OK(ExpectKeyword("AS"));
          PIXELS_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier());
          PIXELS_RETURN_NOT_OK(ExpectOp(")"));
          std::vector<ExprPtr> args;
          args.push_back(std::move(inner));
          return MakeFunction("cast_" + type_name, std::move(args));
        }
        return Err("unexpected keyword '" + tok.text + "'");
      }
      case TokenType::kIdentifier: {
        std::string first = Advance().text;
        // Function call?
        if (Peek().IsOp("(")) {
          Advance();
          auto fn = std::make_unique<Expr>();
          fn->kind = Expr::Kind::kFunction;
          fn->name = first;
          if (ConsumeKeyword("DISTINCT")) fn->distinct = true;
          if (!Peek().IsOp(")")) {
            while (true) {
              if (Peek().IsOp("*")) {
                Advance();
                fn->args.push_back(MakeStar());
              } else {
                PIXELS_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
                fn->args.push_back(std::move(arg));
              }
              if (!ConsumeOp(",")) break;
            }
          }
          PIXELS_RETURN_NOT_OK(ExpectOp(")"));
          return fn;
        }
        // Qualified column: a.b.
        if (ConsumeOp(".")) {
          if (Peek().IsOp("*")) {
            return Err("qualified * is not supported");
          }
          PIXELS_ASSIGN_OR_RETURN(std::string second, ExpectIdentifier());
          return MakeColumnRef(first, second);
        }
        return MakeColumnRef("", first);
      }
      case TokenType::kOperator:
        if (ConsumeOp("(")) {
          // Subquery or parenthesized expression.
          if (Peek().IsKeyword("SELECT")) {
            return Err("subqueries are not supported");
          }
          PIXELS_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          PIXELS_RETURN_NOT_OK(ExpectOp(")"));
          return inner;
        }
        return Err("unexpected token '" + tok.text + "'");
      case TokenType::kEof:
        return Err("unexpected end of input");
    }
    return Err("unexpected token");
  }

  Result<ExprPtr> ParseCase() {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kCase;
    while (ConsumeKeyword("WHEN")) {
      PIXELS_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
      PIXELS_RETURN_NOT_OK(ExpectKeyword("THEN"));
      PIXELS_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
      e->args.push_back(std::move(when));
      e->args.push_back(std::move(then));
    }
    if (e->args.empty()) return Err("CASE needs at least one WHEN");
    if (ConsumeKeyword("ELSE")) {
      PIXELS_ASSIGN_OR_RETURN(ExprPtr els, ParseExpr());
      e->args.push_back(std::move(els));
      e->has_else = true;
    }
    PIXELS_RETURN_NOT_OK(ExpectKeyword("END"));
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<SelectStmtPtr> ParseSelect(const std::string& sql) {
  PIXELS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  return Parser(std::move(tokens)).ParseSelectStmt();
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  PIXELS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return Parser(std::move(tokens)).ParseStandaloneExpr();
}

}  // namespace pixels
