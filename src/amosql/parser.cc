#include "amosql/parser.h"

#include <cctype>

namespace deltamon::amosql {

namespace {

/// Recursive-descent parser with token-position backtracking (used only to
/// disambiguate parenthesized predicates from parenthesized expressions).
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<Statement>> ParseProgram() {
    std::vector<Statement> out;
    while (!At(TokenKind::kEnd)) {
      DELTAMON_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
      out.push_back(std::move(stmt));
    }
    return out;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool At(TokenKind kind) const { return Peek().kind == kind; }
  bool AtKeyword(const char* kw) const { return Peek().IsKeyword(kw); }
  Token Take() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool Match(TokenKind kind) {
    if (!At(kind)) return false;
    Take();
    return true;
  }
  bool MatchKeyword(const char* kw) {
    if (!AtKeyword(kw)) return false;
    Take();
    return true;
  }

  Status ErrorHere(const std::string& what) const {
    return Status::ParseError(what + " at line " +
                              std::to_string(Peek().line) + " (near " +
                              TokenKindName(Peek().kind) +
                              (Peek().text.empty() ? "" : " '" + Peek().text +
                                                             "'") +
                              ")");
  }

  Status Expect(TokenKind kind, const char* what) {
    if (!Match(kind)) return ErrorHere(std::string("expected ") + what);
    return Status::OK();
  }

  Status ExpectKeyword(const char* kw) {
    if (!MatchKeyword(kw)) {
      return ErrorHere(std::string("expected '") + kw + "'");
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (!At(TokenKind::kIdentifier)) {
      return ErrorHere(std::string("expected ") + what);
    }
    return Take().text;
  }

  // --- Statements ---------------------------------------------------------

  Result<Statement> ParseStatement() {
    Statement stmt;
    stmt.line = Peek().line;
    if (AtKeyword("create")) {
      Take();
      if (AtKeyword("type")) {
        Take();
        DELTAMON_ASSIGN_OR_RETURN(std::string name,
                                  ExpectIdentifier("type name"));
        DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
        stmt.node = CreateTypeStmt{std::move(name)};
        return stmt;
      }
      if (AtKeyword("function")) {
        Take();
        DELTAMON_ASSIGN_OR_RETURN(CreateFunctionStmt fn,
                                  ParseCreateFunction());
        stmt.node = std::move(fn);
        return stmt;
      }
      if (AtKeyword("rule")) {
        Take();
        DELTAMON_ASSIGN_OR_RETURN(CreateRuleStmt rule, ParseCreateRule());
        stmt.node = std::move(rule);
        return stmt;
      }
      // create <type> instances :a, :b;
      DELTAMON_ASSIGN_OR_RETURN(std::string type_name,
                                ExpectIdentifier("type name"));
      DELTAMON_RETURN_IF_ERROR(ExpectKeyword("instances"));
      CreateInstancesStmt ci;
      ci.type_name = std::move(type_name);
      do {
        if (!At(TokenKind::kInterfaceVar)) {
          return ErrorHere("expected interface variable (:name)");
        }
        ci.interface_vars.push_back(Take().text);
      } while (Match(TokenKind::kComma));
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = std::move(ci);
      return stmt;
    }
    // `set threads N;` — session knob, not an update (there is no function
    // call after `set`, so the generic update parse would reject it).
    if (AtKeyword("set") && Peek(1).IsKeyword("threads") &&
        Peek(2).kind == TokenKind::kInteger) {
      Take();  // set
      Take();  // threads
      SetThreadsStmt st;
      st.num_threads = Take().int_value;
      if (st.num_threads < 0 || st.num_threads > SetThreadsStmt::kMaxThreads) {
        return Status::ParseError(
            "thread count must be between 0 and " +
            std::to_string(SetThreadsStmt::kMaxThreads) + ", at line " +
            std::to_string(stmt.line));
      }
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = st;
      return stmt;
    }
    // `set slow_ms N;` — slow-statement log threshold, same shape as
    // threads (the integer guard keeps `set slow_ms(:x) = ...` an update).
    if (AtKeyword("set") && Peek(1).IsKeyword("slow_ms") &&
        Peek(2).kind == TokenKind::kInteger) {
      Take();  // set
      Take();  // slow_ms
      SetSlowMsStmt ss;
      ss.slow_ms = Take().int_value;
      if (ss.slow_ms < 0) {
        return Status::ParseError("slow_ms must be >= 0, at line " +
                                  std::to_string(stmt.line));
      }
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = ss;
      return stmt;
    }
    // `set provenance on|off;` / `set wave_capture on|off;` — the
    // observability toggles, same shape as kernels.
    if (AtKeyword("set") &&
        (Peek(1).IsKeyword("provenance") || Peek(1).IsKeyword("wave_capture")) &&
        (Peek(2).IsKeyword("on") || Peek(2).IsKeyword("off"))) {
      Take();  // set
      const bool provenance = Take().IsKeyword("provenance");
      const bool on = Take().IsKeyword("on");
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      if (provenance) {
        stmt.node = SetProvenanceStmt{on};
      } else {
        stmt.node = SetWaveCaptureStmt{on};
      }
      return stmt;
    }
    if (AtKeyword("set") &&
        (Peek(1).IsKeyword("provenance") ||
         Peek(1).IsKeyword("wave_capture")) &&
        Peek(2).kind != TokenKind::kLParen) {
      return ErrorHere("expected 'on' or 'off' after 'set " +
                       Peek(1).text + "'");
    }
    // `set kernels on|off;` — batch-kernel toggle, same shape as threads.
    // The Peek(2) guard keeps `set kernels(:a) = ...` an ordinary update
    // of a function that happens to be named "kernels".
    if (AtKeyword("set") && Peek(1).IsKeyword("kernels") &&
        (Peek(2).IsKeyword("on") || Peek(2).IsKeyword("off"))) {
      Take();  // set
      Take();  // kernels
      SetKernelsStmt sk;
      sk.on = Take().IsKeyword("on");
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = sk;
      return stmt;
    }
    if (AtKeyword("set") && Peek(1).IsKeyword("kernels") &&
        Peek(2).kind != TokenKind::kLParen) {
      return ErrorHere("expected 'on' or 'off' after 'set kernels'");
    }
    if (AtKeyword("set") || AtKeyword("add") || AtKeyword("remove")) {
      UpdateStmt upd;
      upd.line = Peek().line;
      std::string kw = Take().text;
      upd.kind = (kw[0] == 's' || kw[0] == 'S') ? UpdateStmt::Kind::kSet
                 : (kw[0] == 'a' || kw[0] == 'A') ? UpdateStmt::Kind::kAdd
                                                  : UpdateStmt::Kind::kRemove;
      DELTAMON_ASSIGN_OR_RETURN(upd.target, ParseExpr());
      if (upd.target->kind != Expr::Kind::kCall) {
        return Status::ParseError(
            "update target must be a function call, at line " +
            std::to_string(upd.line));
      }
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kEq, "'='"));
      DELTAMON_ASSIGN_OR_RETURN(upd.value, ParseExpr());
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = std::move(upd);
      return stmt;
    }
    if (AtKeyword("select")) {
      Take();
      DELTAMON_ASSIGN_OR_RETURN(SelectQuery query, ParseSelectBody());
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = SelectStmt{std::move(query)};
      return stmt;
    }
    if (AtKeyword("activate") || AtKeyword("deactivate")) {
      ActivateStmt act;
      act.deactivate = AtKeyword("deactivate");
      Take();
      DELTAMON_ASSIGN_OR_RETURN(act.rule_name,
                                ExpectIdentifier("rule name"));
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      if (!At(TokenKind::kRParen)) {
        do {
          DELTAMON_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          act.args.push_back(std::move(arg));
        } while (Match(TokenKind::kComma));
      }
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = std::move(act);
      return stmt;
    }
    if (MatchKeyword("begin")) {
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = BeginStmt{};
      return stmt;
    }
    if (MatchKeyword("commit")) {
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = CommitStmt{};
      return stmt;
    }
    if (MatchKeyword("rollback") || MatchKeyword("abort")) {
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = RollbackStmt{};
      return stmt;
    }
    if (AtKeyword("profile")) {
      Take();
      // The wrapped statement parses (and terminates) as usual, so any
      // statement form can be profiled, including another profile.
      DELTAMON_ASSIGN_OR_RETURN(Statement inner, ParseStatement());
      ProfileStmt profile;
      profile.inner = std::make_unique<Statement>(std::move(inner));
      stmt.node = std::move(profile);
      return stmt;
    }
    if (AtKeyword("trace")) {
      Take();
      TraceStmt trace;
      // Optional output path as a string literal before the statement.
      if (At(TokenKind::kString)) trace.path = Take().text;
      DELTAMON_ASSIGN_OR_RETURN(Statement inner, ParseStatement());
      trace.inner = std::make_unique<Statement>(std::move(inner));
      stmt.node = std::move(trace);
      return stmt;
    }
    if (AtKeyword("dump")) {
      Take();
      DELTAMON_RETURN_IF_ERROR(ExpectKeyword("waves"));
      DumpWavesStmt dump;
      if (!At(TokenKind::kString)) {
        return ErrorHere("expected output path string after 'dump waves'");
      }
      dump.path = Take().text;
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = std::move(dump);
      return stmt;
    }
    if (AtKeyword("explain") && Peek(1).IsKeyword("firing")) {
      Take();  // explain
      Take();  // firing
      ExplainFiringStmt ef;
      // Optional JSON artifact path before the rule (mirrors `trace`).
      if (At(TokenKind::kString)) ef.path = Take().text;
      DELTAMON_ASSIGN_OR_RETURN(ef.rule, ExpectIdentifier("rule name"));
      if (At(TokenKind::kInteger)) {
        ef.nth = Take().int_value;
        if (ef.nth < 1) {
          return Status::ParseError(
              "firing index must be >= 1, at line " +
              std::to_string(stmt.line));
        }
      }
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = std::move(ef);
      return stmt;
    }
    if (AtKeyword("explain")) {
      Take();
      DELTAMON_RETURN_IF_ERROR(ExpectKeyword("analyze"));
      ExplainAnalyzeStmt ea;
      // Optional JSON artifact path as a string literal before the
      // statement (mirrors `trace`).
      if (At(TokenKind::kString)) ea.path = Take().text;
      DELTAMON_ASSIGN_OR_RETURN(Statement inner, ParseStatement());
      ea.inner = std::make_unique<Statement>(std::move(inner));
      stmt.node = std::move(ea);
      return stmt;
    }
    if (AtKeyword("analyze")) {
      Take();
      DELTAMON_RETURN_IF_ERROR(ExpectKeyword("rule"));
      AnalyzeRuleStmt an;
      DELTAMON_ASSIGN_OR_RETURN(an.rule, ExpectIdentifier("rule name"));
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = std::move(an);
      return stmt;
    }
    if (AtKeyword("show")) {
      Take();
      if (MatchKeyword("network")) {
        ShowNetworkStmt show;
        if (At(TokenKind::kIdentifier)) show.rule = Take().text;
        DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
        stmt.node = std::move(show);
        return stmt;
      }
      if (MatchKeyword("slow")) {
        DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
        stmt.node = ShowSlowStmt{};
        return stmt;
      }
      if (MatchKeyword("settings")) {
        DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
        stmt.node = ShowSettingsStmt{};
        return stmt;
      }
      if (MatchKeyword("provenance")) {
        DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
        stmt.node = ShowProvenanceStmt{};
        return stmt;
      }
      DELTAMON_RETURN_IF_ERROR(ExpectKeyword("metrics"));
      ShowMetricsStmt sm;
      if (MatchKeyword("prometheus")) sm.prometheus = true;
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = sm;
      return stmt;
    }
    if (AtKeyword("reset")) {
      Take();
      DELTAMON_RETURN_IF_ERROR(ExpectKeyword("metrics"));
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
      stmt.node = ResetMetricsStmt{};
      return stmt;
    }
    return ErrorHere("expected a statement");
  }

  Result<std::vector<ParamDecl>> ParseParamList() {
    std::vector<ParamDecl> params;
    DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    if (!At(TokenKind::kRParen)) {
      do {
        ParamDecl p;
        p.line = Peek().line;
        DELTAMON_ASSIGN_OR_RETURN(p.type_name,
                                  ExpectIdentifier("parameter type"));
        if (At(TokenKind::kIdentifier)) p.var_name = Take().text;
        params.push_back(std::move(p));
      } while (Match(TokenKind::kComma));
    }
    DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return params;
  }

  Result<CreateFunctionStmt> ParseCreateFunction() {
    CreateFunctionStmt fn;
    DELTAMON_ASSIGN_OR_RETURN(fn.name, ExpectIdentifier("function name"));
    DELTAMON_ASSIGN_OR_RETURN(fn.params, ParseParamList());
    DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kArrow, "'->'"));
    if (Match(TokenKind::kLParen)) {
      do {
        DELTAMON_ASSIGN_OR_RETURN(std::string type,
                                  ExpectIdentifier("result type"));
        if (At(TokenKind::kIdentifier)) Take();  // optional result name
        fn.result_types.push_back(std::move(type));
      } while (Match(TokenKind::kComma));
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    } else {
      DELTAMON_ASSIGN_OR_RETURN(std::string type,
                                ExpectIdentifier("result type"));
      // Optional result name — but never the 'as' introducing a body.
      if (At(TokenKind::kIdentifier) && !AtKeyword("as")) Take();
      fn.result_types.push_back(std::move(type));
    }
    if (MatchKeyword("as")) {
      if (AtKeyword("count") || AtKeyword("sum") || AtKeyword("min") ||
          AtKeyword("max")) {
        AggregateBody agg;
        agg.line = Peek().line;
        agg.func = Take().text;
        for (char& ch : agg.func) {
          ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
        }
        DELTAMON_ASSIGN_OR_RETURN(agg.source,
                                  ExpectIdentifier("aggregated function"));
        DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
        if (!At(TokenKind::kRParen)) {
          do {
            DELTAMON_ASSIGN_OR_RETURN(std::string arg,
                                      ExpectIdentifier("group variable"));
            agg.args.push_back(std::move(arg));
          } while (Match(TokenKind::kComma));
        }
        DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        fn.aggregate = std::move(agg);
      } else {
        DELTAMON_RETURN_IF_ERROR(ExpectKeyword("select"));
        DELTAMON_ASSIGN_OR_RETURN(SelectQuery body, ParseSelectBody());
        fn.body = std::move(body);
      }
    }
    DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
    return fn;
  }

  Result<std::vector<VarDecl>> ParseForEachDecls() {
    std::vector<VarDecl> decls;
    do {
      VarDecl d;
      d.line = Peek().line;
      DELTAMON_ASSIGN_OR_RETURN(d.type_name,
                                ExpectIdentifier("variable type"));
      DELTAMON_ASSIGN_OR_RETURN(d.var_name,
                                ExpectIdentifier("variable name"));
      decls.push_back(std::move(d));
    } while (Match(TokenKind::kComma));
    return decls;
  }

  Result<SelectQuery> ParseSelectBody() {
    SelectQuery q;
    q.line = Peek().line;
    do {
      DELTAMON_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      q.results.push_back(std::move(e));
    } while (Match(TokenKind::kComma));
    if (MatchKeyword("for")) {
      DELTAMON_RETURN_IF_ERROR(ExpectKeyword("each"));
      DELTAMON_ASSIGN_OR_RETURN(q.for_each, ParseForEachDecls());
      if (MatchKeyword("where")) {
        DELTAMON_ASSIGN_OR_RETURN(q.where, ParsePredicate());
      }
    }
    return q;
  }

  Result<CreateRuleStmt> ParseCreateRule() {
    CreateRuleStmt rule;
    DELTAMON_ASSIGN_OR_RETURN(rule.name, ExpectIdentifier("rule name"));
    DELTAMON_ASSIGN_OR_RETURN(rule.params, ParseParamList());
    if (MatchKeyword("nervous")) {
      rule.nervous = true;
    } else {
      MatchKeyword("strict");  // optional, the default
    }
    DELTAMON_RETURN_IF_ERROR(ExpectKeyword("as"));
    DELTAMON_RETURN_IF_ERROR(ExpectKeyword("when"));
    if (MatchKeyword("for")) {
      DELTAMON_RETURN_IF_ERROR(ExpectKeyword("each"));
      DELTAMON_ASSIGN_OR_RETURN(rule.for_each, ParseForEachDecls());
      DELTAMON_RETURN_IF_ERROR(ExpectKeyword("where"));
    }
    DELTAMON_ASSIGN_OR_RETURN(rule.condition, ParsePredicate());
    DELTAMON_RETURN_IF_ERROR(ExpectKeyword("do"));
    DELTAMON_ASSIGN_OR_RETURN(rule.action, ParseRuleAction());
    DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon, "';'"));
    return rule;
  }

  Result<RuleActionStmt> ParseRuleAction() {
    RuleActionStmt action;
    action.line = Peek().line;
    if (MatchKeyword("set")) {
      action.kind = RuleActionStmt::Kind::kSet;
      DELTAMON_ASSIGN_OR_RETURN(action.set_target, ParseExpr());
      if (action.set_target->kind != Expr::Kind::kCall) {
        return Status::ParseError("set action target must be a function "
                                  "call, at line " +
                                  std::to_string(action.line));
      }
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kEq, "'='"));
      DELTAMON_ASSIGN_OR_RETURN(action.set_value, ParseExpr());
      return action;
    }
    action.kind = RuleActionStmt::Kind::kProcedureCall;
    DELTAMON_ASSIGN_OR_RETURN(action.call, ParseExpr());
    if (action.call->kind != Expr::Kind::kCall) {
      return Status::ParseError("rule action must be a procedure call or a "
                                "set statement, at line " +
                                std::to_string(action.line));
    }
    return action;
  }

  // --- Predicates -----------------------------------------------------------

  Result<PredicatePtr> ParsePredicate() { return ParseOr(); }

  Result<PredicatePtr> ParseOr() {
    DELTAMON_ASSIGN_OR_RETURN(PredicatePtr left, ParseAnd());
    while (AtKeyword("or")) {
      int line = Take().line;
      DELTAMON_ASSIGN_OR_RETURN(PredicatePtr right, ParseAnd());
      left = Predicate::Or(std::move(left), std::move(right), line);
    }
    return left;
  }

  Result<PredicatePtr> ParseAnd() {
    DELTAMON_ASSIGN_OR_RETURN(PredicatePtr left, ParseUnary());
    while (AtKeyword("and")) {
      int line = Take().line;
      DELTAMON_ASSIGN_OR_RETURN(PredicatePtr right, ParseUnary());
      left = Predicate::And(std::move(left), std::move(right), line);
    }
    return left;
  }

  Result<PredicatePtr> ParseUnary() {
    if (AtKeyword("not")) {
      int line = Take().line;
      DELTAMON_ASSIGN_OR_RETURN(PredicatePtr child, ParseUnary());
      return Predicate::Not(std::move(child), line);
    }
    // Try a comparison/atom; if that fails at an opening parenthesis, retry
    // as a parenthesized predicate.
    size_t saved = pos_;
    Result<PredicatePtr> attempt = ParseComparisonOrAtom();
    if (attempt.ok()) return std::move(attempt).value();
    if (tokens_[saved].kind == TokenKind::kLParen) {
      pos_ = saved;
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      DELTAMON_ASSIGN_OR_RETURN(PredicatePtr inner, ParsePredicate());
      DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    return attempt.status();
  }

  Result<PredicatePtr> ParseComparisonOrAtom() {
    int line = Peek().line;
    DELTAMON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseExpr());
    objectlog::CompareOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = objectlog::CompareOp::kEq;
        break;
      case TokenKind::kNe:
        op = objectlog::CompareOp::kNe;
        break;
      case TokenKind::kLt:
        op = objectlog::CompareOp::kLt;
        break;
      case TokenKind::kLe:
        op = objectlog::CompareOp::kLe;
        break;
      case TokenKind::kGt:
        op = objectlog::CompareOp::kGt;
        break;
      case TokenKind::kGe:
        op = objectlog::CompareOp::kGe;
        break;
      default:
        if (lhs->kind == Expr::Kind::kCall) {
          return Predicate::Atom(std::move(lhs), line);
        }
        return ErrorHere("expected a comparison operator");
    }
    Take();
    DELTAMON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseExpr());
    return Predicate::Compare(op, std::move(lhs), std::move(rhs), line);
  }

  // --- Expressions ------------------------------------------------------------

  Result<ExprPtr> ParseExpr() { return ParseAdditive(); }

  Result<ExprPtr> ParseAdditive() {
    DELTAMON_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
      Token op = Take();
      DELTAMON_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = Expr::Arith(op.kind == TokenKind::kPlus
                             ? objectlog::ArithOp::kAdd
                             : objectlog::ArithOp::kSub,
                         std::move(left), std::move(right), op.line);
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    DELTAMON_ASSIGN_OR_RETURN(ExprPtr left, ParsePrimary());
    while (At(TokenKind::kStar) || At(TokenKind::kSlash)) {
      Token op = Take();
      DELTAMON_ASSIGN_OR_RETURN(ExprPtr right, ParsePrimary());
      left = Expr::Arith(op.kind == TokenKind::kStar
                             ? objectlog::ArithOp::kMul
                             : objectlog::ArithOp::kDiv,
                         std::move(left), std::move(right), op.line);
    }
    return left;
  }

  Result<ExprPtr> ParsePrimary() {
    int line = Peek().line;
    switch (Peek().kind) {
      case TokenKind::kInteger: {
        Token t = Take();
        return Expr::Literal(Value(t.int_value), line);
      }
      case TokenKind::kReal: {
        Token t = Take();
        return Expr::Literal(Value(t.real_value), line);
      }
      case TokenKind::kString: {
        Token t = Take();
        return Expr::Literal(Value(std::move(t.text)), line);
      }
      case TokenKind::kInterfaceVar: {
        Token t = Take();
        return Expr::Interface(std::move(t.text), line);
      }
      case TokenKind::kMinus: {
        Take();
        DELTAMON_ASSIGN_OR_RETURN(ExprPtr inner, ParsePrimary());
        return Expr::Arith(objectlog::ArithOp::kSub,
                           Expr::Literal(Value(0), line), std::move(inner),
                           line);
      }
      case TokenKind::kLParen: {
        Take();
        DELTAMON_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        return inner;
      }
      case TokenKind::kIdentifier: {
        // Boolean literals.
        if (AtKeyword("true")) {
          Take();
          return Expr::Literal(Value(true), line);
        }
        if (AtKeyword("false")) {
          Take();
          return Expr::Literal(Value(false), line);
        }
        Token t = Take();
        if (Match(TokenKind::kLParen)) {
          std::vector<ExprPtr> args;
          if (!At(TokenKind::kRParen)) {
            do {
              DELTAMON_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
            } while (Match(TokenKind::kComma));
          }
          DELTAMON_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
          return Expr::Call(std::move(t.text), std::move(args), line);
        }
        return Expr::Variable(std::move(t.text), line);
      }
      default:
        return ErrorHere("expected an expression");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::vector<Statement>> ParseTokens(std::vector<Token> tokens) {
  Parser parser(std::move(tokens));
  return parser.ParseProgram();
}

Result<std::vector<Statement>> Parse(const std::string& source) {
  DELTAMON_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return ParseTokens(std::move(tokens));
}

}  // namespace deltamon::amosql
