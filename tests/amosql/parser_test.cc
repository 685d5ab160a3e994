#include "amosql/parser.h"

#include <gtest/gtest.h>

namespace deltamon::amosql {
namespace {

template <typename T>
const T& As(const Statement& stmt) {
  return std::get<T>(stmt.node);
}

TEST(ParserTest, CreateType) {
  auto program = Parse("create type item;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->size(), 1u);
  EXPECT_EQ(As<CreateTypeStmt>((*program)[0]).name, "item");
}

TEST(ParserTest, CreateStoredFunction) {
  auto program = Parse("create function delivery_time(item, supplier)"
                       " -> integer;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& fn = As<CreateFunctionStmt>((*program)[0]);
  EXPECT_EQ(fn.name, "delivery_time");
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].type_name, "item");
  EXPECT_TRUE(fn.params[0].var_name.empty());
  ASSERT_EQ(fn.result_types.size(), 1u);
  EXPECT_EQ(fn.result_types[0], "integer");
  EXPECT_FALSE(fn.body.has_value());
}

TEST(ParserTest, CreateDerivedFunctionWithBody) {
  auto program = Parse(
      "create function threshold(item i) -> integer as\n"
      "  select consume_freq(i) * delivery_time(i, s) + min_stock(i)\n"
      "  for each supplier s where supplies(s) = i;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& fn = As<CreateFunctionStmt>((*program)[0]);
  EXPECT_EQ(fn.params[0].var_name, "i");
  ASSERT_TRUE(fn.body.has_value());
  ASSERT_EQ(fn.body->results.size(), 1u);
  EXPECT_EQ(fn.body->results[0]->kind, Expr::Kind::kArith);
  ASSERT_EQ(fn.body->for_each.size(), 1u);
  EXPECT_EQ(fn.body->for_each[0].type_name, "supplier");
  EXPECT_EQ(fn.body->for_each[0].var_name, "s");
  ASSERT_NE(fn.body->where, nullptr);
  EXPECT_EQ(fn.body->where->kind, Predicate::Kind::kCompare);
}

TEST(ParserTest, CreateRuleWithForEach) {
  auto program = Parse(
      "create rule monitor_items() as\n"
      "  when for each item i where quantity(i) < threshold(i)\n"
      "  do order(i, max_stock(i) - quantity(i));");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& rule = As<CreateRuleStmt>((*program)[0]);
  EXPECT_EQ(rule.name, "monitor_items");
  EXPECT_TRUE(rule.params.empty());
  EXPECT_FALSE(rule.nervous);
  ASSERT_EQ(rule.for_each.size(), 1u);
  EXPECT_EQ(rule.for_each[0].var_name, "i");
  EXPECT_EQ(rule.condition->kind, Predicate::Kind::kCompare);
  EXPECT_EQ(rule.action.kind, RuleActionStmt::Kind::kProcedureCall);
  EXPECT_EQ(rule.action.call->name, "order");
  EXPECT_EQ(rule.action.call->args.size(), 2u);
}

TEST(ParserTest, CreateParameterizedRuleWithSetAction) {
  auto program = Parse(
      "create rule monitor_item(item i) nervous as\n"
      "  when quantity(i) < threshold(i)\n"
      "  do set quantity(i) = max_stock(i);");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& rule = As<CreateRuleStmt>((*program)[0]);
  ASSERT_EQ(rule.params.size(), 1u);
  EXPECT_EQ(rule.params[0].var_name, "i");
  EXPECT_TRUE(rule.nervous);
  EXPECT_TRUE(rule.for_each.empty());
  EXPECT_EQ(rule.action.kind, RuleActionStmt::Kind::kSet);
  EXPECT_EQ(rule.action.set_target->name, "quantity");
}

TEST(ParserTest, CreateInstances) {
  auto program = Parse("create item instances :item1, :item2;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& ci = As<CreateInstancesStmt>((*program)[0]);
  EXPECT_EQ(ci.type_name, "item");
  EXPECT_EQ(ci.interface_vars,
            (std::vector<std::string>{"item1", "item2"}));
}

TEST(ParserTest, UpdateStatements) {
  auto program = Parse(
      "set max_stock(:item1) = 5000;\n"
      "add supplies(:sup1) = :item1;\n"
      "remove supplies(:sup1) = :item1;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->size(), 3u);
  EXPECT_EQ(As<UpdateStmt>((*program)[0]).kind, UpdateStmt::Kind::kSet);
  EXPECT_EQ(As<UpdateStmt>((*program)[1]).kind, UpdateStmt::Kind::kAdd);
  EXPECT_EQ(As<UpdateStmt>((*program)[2]).kind, UpdateStmt::Kind::kRemove);
}

TEST(ParserTest, SelectWithPredicateLogic) {
  auto program = Parse(
      "select i for each item i "
      "where quantity(i) < 100 and (broken(i) or not supplies(:s1) = i);");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& sel = As<SelectStmt>((*program)[0]);
  ASSERT_NE(sel.query.where, nullptr);
  EXPECT_EQ(sel.query.where->kind, Predicate::Kind::kAnd);
  EXPECT_EQ(sel.query.where->right->kind, Predicate::Kind::kOr);
  EXPECT_EQ(sel.query.where->right->right->kind, Predicate::Kind::kNot);
}

TEST(ParserTest, ActivateDeactivate) {
  auto program = Parse("activate monitor_items();\n"
                       "deactivate monitor_item(:item1);");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_FALSE(As<ActivateStmt>((*program)[0]).deactivate);
  const auto& d = As<ActivateStmt>((*program)[1]);
  EXPECT_TRUE(d.deactivate);
  ASSERT_EQ(d.args.size(), 1u);
  EXPECT_EQ(d.args[0]->kind, Expr::Kind::kInterfaceVar);
}

TEST(ParserTest, ShowSlow) {
  auto program = Parse("show slow;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(std::holds_alternative<ShowSlowStmt>((*program)[0].node));
  // The keyword form is exact: `show slow` takes no argument.
  EXPECT_FALSE(Parse("show slow watch_low;").ok());
}

TEST(ParserTest, SetThreads) {
  auto program = Parse("set threads 4;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(As<SetThreadsStmt>((*program)[0]).num_threads, 4);
  program = Parse("SET THREADS 0;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(As<SetThreadsStmt>((*program)[0]).num_threads, 0);
}

TEST(ParserTest, SetOfAFunctionNamedThreadsIsStillAnUpdate) {
  auto program = Parse("set threads(:a) = 2;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(As<UpdateStmt>((*program)[0]).kind, UpdateStmt::Kind::kSet);
}

TEST(ParserTest, SetThreadsRejectsMalformedCounts) {
  EXPECT_FALSE(Parse("set threads -1;").ok());
  EXPECT_FALSE(Parse("set threads two;").ok());
  EXPECT_FALSE(Parse("set threads 2").ok());
  EXPECT_FALSE(Parse("set threads 100000;").ok());
}

TEST(ParserTest, SetKernels) {
  auto program = Parse("set kernels on;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(As<SetKernelsStmt>((*program)[0]).on);
  program = Parse("SET KERNELS OFF;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_FALSE(As<SetKernelsStmt>((*program)[0]).on);
}

TEST(ParserTest, SetOfAFunctionNamedKernelsIsStillAnUpdate) {
  auto program = Parse("set kernels(:a) = 2;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(As<UpdateStmt>((*program)[0]).kind, UpdateStmt::Kind::kSet);
}

TEST(ParserTest, SetKernelsRejectsMalformedArguments) {
  EXPECT_FALSE(Parse("set kernels maybe;").ok());
  EXPECT_FALSE(Parse("set kernels;").ok());
  EXPECT_FALSE(Parse("set kernels on").ok());
}

TEST(ParserTest, ShowSettings) {
  auto program = Parse("show settings;");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(std::holds_alternative<ShowSettingsStmt>((*program)[0].node));
  EXPECT_FALSE(Parse("show settings verbose;").ok());
}

TEST(ParserTest, CommitRollback) {
  auto program = Parse("commit; rollback;");
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(std::holds_alternative<CommitStmt>((*program)[0].node));
  EXPECT_TRUE(std::holds_alternative<RollbackStmt>((*program)[1].node));
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto program = Parse("select 1 + 2 * 3;");
  ASSERT_TRUE(program.ok());
  const auto& sel = As<SelectStmt>((*program)[0]);
  const Expr& e = *sel.query.results[0];
  ASSERT_EQ(e.kind, Expr::Kind::kArith);
  EXPECT_EQ(e.op, objectlog::ArithOp::kAdd);
  EXPECT_EQ(e.rhs->op, objectlog::ArithOp::kMul);
}

TEST(ParserTest, UnaryMinus) {
  auto program = Parse("select -5;");
  ASSERT_TRUE(program.ok());
  const Expr& e = *As<SelectStmt>((*program)[0]).query.results[0];
  ASSERT_EQ(e.kind, Expr::Kind::kArith);
  EXPECT_EQ(e.op, objectlog::ArithOp::kSub);
}

TEST(ParserTest, MultipleResultTypes) {
  auto program =
      Parse("create function coords(item) -> (integer x, integer y);");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(As<CreateFunctionStmt>((*program)[0]).result_types.size(), 2u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("create;").ok());
  EXPECT_FALSE(Parse("create type;").ok());
  EXPECT_FALSE(Parse("create function f() -> ;").ok());
  EXPECT_FALSE(Parse("set 5 = 6;").ok());
  EXPECT_FALSE(Parse("select i for each item i where ;").ok());
  EXPECT_FALSE(Parse("create rule r() as when x < 1 do 5;").ok());
  EXPECT_FALSE(Parse("activate r;").ok());
  EXPECT_FALSE(Parse("select i").ok());  // missing semicolon
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto program = Parse("create type a;\ncreate type\n;");
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("line 3"), std::string::npos)
      << program.status().ToString();
}

TEST(ParserTest, AggregateFunctionBody) {
  auto program =
      Parse("create function total(desk d) -> integer as sum trade(d);");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const auto& fn = As<CreateFunctionStmt>((*program)[0]);
  ASSERT_TRUE(fn.aggregate.has_value());
  EXPECT_EQ(fn.aggregate->func, "sum");
  EXPECT_EQ(fn.aggregate->source, "trade");
  EXPECT_EQ(fn.aggregate->args, (std::vector<std::string>{"d"}));
  EXPECT_FALSE(fn.body.has_value());
}

TEST(ParserTest, AggregateFunctionsCaseInsensitive) {
  for (const char* func : {"COUNT", "Sum", "min", "MAX"}) {
    auto program = Parse(std::string("create function f") + func +
                         "(desk d) -> integer as " + func + " trade(d);");
    ASSERT_TRUE(program.ok()) << func;
    const auto& fn = As<CreateFunctionStmt>((*program)[0]);
    ASSERT_TRUE(fn.aggregate.has_value()) << func;
  }
}

TEST(ParserTest, GlobalAggregateHasNoArgs) {
  auto program = Parse("create function n() -> integer as count trade();");
  ASSERT_TRUE(program.ok());
  const auto& fn = As<CreateFunctionStmt>((*program)[0]);
  ASSERT_TRUE(fn.aggregate.has_value());
  EXPECT_TRUE(fn.aggregate->args.empty());
}

}  // namespace
}  // namespace deltamon::amosql
