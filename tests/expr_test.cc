#include "expr/ast.h"
#include "expr/eval.h"

#include <gtest/gtest.h>

#include <map>

namespace caddb {
namespace {

using expr::Binding;
using expr::EvalContext;
using expr::Evaluator;
using expr::Expr;
using expr::ExprPtr;
using expr::Resolved;

/// Test context: a flat map of names to single values or collections, plus a
/// "record table" keyed by ref id for member resolution.
class FakeContext : public EvalContext {
 public:
  void AddValue(const std::string& name, Value v) {
    singles_[name] = std::move(v);
  }
  void AddCollection(const std::string& name, std::vector<Value> vs) {
    collections_[name] = std::move(vs);
  }
  /// Objects: surrogate id -> (member name -> resolved).
  void AddObjectMember(uint64_t id, const std::string& name, Resolved r) {
    members_[id][name] = std::move(r);
  }

  Result<Resolved> ResolveName(const std::string& name) override {
    auto s = singles_.find(name);
    if (s != singles_.end()) return Resolved::One(s->second);
    auto c = collections_.find(name);
    if (c != collections_.end()) return Resolved::Many(c->second);
    return NotFound("no name " + name);
  }

  Result<Resolved> ResolveMember(const Value& base,
                                 const std::string& name) override {
    if (base.kind() == Value::Kind::kRecord) {
      Result<Value> f = base.Field_(name);
      if (!f.ok()) return f.status();
      return Resolved::One(*f);
    }
    if (base.kind() == Value::Kind::kRef) {
      auto obj = members_.find(base.AsRef().id);
      if (obj != members_.end()) {
        auto m = obj->second.find(name);
        if (m != obj->second.end()) return m->second;
      }
      return NotFound("no member " + name);
    }
    return TypeMismatch("no members on " + base.ToString());
  }

 private:
  std::map<std::string, Value> singles_;
  std::map<std::string, std::vector<Value>> collections_;
  std::map<uint64_t, std::map<std::string, Resolved>> members_;
};

Value EvalOk(const ExprPtr& e, EvalContext* ctx) {
  Evaluator ev(ctx);
  Result<Value> r = ev.Eval(*e);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << e->ToString();
  return r.ok() ? *r : Value::Null();
}

TEST(ExprTest, LiteralAndArithmetic) {
  FakeContext ctx;
  EXPECT_EQ(EvalOk(Expr::Binary(Expr::Op::kAdd, Expr::Int(2), Expr::Int(3)),
                   &ctx),
            Value::Int(5));
  EXPECT_EQ(EvalOk(Expr::Binary(Expr::Op::kMul, Expr::Int(4), Expr::Int(6)),
                   &ctx),
            Value::Int(24));
  EXPECT_EQ(EvalOk(Expr::Binary(Expr::Op::kSub, Expr::Int(4), Expr::Int(6)),
                   &ctx),
            Value::Int(-2));
  EXPECT_EQ(EvalOk(Expr::Neg(Expr::Int(7)), &ctx), Value::Int(-7));
  // Division always yields real.
  EXPECT_EQ(EvalOk(Expr::Binary(Expr::Op::kDiv, Expr::Int(7), Expr::Int(2)),
                   &ctx),
            Value::Real(3.5));
}

TEST(ExprTest, DivisionByZeroIsError) {
  FakeContext ctx;
  Evaluator ev(&ctx);
  auto r = ev.Eval(*Expr::Binary(Expr::Op::kDiv, Expr::Int(1), Expr::Int(0)));
  EXPECT_FALSE(r.ok());
}

TEST(ExprTest, IntegerOverflowIsError) {
  FakeContext ctx;
  Evaluator ev(&ctx);
  const int64_t max = INT64_MAX;
  const int64_t min = INT64_MIN;
  ctx.AddCollection("Big", {Value::Int(max), Value::Int(1)});
  for (const ExprPtr& e :
       {Expr::Sum(Expr::Path({"Big"})),
        Expr::Binary(Expr::Op::kMul, Expr::Int(5), Expr::Int(max)),
        Expr::Binary(Expr::Op::kAdd, Expr::Int(max), Expr::Int(1)),
        Expr::Binary(Expr::Op::kSub, Expr::Int(min), Expr::Int(1)),
        Expr::Neg(Expr::Int(min))}) {
    auto r = ev.Eval(*e);
    ASSERT_FALSE(r.ok()) << e->ToString();
    EXPECT_EQ(r.status().code(), Code::kInvalidArgument) << e->ToString();
  }
}

TEST(ExprTest, Comparisons) {
  FakeContext ctx;
  EXPECT_EQ(EvalOk(Expr::Lt(Expr::Int(1), Expr::Int(2)), &ctx),
            Value::Bool(true));
  EXPECT_EQ(EvalOk(Expr::Ge(Expr::Int(2), Expr::Int(2)), &ctx),
            Value::Bool(true));
  EXPECT_EQ(EvalOk(Expr::Ne(Expr::Int(2), Expr::Int(2)), &ctx),
            Value::Bool(false));
  // Cross-kind numeric comparison.
  EXPECT_EQ(EvalOk(Expr::Eq(Expr::Int(3), Expr::Literal(Value::Real(3.0))),
                   &ctx),
            Value::Bool(true));
}

TEST(ExprTest, NullSemantics) {
  FakeContext ctx;
  ctx.AddValue("Unset", Value::Null());
  // Arithmetic with null -> null; ordering with null -> false (fail closed);
  // equality: null = null holds, null = 3 does not.
  ExprPtr unset = Expr::Path({"Unset"});
  EXPECT_TRUE(
      EvalOk(Expr::Binary(Expr::Op::kAdd, unset, Expr::Int(1)), &ctx)
          .is_null());
  EXPECT_EQ(EvalOk(Expr::Lt(unset, Expr::Int(1)), &ctx), Value::Bool(false));
  EXPECT_EQ(EvalOk(Expr::Eq(unset, Expr::Path({"Unset"})), &ctx),
            Value::Bool(true));
  EXPECT_EQ(EvalOk(Expr::Eq(unset, Expr::Int(3)), &ctx), Value::Bool(false));
  EXPECT_EQ(EvalOk(Expr::Ne(unset, Expr::Int(3)), &ctx), Value::Bool(true));
}

TEST(ExprTest, BooleanConnectivesShortCircuit) {
  FakeContext ctx;
  ctx.AddValue("T", Value::Bool(true));
  ctx.AddValue("F", Value::Bool(false));
  EXPECT_EQ(EvalOk(Expr::And(Expr::Path({"T"}), Expr::Path({"F"})), &ctx),
            Value::Bool(false));
  EXPECT_EQ(EvalOk(Expr::Or(Expr::Path({"F"}), Expr::Path({"T"})), &ctx),
            Value::Bool(true));
  EXPECT_EQ(EvalOk(Expr::Not(Expr::Path({"F"})), &ctx), Value::Bool(true));
  // Short circuit: the second operand would error (unknown multi-seg path),
  // but must never be evaluated.
  ExprPtr poison = Expr::Path({"No", "Such"});
  EXPECT_EQ(EvalOk(Expr::And(Expr::Path({"F"}), poison), &ctx),
            Value::Bool(false));
  EXPECT_EQ(EvalOk(Expr::Or(Expr::Path({"T"}), poison), &ctx),
            Value::Bool(true));
}

TEST(ExprTest, UnknownBareIdentifierIsEnumSymbol) {
  FakeContext ctx;
  ctx.AddValue("Dir", Value::Enum("IN"));
  EXPECT_EQ(EvalOk(Expr::Eq(Expr::Path({"Dir"}), Expr::Path({"IN"})), &ctx),
            Value::Bool(true));
  EXPECT_EQ(EvalOk(Expr::Eq(Expr::Path({"Dir"}), Expr::Path({"OUT"})), &ctx),
            Value::Bool(false));
  // Multi-segment unknown paths stay errors.
  Evaluator ev(&ctx);
  EXPECT_FALSE(ev.Eval(*Expr::Path({"No", "Such"})).ok());
}

TEST(ExprTest, RecordFieldPath) {
  FakeContext ctx;
  ctx.AddValue("P", Value::Point(3, 4));
  EXPECT_EQ(EvalOk(Expr::Path({"P", "X"}), &ctx), Value::Int(3));
  EXPECT_EQ(EvalOk(Expr::Path({"P", "Y"}), &ctx), Value::Int(4));
}

TEST(ExprTest, CountWithFilterBindsLastSegment) {
  FakeContext ctx;
  auto pin = [](int64_t id, const char* dir) {
    return Value::Record(
        {{"PinId", Value::Int(id)}, {"InOut", Value::Enum(dir)}});
  };
  ctx.AddCollection("Pins", {pin(1, "IN"), pin(2, "IN"), pin(3, "OUT")});
  // count(Pins) where Pins.InOut = IN  — the filter's `Pins` is the element.
  ExprPtr filter =
      Expr::Eq(Expr::Path({"Pins", "InOut"}), Expr::Path({"IN"}));
  EXPECT_EQ(EvalOk(Expr::Count(Expr::Path({"Pins"}), filter), &ctx),
            Value::Int(2));
  EXPECT_EQ(EvalOk(Expr::Count(Expr::Path({"Pins"})), &ctx), Value::Int(3));
}

TEST(ExprTest, SumMinMax) {
  FakeContext ctx;
  ctx.AddCollection("Ls", {Value::Int(10), Value::Int(20), Value::Int(5)});
  EXPECT_EQ(EvalOk(Expr::Sum(Expr::Path({"Ls"})), &ctx), Value::Int(35));
  EXPECT_EQ(EvalOk(Expr::Min(Expr::Path({"Ls"})), &ctx), Value::Int(5));
  EXPECT_EQ(EvalOk(Expr::Max(Expr::Path({"Ls"})), &ctx), Value::Int(20));
  ctx.AddCollection("Empty", {});
  EXPECT_EQ(EvalOk(Expr::Sum(Expr::Path({"Empty"})), &ctx), Value::Int(0));
  EXPECT_TRUE(EvalOk(Expr::Min(Expr::Path({"Empty"})), &ctx).is_null());
}

TEST(ExprTest, SumOverMixedNumericYieldsReal) {
  FakeContext ctx;
  ctx.AddCollection("Xs", {Value::Int(1), Value::Real(0.5)});
  EXPECT_EQ(EvalOk(Expr::Sum(Expr::Path({"Xs"})), &ctx), Value::Real(1.5));
}

TEST(ExprTest, SumOverNonNumericFails) {
  FakeContext ctx;
  ctx.AddCollection("Xs", {Value::Enum("A")});
  Evaluator ev(&ctx);
  EXPECT_FALSE(ev.Eval(*Expr::Sum(Expr::Path({"Xs"}))).ok());
}

TEST(ExprTest, MembershipOverCollectionAndSetValue) {
  FakeContext ctx;
  ctx.AddCollection("Refs", {Value::Ref(Surrogate(1)), Value::Ref(Surrogate(2))});
  ctx.AddValue("S", Value::Set({Value::Int(1), Value::Int(3)}));
  EXPECT_EQ(EvalOk(Expr::In(Expr::Literal(Value::Ref(Surrogate(2))),
                            Expr::Path({"Refs"})),
                   &ctx),
            Value::Bool(true));
  EXPECT_EQ(EvalOk(Expr::In(Expr::Literal(Value::Ref(Surrogate(9))),
                            Expr::Path({"Refs"})),
                   &ctx),
            Value::Bool(false));
  EXPECT_EQ(EvalOk(Expr::In(Expr::Int(3), Expr::Path({"S"})), &ctx),
            Value::Bool(true));
}

TEST(ExprTest, CardCountsCollection) {
  FakeContext ctx;
  ctx.AddCollection("Bolt", {Value::Ref(Surrogate(4))});
  EXPECT_EQ(EvalOk(Expr::Card(Expr::Path({"Bolt"})), &ctx), Value::Int(1));
}

TEST(ExprTest, ForAllOverCartesianProduct) {
  FakeContext ctx;
  ctx.AddCollection("As", {Value::Int(1), Value::Int(2)});
  ctx.AddCollection("Bs", {Value::Int(3), Value::Int(4)});
  // forall a in As, b in Bs: a < b
  ExprPtr body = Expr::Lt(Expr::Path({"a"}), Expr::Path({"b"}));
  ExprPtr all = Expr::ForAll(
      {{"a", Expr::Path({"As"})}, {"b", Expr::Path({"Bs"})}}, body);
  EXPECT_EQ(EvalOk(all, &ctx), Value::Bool(true));
  ctx.AddCollection("Bs2", {Value::Int(0)});
  ExprPtr some_fail = Expr::ForAll(
      {{"a", Expr::Path({"As"})}, {"b", Expr::Path({"Bs2"})}},
      Expr::Lt(Expr::Path({"a"}), Expr::Path({"b"})));
  EXPECT_EQ(EvalOk(some_fail, &ctx), Value::Bool(false));
}

TEST(ExprTest, ForAllVacuousAndExistsEmpty) {
  FakeContext ctx;
  ctx.AddCollection("Empty", {});
  ExprPtr body = Expr::Literal(Value::Bool(false));
  EXPECT_EQ(EvalOk(Expr::ForAll({{"x", Expr::Path({"Empty"})}}, body), &ctx),
            Value::Bool(true));
  EXPECT_EQ(EvalOk(Expr::Exists({{"x", Expr::Path({"Empty"})}},
                                Expr::Literal(Value::Bool(true))),
                   &ctx),
            Value::Bool(false));
}

TEST(ExprTest, ExistsFindsWitness) {
  FakeContext ctx;
  ctx.AddCollection("Xs", {Value::Int(1), Value::Int(5), Value::Int(9)});
  ExprPtr found = Expr::Exists({{"x", Expr::Path({"Xs"})}},
                               Expr::Gt(Expr::Path({"x"}), Expr::Int(7)));
  EXPECT_EQ(EvalOk(found, &ctx), Value::Bool(true));
  ExprPtr missing = Expr::Exists({{"x", Expr::Path({"Xs"})}},
                                 Expr::Gt(Expr::Path({"x"}), Expr::Int(70)));
  EXPECT_EQ(EvalOk(missing, &ctx), Value::Bool(false));
}

TEST(ExprTest, VariableShadowingAndUnbind) {
  FakeContext ctx;
  ctx.AddValue("x", Value::Int(1));
  Evaluator ev(&ctx);
  ev.Bind("x", Value::Int(10));
  EXPECT_EQ(ev.Eval(*Expr::Path({"x"}))->AsInt(), 10);
  ev.Bind("x", Value::Int(20));
  EXPECT_EQ(ev.Eval(*Expr::Path({"x"}))->AsInt(), 20);
  ev.Unbind("x");
  EXPECT_EQ(ev.Eval(*Expr::Path({"x"}))->AsInt(), 10);
  ev.Unbind("x");
  EXPECT_EQ(ev.Eval(*Expr::Path({"x"}))->AsInt(), 1);  // context fallback
}

TEST(ExprTest, PathFanOutThroughObjects) {
  FakeContext ctx;
  // Two "subgates", each with a Pins collection.
  ctx.AddCollection("SubGates",
                    {Value::Ref(Surrogate(1)), Value::Ref(Surrogate(2))});
  ctx.AddObjectMember(
      1, "Pins",
      Resolved::Many({Value::Ref(Surrogate(11)), Value::Ref(Surrogate(12))}));
  ctx.AddObjectMember(2, "Pins", Resolved::Many({Value::Ref(Surrogate(21))}));
  EXPECT_EQ(EvalOk(Expr::Count(Expr::Path({"SubGates", "Pins"})), &ctx),
            Value::Int(3));
  EXPECT_EQ(EvalOk(Expr::In(Expr::Literal(Value::Ref(Surrogate(21))),
                            Expr::Path({"SubGates", "Pins"})),
                   &ctx),
            Value::Bool(true));
}

TEST(ExprTest, AttachWhereFilterOnlyFillsEmptyAggregates) {
  ExprPtr filter = Expr::Eq(Expr::Path({"x"}), Expr::Int(1));
  ExprPtr pre_filter = Expr::Eq(Expr::Path({"y"}), Expr::Int(2));
  ExprPtr e = Expr::Eq(Expr::Count(Expr::Path({"Pins"})),
                       Expr::Count(Expr::Path({"Qs"}), pre_filter));
  ExprPtr attached = Expr::AttachWhereFilter(e, filter);
  // First count gained the filter, second kept its own.
  const Expr& lhs = *attached->children()[0];
  const Expr& rhs = *attached->children()[1];
  ASSERT_NE(lhs.filter(), nullptr);
  EXPECT_EQ(lhs.filter()->ToString(), filter->ToString());
  ASSERT_NE(rhs.filter(), nullptr);
  EXPECT_EQ(rhs.filter()->ToString(), pre_filter->ToString());
}

TEST(ExprTest, PredicateRejectsNonBoolean) {
  FakeContext ctx;
  Evaluator ev(&ctx);
  EXPECT_FALSE(ev.EvalPredicate(*Expr::Int(7)).ok());
  EXPECT_TRUE(*ev.EvalPredicate(*Expr::Literal(Value::Bool(true))));
  // Null coerces to false rather than erroring (fail closed).
  ctx.AddValue("U", Value::Null());
  EXPECT_FALSE(*ev.EvalPredicate(*Expr::Path({"U"})));
}

TEST(ExprTest, ToStringRoundsTrip) {
  ExprPtr e = Expr::And(
      Expr::Eq(Expr::Count(Expr::Path({"Pins"})), Expr::Int(3)),
      Expr::In(Expr::Path({"p"}), Expr::Path({"SubGates", "Pins"})));
  EXPECT_EQ(e->ToString(),
            "((count(Pins) = 3) and (p in SubGates.Pins))");
}

}  // namespace
}  // namespace caddb
