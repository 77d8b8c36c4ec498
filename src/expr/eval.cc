#include "expr/eval.h"

#include <algorithm>

namespace caddb {
namespace expr {

namespace {

bool IsCollectionValue(const Value& v) {
  return v.kind() == Value::Kind::kSet || v.kind() == Value::Kind::kList;
}

/// The implicit element variable name used by `where` filters of aggregates:
/// `count(Pins) = 2 where Pins.InOut = IN` binds each counted element to the
/// name "Pins" while the filter runs.
std::string ImplicitVarName(const Expr& collection_expr) {
  if (collection_expr.kind() == Expr::Kind::kPath &&
      !collection_expr.segments().empty()) {
    return collection_expr.segments().back();
  }
  return "it";
}

}  // namespace

const Value* Evaluator::LookupVar(const std::string& name) const {
  for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
    if (it->first == name) return &it->second;
  }
  return nullptr;
}

void Evaluator::Bind(const std::string& var, Value v) {
  env_.emplace_back(var, std::move(v));
}

void Evaluator::Unbind(const std::string& var) {
  for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
    if (it->first == var) {
      env_.erase(std::next(it).base());
      return;
    }
  }
}

Result<Resolved> Evaluator::ApplyMember(const Resolved& base,
                                        const std::string& name) {
  if (!base.is_collection) {
    // A single set/list value fans out when navigated into.
    if (IsCollectionValue(base.single)) {
      Resolved fan = Resolved::Many(base.single.elements());
      return ApplyMember(fan, name);
    }
    return ctx_->ResolveMember(base.single, name);
  }
  std::vector<Value> out;
  for (const Value& element : base.collection) {
    Result<Resolved> r = ctx_->ResolveMember(element, name);
    if (!r.ok()) return r.status();
    if (r->is_collection) {
      out.insert(out.end(), r->collection.begin(), r->collection.end());
    } else if (IsCollectionValue(r->single)) {
      const auto& es = r->single.elements();
      out.insert(out.end(), es.begin(), es.end());
    } else {
      out.push_back(r->single);
    }
  }
  return Resolved::Many(std::move(out));
}

Result<Resolved> Evaluator::EvalPath(
    const std::vector<std::string>& segments) {
  if (segments.empty()) return InvalidArgument("empty path");
  Resolved current;
  const Value* var = LookupVar(segments[0]);
  if (var != nullptr) {
    current = Resolved::One(*var);
  } else {
    Result<Resolved> root = ctx_->ResolveName(segments[0]);
    if (!root.ok()) {
      if (root.status().code() == Code::kNotFound && segments.size() == 1) {
        // Bare unknown identifier: an enumeration symbol such as IN or wood.
        return Resolved::One(Value::Enum(segments[0]));
      }
      return root.status();
    }
    current = std::move(*root);
  }
  for (size_t i = 1; i < segments.size(); ++i) {
    Result<Resolved> next = ApplyMember(current, segments[i]);
    if (!next.ok()) return next.status();
    current = std::move(*next);
  }
  return current;
}

Result<Resolved> Evaluator::EvalResolved(const Expr& e) {
  if (e.kind() == Expr::Kind::kPath) return EvalPath(e.segments());
  Result<Value> v = Eval(e);
  if (!v.ok()) return v.status();
  return Resolved::One(std::move(*v));
}

Result<std::vector<Value>> Evaluator::EvalCollection(const Expr& e) {
  Result<Resolved> r = EvalResolved(e);
  if (!r.ok()) return r.status();
  if (r->is_collection) return std::move(r->collection);
  if (IsCollectionValue(r->single)) return r->single.elements();
  if (r->single.is_null()) return std::vector<Value>{};
  return std::vector<Value>{r->single};
}

Result<std::vector<Value>> Evaluator::FilteredElements(const Expr& e) {
  Result<std::vector<Value>> elements = EvalCollection(*e.children()[0]);
  if (!elements.ok()) return elements.status();
  if (e.filter() == nullptr) return elements;
  const std::string var = ImplicitVarName(*e.children()[0]);
  std::vector<Value> kept;
  for (const Value& element : *elements) {
    Bind(var, element);
    Result<bool> keep = EvalPredicate(*e.filter());
    Unbind(var);
    if (!keep.ok()) return keep.status();
    if (*keep) kept.push_back(element);
  }
  return kept;
}

Result<Value> Evaluator::EvalAggregate(const Expr& e) {
  Result<std::vector<Value>> elements = FilteredElements(e);
  if (!elements.ok()) return elements.status();
  switch (e.kind()) {
    case Expr::Kind::kCount:
      return Value::Int(static_cast<int64_t>(elements->size()));
    case Expr::Kind::kSum: {
      bool all_int = true;
      double total = 0;
      int64_t itotal = 0;
      for (const Value& v : *elements) {
        if (v.is_null()) continue;
        if (v.kind() == Value::Kind::kInt) {
          if (__builtin_add_overflow(itotal, v.AsInt(), &itotal)) {
            return InvalidArgument("integer overflow in sum");
          }
          total += static_cast<double>(v.AsInt());
        } else if (v.kind() == Value::Kind::kReal) {
          all_int = false;
          total += v.AsReal();
        } else {
          return TypeMismatch("sum over non-numeric value " + v.ToString());
        }
      }
      return all_int ? Value::Int(itotal) : Value::Real(total);
    }
    case Expr::Kind::kMin:
    case Expr::Kind::kMax: {
      if (elements->empty()) return Value::Null();
      const Value* best = &(*elements)[0];
      for (const Value& v : *elements) {
        int cmp = v.Compare(*best);
        if ((e.kind() == Expr::Kind::kMin && cmp < 0) ||
            (e.kind() == Expr::Kind::kMax && cmp > 0)) {
          best = &v;
        }
      }
      return *best;
    }
    default:
      return InternalError("EvalAggregate on non-aggregate");
  }
}

Result<Value> Evaluator::EvalBinary(const Expr& e) {
  const Expr& lhs_expr = *e.children()[0];
  const Expr& rhs_expr = *e.children()[1];

  switch (e.op()) {
    case Expr::Op::kAnd: {
      Result<bool> a = EvalPredicate(lhs_expr);
      if (!a.ok()) return a.status();
      if (!*a) return Value::Bool(false);
      Result<bool> b = EvalPredicate(rhs_expr);
      if (!b.ok()) return b.status();
      return Value::Bool(*b);
    }
    case Expr::Op::kOr: {
      Result<bool> a = EvalPredicate(lhs_expr);
      if (!a.ok()) return a.status();
      if (*a) return Value::Bool(true);
      Result<bool> b = EvalPredicate(rhs_expr);
      if (!b.ok()) return b.status();
      return Value::Bool(*b);
    }
    case Expr::Op::kIn: {
      Result<Value> lhs = Eval(lhs_expr);
      if (!lhs.ok()) return lhs.status();
      Result<std::vector<Value>> rhs = EvalCollection(rhs_expr);
      if (!rhs.ok()) return rhs.status();
      for (const Value& candidate : *rhs) {
        if (candidate == *lhs) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    default:
      break;
  }

  Result<Value> lhs = Eval(lhs_expr);
  if (!lhs.ok()) return lhs.status();
  Result<Value> rhs = Eval(rhs_expr);
  if (!rhs.ok()) return rhs.status();

  switch (e.op()) {
    case Expr::Op::kAdd:
    case Expr::Op::kSub:
    case Expr::Op::kMul:
    case Expr::Op::kDiv: {
      if (lhs->is_null() || rhs->is_null()) return Value::Null();
      bool lint = lhs->kind() == Value::Kind::kInt;
      bool rint = rhs->kind() == Value::Kind::kInt;
      bool lnum = lint || lhs->kind() == Value::Kind::kReal;
      bool rnum = rint || rhs->kind() == Value::Kind::kReal;
      if (!lnum || !rnum) {
        return TypeMismatch("arithmetic on non-numeric operands " +
                            lhs->ToString() + " " + OpName(e.op()) + " " +
                            rhs->ToString());
      }
      if (lint && rint && e.op() != Expr::Op::kDiv) {
        // Values come from outside the program: an overflow is an error,
        // never a wrapped (undefined) result.
        int64_t a = lhs->AsInt(), b = rhs->AsInt(), r = 0;
        const bool overflow =
            e.op() == Expr::Op::kAdd   ? __builtin_add_overflow(a, b, &r)
            : e.op() == Expr::Op::kSub ? __builtin_sub_overflow(a, b, &r)
                                       : __builtin_mul_overflow(a, b, &r);
        if (overflow) {
          return InvalidArgument("integer overflow in " + lhs->ToString() +
                                 " " + OpName(e.op()) + " " +
                                 rhs->ToString());
        }
        return Value::Int(r);
      }
      double a = lhs->AsReal(), b = rhs->AsReal();
      switch (e.op()) {
        case Expr::Op::kAdd: return Value::Real(a + b);
        case Expr::Op::kSub: return Value::Real(a - b);
        case Expr::Op::kMul: return Value::Real(a * b);
        case Expr::Op::kDiv:
          if (b == 0) return InvalidArgument("division by zero");
          return Value::Real(a / b);
        default: break;
      }
      return InternalError("unreachable arithmetic");
    }
    case Expr::Op::kEq:
      if (lhs->is_null() || rhs->is_null()) {
        return Value::Bool(lhs->is_null() && rhs->is_null());
      }
      return Value::Bool(*lhs == *rhs);
    case Expr::Op::kNe:
      if (lhs->is_null() || rhs->is_null()) {
        return Value::Bool(!(lhs->is_null() && rhs->is_null()));
      }
      return Value::Bool(*lhs != *rhs);
    case Expr::Op::kLt:
    case Expr::Op::kLe:
    case Expr::Op::kGt:
    case Expr::Op::kGe: {
      // Ordering with null is undefined; the constraint fails closed.
      if (lhs->is_null() || rhs->is_null()) return Value::Bool(false);
      int cmp = lhs->Compare(*rhs);
      switch (e.op()) {
        case Expr::Op::kLt: return Value::Bool(cmp < 0);
        case Expr::Op::kLe: return Value::Bool(cmp <= 0);
        case Expr::Op::kGt: return Value::Bool(cmp > 0);
        case Expr::Op::kGe: return Value::Bool(cmp >= 0);
        default: break;
      }
      return InternalError("unreachable comparison");
    }
    default:
      return InternalError("unhandled binary op");
  }
}

Result<Value> Evaluator::EvalQuantifier(const Expr& e) {
  // Materialize every binding's collection, then walk the cartesian product.
  std::vector<std::vector<Value>> domains;
  domains.reserve(e.bindings().size());
  for (const Binding& b : e.bindings()) {
    Result<std::vector<Value>> d = EvalCollection(*b.collection);
    if (!d.ok()) return d.status();
    domains.push_back(std::move(*d));
  }
  const bool universal = e.kind() == Expr::Kind::kForAll;

  std::vector<size_t> idx(domains.size(), 0);
  // Empty product (any empty domain): vacuous truth for forall, false for
  // exists.
  for (const auto& d : domains) {
    if (d.empty()) return Value::Bool(universal);
  }
  while (true) {
    for (size_t i = 0; i < domains.size(); ++i) {
      Bind(e.bindings()[i].var, domains[i][idx[i]]);
    }
    Result<bool> body = EvalPredicate(*e.children()[0]);
    for (size_t i = domains.size(); i > 0; --i) {
      Unbind(e.bindings()[i - 1].var);
    }
    if (!body.ok()) return body.status();
    if (universal && !*body) return Value::Bool(false);
    if (!universal && *body) return Value::Bool(true);
    // Advance the odometer.
    size_t level = domains.size();
    while (level > 0) {
      if (++idx[level - 1] < domains[level - 1].size()) break;
      idx[level - 1] = 0;
      --level;
    }
    if (level == 0) break;
  }
  return Value::Bool(universal);
}

Result<Value> Evaluator::Eval(const Expr& e) {
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      return e.literal();
    case Expr::Kind::kPath: {
      Result<Resolved> r = EvalPath(e.segments());
      if (!r.ok()) return r.status();
      if (r->is_collection) {
        // A collection in scalar position is only meaningful as a set value.
        return Value::Set(r->collection);
      }
      return r->single;
    }
    case Expr::Kind::kNot: {
      Result<bool> v = EvalPredicate(*e.children()[0]);
      if (!v.ok()) return v.status();
      return Value::Bool(!*v);
    }
    case Expr::Kind::kNeg: {
      Result<Value> v = Eval(*e.children()[0]);
      if (!v.ok()) return v.status();
      if (v->is_null()) return Value::Null();
      if (v->kind() == Value::Kind::kInt) {
        int64_t negated = 0;
        if (__builtin_sub_overflow(int64_t{0}, v->AsInt(), &negated)) {
          return InvalidArgument("integer overflow in -" + v->ToString());
        }
        return Value::Int(negated);
      }
      if (v->kind() == Value::Kind::kReal) return Value::Real(-v->AsReal());
      return TypeMismatch("negation of non-numeric " + v->ToString());
    }
    case Expr::Kind::kBinary:
      return EvalBinary(e);
    case Expr::Kind::kCount:
    case Expr::Kind::kSum:
    case Expr::Kind::kMin:
    case Expr::Kind::kMax:
      return EvalAggregate(e);
    case Expr::Kind::kCard: {
      Result<std::vector<Value>> elements = EvalCollection(*e.children()[0]);
      if (!elements.ok()) return elements.status();
      return Value::Int(static_cast<int64_t>(elements->size()));
    }
    case Expr::Kind::kForAll:
    case Expr::Kind::kExists:
      return EvalQuantifier(e);
  }
  return InternalError("unhandled expr kind");
}

Result<bool> Evaluator::EvalPredicate(const Expr& e) {
  Result<Value> v = Eval(e);
  if (!v.ok()) return v.status();
  if (v->is_null()) return false;
  if (v->kind() != Value::Kind::kBool) {
    return TypeMismatch("constraint did not evaluate to boolean: " +
                        e.ToString() + " = " + v->ToString());
  }
  return v->AsBool();
}

Result<bool> EvaluatePredicate(const Expr& e, EvalContext* ctx) {
  Evaluator ev(ctx);
  return ev.EvalPredicate(e);
}

}  // namespace expr
}  // namespace caddb
