#include "datalog/eval.h"

#include <gtest/gtest.h>

#include "datalog/parser.h"

namespace multilog::datalog {
namespace {

Result<Model> EvalSource(std::string_view source,
                  EvalOptions::Strategy strategy =
                      EvalOptions::Strategy::kSeminaive) {
  Result<ParsedProgram> parsed = ParseDatalog(source);
  if (!parsed.ok()) return parsed.status();
  EvalOptions options;
  options.strategy = strategy;
  return Evaluate(parsed->program, options);
}

std::vector<std::string> Answers(const Model& model,
                                 std::string_view goal_text) {
  Result<std::vector<Literal>> goal = ParseGoal(goal_text);
  if (!goal.ok()) return {"parse error: " + goal.status().ToString()};
  Result<std::vector<Substitution>> answers = QueryModel(model, *goal);
  if (!answers.ok()) return {"error: " + answers.status().ToString()};
  std::vector<std::string> out;
  for (const Substitution& s : *answers) out.push_back(s.ToString());
  return out;
}

TEST(EvalTest, FactsOnly) {
  Result<Model> m = EvalSource("edge(a, b). edge(b, c).");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->size(), 2u);
  EXPECT_TRUE(m->Contains(Atom("edge", {Term::Sym("a"), Term::Sym("b")})));
}

TEST(EvalTest, TransitiveClosure) {
  Result<Model> m = EvalSource(R"(
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->FactsFor("path/2").size(), 6u);
  EXPECT_TRUE(m->Contains(Atom("path", {Term::Sym("a"), Term::Sym("d")})));
}

TEST(EvalTest, CyclicGraphTerminates) {
  Result<Model> m = EvalSource(R"(
    edge(a, b). edge(b, a).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )");
  ASSERT_TRUE(m.ok()) << m.status();
  // All four pairs are reachable, including the self-paths.
  EXPECT_EQ(m->FactsFor("path/2").size(), 4u);
}

TEST(EvalTest, StratifiedNegation) {
  Result<Model> m = EvalSource(R"(
    node(a). node(b). node(c).
    bad(b).
    good(X) :- node(X), not bad(X).
  )");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->FactsFor("good/1").size(), 2u);
  EXPECT_FALSE(m->Contains(Atom("good", {Term::Sym("b")})));
}

TEST(EvalTest, NegationOverDerivedPredicate) {
  Result<Model> m = EvalSource(R"(
    edge(a, b). edge(b, c).
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- edge(X, Z), reach(Z, Y).
    node(a). node(b). node(c).
    unreachable(X, Y) :- node(X), node(Y), not reach(X, Y).
  )");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->Contains(
      Atom("unreachable", {Term::Sym("c"), Term::Sym("a")})));
  EXPECT_FALSE(m->Contains(
      Atom("unreachable", {Term::Sym("a"), Term::Sym("c")})));
}

TEST(EvalTest, RecursionThroughNegationRejected) {
  Result<Model> m = EvalSource("p(a) :- not q(a). q(a) :- not p(a). p(b).");
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsInvalidProgram()) << m.status();
}

TEST(EvalTest, UnsafeClauseRejected) {
  Result<Model> m = EvalSource("p(X) :- q(Y).");
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsInvalidProgram());
}

TEST(EvalTest, UnsafeNegationRejected) {
  Result<Model> m = EvalSource("q(a). p(X) :- q(X), not r(X, Y).");
  EXPECT_FALSE(m.ok());
}

TEST(EvalTest, Builtins) {
  Result<Model> m = EvalSource(R"(
    val(a, 1). val(b, 5). val(c, 10).
    big(X) :- val(X, N), N >= 5.
    small(X) :- val(X, N), N < 5.
    other(X) :- val(X, N), N != 5.
  )");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->FactsFor("big/1").size(), 2u);
  EXPECT_EQ(m->FactsFor("small/1").size(), 1u);
  EXPECT_EQ(m->FactsFor("other/1").size(), 2u);
}

TEST(EvalTest, EqBuiltinBinds) {
  Result<Model> m = EvalSource(R"(
    val(a). copy(X, Y) :- val(X), Y = X.
  )");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->Contains(Atom("copy", {Term::Sym("a"), Term::Sym("a")})));
}

TEST(EvalTest, SymbolOrderingComparison) {
  Result<Model> m = EvalSource(R"(
    name(alice). name(bob).
    first(X) :- name(X), X < bob.
  )");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->FactsFor("first/1").size(), 1u);
}

TEST(EvalTest, MixedKindOrderingFails) {
  Result<Model> m = EvalSource("val(a, 1). bad(X) :- val(X, N), N < b.");
  EXPECT_FALSE(m.ok());
}

TEST(EvalTest, FunctionTermsInFacts) {
  Result<Model> m = EvalSource(R"(
    owns(alice, car(ford, 1990)).
    vintage(P) :- owns(P, car(M, Y)), Y < 2000.
  )");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->Contains(Atom("vintage", {Term::Sym("alice")})));
}

TEST(EvalTest, NaiveMatchesSeminaiveOnTc) {
  const char* src = R"(
    edge(a, b). edge(b, c). edge(c, d). edge(d, a). edge(b, d).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )";
  Result<Model> semi = EvalSource(src, EvalOptions::Strategy::kSeminaive);
  Result<Model> naive = EvalSource(src, EvalOptions::Strategy::kNaive);
  ASSERT_TRUE(semi.ok() && naive.ok());
  EXPECT_EQ(*semi, *naive);
  EXPECT_EQ(semi->ToString(), naive->ToString());
}

TEST(EvalTest, QueryModelWithNegationAndBuiltin) {
  Result<Model> m = EvalSource(R"(
    val(a, 1). val(b, 5). bad(b).
  )");
  ASSERT_TRUE(m.ok());
  std::vector<std::string> answers =
      Answers(*m, "val(X, N), not bad(X), N < 3");
  EXPECT_EQ(answers, std::vector<std::string>{"{N=1, X=a}"});
}

TEST(EvalTest, QueryAnswersAreDeduplicatedAndSorted) {
  Result<Model> m = EvalSource("p(a, b). p(a, c). q(b). q(c).");
  ASSERT_TRUE(m.ok());
  std::vector<std::string> answers = Answers(*m, "p(X, Y), q(Y)");
  EXPECT_EQ(answers,
            (std::vector<std::string>{"{X=a, Y=b}", "{X=a, Y=c}"}));
  // Projection deduplicates.
  answers = Answers(*m, "p(X, _Y)");
  EXPECT_EQ(answers.size(), 2u);
}

TEST(EvalTest, QueryAnswersAreOrderedByTheirRendering) {
  // One rendering per answer orders and deduplicates: "{X=ab}" sorts
  // before its prefix "{X=a}" because 'b' < '}', exactly as comparing
  // the two renderings does.
  Result<Model> m = EvalSource("p(b). p(a). p(ab). q(a, 1). q(ab, 1).");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(Answers(*m, "p(X)"),
            (std::vector<std::string>{"{X=ab}", "{X=a}", "{X=b}"}));
  EXPECT_EQ(Answers(*m, "q(X, N)"),
            (std::vector<std::string>{"{N=1, X=ab}", "{N=1, X=a}"}));
}

TEST(EvalTest, EmptyProgram) {
  Result<Model> m = EvalSource("");
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->empty());
}

TEST(EvalTest, MaxFactsGuard) {
  Result<ParsedProgram> parsed = ParseDatalog(R"(
    num(a).
    num(f(X)) :- num(X).
  )");
  ASSERT_TRUE(parsed.ok());
  EvalOptions options;
  options.max_facts = 1000;
  Result<Model> m = Evaluate(parsed->program, options);
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsResourceExhausted()) << m.status();
}

// Builds a program whose single quadratic rule derives n*n facts in one
// round - the shape that used to blow arbitrarily far past max_facts,
// because the cap was only checked between rounds.
Program QuadraticBlowUp(int n) {
  Result<ParsedProgram> parsed = ParseDatalog("pair(X, Y) :- q(X), q(Y).");
  Program p = parsed->program;
  for (int i = 0; i < n; ++i) {
    p.AddFact(Atom("q", {Term::Sym("c" + std::to_string(i))}));
  }
  return p;
}

TEST(EvalTest, MaxFactsEnforcedWithinARound) {
  // 200 q facts -> 40,000 pair derivations in a single round; the cap
  // must stop the round near 1,000, not after the round completes.
  Program p = QuadraticBlowUp(200);
  EvalOptions options;
  options.max_facts = 1000;
  EvalStats stats;
  Result<Model> m = Evaluate(p, options, &stats);
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsResourceExhausted()) << m.status();
  // The emit path charges the budget before recording a derivation, so
  // total derivations can never exceed the cap (the pre-fix evaluator
  // derived all 40,200 here).
  EXPECT_LE(stats.facts_derived, options.max_facts);
}

TEST(EvalTest, MaxFactsEnforcedWithinARoundNaive) {
  Program p = QuadraticBlowUp(200);
  EvalOptions options;
  options.strategy = EvalOptions::Strategy::kNaive;
  options.max_facts = 1000;
  EvalStats stats;
  Result<Model> m = Evaluate(p, options, &stats);
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsResourceExhausted()) << m.status();
  EXPECT_LE(stats.facts_derived, options.max_facts);
}

TEST(EvalTest, MaxFactsEnforcedWithinARoundParallel) {
  // The budget is shared across workers through one atomic counter, so
  // the bound holds for any thread count.
  Program p = QuadraticBlowUp(200);
  EvalOptions options;
  options.max_facts = 1000;
  options.num_threads = 8;
  EvalStats stats;
  Result<Model> m = Evaluate(p, options, &stats);
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.status().IsResourceExhausted()) << m.status();
  EXPECT_LE(stats.facts_derived, options.max_facts);
}

TEST(EvalTest, MaxFactsAllowsProgramsUnderTheCap) {
  // The emit-path budget must not fire on programs that fit. The budget
  // counts emissions, not deduplicated facts: `pair(X, Y) :- q(X), q(Y).`
  // has two delta rotations, so the round that fires on the 40 q facts
  // emits each of the 1,600 pairs twice (~3,240 emissions with the base
  // facts) before dedup at insert. A cap comfortably above that must
  // let the program finish.
  Program p = QuadraticBlowUp(40);
  EvalOptions options;
  options.max_facts = 5000;
  Result<Model> m = Evaluate(p, options);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->FactsFor("pair/2").size(), 1600u);
}

TEST(EvalTest, StatsArePopulated) {
  Result<ParsedProgram> parsed = ParseDatalog(R"(
    edge(a, b). edge(b, c).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )");
  ASSERT_TRUE(parsed.ok());
  EvalStats stats;
  Result<Model> m = Evaluate(parsed->program, EvalOptions(), &stats);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.rule_applications, 0u);
  EXPECT_GT(stats.facts_derived, 0u);
}

}  // namespace
}  // namespace multilog::datalog
