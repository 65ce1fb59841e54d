#include <gtest/gtest.h>

#include <random>

#include "datalog/eval.h"
#include "multilog/engine.h"
#include "multilog/parser.h"

namespace multilog::ml {
namespace {

/// Random belief-free databases (so both the generic and the
/// level-specialized compilation are runnable) over u < c < s.
std::string RandomDatabase(unsigned seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](const std::vector<std::string>& xs) {
    std::uniform_int_distribution<size_t> d(0, xs.size() - 1);
    return xs[d(rng)];
  };
  const std::vector<std::string> levels = {"u", "c", "s"};
  const std::vector<std::string> keys = {"k0", "k1"};
  const std::vector<std::string> attrs = {"a", "b"};
  const std::vector<std::string> values = {"v0", "v1", "v2"};

  std::string src = "level(u). level(c). level(s). order(u, c). order(c, s).\n";
  std::uniform_int_distribution<int> count(4, 10);
  const int facts = count(rng);
  for (int i = 0; i < facts; ++i) {
    std::string level = pick(levels);
    std::string cls = pick(levels);
    if (cls > level) std::swap(cls, level);
    src += level + "[p(" + pick(keys) + " : " + pick(attrs) + " -" + cls +
           "-> " + pick(values) + ")].\n";
  }
  // A rule with a variable level (exercises level-variable expansion in
  // the specialized compilation).
  src += "c[p(k0 : b -c-> derived)] :- L[p(k0 : a -C-> V)].\n";
  return src;
}

/// Decoded-model text of the bel/rel facts under a given specialization
/// policy.
std::string ModelText(const std::string& src,
                      ReductionOptions::Specialization policy,
                      const std::string& level) {
  EngineOptions options;
  options.reduction.specialization = policy;
  Result<Engine> engine = Engine::FromSource(src, options);
  if (!engine.ok()) return "engine: " + engine.status().ToString();
  Result<const datalog::Model*> model = engine->ReducedModel(level);
  if (!model.ok()) return "model: " + model.status().ToString();
  const datalog::Model decoded = DecodeModel(**model);
  // Compare only rel/bel (vis/overridden differ structurally: the
  // specialized program prunes statically false dominance combinations).
  std::string out;
  for (const char* pred : {"rel/6", "bel/7"}) {
    std::vector<std::string> lines;
    for (const datalog::Atom& fact : decoded.FactsFor(pred)) {
      lines.push_back(fact.ToString());
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& l : lines) out += l + "\n";
  }
  return out;
}

class SpecializationPropertyTest : public ::testing::TestWithParam<unsigned> {
};

// Level specialization is a pure compilation strategy: the decoded
// rel/bel model is identical with and without it, at every session
// level.
TEST_P(SpecializationPropertyTest, GenericEqualsSpecialized) {
  const std::string src = RandomDatabase(GetParam());
  for (const std::string level : {"u", "c", "s"}) {
    std::string generic =
        ModelText(src, ReductionOptions::Specialization::kNever, level);
    std::string specialized =
        ModelText(src, ReductionOptions::Specialization::kAlways, level);
    EXPECT_EQ(generic, specialized) << "level " << level << "\n" << src;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SpecializationPropertyTest,
                         ::testing::Range(0u, 15u));

}  // namespace
}  // namespace multilog::ml
