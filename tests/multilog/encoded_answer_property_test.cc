// Property test for the encoded answer path: the engine matches each
// goal, translated for the level's (possibly level-specialized)
// program, against the one fixpoint it keeps per cached level. Every
// answer list - order included - must be byte-identical to what a
// generic (Specialization::kNever) engine rebuilt from scratch out of
// the dumped source answers, and to the operational answers kCheckBoth
// returns (Theorem 6.1). Seeded random programs over a diamond lattice
// cover every clearance x mode with point goals, key-free scans, goals
// with level variables (several specialized goal lists), and
// don't-care classifications; each is checked before and after random
// asserts and retracts, with incremental maintenance on and off.
//
// A program with a b-atom in a rule body has no generic form (it is
// stratifiable only once specialized), so on odd seeds, which add such
// a rule, the scratch reference is a specialized engine and kCheckBoth
// is the independent oracle.

#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "multilog/engine.h"

namespace multilog::ml {
namespace {

using Specialization = ReductionOptions::Specialization;

const std::vector<std::string> kLevels = {"u", "c1", "c2", "s"};
const std::vector<std::string> kModes = {"fir", "opt", "cau"};
const std::vector<std::string> kKeys = {"k0", "k1", "k2", "k3"};
const std::vector<std::string> kValues = {"v0", "v1", "v2"};

/// Whether `high` dominates `low` in the diamond u < c1, c2 < s.
bool Dominates(const std::string& high, const std::string& low) {
  return low == high || low == "u" || high == "s";
}

/// The levels `level` dominates: the classifications a subject cleared
/// at `level` may write.
std::vector<std::string> Below(const std::string& level) {
  std::vector<std::string> out;
  for (const std::string& l : kLevels) {
    if (Dominates(level, l)) out.push_back(l);
  }
  return out;
}

class RandomSource {
 public:
  explicit RandomSource(unsigned seed) : rng_(seed) {}

  template <typename T>
  const T& Pick(const std::vector<T>& xs) {
    std::uniform_int_distribution<size_t> d(0, xs.size() - 1);
    return xs[d(rng_)];
  }
  bool Coin(double p) { return std::bernoulli_distribution(p)(rng_); }

  /// One ground item fact at `level`: the key cell and a value cell,
  /// the value classified at or above the key (entity integrity).
  std::string Fact(const std::string& level) {
    const std::string& key = Pick(kKeys);
    const std::string key_cls = Pick(Below(level));
    std::vector<std::string> above;
    for (const std::string& c : Below(level)) {
      if (Dominates(c, key_cls)) above.push_back(c);
    }
    return level + "[item(" + key + " : id -" + key_cls + "-> " + key +
           ", val -" + Pick(above) + "-> " + Pick(kValues) + ")].";
  }

  /// A database with polyinstantiated facts at every level and a rule
  /// whose body has a level variable; with `belief_rule`, also a rule
  /// with a b-atom body (so kAuto specializes).
  std::string Database(bool belief_rule) {
    std::string src =
        "level(u). level(c1). level(c2). level(s).\n"
        "order(u, c1). order(u, c2). order(c1, s). order(c2, s).\n";
    const int facts = std::uniform_int_distribution<int>(6, 12)(rng_);
    for (int i = 0; i < facts; ++i) src += Fact(Pick(kLevels)) + "\n";
    if (belief_rule) {
      src += "s[item(K : vet -u-> yes)] :- u[item(K : id -u-> K)] << " +
             Pick(kModes) + ".\n";
    }
    src += "c1[item(k0 : tag -c1-> V)] :- L[item(k1 : val -C-> V)].\n";
    return src;
  }

 private:
  std::mt19937 rng_;
};

/// Every goal shape, per mode: a point goal, a key-free scan, a
/// level-variable goal (b- and m-atom), a don't-care classification,
/// and the rule-derived attributes.
std::vector<std::string> Goals() {
  std::vector<std::string> goals;
  for (const std::string& mode : kModes) {
    for (const std::string& level : kLevels) {
      goals.push_back(level + "[item(k1 : val -C-> V)] << " + mode);
      goals.push_back(level + "[item(K : val -C-> V)] << " + mode);
    }
    goals.push_back("L[item(K : val -C-> V)] << " + mode);
    goals.push_back("L[item(k0 : id -C-> K)] << " + mode);
    goals.push_back("s[item(K : val -> V)] << " + mode);
    goals.push_back("L[item(K : id -> K, val -> V)] << " + mode);
    goals.push_back("s[item(K : vet -C-> V)] << " + mode);
    goals.push_back("c1[item(K : tag -C-> V)] << " + mode);
  }
  goals.push_back("L[item(K : val -C-> V)]");
  goals.push_back("L[item(K : tag -> V)]");
  goals.push_back("s[item(K : id -C-> K)]");
  return goals;
}

/// The answers in served order, one rendering per line.
std::string Render(const Result<QueryResult>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  std::string out;
  for (const datalog::Substitution& s : r->answers) out += s.ToString() + "\n";
  return out;
}

struct Config {
  const char* name;
  Specialization specialization;
  bool incremental;
};
constexpr Config kConfigs[] = {
    {"auto/incremental", Specialization::kAuto, true},
    {"always/incremental", Specialization::kAlways, true},
    {"auto/invalidate", Specialization::kAuto, false},
    {"always/invalidate", Specialization::kAlways, false},
};

EngineOptions Options(Specialization specialization, bool incremental) {
  EngineOptions options;
  options.reduction.specialization = specialization;
  options.incremental = incremental;
  // Every reduced query goes through the cached fixpoint.
  options.magic = false;
  return options;
}

class EncodedAnswerPropertyTest : public ::testing::TestWithParam<unsigned> {
 protected:
  /// Compares every goal at every level on every engine against an
  /// engine rebuilt from the first engine's dumped source.
  void CheckAll(std::vector<Engine>* engines, Specialization reference_kind,
                const std::string& when) {
    const std::string source = (*engines)[0].DumpSource();
    Result<Engine> reference = Engine::FromSource(
        source, Options(reference_kind, /*incremental=*/false));
    ASSERT_TRUE(reference.ok()) << reference.status();
    for (const std::string& level : kLevels) {
      for (const std::string& goal : Goals()) {
        const std::string expected =
            Render(reference->QuerySource(goal, level, ExecMode::kReduced));
        ASSERT_EQ(expected.rfind("error", 0), std::string::npos)
            << goal << " @ " << level << ": " << expected;
        // Don't-care classifications are never part of an answer.
        EXPECT_EQ(expected.find("_dc"), std::string::npos)
            << goal << " @ " << level << ": " << expected;
        for (size_t i = 0; i < engines->size(); ++i) {
          Engine& engine = (*engines)[i];
          EXPECT_EQ(Render(engine.QuerySource(goal, level, ExecMode::kReduced)),
                    expected)
              << kConfigs[i].name << ' ' << when << ": " << goal << " @ "
              << level << "\n"
              << source;
        }
        // Theorem 6.1 on the same goal: the reduced half must agree
        // with the operational half, which is what kCheckBoth returns.
        EXPECT_EQ(Render((*engines)[0].QuerySource(goal, level,
                                                   ExecMode::kCheckBoth)),
                  expected)
            << "check_both " << when << ": " << goal << " @ " << level << "\n"
            << source;
      }
    }
  }
};

TEST_P(EncodedAnswerPropertyTest, MatchesScratchGenericEngineAcrossWrites) {
  RandomSource random(GetParam());
  const bool belief_rule = GetParam() % 2 == 1;
  const Specialization reference_kind =
      belief_rule ? Specialization::kAlways : Specialization::kNever;
  const std::string source = random.Database(belief_rule);
  std::vector<Engine> engines;
  engines.reserve(std::size(kConfigs));
  for (const Config& config : kConfigs) {
    Result<Engine> engine = Engine::FromSource(
        source, Options(config.specialization, config.incremental));
    ASSERT_TRUE(engine.ok()) << engine.status() << "\n" << source;
    engines.push_back(std::move(engine).value());
  }
  // Warm every level so the writes below maintain (or drop) live
  // fixpoints rather than only reduced programs.
  for (Engine& engine : engines) {
    for (const std::string& level : kLevels) {
      ASSERT_TRUE(engine.ReducedModel(level).ok()) << level;
    }
  }
  ASSERT_NO_FATAL_FAILURE(CheckAll(&engines, reference_kind, "initial"));

  for (int step = 0; step < 6; ++step) {
    const std::string level = random.Pick(kLevels);
    // Retract a stored fact of the level half of the time, when there
    // is one; otherwise assert a fresh random one.
    std::vector<std::string> stored;
    const std::string dump = engines[0].DumpSource();
    for (size_t pos = dump.find(level + "[item("); pos != std::string::npos;
         pos = dump.find(level + "[item(", pos + 1)) {
      const bool line_start = pos == 0 || dump[pos - 1] == '\n';
      const size_t end = dump.find('\n', pos);
      const std::string line = dump.substr(pos, end - pos);
      if (line_start && line.find(":-") == std::string::npos) {
        stored.push_back(line);
      }
    }
    const bool retract = !stored.empty() && random.Coin(0.5);
    const std::string fact = retract ? random.Pick(stored) : random.Fact(level);
    std::string verdict;
    for (size_t i = 0; i < engines.size(); ++i) {
      Result<WriteResult> w = retract ? engines[i].Retract(fact, level)
                                      : engines[i].Assert(fact, level);
      const std::string mine = w.ok() ? "ok" : w.status().ToString();
      if (i == 0) verdict = mine;
      EXPECT_EQ(mine, verdict) << kConfigs[i].name << ": " << fact;
    }
    ASSERT_NO_FATAL_FAILURE(CheckAll(
        &engines, reference_kind,
        "after step " + std::to_string(step) +
            (retract ? " retract " : " assert ") + fact));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodedAnswerPropertyTest,
                         ::testing::Range(0u, 12u));

}  // namespace
}  // namespace multilog::ml
