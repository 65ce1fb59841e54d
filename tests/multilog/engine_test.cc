#include "multilog/engine.h"

#include <gtest/gtest.h>

#include "mls/belief.h"
#include "mls/sample_data.h"
#include "multilog/parser.h"
#include "multilog/translate.h"

namespace multilog::ml {
namespace {

/// Renders answers as sorted binding strings for compact assertions.
std::vector<std::string> AnswerStrings(const QueryResult& r) {
  std::vector<std::string> out;
  for (const datalog::Substitution& s : r.answers) out.push_back(s.ToString());
  return out;
}

TEST(EngineD1Test, StoredQueryOptimisticAtC) {
  // Figure 10/11: at database level c, the query
  //   ?- c[p(k : a -R-> v)] << opt
  // succeeds with R = u (the u-level fact r6 is believed optimistically
  // at c).
  Result<Engine> engine = Engine::FromSource(mls::D1Source());
  ASSERT_TRUE(engine.ok()) << engine.status();

  Result<QueryResult> reduced = engine->RunStoredQueries("c").status().ok()
                                    ? engine->RunStoredQueries("c")->at(0)
                                    : Result<QueryResult>(Status::Internal(
                                          "stored query run failed"));
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  EXPECT_EQ(AnswerStrings(*reduced), std::vector<std::string>{"{R=u}"});
}

TEST(EngineD1Test, OperationalAgreesWithReducedAtEveryLevel) {
  Result<Engine> engine = Engine::FromSource(mls::D1Source());
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (const std::string level : {"u", "c", "s"}) {
    Result<std::vector<QueryResult>> results =
        engine->RunStoredQueries(level, ExecMode::kCheckBoth);
    ASSERT_TRUE(results.ok()) << "level " << level << ": "
                              << results.status();
  }
}

TEST(EngineD1Test, ProofTreeForFigure11) {
  Result<Engine> engine = Engine::FromSource(mls::D1Source());
  ASSERT_TRUE(engine.ok()) << engine.status();
  Result<QueryResult> r = engine->QuerySource("c[p(k : a -R-> v)] << opt",
                                              "c", ExecMode::kOperational);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->answers.size(), 1u);
  ASSERT_EQ(r->proofs.size(), 1u);

  // The proof uses the rules of Figure 11: belief dispatch, optimistic
  // descent, deduction-g' on the u-level fact, and dominance side
  // conditions; leaves are EMPTY.
  std::vector<std::string> rules = ProofRules(*r->proofs[0]);
  auto has = [&rules](const std::string& rule) {
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
  };
  EXPECT_TRUE(has("belief"));
  EXPECT_TRUE(has("descend-o"));
  EXPECT_TRUE(has("deduction-g'"));
  EXPECT_TRUE(has("empty"));
  EXPECT_GE(ProofHeight(*r->proofs[0]), 3u);
}

TEST(EngineD1Test, NoReadUpAtLevelU) {
  // At database level u the c- and s-level data must be invisible: the
  // stored query has no answers (r6 is at u... but the query asks at
  // level c, which u cannot read).
  Result<Engine> engine = Engine::FromSource(mls::D1Source());
  ASSERT_TRUE(engine.ok()) << engine.status();
  Result<std::vector<QueryResult>> results =
      engine->RunStoredQueries("u", ExecMode::kCheckBoth);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_TRUE(results->at(0).answers.empty());
}

TEST(EngineD1Test, FirmBeliefOnlySeesOwnLevel) {
  Result<Engine> engine = Engine::FromSource(mls::D1Source());
  ASSERT_TRUE(engine.ok()) << engine.status();

  // At level c: firm belief at c sees only the c-level derived fact
  // (r7 via q(j)), not the u-level fact.
  Result<QueryResult> r = engine->QuerySource(
      "c[p(k : a -C-> V)] << fir", "c", ExecMode::kCheckBoth);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(AnswerStrings(*r), std::vector<std::string>{"{C=c, V=t}"});
}

TEST(EngineD1Test, CautiousBeliefOverrides) {
  Result<Engine> engine = Engine::FromSource(mls::D1Source());
  ASSERT_TRUE(engine.ok()) << engine.status();

  // At level c, cautious belief at c: cells (a, u, v) from r6 and
  // (a, c, t) from r7 compete for predicate p's attribute a; the c
  // classification strictly dominates u, so only (a, c, t) survives.
  Result<QueryResult> r = engine->QuerySource(
      "c[p(k : a -C-> V)] << cau", "c", ExecMode::kCheckBoth);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(AnswerStrings(*r), std::vector<std::string>{"{C=c, V=t}"});
}

TEST(EngineD1Test, RecursiveBeliefClauseR8) {
  // r8 derives an s-level fact from cautious belief at c; the reduced
  // program needs level specialization for this (recursion through
  // negation at the predicate level).
  Result<Engine> engine = Engine::FromSource(mls::D1Source());
  ASSERT_TRUE(engine.ok()) << engine.status();

  Result<QueryResult> r = engine->QuerySource("s[p(k : a -u-> v)]", "s",
                                              ExecMode::kCheckBoth);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->answers.size(), 1u);
}

TEST(EngineMissionTest, EncodedMissionLoadsAndIsConsistent) {
  Result<mls::MissionDataset> ds = mls::BuildMissionDataset();
  ASSERT_TRUE(ds.ok()) << ds.status();
  Result<Database> db = EncodeRelation(*ds->mission, "mission");
  ASSERT_TRUE(db.ok()) << db.status();

  EngineOptions options;
  options.require_consistency = true;
  Result<Engine> engine = Engine::FromDatabase(std::move(*db), options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(engine->lattice().size(), 4u);
}

TEST(EngineMissionTest, SpyingOnMarsParagraph32) {
  // The Section 3.2 query: starships spying on Mars "without any doubt"
  // = believed in every mode. At level s: Voyager is spying on Mars per
  // t3 (firm at s), and cautiously (spying/s overrides training/u), and
  // optimistically. So the intersection is non-empty exactly for
  // beliefs at s.
  Result<mls::MissionDataset> ds = mls::BuildMissionDataset();
  ASSERT_TRUE(ds.ok()) << ds.status();
  Result<Database> db = EncodeRelation(*ds->mission, "mission");
  ASSERT_TRUE(db.ok()) << db.status();
  Result<Engine> engine = Engine::FromDatabase(std::move(*db));
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (const char* mode : {"fir", "opt", "cau"}) {
    Result<QueryResult> r = engine->QuerySource(
        std::string("s[mission(K : objective -C1-> spying)] << ") + mode +
            ", s[mission(K : destin -C2-> mars)] << " + mode,
        "s", ExecMode::kCheckBoth);
    ASSERT_TRUE(r.ok()) << "mode " << mode << ": " << r.status();
    bool found_voyager = false;
    for (const datalog::Substitution& s : r->answers) {
      if (s.ToString().find("K=voyager") != std::string::npos) {
        found_voyager = true;
      }
    }
    EXPECT_TRUE(found_voyager) << "mode " << mode;
  }
}

TEST(EngineMissionTest, BelievedCellsMatchBetaCautious) {
  Result<mls::MissionDataset> ds = mls::BuildMissionDataset();
  ASSERT_TRUE(ds.ok()) << ds.status();
  Result<Database> db = EncodeRelation(*ds->mission, "mission");
  ASSERT_TRUE(db.ok()) << db.status();
  Result<Engine> engine = Engine::FromDatabase(std::move(*db));
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (const std::string level : {"u", "c", "s"}) {
    mls::BeliefOptions bopt;
    bopt.merge_key_versions = true;  // cell-level bel merges key versions
    Result<mls::BeliefOutcome> beta =
        mls::Believe(*ds->mission, level, mls::BeliefMode::kCautious, bopt);
    ASSERT_TRUE(beta.ok()) << beta.status();
    std::vector<CellFact> beta_cells = RelationCells(beta->relation);

    Result<std::vector<CellFact>> bel_cells =
        BelievedCells(&*engine, "mission", level, "cau");
    ASSERT_TRUE(bel_cells.ok()) << bel_cells.status();
    EXPECT_EQ(beta_cells, *bel_cells) << "level " << level;
  }
}

// The engine keeps one model per cached level: the (here
// level-specialized) fixpoint queries are served from. The model_facts
// gauge sums the cached models' sizes, so caching a level raises it by
// exactly that model's fact count - one copy, not an encoded and a
// decoded one.
TEST(EngineModelFactsTest, CachingALevelAddsExactlyItsOneFixpoint) {
  constexpr char kSource[] = R"(
    level(u). level(c). level(s). order(u, c). order(c, s).
    u[p(k : a -u-> v)].
    c[p(k : a -c-> w)].
    s[p(k : b -u-> yes)] :- u[p(k : a -u-> v)] << cau.
  )";
  Result<Engine> engine = Engine::FromSource(kSource);
  ASSERT_TRUE(engine.ok()) << engine.status();
  Result<const ReducedProgram*> rp = engine->Reduced("s");
  ASSERT_TRUE(rp.ok()) << rp.status();
  ASSERT_TRUE((*rp)->specialized);
  EXPECT_EQ(engine->Counters().model_facts, 0u);

  Result<const datalog::Model*> s = engine->ReducedModel("s");
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_GT((*s)->size(), 0u);
  EXPECT_EQ(engine->Counters().model_facts, (*s)->size());
  Result<const datalog::Model*> u = engine->ReducedModel("u");
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_EQ(engine->Counters().model_facts, (*s)->size() + (*u)->size());
  EXPECT_EQ(engine->Counters().live_models, 2u);

  // Queries match against the cached fixpoint and add nothing.
  Result<QueryResult> r =
      engine->QuerySource("?- s[p(k : a -C-> V, b -D-> W)] << cau.", "s");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(AnswerStrings(*r),
            std::vector<std::string>{"{C=c, D=u, V=w, W=yes}"});
  EXPECT_EQ(engine->Counters().model_facts, (*s)->size() + (*u)->size());

  // The served model is the encoded one; DecodeModel gives back the
  // generic atoms, one for one.
  EXPECT_TRUE((*s)->FactsFor("bel/7").empty());
  EXPECT_FALSE((*s)->FactsFor("bel__s/6").empty());
  const datalog::Model decoded = DecodeModel(**s);
  EXPECT_EQ(decoded.size(), (*s)->size());
  EXPECT_EQ(decoded.FactsFor("bel/7").size(),
            (*s)->FactsFor("bel__u/6").size() +
                (*s)->FactsFor("bel__c/6").size() +
                (*s)->FactsFor("bel__s/6").size());
}

}  // namespace
}  // namespace multilog::ml
