// The tracing facility's contracts: span trees (shape, offsets, the
// node budget), the global aggregates, collector install/restore, and
// the disabled-is-inert guarantee the overhead bench relies on.

#include "common/trace.h"

#include <gtest/gtest.h>

#include <thread>

namespace multilog::trace {
namespace {

/// Tracing state is process-global; every test starts from a clean
/// slate and leaves one behind.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(false);
    ResetAggregates();
  }
  void TearDown() override {
    SetEnabled(false);
    ResetAggregates();
  }
};

TEST_F(TraceTest, StageNamesAreStableSnakeCase) {
  EXPECT_STREQ(StageName(Stage::kRequest), "request");
  EXPECT_STREQ(StageName(Stage::kEvalRound), "eval_round");
  EXPECT_STREQ(StageName(Stage::kWalAppend), "wal_append");
  EXPECT_STREQ(StageName(Stage::kDeltaReduce), "delta_reduce");
  EXPECT_STREQ(StageName(Stage::kDeltaEval), "delta_eval");
  EXPECT_STREQ(StageName(Stage::kReplicaApply), "replica_apply");
  EXPECT_STREQ(StageName(Stage::kSqlExecute), "sql_execute");
  // Every stage has a distinct, non-empty name (the Prometheus label).
  for (size_t i = 0; i < kNumStages; ++i) {
    const char* name = StageName(static_cast<Stage>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
    for (size_t j = i + 1; j < kNumStages; ++j) {
      EXPECT_STRNE(name, StageName(static_cast<Stage>(j)));
    }
  }
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  { Span span(Stage::kReduce); }
  const auto agg = AggregatedStages();
  EXPECT_EQ(agg[static_cast<size_t>(Stage::kReduce)].count, 0u);
}

TEST_F(TraceTest, EnabledSpansFeedAggregates) {
  SetEnabled(true);
  { Span span(Stage::kReduce); }
  { Span span(Stage::kReduce); }
  { Span span(Stage::kEvalJoin); }
  const auto agg = AggregatedStages();
  EXPECT_EQ(agg[static_cast<size_t>(Stage::kReduce)].count, 2u);
  EXPECT_EQ(agg[static_cast<size_t>(Stage::kEvalJoin)].count, 1u);
  EXPECT_EQ(agg[static_cast<size_t>(Stage::kEvalMerge)].count, 0u);
}

TEST_F(TraceTest, ResetClearsAggregates) {
  SetEnabled(true);
  { Span span(Stage::kFsync); }
  ResetAggregates();
  const auto agg = AggregatedStages();
  EXPECT_EQ(agg[static_cast<size_t>(Stage::kFsync)].count, 0u);
  EXPECT_EQ(agg[static_cast<size_t>(Stage::kFsync)].total_micros, 0u);
}

TEST_F(TraceTest, CollectorBuildsNestedTree) {
  Collector collector;
  {
    ScopedCollector install(&collector);
    Span outer(Stage::kExecute);
    {
      Span inner(Stage::kReduce);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    { Span sibling(Stage::kQueryModel); }
  }
  const SpanNode root = collector.Finish();
  EXPECT_EQ(root.stage, Stage::kRequest);
  ASSERT_EQ(root.children.size(), 1u);
  const SpanNode& execute = root.children[0];
  EXPECT_EQ(execute.stage, Stage::kExecute);
  ASSERT_EQ(execute.children.size(), 2u);
  EXPECT_EQ(execute.children[0].stage, Stage::kReduce);
  EXPECT_EQ(execute.children[1].stage, Stage::kQueryModel);
  // The slept inner span has measurable duration, contained in its
  // parent, which is contained in the root.
  EXPECT_GE(execute.children[0].duration_micros, 1000u);
  EXPECT_GE(execute.duration_micros, execute.children[0].duration_micros);
  EXPECT_GE(root.duration_micros, execute.duration_micros);
  // Offsets are relative to the collector's epoch and ordered.
  EXPECT_GE(execute.start_micros, root.start_micros);
  EXPECT_LE(execute.children[0].start_micros, execute.children[1].start_micros);
  EXPECT_EQ(collector.dropped_spans(), 0u);
}

TEST_F(TraceTest, CollectorSpansFeedAggregatesToo) {
  Collector collector;
  {
    ScopedCollector install(&collector);
    Span span(Stage::kQueryModel);
  }
  collector.Finish();
  const auto agg = AggregatedStages();
  EXPECT_EQ(agg[static_cast<size_t>(Stage::kQueryModel)].count, 1u);
}

TEST_F(TraceTest, AddLeafAttachesPreMeasuredSpans) {
  const auto epoch = Collector::Clock::now();
  Collector collector(epoch);
  collector.AddLeaf(Stage::kParse, epoch,
                    epoch + std::chrono::microseconds(250));
  collector.AddLeaf(Stage::kQueueWait, epoch + std::chrono::microseconds(250),
                    epoch + std::chrono::microseconds(400));
  const SpanNode root = collector.Finish();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].stage, Stage::kParse);
  EXPECT_EQ(root.children[0].start_micros, 0u);
  EXPECT_EQ(root.children[0].duration_micros, 250u);
  EXPECT_EQ(root.children[1].stage, Stage::kQueueWait);
  EXPECT_EQ(root.children[1].start_micros, 250u);
  EXPECT_EQ(root.children[1].duration_micros, 150u);
}

TEST_F(TraceTest, NodeBudgetCountsDroppedSpans) {
  Collector collector;
  {
    ScopedCollector install(&collector);
    for (size_t i = 0; i < Collector::kMaxNodes + 100; ++i) {
      Span span(Stage::kEvalRound);
    }
  }
  const SpanNode root = collector.Finish();
  // The stored tree respects the budget; the overflow is counted, so a
  // truncated trace is distinguishable from a complete one.
  EXPECT_LE(root.children.size(), Collector::kMaxNodes);
  EXPECT_GT(collector.dropped_spans(), 0u);
  EXPECT_EQ(root.children.size() + collector.dropped_spans(),
            Collector::kMaxNodes + 100);
}

TEST_F(TraceTest, DroppedSpansKeepNestingBalanced) {
  Collector collector;
  {
    ScopedCollector install(&collector);
    // Exhaust the budget, then open *nested* spans: they must balance
    // without corrupting the open stack.
    for (size_t i = 0; i < Collector::kMaxNodes; ++i) {
      Span span(Stage::kEvalRound);
    }
    Span outer(Stage::kExecute);
    Span inner(Stage::kReduce);
  }
  const SpanNode root = collector.Finish();
  EXPECT_EQ(root.stage, Stage::kRequest);
  EXPECT_GE(collector.dropped_spans(), 2u);
}

TEST_F(TraceTest, ScopedCollectorRestoresPrevious) {
  EXPECT_EQ(CurrentCollector(), nullptr);
  Collector outer_collector;
  {
    ScopedCollector outer(&outer_collector);
    EXPECT_EQ(CurrentCollector(), &outer_collector);
    Collector inner_collector;
    {
      ScopedCollector inner(&inner_collector);
      EXPECT_EQ(CurrentCollector(), &inner_collector);
    }
    EXPECT_EQ(CurrentCollector(), &outer_collector);
  }
  EXPECT_EQ(CurrentCollector(), nullptr);
}

TEST_F(TraceTest, CollectorIsThreadLocal) {
  Collector collector;
  ScopedCollector install(&collector);
  Collector* seen_on_other_thread = &collector;  // sentinel, must change
  std::thread other(
      [&seen_on_other_thread] { seen_on_other_thread = CurrentCollector(); });
  other.join();
  EXPECT_EQ(seen_on_other_thread, nullptr);
}

}  // namespace
}  // namespace multilog::trace
