#include "common/trace.h"

namespace multilog::trace {

namespace {

std::atomic<bool> g_enabled{false};

struct StageAggregate {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> total_micros{0};
};

StageAggregate g_aggregates[kNumStages];

thread_local Collector* tl_collector = nullptr;

void RecordAggregate(Stage stage, uint64_t micros) {
  StageAggregate& agg = g_aggregates[static_cast<size_t>(stage)];
  agg.count.fetch_add(1, std::memory_order_relaxed);
  agg.total_micros.fetch_add(micros, std::memory_order_relaxed);
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kRequest:
      return "request";
    case Stage::kParse:
      return "parse";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kExecute:
      return "execute";
    case Stage::kSerialize:
      return "serialize";
    case Stage::kOperationalSolve:
      return "operational_solve";
    case Stage::kReduce:
      return "reduce";
    case Stage::kPlanLookup:
      return "plan_lookup";
    case Stage::kMagicRewrite:
      return "magic_rewrite";
    case Stage::kEvalModel:
      return "eval_model";
    case Stage::kQueryModel:
      return "query_model";
    case Stage::kCheckCompare:
      return "check_compare";
    case Stage::kEvalRound:
      return "eval_round";
    case Stage::kEvalJoin:
      return "eval_join";
    case Stage::kEvalMerge:
      return "eval_merge";
    case Stage::kBeliefFirm:
      return "belief_firm";
    case Stage::kBeliefOptimistic:
      return "belief_optimistic";
    case Stage::kBeliefCautious:
      return "belief_cautious";
    case Stage::kValidate:
      return "validate";
    case Stage::kWalAppend:
      return "wal_append";
    case Stage::kFsync:
      return "fsync";
    case Stage::kRecovery:
      return "recovery";
    case Stage::kDeltaReduce:
      return "delta_reduce";
    case Stage::kDeltaEval:
      return "delta_eval";
    case Stage::kReplicaApply:
      return "replica_apply";
    case Stage::kSqlExecute:
      return "sql_execute";
  }
  return "unknown";
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::array<StageTotal, kNumStages> AggregatedStages() {
  std::array<StageTotal, kNumStages> out{};
  for (size_t i = 0; i < kNumStages; ++i) {
    out[i].count = g_aggregates[i].count.load(std::memory_order_relaxed);
    out[i].total_micros =
        g_aggregates[i].total_micros.load(std::memory_order_relaxed);
  }
  return out;
}

void ResetAggregates() {
  for (StageAggregate& agg : g_aggregates) {
    agg.count.store(0, std::memory_order_relaxed);
    agg.total_micros.store(0, std::memory_order_relaxed);
  }
}

void Collector::OpenSpan(Stage stage) {
  if (dropped_depth_ > 0 || nodes_ >= kMaxNodes) {
    ++dropped_depth_;
    ++dropped_spans_;
    return;
  }
  SpanNode* parent = open_.back();
  parent->children.push_back(SpanNode{stage, 0, 0, {}});
  open_.push_back(&parent->children.back());
  ++nodes_;
}

void Collector::CloseSpan(Clock::time_point start, Clock::time_point end) {
  if (dropped_depth_ > 0) {
    --dropped_depth_;
    return;
  }
  if (open_.size() <= 1) return;  // unbalanced close: ignore, keep the root
  SpanNode* node = open_.back();
  open_.pop_back();
  node->start_micros = SinceEpoch(start);
  node->duration_micros = SinceEpoch(end) - node->start_micros;
}

void Collector::AddLeaf(Stage stage, Clock::time_point start,
                        Clock::time_point end) {
  if (nodes_ >= kMaxNodes) {
    ++dropped_spans_;
    return;
  }
  const uint64_t start_us = SinceEpoch(start);
  SpanNode* parent = open_.back();
  parent->children.push_back(
      SpanNode{stage, start_us, SinceEpoch(end) - start_us, {}});
  ++nodes_;
  RecordAggregate(stage, SinceEpoch(end) - start_us);
}

SpanNode Collector::Finish(Clock::time_point end) {
  root_.start_micros = 0;
  root_.duration_micros = SinceEpoch(end);
  open_.clear();
  RecordAggregate(root_.stage, root_.duration_micros);
  return std::move(root_);
}

Collector* CurrentCollector() { return tl_collector; }

ScopedCollector::ScopedCollector(Collector* collector)
    : previous_(tl_collector) {
  tl_collector = collector;
}

ScopedCollector::~ScopedCollector() { tl_collector = previous_; }

Span::~Span() {
  if (!active_) return;
  const Collector::Clock::time_point end = Collector::Clock::now();
  RecordAggregate(
      stage_,
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
              .count()));
  if (collector_ != nullptr) collector_->CloseSpan(start_, end);
}

}  // namespace multilog::trace
