#include "oracle.h"

#include <atomic>
#include <cstdio>
#include <thread>

#include "server/json.h"

namespace wirebench {

using multilog::Result;
using multilog::Status;
using multilog::server::Json;

Result<Oracle> Oracle::Load(const std::string& source) {
  Result<multilog::ml::Engine> engine =
      multilog::ml::Engine::FromSource(source);
  if (!engine.ok()) return engine.status();
  return Oracle(std::move(engine).value());
}

Status Oracle::Apply(bool retract, const std::string& fact,
                     const std::string& level) {
  Result<multilog::ml::WriteResult> r =
      retract ? engine_->Retract(fact, level) : engine_->Assert(fact, level);
  return r.ok() ? Status::OK() : r.status();
}

Result<std::string> Oracle::Answers(const std::string& goal,
                                    const std::string& level) {
  const auto key = std::make_pair(level, goal);
  {
    std::lock_guard<std::mutex> lock(*mu_);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
  }
  Result<multilog::ml::QueryResult> r = engine_->QuerySource(goal, level);
  if (!r.ok()) return r.status();
  Json answers = Json::Array();
  for (const auto& answer : r->answers) {
    answers.Push(Json::Str(answer.ToString()));
  }
  std::string bytes = answers.Serialize();
  std::lock_guard<std::mutex> lock(*mu_);
  memo_.emplace(key, bytes);
  return bytes;
}

uint64_t CheckObserved(Oracle& oracle, const ObservedMap& observed,
                       size_t threads) {
  std::vector<const ObservedMap::value_type*> items;
  items.reserve(observed.size());
  for (const auto& item : observed) items.push_back(&item);
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<int> reported{0};
  auto work = [&] {
    for (size_t i = next++; i < items.size(); i = next++) {
      const auto& [key, seen] = *items[i];
      const size_t nl = key.find('\n');
      const std::string level = key.substr(0, nl);
      const std::string goal = key.substr(nl + 1);
      Result<std::string> want = oracle.Answers(goal, level);
      if (want.ok() && *want == seen.answers) continue;
      wrong += seen.count;
      if (reported++ < 5) {
        std::fprintf(stderr, "oracle mismatch at %s: %s\n  got  %.200s\n  want %.200s\n",
                     level.c_str(), goal.c_str(),
                     seen.answers.c_str(),
                     want.ok() ? want->c_str()
                               : want.status().ToString().c_str());
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return wrong.load();
}

}  // namespace wirebench
