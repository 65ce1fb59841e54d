#ifndef WIREBENCH_ORACLE_H_
#define WIREBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "multilog/engine.h"

namespace wirebench {

/// The answer oracle: one in-process reference ml::Engine loaded from
/// the same generated source as the daemons and fed the same
/// acknowledged writes (in seqno order). Answers are rendered exactly as
/// multilogd serializes a query response's "answers" member, so a check
/// is a byte compare.
class Oracle {
 public:
  static multilog::Result<Oracle> Load(const std::string& source);

  /// Replays one acknowledged write at `level`.
  multilog::Status Apply(bool retract, const std::string& fact,
                         const std::string& level);

  /// The serialized answers array of `goal` at session `level`.
  /// Thread-safe; results are memoised, so call only once every write
  /// has been applied.
  multilog::Result<std::string> Answers(const std::string& goal,
                                        const std::string& level);

 private:
  explicit Oracle(multilog::ml::Engine engine)
      : engine_(std::make_unique<multilog::ml::Engine>(std::move(engine))),
        mu_(std::make_unique<std::mutex>()) {}

  std::unique_ptr<multilog::ml::Engine> engine_;
  std::unique_ptr<std::mutex> mu_;  // guards memo_
  std::map<std::pair<std::string, std::string>, std::string> memo_;
};

/// Answers seen for one goal during the run: the first response's
/// bytes, which every later response must repeat, and how many
/// responses carried them.
struct Observed {
  std::string answers;
  uint64_t count = 0;
};
/// Keyed by ObservedKey(level, goal). A multimap: two load threads may
/// have seen different bytes for one goal, and both are checked.
using ObservedMap = std::unordered_multimap<std::string, Observed>;

inline std::string ObservedKey(const std::string& level,
                               const std::string& goal) {
  return level + '\n' + goal;
}

/// Compares every observed answer set with the oracle, on `threads`
/// threads. Returns the number of responses whose answers differ (each
/// observation counts all its responses); prints the first few
/// mismatches to stderr.
uint64_t CheckObserved(Oracle& oracle, const ObservedMap& observed,
                       size_t threads);

}  // namespace wirebench

#endif  // WIREBENCH_ORACLE_H_
