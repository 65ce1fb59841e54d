#ifndef MULTILOG_MLS_BELIEF_H_
#define MULTILOG_MLS_BELIEF_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "mls/relation.h"

namespace multilog::mls {

/// The paper's built-in belief modes (Definition 3.1):
///  - firm ("fir"): believe only data created exactly at one's own level
///    (Figure 6);
///  - optimistic ("opt"): believe everything visible, monotonically
///    (Figure 7);
///  - cautious ("cau"): inheritance with overriding - per attribute keep
///    the visible cell with the dominating classification (Figure 8).
enum class BeliefMode { kFirm, kOptimistic, kCautious };

/// Accepts the long and short names from the paper: "firm"/"fir",
/// "optimistic"/"opt", "cautious"/"cau" (case-insensitive).
Result<BeliefMode> ParseBeliefMode(const std::string& name);
const char* BeliefModeToString(BeliefMode mode);

/// Extra knobs for the belief computation.
struct BeliefOptions {
  /// When true, cautious belief also overrides across key
  /// classifications - polyinstantiated key versions merge into the one
  /// with the dominating key class, as in the paper's Section 3.1
  /// narrative construction of Figure 8. When false (default), Definition
  /// 3.1 is followed literally: every visible (AK, C_AK) version yields
  /// its own believed tuple.
  bool merge_key_versions = false;
};

/// The result of a belief computation.
struct BeliefOutcome {
  Relation relation;
  /// Set when cautious belief met incomparable or equally-classified yet
  /// distinct candidate cells - the paper's "multiple models and
  /// associated unpredictability" situation. All maximal candidates are
  /// kept (deterministically ordered).
  bool conflict = false;
};

/// The parametric belief function beta(r, s, m) of Definition 3.1.
/// `level` is the believing agent's clearance s. Output tuples carry
/// TC = s for optimistic and cautious belief (per Figures 7-8, "the TC
/// values become C"); firm belief keeps tuples unchanged.
///
/// beta never generates surprise stories: it reads the raw relation, so
/// null-bearing tuples that the sigma filter would migrate downward
/// (Figure 3's t4/t5) cannot enter the believed set - the property the
/// paper claims for beta at the end of Section 3.2.
Result<BeliefOutcome> Believe(const Relation& relation,
                              const std::string& level, BeliefMode mode,
                              const BeliefOptions& options = {});

/// Signature of a user-defined belief mode (Section 7): given the raw
/// relation and the believing level, produce the believed tuples.
using UserBeliefFn =
    std::function<Result<std::vector<Tuple>>(const Relation&,
                                             const std::string& level)>;

/// A registry dispatching belief computation by mode name; the three
/// built-in modes are always present and cannot be overridden (the paper
/// notes user modes must not change the meaning of m-atoms - here,
/// they must not change the built-in modes either).
class BeliefModeRegistry {
 public:
  BeliefModeRegistry() = default;

  /// Registers `name` as a user-defined mode. Rejects the built-in names
  /// and duplicates.
  Status Register(const std::string& name, UserBeliefFn fn);

  bool Has(const std::string& name) const;

  /// Dispatches to a built-in or user-defined mode.
  Result<BeliefOutcome> Believe(const Relation& relation,
                                const std::string& level,
                                const std::string& mode_name,
                                const BeliefOptions& options = {}) const;

  /// Built-in and registered mode names, sorted.
  std::vector<std::string> ModeNames() const;

 private:
  std::map<std::string, UserBeliefFn> user_modes_;
};

}  // namespace multilog::mls

#endif  // MULTILOG_MLS_BELIEF_H_
