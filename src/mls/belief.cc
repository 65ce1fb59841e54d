#include "mls/belief.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "common/str_util.h"
#include "common/trace.h"

namespace multilog::mls {

Result<BeliefMode> ParseBeliefMode(const std::string& name) {
  std::string n = ToLower(name);
  if (n == "fir" || n == "firm" || n == "firmly") return BeliefMode::kFirm;
  if (n == "opt" || n == "optimistic" || n == "optimistically") {
    return BeliefMode::kOptimistic;
  }
  if (n == "cau" || n == "cautious" || n == "cautiously") {
    return BeliefMode::kCautious;
  }
  return Status::NotFound("unknown belief mode '" + name + "'");
}

const char* BeliefModeToString(BeliefMode mode) {
  switch (mode) {
    case BeliefMode::kFirm:
      return "fir";
    case BeliefMode::kOptimistic:
      return "opt";
    case BeliefMode::kCautious:
      return "cau";
  }
  return "?";
}

namespace {

Result<BeliefOutcome> BelieveFirm(const Relation& relation,
                                  const std::string& level) {
  BeliefOutcome out{Relation(relation.scheme(), &relation.lat()), false};
  for (const Tuple& t : relation.tuples()) {
    if (t.tc == level) {
      MULTILOG_RETURN_IF_ERROR(out.relation.AppendDerived(t));
    }
  }
  return out;
}

Result<BeliefOutcome> BelieveOptimistic(const Relation& relation,
                                        const std::string& level) {
  const lattice::SecurityLattice& lat = relation.lat();
  MULTILOG_ASSIGN_OR_RETURN(size_t level_index, lat.Index(level));
  std::vector<Tuple> believed;
  for (const Tuple& t : relation.tuples()) {
    MULTILOG_ASSIGN_OR_RETURN(size_t tc_index, lat.Index(t.tc));
    if (!lat.LeqIndex(tc_index, level_index)) continue;
    Tuple copy = t;
    copy.tc = level;  // the believer adopts the data at its own level
    believed.push_back(std::move(copy));
  }
  std::sort(believed.begin(), believed.end());
  believed.erase(std::unique(believed.begin(), believed.end()),
                 believed.end());

  BeliefOutcome out{Relation(relation.scheme(), &relation.lat()), false};
  for (Tuple& t : believed) {
    MULTILOG_RETURN_IF_ERROR(out.relation.AppendDerived(std::move(t)));
  }
  return out;
}

/// Keeps the classification-maximal cells of `candidates` (no candidate
/// strictly dominates them); deduplicated and sorted. Classifications
/// are resolved to lattice indices once, so the pairwise dominance test
/// is the O(1) index fast path.
Result<std::vector<Cell>> MaximalCells(const lattice::SecurityLattice& lat,
                                       std::vector<Cell> candidates) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<size_t> cls(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    MULTILOG_ASSIGN_OR_RETURN(cls[i],
                              lat.Index(candidates[i].classification));
  }
  std::vector<Cell> maximal;
  for (size_t i = 0; i < candidates.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < candidates.size(); ++j) {
      if (lat.LtIndex(cls[i], cls[j])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(candidates[i]);
  }
  return maximal;
}

/// Integer hash of a composite key value (symbol ids / ints / null).
struct KeyVectorHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : key) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// The per-key-group core of cautious belief: key versions, maximal
/// candidate cells per attribute, cartesian assembly, and the per-tuple
/// representability filter. beta_cau factors through the partition of
/// the visible tuples by key value - groups neither read nor write each
/// other's state. Returns the group's believed tuples, sorted and
/// unique; ORs `conflict` on multiple maximal candidates, surviving
/// merged key versions, or unrepresentable combinations.
Result<std::vector<Tuple>> CautiousGroup(const lattice::SecurityLattice& lat,
                                         const std::string& level,
                                         size_t arity, size_t key_arity,
                                         const std::vector<const Tuple*>& group,
                                         const BeliefOptions& options,
                                         bool* conflict) {
  // Key versions: every distinct visible (AK, C_AK) prefix (Definition
  // 3.1's "exists u"; with a composite key the prefix is the first
  // key_arity cells, uniformly classified), or - with
  // merge_key_versions - only the classification-maximal ones (the
  // Section 3.1 overriding story).
  std::vector<std::vector<Cell>> key_versions;
  for (const Tuple* t : group) {
    key_versions.emplace_back(t->cells.begin(),
                              t->cells.begin() + key_arity);
  }
  std::sort(key_versions.begin(), key_versions.end());
  key_versions.erase(std::unique(key_versions.begin(), key_versions.end()),
                     key_versions.end());
  if (options.merge_key_versions) {
    // Keep versions whose (uniform) classification is maximal.
    std::vector<size_t> cls(key_versions.size());
    for (size_t i = 0; i < key_versions.size(); ++i) {
      MULTILOG_ASSIGN_OR_RETURN(
          cls[i], lat.Index(key_versions[i].front().classification));
    }
    std::vector<std::vector<Cell>> maximal;
    for (size_t i = 0; i < key_versions.size(); ++i) {
      bool dominated = false;
      for (size_t j = 0; j < key_versions.size(); ++j) {
        if (lat.LtIndex(cls[i], cls[j])) {
          dominated = true;
          break;
        }
      }
      if (!dominated) maximal.push_back(key_versions[i]);
    }
    key_versions = std::move(maximal);
  }

  // Per non-key attribute: the classification-maximal candidate cells,
  // pooled across every visible version of the entity.
  std::vector<std::vector<Cell>> attr_choices(arity);
  for (size_t i = key_arity; i < arity; ++i) {
    std::vector<Cell> candidates;
    for (const Tuple* t : group) candidates.push_back(t->cells[i]);
    MULTILOG_ASSIGN_OR_RETURN(attr_choices[i],
                              MaximalCells(lat, std::move(candidates)));
    if (attr_choices[i].size() > 1) *conflict = true;
  }
  if (key_versions.size() > 1 && options.merge_key_versions) {
    *conflict = true;
  }

  // Cartesian assembly of one believed tuple per combination.
  std::vector<Tuple> assembled;
  for (const std::vector<Cell>& key_cells : key_versions) {
    std::vector<Tuple> partial(1);
    partial[0].cells = key_cells;
    for (size_t i = key_arity; i < arity; ++i) {
      std::vector<Tuple> next;
      for (const Tuple& p : partial) {
        for (const Cell& choice : attr_choices[i]) {
          Tuple extended = p;
          extended.cells.push_back(choice);
          next.push_back(std::move(extended));
        }
      }
      partial = std::move(next);
    }
    for (Tuple& t : partial) {
      t.tc = level;
      assembled.push_back(std::move(t));
    }
  }
  std::sort(assembled.begin(), assembled.end());
  assembled.erase(std::unique(assembled.begin(), assembled.end()),
                  assembled.end());

  // The assembled tuples may violate per-tuple entity integrity when a
  // maximal cell's class does not dominate the chosen key class (possible
  // across polyinstantiated key versions); such combinations are not
  // representable and are dropped, mirroring the paper's observation
  // that cautious views under partial orders may lose predictability.
  std::vector<Tuple> believed;
  believed.reserve(assembled.size());
  for (Tuple& t : assembled) {
    bool representable = true;
    MULTILOG_ASSIGN_OR_RETURN(size_t key_cls,
                              lat.Index(t.key_cell().classification));
    for (size_t i = key_arity; i < t.cells.size(); ++i) {
      MULTILOG_ASSIGN_OR_RETURN(size_t cell_cls,
                                lat.Index(t.cells[i].classification));
      if (!lat.LeqIndex(key_cls, cell_cls)) {
        representable = false;
        break;
      }
    }
    if (!representable) {
      *conflict = true;
      continue;
    }
    believed.push_back(std::move(t));
  }
  return believed;
}

Result<BeliefOutcome> BelieveCautious(const Relation& relation,
                                      const std::string& level,
                                      const BeliefOptions& options) {
  const lattice::SecurityLattice& lat = relation.lat();
  const size_t arity = relation.scheme().arity();
  const size_t key_arity = relation.scheme().key_arity();

  // Visible tuples, grouped by (possibly composite) key value in one
  // hashed pass; group processing order is irrelevant because the
  // per-group outputs are disjoint and globally re-sorted below.
  MULTILOG_ASSIGN_OR_RETURN(size_t level_index, lat.Index(level));
  std::unordered_map<std::vector<Value>, std::vector<const Tuple*>,
                     KeyVectorHash>
      groups;
  for (const Tuple& t : relation.tuples()) {
    MULTILOG_ASSIGN_OR_RETURN(size_t tc_index, lat.Index(t.tc));
    if (lat.LeqIndex(tc_index, level_index)) {
      groups[relation.KeyOf(t)].push_back(&t);
    }
  }

  bool conflict = false;
  std::vector<Tuple> believed;
  for (const auto& [key, group] : groups) {
    MULTILOG_ASSIGN_OR_RETURN(
        std::vector<Tuple> group_believed,
        CautiousGroup(lat, level, arity, key_arity, group, options,
                      &conflict));
    believed.insert(believed.end(),
                    std::make_move_iterator(group_believed.begin()),
                    std::make_move_iterator(group_believed.end()));
  }

  // Group outputs are disjoint (the key values name the group), so the
  // served order is a plain sort of the concatenation.
  std::sort(believed.begin(), believed.end());
  BeliefOutcome out{Relation(relation.scheme(), &relation.lat()), conflict};
  for (Tuple& t : believed) {
    MULTILOG_RETURN_IF_ERROR(out.relation.AppendDerived(std::move(t)));
  }
  return out;
}

}  // namespace

Result<BeliefOutcome> Believe(const Relation& relation,
                              const std::string& level, BeliefMode mode,
                              const BeliefOptions& options) {
  MULTILOG_RETURN_IF_ERROR(relation.lat().Index(level).status());
  switch (mode) {
    case BeliefMode::kFirm: {
      trace::Span span(trace::Stage::kBeliefFirm);
      return BelieveFirm(relation, level);
    }
    case BeliefMode::kOptimistic: {
      trace::Span span(trace::Stage::kBeliefOptimistic);
      return BelieveOptimistic(relation, level);
    }
    case BeliefMode::kCautious: {
      trace::Span span(trace::Stage::kBeliefCautious);
      return BelieveCautious(relation, level, options);
    }
  }
  return Status::Internal("unreachable belief mode");
}

Status BeliefModeRegistry::Register(const std::string& name,
                                    UserBeliefFn fn) {
  if (ParseBeliefMode(name).ok()) {
    return Status::InvalidArgument("cannot override built-in belief mode '" +
                                   name + "'");
  }
  if (user_modes_.count(name)) {
    return Status::InvalidArgument("belief mode '" + name +
                                   "' already registered");
  }
  user_modes_.emplace(name, std::move(fn));
  return Status::OK();
}

bool BeliefModeRegistry::Has(const std::string& name) const {
  return ParseBeliefMode(name).ok() || user_modes_.count(name) > 0;
}

Result<BeliefOutcome> BeliefModeRegistry::Believe(
    const Relation& relation, const std::string& level,
    const std::string& mode_name, const BeliefOptions& options) const {
  Result<BeliefMode> builtin = ParseBeliefMode(mode_name);
  if (builtin.ok()) {
    return mls::Believe(relation, level, builtin.value(), options);
  }
  auto it = user_modes_.find(mode_name);
  if (it == user_modes_.end()) {
    return Status::NotFound("unknown belief mode '" + mode_name + "'");
  }
  MULTILOG_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                            it->second(relation, level));
  BeliefOutcome out{Relation(relation.scheme(), &relation.lat()), false};
  for (Tuple& t : tuples) {
    MULTILOG_RETURN_IF_ERROR(out.relation.AppendDerived(std::move(t)));
  }
  return out;
}

std::vector<std::string> BeliefModeRegistry::ModeNames() const {
  std::vector<std::string> names = {"cau", "fir", "opt"};
  for (const auto& [name, fn] : user_modes_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace multilog::mls
