#include "sigma_gen.h"

#include <utility>
#include <vector>

namespace wirebench {

namespace {

std::string Key(size_t i) { return "k" + std::to_string(i); }

std::string Node(size_t chain, size_t pos) {
  return "n" + std::to_string(chain) + "_" + std::to_string(pos);
}

/// `level[acct(key : id -u-> key, tier -level-> tier)]`, plus a zone
/// cell on base facts. The key cell is classified u (Definition 5.4:
/// every other cell dominates c_AK).
std::string AcctFact(const std::string& level, const std::string& key,
                     size_t tier, int zone) {
  std::string f = level + "[acct(" + key + " : id -u-> " + key + ", tier -" +
                  level + "-> t" + std::to_string(tier);
  if (zone >= 0) f += ", zone -" + level + "-> z" + std::to_string(zone);
  return f + ")].";
}

/// Fisher-Yates with the benchmark's own generator (std::shuffle's
/// draw pattern is implementation-defined).
void Shuffle(std::vector<size_t>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

}  // namespace

uint64_t SubSeed(uint64_t seed, const std::string& label) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the label
  for (char c : label) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  Rng rng(seed ^ h);
  return rng.Next();
}

Sigma GenerateSigma(const SigmaSpec& spec, uint64_t seed) {
  Rng rng(SubSeed(seed, "sigma"));
  Sigma out;
  std::string& src = out.source;
  src.reserve(spec.keys * 120 + 4096);
  src +=
      "% wirebench Sigma: diamond lattice, polyinstantiated cover stories.\n"
      "level(u). level(c1). level(c2). level(s).\n"
      "order(u, c1). order(u, c2). order(c1, s). order(c2, s).\n";
  // Each key's shape (cover story or not, and at which levels) comes
  // from a seeded shuffle of a fixed multiset: every seed yields the
  // same number of facts per level, only placed and valued differently.
  static constexpr const char* kBaseLevel[] = {"u",  "u",  "u",  "u",  "u",
                                               "c1", "c1", "c2", "c2", "s"};
  const size_t covers =
      static_cast<size_t>(static_cast<double>(spec.keys) * spec.cover_share);
  std::vector<size_t> shape(spec.keys);
  for (size_t i = 0; i < spec.keys; ++i) {
    shape[i] = i < covers ? i % 4 : 4 + i % 10;
  }
  Shuffle(&shape, &rng);
  for (size_t i = 0; i < spec.keys; ++i) {
    const std::string key = Key(i);
    const size_t tier = rng.Below(16);
    const int zone = static_cast<int>(rng.Below(8));
    if (shape[i] < 4) {
      // Cover story at u; the true value sits higher. A different tier
      // per level keeps the (key, attribute, classification) -> value
      // dependency of Definition 5.4 intact.
      src += AcctFact("u", key, tier, zone) + "\n";
      switch (shape[i]) {
        case 0:
          src += AcctFact("c1", key, tier + 16, -1) + "\n";
          break;
        case 1:
          src += AcctFact("c2", key, tier + 16, -1) + "\n";
          break;
        case 2:
          src += AcctFact("s", key, tier + 16, -1) + "\n";
          break;
        default:
          src += AcctFact("c1", key, tier + 16, -1) + "\n";
          src += AcctFact("c2", key, tier + 32, -1) + "\n";
          break;
      }
    } else {
      // Unpolyinstantiated key at a level weighted towards u.
      src += AcctFact(kBaseLevel[shape[i] - 4], key, tier, zone) + "\n";
    }
  }
  // A replicated, key-local, anchored rule: derived s-level cells for
  // every key u believes cautiously (shardable; see sharding/routing.h).
  src += "s[acct(K : vet -u-> yes)] :- u[acct(K : id -u-> K)] << cau.\n";

  if (spec.chains > 0) {
    src += "reach(X, Y) :- link(X, Y).\n";
    src += "reach(X, Y) :- link(X, Z), reach(Z, Y).\n";
    for (size_t c = 0; c < spec.chains; ++c) {
      for (size_t j = 0; j + 1 < spec.chain_len; ++j) {
        src += "link(" + Node(c, j) + ", " + Node(c, j + 1) + ").\n";
      }
    }
  }

  out.writer_keys.resize(spec.writers);
  for (size_t w = 0; w < spec.writers; ++w) {
    // Exactly half of each committer's keys start present.
    std::vector<size_t> present(spec.keys_per_writer);
    for (size_t i = 0; i < present.size(); ++i) present[i] = i % 2;
    Shuffle(&present, &rng);
    for (size_t i = 0; i < spec.keys_per_writer; ++i) {
      WriterKey wk;
      const std::string key = "w" + std::to_string(w) + "_" + std::to_string(i);
      wk.fact = AcctFact("u", key, rng.Below(16), -1);
      wk.present = present[i] == 1;
      if (wk.present) src += wk.fact + "\n";
      out.writer_keys[w].push_back(std::move(wk));
    }
  }
  return out;
}

std::string ReadGoal(size_t key, const std::string& level, const char* mode) {
  return "?- " + level + "[acct(" + Key(key) + " : tier -C-> V)] << " + mode +
         ".";
}

std::string ScanGoal(const std::string& level, const char* mode) {
  return "?- " + level + "[acct(K : tier -C-> V)] << " + mode + ".";
}

std::string ReachGoal(size_t chain, size_t pos) {
  return "?- reach(" + Node(chain, pos) + ", Y).";
}

}  // namespace wirebench
