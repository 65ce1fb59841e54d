#ifndef WIREBENCH_SIGMA_GEN_H_
#define WIREBENCH_SIGMA_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wirebench {

/// The diamond lattice every workload runs on: u < c1, c2 < s, with c1
/// and c2 incomparable, so cautious belief at s weighs two cover stories
/// that neither side dominates.
inline constexpr const char* kLevels[] = {"u", "c1", "c2", "s"};
inline constexpr size_t kNumLevels = 4;
inline constexpr const char* kModes[] = {"fir", "opt", "cau"};
inline constexpr size_t kNumModes = 3;

/// splitmix64: a fixed, platform-independent sequence for a seed (the
/// std distributions are implementation-defined, so they are not used).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// Mixes a run seed with a stream label so every connection of every
/// workload draws its own reproducible sequence.
uint64_t SubSeed(uint64_t seed, const std::string& label);

struct SigmaSpec {
  /// Base entity keys k0 .. k{keys-1}; no writer ever touches them, so
  /// every answer about them is fixed for the whole run.
  size_t keys = 0;
  /// Share of base keys whose group is polyinstantiated: a u-level
  /// cover story plus a higher-classified value for the same attribute
  /// (some at both incomparable levels c1 and c2), so cautious
  /// overriding has real work to do.
  double cover_share = 0.3;
  /// link/2 chains of chain_len nodes for the recursive p-predicate
  /// reach/2 (0 = none).
  size_t chains = 0;
  size_t chain_len = 0;
  /// Committer sessions and the u-level keys each one owns exclusively.
  size_t writers = 0;
  size_t keys_per_writer = 0;
};

/// One writer-owned key: its single fact (written and withdrawn
/// verbatim, so polyinstantiation integrity always holds) and whether
/// the generated Sigma starts with it present.
struct WriterKey {
  std::string fact;
  bool present = false;
};

struct Sigma {
  std::string source;  // the complete .mlog text the daemons load
  std::vector<std::vector<WriterKey>> writer_keys;  // [writer][i]
};

/// Generates the database for `spec` from `seed`. Same seed, same
/// bytes; the levels, values and cover stories are drawn from the seed.
Sigma GenerateSigma(const SigmaSpec& spec, uint64_t seed);

/// The op texts the load generator sends.
std::string ReadGoal(size_t key, const std::string& level, const char* mode);
std::string ScanGoal(const std::string& level, const char* mode);
std::string ReachGoal(size_t chain, size_t pos);

}  // namespace wirebench

#endif  // WIREBENCH_SIGMA_GEN_H_
