#ifndef METABLINK_BENCH_EXPERIMENT_COMMON_H_
#define METABLINK_BENCH_EXPERIMENT_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/example.h"
#include "data/generator.h"
#include "eval/evaluator.h"

namespace metablink::bench {

/// Experiment scale factor, from METABLINK_SCALE (default 0.5). All entity
/// and example counts of the paper-shaped corpus multiply by this.
double ExperimentScale();

/// Base RNG seed, from METABLINK_SEED (default 42).
std::uint64_t ExperimentSeed();

// ---- Timers, gates and the host record of the trajectory benches ---------

using Clock = std::chrono::steady_clock;

/// Wall milliseconds since `t0`.
double MsSince(Clock::time_point t0);

/// Nearest-rank percentile of `v` (p in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);

/// Prints one "gate <what> PASS|FAIL" line; a failure clears GatesOk().
void Gate(bool ok, const char* what);

/// False once any Gate in this process failed.
bool GatesOk();

/// Writes the `"host": {"cpu": ..., "nproc": ...}` line of a bench JSON:
/// the CPU model line of /proc/cpuinfo ("unknown" where there is none), so
/// a bench JSON can be compared with one from another host.
/// `extra_fields` (e.g. `, "crc32": "pclmul"`) goes in before the closing
/// brace, for the kernels each bench dispatches.
void WriteHostJson(std::FILE* f, const std::string& extra_fields = "");

/// Generates the 16-domain paper corpus at `scale`.
data::Corpus BuildPaperCorpus(double scale, std::uint64_t seed);

/// Everything the experiment benches need about one target domain.
struct DomainContext {
  std::string domain;
  data::DomainSplit split;  // 50 train (seed) / 50 dev / rest test
  std::vector<data::LinkingExample> exact;     // exact-match pairs
  std::vector<data::LinkingExample> syn;       // rewritten (eq. 2)
  std::vector<data::LinkingExample> syn_star;  // domain-adapted rewrites
};

/// Shared state across a bench binary: the corpus and a rewriter trained on
/// the 8 source domains.
class ExperimentWorld {
 public:
  /// Builds the corpus at scale/seed and trains the mention rewriter on the
  /// paper's 8 training domains.
  ExperimentWorld(double scale, std::uint64_t seed);

  const data::Corpus& corpus() const { return corpus_; }

  /// Builds the context (split + weak supervision data) for one domain.
  DomainContext MakeDomainContext(const std::string& domain);

  /// Gold examples of the 8 training domains pooled ("general" data).
  std::vector<data::LinkingExample> GeneralData() const;

  /// A fresh pipeline with default experiment configuration.
  std::unique_ptr<core::MetaBlinkPipeline> MakePipeline() const;

  core::PipelineConfig DefaultConfig() const;

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  data::Corpus corpus_;
};

// ---- Method runners. All evaluate on `test` with the two-stage protocol. --

/// Plain BLINK: supervised bi+cross on `training_data`.
eval::EvalResult RunBlink(const ExperimentWorld& world,
                          const std::string& domain,
                          const std::vector<data::LinkingExample>&
                              training_data,
                          const std::vector<data::LinkingExample>& test);

/// DL4EL baseline on `training_data`.
eval::EvalResult RunDl4el(const ExperimentWorld& world,
                          const std::string& domain,
                          const std::vector<data::LinkingExample>&
                              training_data,
                          const std::vector<data::LinkingExample>& test);

/// MetaBLINK: Algorithm 1/2 with `synthetic` reweighted under `seed_set`.
/// When `pretrain` is non-empty the encoders are first trained supervised
/// on it (used by the zero-shot transfer experiments: pretrain = general).
eval::EvalResult RunMetaBlink(const ExperimentWorld& world,
                              const std::string& domain,
                              const std::vector<data::LinkingExample>&
                                  synthetic,
                              const std::vector<data::LinkingExample>&
                                  seed_set,
                              const std::vector<data::LinkingExample>& test,
                              const std::vector<data::LinkingExample>&
                                  pretrain = {});

/// Name Matching baseline accuracy (U.Acc equivalent).
double RunNameMatching(const ExperimentWorld& world, const std::string& domain,
                       const std::vector<data::LinkingExample>& test);

// ---- Table formatting ------------------------------------------------------

/// Prints "name    R@64  N.Acc  U.Acc   (paper: ...)" style rows.
void PrintHeader(const std::string& title);
void PrintRow(const std::string& method, const std::string& data,
              const eval::EvalResult& r, const char* paper_note = nullptr);
void PrintScalarRow(const std::string& method, const std::string& data,
                    double value, const char* paper_note = nullptr);

}  // namespace metablink::bench

#endif  // METABLINK_BENCH_EXPERIMENT_COMMON_H_
