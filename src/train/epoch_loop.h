#ifndef METABLINK_TRAIN_EPOCH_LOOP_H_
#define METABLINK_TRAIN_EPOCH_LOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tensor/graph.h"
#include "tensor/parameter.h"
#include "util/status.h"

namespace metablink::train {

/// Shared trainer knobs.
struct TrainOptions {
  /// Examples per step of the bi-encoder and DL4EL trainers. The
  /// cross-encoder trainer steps one instance at a time whatever this says.
  std::size_t batch_size = 32;
  std::size_t epochs = 3;
  float learning_rate = 0.01f;
  std::uint64_t seed = 7;
  /// Optional cap on total optimization steps (0 = no cap).
  std::size_t max_steps = 0;
  /// When non-empty, Train() writes its full state (model parameters,
  /// optimizer moments, Rng stream, loop counters) to this path at every
  /// epoch boundary and auto-resumes from it when the file already exists,
  /// replaying the remaining epochs bit-identically to an uninterrupted
  /// run. A present-but-corrupt file fails the run instead of restarting.
  std::string checkpoint_path{};
};

/// Summary returned by trainers.
struct TrainResult {
  std::size_t steps = 0;
  double final_epoch_loss = 0.0;
  std::vector<double> epoch_losses;
};

/// What one supervised trainer plugs into RunEpochLoop.
struct EpochLoop {
  /// Namespaces this trainer's checkpoints (see SaveEpochCheckpoint).
  std::uint32_t tag = 0;
  /// Seed of the shuffle Rng.
  std::uint64_t seed = 0;
  std::size_t num_records = 0;
  /// Records per step; an epoch's last step takes what is left.
  std::size_t step_rows = 1;
  /// The step's [n,1] loss column over the records at `rows` (indices in
  /// shuffled order), built on `graph`; an invalid Var skips the step.
  std::function<tensor::Var(tensor::Graph* graph,
                            const std::vector<std::size_t>& rows)>
      losses;
  /// The step's backward seed from its loss values, summing to 1; when
  /// unset, every row weighs 1/n.
  std::function<std::vector<float>(const std::vector<float>& losses)>
      weights;
};

/// The one epoch loop of the supervised trainers: Adam over
/// `options.epochs` shuffles of the records, stepping on each weighted
/// loss column (BackwardWithSeed), stopping after `options.max_steps`
/// steps, and linting the first step's graph. An epoch's loss is the mean
/// over its steps of the weighted step loss. With `options.checkpoint_path`
/// it saves at every epoch boundary under `loop.tag` and resumes from an
/// existing file (see TrainOptions). It returns with `params`' gradient
/// buffers released.
util::Result<TrainResult> RunEpochLoop(const EpochLoop& loop,
                                       const TrainOptions& options,
                                       tensor::ParameterStore* params);

}  // namespace metablink::train

#endif  // METABLINK_TRAIN_EPOCH_LOOP_H_
