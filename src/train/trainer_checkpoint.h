#ifndef METABLINK_TRAIN_TRAINER_CHECKPOINT_H_
#define METABLINK_TRAIN_TRAINER_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "store/checkpoint.h"
#include "tensor/optimizer.h"
#include "tensor/parameter.h"
#include "train/epoch_loop.h"
#include "util/rng.h"
#include "util/status.h"

namespace metablink::train {

/// True when a checkpoint file exists at `path` — the trainers' "resume or
/// fresh start?" test, separate from load errors (a present-but-corrupt
/// file must fail the run, not silently restart it).
bool CheckpointExists(const std::string& path);

/// Reads and integrity-checks the trainer checkpoint container at `path`
/// (see store::CheckpointReader). Every trainer resume reads its file here.
util::Result<store::CheckpointReader> ReadTrainerCheckpoint(
    const std::string& path);

/// Appends the sections every trainer checkpoint ends with: the model
/// parameters ("model_params"), the optimizer state ("optimizer") and the
/// Rng stream ("rng").
void SaveTrainingState(const tensor::ParameterStore& params,
                       const tensor::Optimizer& optimizer,
                       const util::Rng& rng, store::CheckpointWriter* ckpt);

/// Restores what SaveTrainingState wrote, all or nothing: every section is
/// parsed and checked against `params` before any of `params`,
/// `optimizer` or `rng` is written, so a failed resume leaves the caller's
/// trainer exactly as it was.
util::Status LoadTrainingState(const store::CheckpointReader& ckpt,
                               tensor::ParameterStore* params,
                               tensor::Optimizer* optimizer, util::Rng* rng);

/// Epoch-granular state shared by the supervised bi-/cross-encoder
/// trainers, which checkpoint at epoch boundaries. The Rng stream and the
/// in-flight shuffle order are part of the state: epoch e+1 shuffles the
/// order left by epoch e, so a resumed run replays the remaining epochs
/// bit-identically to an uninterrupted one.
struct EpochCheckpointState {
  std::size_t next_epoch = 0;
  std::vector<std::uint64_t> order;
  TrainResult result;
};

/// Writes the full trainer state (loop counters + model parameters +
/// optimizer moments + Rng stream) as one framed container, crash-safely.
/// `tag` namespaces the trainer type so a bi-encoder run can't resume from
/// a cross-encoder file.
util::Status SaveEpochCheckpoint(std::uint32_t tag,
                                 const EpochCheckpointState& state,
                                 const tensor::ParameterStore& params,
                                 const tensor::Optimizer& optimizer,
                                 const util::Rng& rng,
                                 const std::string& path);

/// Restores what SaveEpochCheckpoint wrote, loading parameters, optimizer
/// moments, and the Rng stream in place (LoadTrainingState: on any error
/// none of them changes). Wrong tag → InvalidArgument; corruption → the
/// container's kOutOfRange / kDataLoss.
util::Result<EpochCheckpointState> LoadEpochCheckpoint(
    std::uint32_t tag, const std::string& path,
    tensor::ParameterStore* params, tensor::Optimizer* optimizer,
    util::Rng* rng);

}  // namespace metablink::train

#endif  // METABLINK_TRAIN_TRAINER_CHECKPOINT_H_
