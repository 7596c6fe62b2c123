#include "train/trainer_checkpoint.h"

#include <sys/stat.h>

#include <array>
#include <string>

namespace metablink::train {

namespace {

// A stored count of 8-byte values must fit in the bytes left, so a crafted
// count is a Status before it sizes an allocation.
util::Status CheckCount(std::uint64_t count, const util::BinaryReader& r,
                        const char* what) {
  if (count > r.Remaining() / 8) {
    return util::Status::OutOfRange(std::string("truncated trainer ") + what);
  }
  return util::Status::OK();
}

}  // namespace

bool CheckpointExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

util::Result<store::CheckpointReader> ReadTrainerCheckpoint(
    const std::string& path) {
  return store::CheckpointReader::FromFile(path);
}

void SaveTrainingState(const tensor::ParameterStore& params,
                       const tensor::Optimizer& optimizer,
                       const util::Rng& rng, store::CheckpointWriter* ckpt) {
  params.Save(ckpt->AddSection("model_params"));
  optimizer.Save(params, ckpt->AddSection("optimizer"));
  util::BinaryWriter* w = ckpt->AddSection("rng");
  for (std::uint64_t word : rng.state()) w->WriteU64(word);
}

util::Status LoadTrainingState(const store::CheckpointReader& ckpt,
                               tensor::ParameterStore* params,
                               tensor::Optimizer* optimizer, util::Rng* rng) {
  auto model_params = ckpt.Section("model_params");
  if (!model_params.ok()) return model_params.status();
  auto opt = ckpt.Section("optimizer");
  if (!opt.ok()) return opt.status();
  auto rng_section = ckpt.Section("rng");
  if (!rng_section.ok()) return rng_section.status();
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& word : rng_state) {
    METABLINK_RETURN_IF_ERROR(rng_section->ReadU64(&word));
  }
  // The parameters are checked before the optimizer commits; each Load
  // leaves its target untouched on failure, and the parameter one cannot
  // fail once its section has passed this check.
  METABLINK_RETURN_IF_ERROR(
      tensor::ParameterStore::CheckSaved(*model_params, params->Shapes()));
  METABLINK_RETURN_IF_ERROR(optimizer->Load(*params, &*opt));
  METABLINK_RETURN_IF_ERROR(params->Load(&*model_params));
  rng->set_state(rng_state);
  return util::Status::OK();
}

util::Status SaveEpochCheckpoint(std::uint32_t tag,
                                 const EpochCheckpointState& state,
                                 const tensor::ParameterStore& params,
                                 const tensor::Optimizer& optimizer,
                                 const util::Rng& rng,
                                 const std::string& path) {
  store::CheckpointWriter ckpt;
  util::BinaryWriter* w = ckpt.AddSection("trainer");
  w->WriteU32(tag);
  w->WriteU64(state.next_epoch);
  w->WriteU64(state.order.size());
  for (std::uint64_t idx : state.order) w->WriteU64(idx);
  w->WriteU64(state.result.steps);
  w->WriteF64(state.result.final_epoch_loss);
  w->WriteU64(state.result.epoch_losses.size());
  for (double loss : state.result.epoch_losses) w->WriteF64(loss);
  SaveTrainingState(params, optimizer, rng, &ckpt);
  return ckpt.WriteToFile(path);
}

util::Result<EpochCheckpointState> LoadEpochCheckpoint(
    std::uint32_t tag, const std::string& path,
    tensor::ParameterStore* params, tensor::Optimizer* optimizer,
    util::Rng* rng) {
  auto ckpt = ReadTrainerCheckpoint(path);
  if (!ckpt.ok()) return ckpt.status();

  auto trainer = ckpt->Section("trainer");
  if (!trainer.ok()) return trainer.status();
  std::uint32_t stored_tag = 0;
  METABLINK_RETURN_IF_ERROR(trainer->ReadU32(&stored_tag));
  if (stored_tag != tag) {
    return util::Status::InvalidArgument(
        "checkpoint was written by a different trainer type: " + path);
  }
  EpochCheckpointState state;
  std::uint64_t next_epoch = 0;
  METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&next_epoch));
  state.next_epoch = static_cast<std::size_t>(next_epoch);
  std::uint64_t order_size = 0;
  METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&order_size));
  METABLINK_RETURN_IF_ERROR(CheckCount(order_size, *trainer, "order"));
  state.order.resize(static_cast<std::size_t>(order_size));
  for (std::uint64_t& idx : state.order) {
    METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&idx));
  }
  std::uint64_t steps = 0;
  METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&steps));
  state.result.steps = static_cast<std::size_t>(steps);
  METABLINK_RETURN_IF_ERROR(trainer->ReadF64(&state.result.final_epoch_loss));
  std::uint64_t num_losses = 0;
  METABLINK_RETURN_IF_ERROR(trainer->ReadU64(&num_losses));
  METABLINK_RETURN_IF_ERROR(
      CheckCount(num_losses, *trainer, "epoch_losses"));
  state.result.epoch_losses.resize(static_cast<std::size_t>(num_losses));
  for (double& loss : state.result.epoch_losses) {
    METABLINK_RETURN_IF_ERROR(trainer->ReadF64(&loss));
  }

  METABLINK_RETURN_IF_ERROR(LoadTrainingState(*ckpt, params, optimizer, rng));
  return state;
}

}  // namespace metablink::train
