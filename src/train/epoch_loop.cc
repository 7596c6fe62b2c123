#include "train/epoch_loop.h"

#include <algorithm>
#include <numeric>

#include "analysis/graph_lint.h"
#include "tensor/optimizer.h"
#include "train/trainer_checkpoint.h"
#include "util/logging.h"
#include "util/rng.h"

namespace metablink::train {

util::Result<TrainResult> RunEpochLoop(const EpochLoop& loop,
                                       const TrainOptions& options,
                                       tensor::ParameterStore* params) {
  util::Rng rng(loop.seed);
  tensor::AdamOptimizer optimizer(options.learning_rate);
  const tensor::ReleaseGradsOnExit release_grads(params);
  TrainResult result;

  std::vector<std::size_t> order(loop.num_records);
  std::iota(order.begin(), order.end(), 0);

  std::size_t start_epoch = 0;
  if (!options.checkpoint_path.empty() &&
      CheckpointExists(options.checkpoint_path)) {
    auto state = LoadEpochCheckpoint(loop.tag, options.checkpoint_path,
                                     params, &optimizer, &rng);
    if (!state.ok()) return state.status();
    if (state->order.size() != order.size()) {
      return util::Status::InvalidArgument(
          "checkpoint shuffle order does not match the training set size");
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::size_t>(state->order[i]);
    }
    start_epoch = state->next_epoch;
    result = std::move(state->result);
  }

  const auto capped = [&] {
    return options.max_steps > 0 && result.steps >= options.max_steps;
  };
  std::vector<std::size_t> rows;
  std::vector<float> values;
  for (std::size_t epoch = start_epoch; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    std::size_t epoch_steps = 0;
    for (std::size_t begin = 0; begin < order.size();
         begin += loop.step_rows) {
      const std::size_t end = std::min(order.size(), begin + loop.step_rows);
      rows.assign(order.begin() + begin, order.begin() + end);
      tensor::Graph graph;
      const tensor::Var losses = loop.losses(&graph, rows);
      if (!losses.valid()) continue;
      if (result.steps == 0) {
        // First-step graph lint; see meta_trainer.h for the rationale.
        const analysis::LintReport lint = analysis::LintGraph(graph, losses);
        METABLINK_CHECK(lint.ok())
            << "training graph failed lint:\n" << lint.Summary();
      }
      const tensor::Tensor& column = graph.value(losses);
      values.resize(column.rows());
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = column.at(i, 0);
      }
      const std::vector<float> weights =
          loop.weights ? loop.weights(values)
                       : std::vector<float>(values.size(),
                                            1.0f / values.size());
      // Seeding each loss row with its weight backpropagates the weighted
      // mean without extra graph nodes.
      params->ZeroGrads();
      graph.BackwardWithSeed(losses, weights);
      optimizer.Step(params);

      double step_loss = 0.0;
      for (std::size_t i = 0; i < values.size(); ++i) {
        step_loss += values[i] * weights[i];
      }
      epoch_loss += step_loss;
      ++epoch_steps;
      ++result.steps;
      if (capped()) break;
    }
    if (epoch_steps > 0) {
      result.epoch_losses.push_back(epoch_loss /
                                    static_cast<double>(epoch_steps));
      result.final_epoch_loss = result.epoch_losses.back();
    }
    if (!options.checkpoint_path.empty()) {
      EpochCheckpointState state;
      state.next_epoch = epoch + 1;
      state.order.assign(order.begin(), order.end());
      state.result = result;
      METABLINK_RETURN_IF_ERROR(SaveEpochCheckpoint(
          loop.tag, state, *params, optimizer, rng, options.checkpoint_path));
    }
    if (capped()) break;
  }
  return result;
}

}  // namespace metablink::train
