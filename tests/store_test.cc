#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <tuple>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "data/generator.h"
#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cross_encoder.h"
#include "retrieval/dense_index.h"
#include "store/checkpoint.h"
#include "store/model_bundle.h"
#include "train/bi_trainer.h"
#include "train/cross_trainer.h"
#include "train/dl4el_trainer.h"
#include "train/meta_trainer.h"
#include "train/trainer_checkpoint.h"
#include "util/serialize.h"

namespace metablink::store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "metablink_store_" + name;
}

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool FileExists(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// ---- Container framing -----------------------------------------------------

std::vector<std::uint8_t> TwoSectionContainer() {
  CheckpointWriter ckpt;
  util::BinaryWriter* a = ckpt.AddSection("alpha");
  a->WriteU64(42);
  a->WriteString("hello");
  util::BinaryWriter* b = ckpt.AddSection("beta");
  b->WriteFloatVector({1.0f, 2.5f, -3.0f});
  return ckpt.Serialize();
}

TEST(CheckpointContainerTest, RoundTrip) {
  auto reader = CheckpointReader::Parse(TwoSectionContainer());
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_EQ(reader->version(), kCheckpointVersion);
  EXPECT_TRUE(reader->Has("alpha"));
  EXPECT_TRUE(reader->Has("beta"));
  EXPECT_FALSE(reader->Has("gamma"));
  auto alpha = reader->Section("alpha");
  ASSERT_TRUE(alpha.ok());
  std::uint64_t v = 0;
  std::string s;
  ASSERT_TRUE(alpha->ReadU64(&v).ok());
  ASSERT_TRUE(alpha->ReadString(&s).ok());
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(s, "hello");
  auto beta = reader->Section("beta");
  ASSERT_TRUE(beta.ok());
  std::vector<float> floats;
  ASSERT_TRUE(beta->ReadFloatVector(&floats).ok());
  EXPECT_EQ(floats, (std::vector<float>{1.0f, 2.5f, -3.0f}));
  EXPECT_EQ(reader->Section("gamma").status().code(),
            util::StatusCode::kNotFound);
}

TEST(CheckpointContainerTest, EveryPrefixTruncationIsCleanlyRejected) {
  const std::vector<std::uint8_t> full = TwoSectionContainer();
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> cut(full.begin(), full.begin() + len);
    auto reader = CheckpointReader::Parse(std::move(cut));
    ASSERT_FALSE(reader.ok()) << "prefix of length " << len << " parsed";
    const util::StatusCode code = reader.status().code();
    EXPECT_TRUE(code == util::StatusCode::kOutOfRange ||
                code == util::StatusCode::kInvalidArgument)
        << "prefix " << len << ": " << reader.status().message();
  }
}

TEST(CheckpointContainerTest, EverySingleBitFlipIsDetected) {
  const std::vector<std::uint8_t> full = TwoSectionContainer();
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> flipped = full;
      flipped[byte] ^= bit;
      auto reader = CheckpointReader::Parse(std::move(flipped));
      EXPECT_FALSE(reader.ok())
          << "bit flip at byte " << byte << " went undetected";
    }
  }
}

TEST(CheckpointContainerTest, TrailingGarbageIsDataLoss) {
  std::vector<std::uint8_t> bytes = TwoSectionContainer();
  bytes.push_back(0x00);
  auto reader = CheckpointReader::Parse(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kDataLoss);
}

TEST(CheckpointContainerTest, FutureVersionIsRejected) {
  std::vector<std::uint8_t> bytes = TwoSectionContainer();
  // Bytes 4..7 are the little-endian format version.
  bytes[4] = static_cast<std::uint8_t>(kCheckpointVersion + 1);
  auto reader = CheckpointReader::Parse(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(CheckpointContainerTest, SectionReaderOutlivesItsContainer) {
  // Sections are views into the container's buffer; a section reader
  // keeps that buffer alive after the CheckpointReader is destroyed.
  std::optional<util::BinaryReader> alpha;
  {
    auto reader = CheckpointReader::Parse(TwoSectionContainer());
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    auto section = reader->Section("alpha");
    ASSERT_TRUE(section.ok());
    alpha.emplace(std::move(*section));
  }
  std::uint64_t v = 0;
  std::string s;
  ASSERT_TRUE(alpha->ReadU64(&v).ok());
  ASSERT_TRUE(alpha->ReadString(&s).ok());
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(alpha->AtEnd());  // the view ends at its own section
}

TEST(CheckpointContainerTest, AtomicWriteReplacesAndFailsCleanly) {
  const std::string path = TempPath("atomic.ckpt");
  CheckpointWriter first;
  first.AddSection("s")->WriteU64(1);
  ASSERT_TRUE(first.WriteToFile(path).ok());
  CheckpointWriter second;
  second.AddSection("s")->WriteU64(2);
  ASSERT_TRUE(second.WriteToFile(path).ok());
  auto reader = CheckpointReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  std::uint64_t v = 0;
  ASSERT_TRUE(reader->Section("s")->ReadU64(&v).ok());
  EXPECT_EQ(v, 2u);
  std::remove(path.c_str());

  // A write into a directory that does not exist fails with a Status and
  // leaves nothing behind (no destination file, no stray temp file).
  const std::string bad = TempPath("no_such_dir") + "/x.ckpt";
  EXPECT_FALSE(second.WriteToFile(bad).ok());
  EXPECT_FALSE(FileExists(bad));
  EXPECT_FALSE(FileExists(bad + ".tmp"));
}

// ---- Shared fixture: a small corpus + freshly initialized models -----------

model::BiEncoderConfig SmallBiConfig() {
  model::BiEncoderConfig config;
  config.features.hasher.num_buckets = 2048;
  config.dim = 16;
  return config;
}

model::CrossEncoderConfig SmallCrossConfig() {
  model::CrossEncoderConfig config;
  config.features.hasher.num_buckets = 2048;
  config.dim = 16;
  config.hidden = 16;
  return config;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorOptions opts;
    opts.seed = 91;
    opts.shared_vocab_size = 300;
    opts.domain_vocab_size = 150;
    data::ZeshelLikeGenerator gen(opts);
    std::vector<data::DomainSpec> specs(1);
    specs[0].name = "target";
    specs[0].num_entities = 60;
    specs[0].num_examples = 120;
    corpus_ = std::make_unique<data::Corpus>(std::move(*gen.Generate(specs)));
    examples_ = corpus_->ExamplesIn("target");
  }

  std::unique_ptr<model::BiEncoder> MakeBi(std::uint64_t seed = 5) const {
    util::Rng rng(seed);
    return std::make_unique<model::BiEncoder>(SmallBiConfig(), &rng);
  }

  std::unique_ptr<model::CrossEncoder> MakeCross(std::uint64_t seed = 6) const {
    util::Rng rng(seed);
    return std::make_unique<model::CrossEncoder>(SmallCrossConfig(), &rng);
  }

  /// Cross instances without a retrieval stage: each example gets a fixed
  /// 4-candidate window over the domain with the gold patched in.
  std::vector<train::CrossInstance> MakeCrossInstances() const {
    const auto& ids = corpus_->kb.EntitiesInDomain("target");
    std::vector<train::CrossInstance> out;
    for (std::size_t i = 0; i < 40; ++i) {
      train::CrossInstance inst;
      inst.example = examples_[i];
      for (std::size_t c = 0; c < 4; ++c) {
        inst.candidates.push_back(ids[(i + c) % ids.size()]);
      }
      inst.candidates[0] = inst.example.entity_id;
      inst.gold_index = 0;
      out.push_back(std::move(inst));
    }
    return out;
  }

  std::unique_ptr<data::Corpus> corpus_;
  std::vector<data::LinkingExample> examples_;
};

// ---- Trainer resume --------------------------------------------------------

TEST_F(StoreTest, BiTrainerResumeIsBitIdentical) {
  train::TrainOptions straight;
  straight.epochs = 3;
  straight.batch_size = 16;
  straight.seed = 21;
  auto reference = MakeBi();
  ASSERT_TRUE(train::BiEncoderTrainer(straight)
                  .Train(reference.get(), corpus_->kb, examples_)
                  .ok());

  // "Kill" after one epoch, then a brand-new trainer resumes from the file.
  const std::string path = TempPath("bi_resume.ckpt");
  std::remove(path.c_str());
  auto resumed = MakeBi();
  train::TrainOptions first = straight;
  first.epochs = 1;
  first.checkpoint_path = path;
  ASSERT_TRUE(train::BiEncoderTrainer(first)
                  .Train(resumed.get(), corpus_->kb, examples_)
                  .ok());
  train::TrainOptions rest = straight;
  rest.checkpoint_path = path;
  auto result = train::BiEncoderTrainer(rest).Train(resumed.get(),
                                                    corpus_->kb, examples_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->epoch_losses.size(), 3u);
  EXPECT_EQ(reference->params()->ValuesCrc32(),
            resumed->params()->ValuesCrc32());
  std::remove(path.c_str());
}

TEST_F(StoreTest, CrossTrainerResumeIsBitIdentical) {
  const std::vector<train::CrossInstance> instances = MakeCrossInstances();
  train::TrainOptions straight;
  straight.epochs = 3;
  straight.seed = 22;
  auto reference = MakeCross();
  ASSERT_TRUE(train::CrossEncoderTrainer(straight)
                  .Train(reference.get(), corpus_->kb, instances)
                  .ok());

  const std::string path = TempPath("cross_resume.ckpt");
  std::remove(path.c_str());
  auto resumed = MakeCross();
  train::TrainOptions first = straight;
  first.epochs = 2;
  first.checkpoint_path = path;
  ASSERT_TRUE(train::CrossEncoderTrainer(first)
                  .Train(resumed.get(), corpus_->kb, instances)
                  .ok());
  train::TrainOptions rest = straight;
  rest.checkpoint_path = path;
  ASSERT_TRUE(train::CrossEncoderTrainer(rest)
                  .Train(resumed.get(), corpus_->kb, instances)
                  .ok());
  EXPECT_EQ(reference->params()->ValuesCrc32(),
            resumed->params()->ValuesCrc32());
  std::remove(path.c_str());
}

TEST_F(StoreTest, Dl4elTrainerResumeIsBitIdentical) {
  train::Dl4elOptions straight;
  straight.train.epochs = 3;
  straight.train.batch_size = 16;
  straight.train.seed = 24;
  auto reference = MakeBi();
  ASSERT_TRUE(train::Dl4elTrainer(straight)
                  .Train(reference.get(), corpus_->kb, examples_)
                  .ok());

  const std::string path = TempPath("dl4el_resume.ckpt");
  std::remove(path.c_str());
  auto resumed = MakeBi();
  train::Dl4elOptions first = straight;
  first.train.epochs = 1;
  first.train.checkpoint_path = path;
  ASSERT_TRUE(train::Dl4elTrainer(first)
                  .Train(resumed.get(), corpus_->kb, examples_)
                  .ok());
  EXPECT_NE(reference->params()->ValuesCrc32(),
            resumed->params()->ValuesCrc32());
  train::Dl4elOptions rest = straight;
  rest.train.checkpoint_path = path;
  auto result = train::Dl4elTrainer(rest).Train(resumed.get(), corpus_->kb,
                                                examples_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->epoch_losses.size(), 3u);
  EXPECT_EQ(reference->params()->ValuesCrc32(),
            resumed->params()->ValuesCrc32());
  std::remove(path.c_str());
}

TEST_F(StoreTest, TrainerRejectsAnotherTrainersCheckpoint) {
  // A bi-encoder checkpoint handed to the DL4EL trainer, and a DL4EL one
  // handed back: the same model and file layout, but the wrong trainer tag.
  const std::string bi_path = TempPath("bi_for_dl4el.ckpt");
  const std::string dl4el_path = TempPath("dl4el_for_bi.ckpt");
  std::remove(bi_path.c_str());
  std::remove(dl4el_path.c_str());
  train::TrainOptions opts;
  opts.epochs = 1;
  opts.checkpoint_path = bi_path;
  auto model = MakeBi();
  ASSERT_TRUE(
      train::BiEncoderTrainer(opts).Train(model.get(), corpus_->kb, examples_)
          .ok());
  train::Dl4elOptions dl4el;
  dl4el.train = opts;
  dl4el.train.checkpoint_path = dl4el_path;
  ASSERT_TRUE(
      train::Dl4elTrainer(dl4el).Train(model.get(), corpus_->kb, examples_)
          .ok());
  const std::uint32_t before = model->params()->ValuesCrc32();

  opts.epochs = 2;
  dl4el.train.epochs = 2;
  std::swap(opts.checkpoint_path, dl4el.train.checkpoint_path);
  auto as_dl4el =
      train::Dl4elTrainer(dl4el).Train(model.get(), corpus_->kb, examples_);
  ASSERT_FALSE(as_dl4el.ok());
  EXPECT_EQ(as_dl4el.status().code(), util::StatusCode::kInvalidArgument);
  auto as_bi =
      train::BiEncoderTrainer(opts).Train(model.get(), corpus_->kb, examples_);
  ASSERT_FALSE(as_bi.ok());
  EXPECT_EQ(as_bi.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(model->params()->ValuesCrc32(), before);
  std::remove(bi_path.c_str());
  std::remove(dl4el_path.c_str());
}

TEST_F(StoreTest, MetaTrainerKillAndResumeIsBitIdentical) {
  // The acceptance scenario: a meta-reweight run killed mid-flight resumes
  // from its checkpoint and finishes with exactly the parameters (and Adam
  // moments, via the continued trajectory) of an uninterrupted run.
  const std::vector<data::LinkingExample> synthetic(examples_.begin(),
                                                    examples_.begin() + 80);
  const std::vector<data::LinkingExample> seed_set(examples_.begin() + 80,
                                                   examples_.begin() + 100);
  train::MetaTrainOptions opts;
  opts.steps = 30;
  opts.batch_size = 8;
  opts.meta_batch_size = 4;
  opts.seed = 23;

  auto reference = MakeBi();
  train::MetaReweightTrainer ref_trainer(
      opts, reference->params(),
      [&](tensor::Graph* g, const std::vector<data::LinkingExample>& batch) {
        return reference->InBatchLoss(g, batch, corpus_->kb);
      });
  auto ref_result = ref_trainer.Train(synthetic, seed_set);
  ASSERT_TRUE(ref_result.ok());

  const std::string path = TempPath("meta_resume.ckpt");
  std::remove(path.c_str());
  auto resumed = MakeBi();
  train::MetaTrainOptions killed = opts;
  killed.steps = 20;  // the "kill": stop before the full run
  killed.checkpoint_path = path;
  killed.checkpoint_every = 10;
  {
    train::MetaReweightTrainer trainer(
        killed, resumed->params(),
        [&](tensor::Graph* g, const std::vector<data::LinkingExample>& batch) {
          return resumed->InBatchLoss(g, batch, corpus_->kb);
        });
    ASSERT_TRUE(trainer.Train(synthetic, seed_set).ok());
  }  // trainer destroyed: nothing survives but the checkpoint file

  train::MetaTrainOptions full = opts;
  full.checkpoint_path = path;
  full.checkpoint_every = 10;
  train::MetaReweightTrainer restarted(
      full, resumed->params(),
      [&](tensor::Graph* g, const std::vector<data::LinkingExample>& batch) {
        return resumed->InBatchLoss(g, batch, corpus_->kb);
      });
  auto result = restarted.Train(synthetic, seed_set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->steps, opts.steps);
  EXPECT_EQ(result->final_synthetic_loss, ref_result->final_synthetic_loss);
  EXPECT_EQ(result->final_seed_loss, ref_result->final_seed_loss);
  EXPECT_EQ(reference->params()->ValuesCrc32(),
            resumed->params()->ValuesCrc32());
  std::remove(path.c_str());
}

TEST_F(StoreTest, CorruptTrainerCheckpointFailsTheRunInsteadOfRestarting) {
  const std::string path = TempPath("corrupt_trainer.ckpt");
  WriteAll(path, {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02});
  auto model = MakeBi();
  train::TrainOptions opts;
  opts.epochs = 1;
  opts.checkpoint_path = path;
  auto result =
      train::BiEncoderTrainer(opts).Train(model.get(), corpus_->kb, examples_);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST_F(StoreTest, TrainerTagMismatchIsRejected) {
  const std::string path = TempPath("tag_mismatch.ckpt");
  auto model = MakeBi();
  util::Rng rng(1);
  tensor::AdamOptimizer optimizer(0.01f);
  train::EpochCheckpointState state;
  state.next_epoch = 1;
  state.order = {0, 1, 2};
  ASSERT_TRUE(train::SaveEpochCheckpoint(0x1111u, state, *model->params(),
                                         optimizer, rng, path)
                  .ok());
  auto loaded = train::LoadEpochCheckpoint(0x2222u, path, model->params(),
                                           &optimizer, &rng);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  auto same = train::LoadEpochCheckpoint(0x1111u, path, model->params(),
                                         &optimizer, &rng);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->next_epoch, 1u);
  EXPECT_EQ(same->order, (std::vector<std::uint64_t>{0, 1, 2}));
  std::remove(path.c_str());
}

TEST_F(StoreTest, TrainerCheckpointHugeCountsAreStatusNotAllocation) {
  // CRC-valid containers whose trainer section claims far more order /
  // loss entries than it holds: the load must fail cleanly before sizing
  // anything from the claim.
  const std::string path = TempPath("huge_counts.ckpt");
  auto model = MakeBi();
  util::Rng rng(1);
  tensor::AdamOptimizer optimizer(0.01f);
  for (bool in_losses : {false, true}) {
    for (std::uint64_t count : {std::uint64_t{1} << 40,
                                std::uint64_t{1} << 62}) {
      SCOPED_TRACE(std::string(in_losses ? "epoch_losses" : "order") +
                   " count " + std::to_string(count));
      store::CheckpointWriter ckpt;
      util::BinaryWriter* w = ckpt.AddSection("trainer");
      w->WriteU32(0x1111u);
      w->WriteU64(1);  // next_epoch
      w->WriteU64(in_losses ? 0 : count);
      w->WriteU64(3);  // steps
      w->WriteF64(0.5);
      w->WriteU64(in_losses ? count : 0);
      w->WriteF64(0.25);
      ASSERT_TRUE(ckpt.WriteToFile(path).ok());
      util::Result<train::EpochCheckpointState> loaded =
          train::EpochCheckpointState{};
      EXPECT_NO_THROW(loaded = train::LoadEpochCheckpoint(
                          0x1111u, path, model->params(), &optimizer, &rng));
      EXPECT_FALSE(loaded.ok());
    }
  }
  std::remove(path.c_str());
}

// A CRC-valid copy of the checkpoint at `path` whose "optimizer" section
// lost its last eight bytes: every other section is intact, and the
// optimizer's header and all but its last moment vector still parse.
std::vector<std::uint8_t> WithTruncatedOptimizer(const std::string& path) {
  auto ckpt = CheckpointReader::FromFile(path);
  EXPECT_TRUE(ckpt.ok());
  CheckpointWriter out;
  for (const std::string& name : ckpt->SectionNames()) {
    const util::BinaryReader in = *ckpt->Section(name);
    const std::size_t keep = in.Remaining() - (name == "optimizer" ? 8 : 0);
    out.AddSection(name)->WriteRaw(in.data(), keep);
  }
  return out.Serialize();
}

TEST_F(StoreTest, FailedMetaResumeLeavesTheTrainerUntouched) {
  const std::vector<data::LinkingExample> syn(examples_.begin(),
                                              examples_.begin() + 8);
  const std::vector<data::LinkingExample> seed(examples_.begin() + 8,
                                               examples_.begin() + 12);
  const std::string path = TempPath("meta_donor.ckpt");
  std::remove(path.c_str());
  auto make_trainer = [&](model::BiEncoder* model, std::size_t steps,
                          const std::string& ckpt_path) {
    train::MetaTrainOptions opts;
    opts.steps = steps;
    opts.checkpoint_every = steps;
    opts.checkpoint_path = ckpt_path;
    return std::make_unique<train::MetaReweightTrainer>(
        opts, model->params(),
        [model, this](tensor::Graph* g,
                      const std::vector<data::LinkingExample>& batch) {
          return model->InBatchLoss(g, batch, corpus_->kb);
        });
  };
  // A different model three steps in writes the checkpoint, so loading any
  // of its sections would show.
  auto donor = MakeBi(/*seed=*/9);
  ASSERT_TRUE(make_trainer(donor.get(), 3, path)->Train(syn, seed).ok());
  auto bad = CheckpointReader::Parse(WithTruncatedOptimizer(path));
  ASSERT_TRUE(bad.ok());
  std::remove(path.c_str());

  // Twins one step in; the failed resume must leave one exactly like the
  // other, so Train's next (Rng-sampled) step matches too.
  auto untouched = MakeBi();
  auto resumed = MakeBi();
  auto untouched_trainer = make_trainer(untouched.get(), 2, "");
  auto resumed_trainer = make_trainer(resumed.get(), 2, "");
  ASSERT_TRUE(untouched_trainer->Step(syn, seed).ok());
  ASSERT_TRUE(resumed_trainer->Step(syn, seed).ok());
  EXPECT_FALSE(resumed_trainer->LoadCheckpoint(*bad).ok());
  EXPECT_EQ(resumed->params()->ValuesCrc32(),
            untouched->params()->ValuesCrc32());
  auto expected = untouched_trainer->Train(syn, seed);
  auto got = resumed_trainer->Train(syn, seed);
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_EQ(got->steps, 2u);
  EXPECT_EQ(got->final_synthetic_loss, expected->final_synthetic_loss);
  EXPECT_EQ(resumed->params()->ValuesCrc32(),
            untouched->params()->ValuesCrc32());
}

TEST_F(StoreTest, FailedEpochResumeLeavesTheTrainerUntouched) {
  train::TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 16;
  opts.seed = 21;
  // A different model one epoch in writes the checkpoint.
  train::TrainOptions save = opts;
  save.checkpoint_path = TempPath("epoch_good.ckpt");
  std::remove(save.checkpoint_path.c_str());
  auto donor = MakeBi(/*seed=*/9);
  ASSERT_TRUE(train::BiEncoderTrainer(save)
                  .Train(donor.get(), corpus_->kb, examples_)
                  .ok());
  train::TrainOptions from_bad = opts;
  from_bad.checkpoint_path = TempPath("epoch_bad_optimizer.ckpt");
  WriteAll(from_bad.checkpoint_path,
           WithTruncatedOptimizer(save.checkpoint_path));

  // The failed resume fails Train and leaves the model as it was, so a
  // following epoch matches one from an untouched model.
  auto untouched = MakeBi();
  auto resumed = MakeBi();
  EXPECT_FALSE(train::BiEncoderTrainer(from_bad)
                   .Train(resumed.get(), corpus_->kb, examples_)
                   .ok());
  EXPECT_EQ(resumed->params()->ValuesCrc32(),
            untouched->params()->ValuesCrc32());
  for (model::BiEncoder* model : {resumed.get(), untouched.get()}) {
    ASSERT_TRUE(train::BiEncoderTrainer(opts)
                    .Train(model, corpus_->kb, examples_)
                    .ok());
  }
  EXPECT_EQ(resumed->params()->ValuesCrc32(),
            untouched->params()->ValuesCrc32());
  std::remove(save.checkpoint_path.c_str());
  std::remove(from_bad.checkpoint_path.c_str());
}

// ---- Encoder checkpoints ---------------------------------------------------

TEST_F(StoreTest, EncoderCheckpointsRoundTripAndRejectConfigMismatch) {
  auto original = MakeBi(/*seed=*/7);
  CheckpointWriter writer;
  original->SaveCheckpoint(&writer);
  auto ckpt = CheckpointReader::Parse(writer.Serialize());
  ASSERT_TRUE(ckpt.ok());
  auto other = MakeBi(/*seed=*/8);  // different init, same config
  ASSERT_NE(original->params()->ValuesCrc32(), other->params()->ValuesCrc32());
  ASSERT_TRUE(other->LoadCheckpoint(*ckpt).ok());
  EXPECT_EQ(original->params()->ValuesCrc32(), other->params()->ValuesCrc32());

  model::BiEncoderConfig different = SmallBiConfig();
  different.dim = 24;
  util::Rng rng(9);
  model::BiEncoder mismatched(different, &rng);
  auto status = mismatched.LoadCheckpoint(*ckpt);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

// ---- Loaders never throw ---------------------------------------------------

TEST_F(StoreTest, EveryFileLoaderTurnsBadInputIntoAStatus) {
  // A directory, a container claiming 0xFFFFFFFF sections, and a headerless
  // raw stream must each come back as a non-OK Status — never an exception
  // or an allocation sized by the bad input — from every file entry point
  // and, in memory, from every component's loader.
  const auto& ids = corpus_->kb.EntitiesInDomain("target");
  retrieval::DenseIndex base;
  ASSERT_TRUE(base.Build(MakeBi()->EmbedEntityIds(ids, corpus_->kb), ids).ok());
  util::BinaryWriter huge_count, raw;
  huge_count.WriteU32(kCheckpointMagic);
  huge_count.WriteU32(kCheckpointVersion);
  huge_count.WriteU32(0xFFFFFFFFu);
  base.Save(&raw);  // a section payload without the container around it

  // The file entry points: the container, the bundle, the pipeline bundle.
  const std::string huge_count_path = TempPath("huge_count.ckpt");
  const std::string raw_path = TempPath("raw_index.bin");
  ASSERT_TRUE(huge_count.WriteToFile(huge_count_path).ok());
  ASSERT_TRUE(raw.WriteToFile(raw_path).ok());
  core::PipelineConfig config;
  config.bi = SmallBiConfig();
  config.cross = SmallCrossConfig();
  core::MetaBlinkPipeline pipeline(config);
  for (const std::string& path :
       {::testing::TempDir(), huge_count_path, raw_path}) {
    SCOPED_TRACE(path);
    EXPECT_FALSE(CheckpointReader::FromFile(path).ok());
    EXPECT_FALSE(BundleReader::Open(path).ok());
    EXPECT_FALSE(pipeline.Load(path).ok());
  }
  std::remove(huge_count_path.c_str());
  std::remove(raw_path.c_str());

  // In memory every component loader starts at CheckpointReader::Parse,
  // which rejects both streams. Framed as the payload of every section the
  // components read, they reach the section loaders themselves.
  for (const util::BinaryWriter* bytes : {&huge_count, &raw}) {
    SCOPED_TRACE(bytes == &raw ? "raw" : "huge count");
    EXPECT_FALSE(CheckpointReader::Parse(bytes->buffer()).ok());
    CheckpointWriter every;
    for (const char* name : {"bi_config", "bi_params", "cross_config",
                             "cross_params", "index", "clustered", "cascade",
                             "kb"}) {
      every.AddSection(name)->WriteRaw(bytes->buffer().data(),
                                       bytes->buffer().size());
    }
    auto ckpt = CheckpointReader::Parse(every.Serialize());
    ASSERT_TRUE(ckpt.ok());
    EXPECT_FALSE(model::BiEncoder::FromCheckpoint(*ckpt).ok());
    EXPECT_FALSE(model::CrossEncoder::FromCheckpoint(*ckpt).ok());
    util::BinaryReader index = *ckpt->Section("index");
    util::BinaryReader clustered = *ckpt->Section("clustered");
    util::BinaryReader cascade = *ckpt->Section("cascade");
    util::BinaryReader kb = *ckpt->Section("kb");
    // The raw stream is an index payload, so as a section it loads.
    EXPECT_EQ(retrieval::DenseIndex().Load(&index).ok(), bytes == &raw);
    EXPECT_FALSE(retrieval::ClusteredIndex().Load(&clustered).ok());
    EXPECT_FALSE(model::CascadeModel().Load(&cascade).ok());
    EXPECT_FALSE(kb::KnowledgeBase::Load(&kb).ok());
  }
}

// ---- Artifact bundles ------------------------------------------------------

// A rerank artifact in the current "RRK2" layout, field by field, so a test
// can craft any one field. The defaults (see BundleTest::ValidRerank) load.
struct CraftedRerank {
  std::uint32_t version = 1;
  std::uint64_t rows = 0, cols = 0;
  std::size_t floats = 0;
  std::uint64_t vocab_count = 0;
  std::vector<std::string> vocab;
  std::uint64_t num_tokens = 0;
  std::size_t rows_written = 0;
  // Every written row's title set, framed with `title_count`; its
  // description set is empty.
  std::vector<std::uint32_t> title;
  std::uint64_t title_count = 0;
};

void WriteCraftedRerank(const CraftedRerank& c, util::BinaryWriter* w) {
  w->WriteU32(0x324B5252u);  // "RRK2"
  w->WriteU32(c.version);
  w->WriteU64(c.rows);
  w->WriteU64(c.cols);
  w->WriteFloatVector(std::vector<float>(c.floats, 0.5f));
  w->WriteU64(c.vocab_count);
  for (const std::string& s : c.vocab) w->WriteString(s);
  w->WriteU64(c.num_tokens);
  for (std::size_t r = 0; r < c.rows_written; ++r) {
    w->WriteU64(c.title_count);
    for (std::uint32_t id : c.title) w->WriteU32(id);
    w->WriteU64(0);
    w->WriteString("title");
    w->WriteString("title");
    w->WriteU32(0);
  }
}

class BundleTest : public StoreTest {
 protected:
  void SetUp() override {
    StoreTest::SetUp();
    bi_ = MakeBi(/*seed=*/41);
    cross_ = MakeCross(/*seed=*/42);
    const auto& ids = corpus_->kb.EntitiesInDomain("target");
    ASSERT_TRUE(
        index_.Build(bi_->EmbedEntityIds(ids, corpus_->kb), ids).ok());
    std::vector<kb::Entity> entities;
    for (kb::EntityId id : ids) entities.push_back(corpus_->kb.entity(id));
    cross_->PrecomputeEntities(entities, &cache_);
  }

  void TearDown() override {
    for (const std::string& dir : bundle_dirs_) {
      std::filesystem::remove_all(dir);
    }
  }

  /// TempPath(name) for a bundle directory, which TearDown removes.
  std::string BundleDir(const std::string& name) {
    bundle_dirs_.push_back(TempPath(name));
    return bundle_dirs_.back();
  }

  util::Status Save(const std::string& dir, std::uint64_t version = 3,
                    bool with_cache = true) {
    ModelBundleParts parts;
    parts.model_version = version;
    parts.domain = "target";
    parts.bi = bi_.get();
    parts.cross = cross_.get();
    parts.kb = &corpus_->kb;
    parts.index = &index_;
    parts.rerank_cache = with_cache ? &cache_ : nullptr;
    return SaveModelBundle(parts, dir);
  }

  // Loads a bundle whose rerank artifact holds the one section `write`
  // writes, beside valid bi/cross/kb/index artifacts. The artifact passes
  // every CRC, so only its own checks stand between it and the server.
  util::Result<ModelBundle> LoadWithRerankSection(
      const std::string& name,
      const std::function<void(util::BinaryWriter*)>& write) {
    const std::string dir = BundleDir(name);
    BundleWriter bundle(dir);
    CheckpointWriter bi, cross, kb, index, rerank;
    bi_->SaveCheckpoint(&bi);
    cross_->SaveCheckpoint(&cross);
    corpus_->kb.Save(kb.AddSection("kb"));
    index_.Save(index.AddSection("index"));
    write(rerank.AddSection("rerank"));
    EXPECT_TRUE(bundle.AddArtifact("bi_encoder", "bi.ckpt", bi).ok());
    EXPECT_TRUE(bundle.AddArtifact("cross_encoder", "cross.ckpt", cross).ok());
    EXPECT_TRUE(bundle.AddArtifact("kb", "kb.ckpt", kb).ok());
    EXPECT_TRUE(bundle.AddArtifact("index", "index.ckpt", index).ok());
    EXPECT_TRUE(
        bundle.AddArtifact("rerank_cache", "rerank.ckpt", rerank).ok());
    EXPECT_TRUE(bundle.Finalize(3, "target").ok());
    util::Result<ModelBundle> loaded = util::Status::Internal("not run");
    EXPECT_NO_THROW(loaded = LoadModelBundle(dir));
    return loaded;
  }

  // A loadable crafted rerank artifact over this fixture's index: every
  // row's title set is {0, 2} in a three-token vocabulary.
  CraftedRerank ValidRerank() const {
    CraftedRerank c;
    c.rows = c.num_tokens = c.rows_written = index_.size();
    c.cols = cross_->config().dim;
    c.floats = index_.size() * cross_->config().dim;
    c.vocab = {"alpha", "beta", "gamma"};
    c.vocab_count = c.vocab.size();
    c.title = {0, 2};
    c.title_count = c.title.size();
    return c;
  }

  std::unique_ptr<model::BiEncoder> bi_;
  std::unique_ptr<model::CrossEncoder> cross_;
  retrieval::DenseIndex index_;
  model::CrossEntityCache cache_;
  /// Every directory BundleDir named in this test.
  std::vector<std::string> bundle_dirs_;
};

TEST_F(BundleTest, SaveLoadRoundTrip) {
  const std::string dir = BundleDir("bundle_roundtrip");
  ASSERT_TRUE(Save(dir).ok());
  auto bundle = LoadModelBundle(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  EXPECT_EQ(bundle->model_version, 3u);
  EXPECT_EQ(bundle->domain, "target");
  EXPECT_EQ(bundle->bi->params()->ValuesCrc32(),
            bi_->params()->ValuesCrc32());
  EXPECT_EQ(bundle->cross->params()->ValuesCrc32(),
            cross_->params()->ValuesCrc32());
  EXPECT_EQ(bundle->kb->num_entities(), corpus_->kb.num_entities());
  EXPECT_EQ(bundle->index.ids(), index_.ids());
  EXPECT_TRUE(bundle->has_rerank_cache);
  ASSERT_EQ(bundle->rerank_cache.tokens.size(), cache_.tokens.size());
  EXPECT_EQ(bundle->rerank_cache.tokens[0].norm_title,
            cache_.tokens[0].norm_title);
  EXPECT_EQ(bundle->rerank_cache.vocab.size(), cache_.vocab.size());

  // The loader numbers tokens by vocabulary-table position, so its ids
  // differ from the ones PrecomputeEntities assigned; the artifact bytes
  // must not.
  const std::string again = BundleDir("bundle_roundtrip_again");
  ModelBundleParts parts;
  parts.model_version = 3;
  parts.domain = "target";
  parts.bi = bi_.get();
  parts.cross = cross_.get();
  parts.kb = &corpus_->kb;
  parts.index = &index_;
  parts.rerank_cache = &bundle->rerank_cache;
  ASSERT_TRUE(SaveModelBundle(parts, again).ok());
  EXPECT_EQ(ReadAll(again + "/rerank.ckpt"), ReadAll(dir + "/rerank.ckpt"));
}

TEST_F(BundleTest, LoadWithoutRerankCacheArtifact) {
  const std::string dir = BundleDir("bundle_nocache");
  ASSERT_TRUE(Save(dir, /*version=*/4, /*with_cache=*/false).ok());
  auto bundle = LoadModelBundle(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  EXPECT_FALSE(bundle->has_rerank_cache);
}

TEST_F(BundleTest, ClusteredArtifactRoundTripAndCorruption) {
  retrieval::ClusteredIndex clustered;
  ASSERT_TRUE(clustered.Build(index_, {}).ok());
  const std::string dir = BundleDir("bundle_clustered");
  {
    ModelBundleParts parts;
    parts.model_version = 7;
    parts.domain = "target";
    parts.bi = bi_.get();
    parts.cross = cross_.get();
    parts.kb = &corpus_->kb;
    parts.index = &index_;
    parts.clustered = &clustered;
    ASSERT_TRUE(SaveModelBundle(parts, dir).ok());
  }

  auto bundle = LoadModelBundle(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();
  ASSERT_TRUE(bundle->has_clustered);
  EXPECT_EQ(bundle->clustered.list_offsets(), clustered.list_offsets());
  EXPECT_EQ(bundle->clustered.list_entries(), clustered.list_entries());

  // Moving the bundle relocates its index, so the clustering must be
  // re-attached at the destination before querying — after which probe
  // results are identical to the original's.
  ModelBundle moved = std::move(*bundle);
  ASSERT_TRUE(moved.clustered.Attach(&moved.index).ok());
  util::Rng rng(73);
  std::vector<float> q(index_.dim());
  for (float& v : q) v = rng.NextFloat(-1, 1);
  const auto want = clustered.TopK(q.data(), 8);
  const auto got = moved.clustered.TopK(q.data(), 8);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id);
    EXPECT_EQ(want[i].score, got[i].score);
  }

  // A flipped byte or truncation in the clustered artifact fails the whole
  // bundle load with a clean Status, exactly like the other artifacts.
  const std::string path = dir + "/clustered.ckpt";
  const std::vector<std::uint8_t> original = ReadAll(path);
  ASSERT_FALSE(original.empty());
  std::vector<std::uint8_t> flipped = original;
  flipped[original.size() / 2] ^= 0x08;
  WriteAll(path, flipped);
  EXPECT_FALSE(LoadModelBundle(dir).ok());
  std::vector<std::uint8_t> truncated(original.begin(), original.end() - 1);
  WriteAll(path, truncated);
  EXPECT_FALSE(LoadModelBundle(dir).ok());
  WriteAll(path, original);
  EXPECT_TRUE(LoadModelBundle(dir).ok());
}

TEST_F(BundleTest, CorruptionAnywhereIsACleanStatus) {
  const std::string dir = BundleDir("bundle_corrupt");
  ASSERT_TRUE(Save(dir).ok());
  // Every artifact plus the manifest: a single flipped byte in any file
  // fails the whole bundle open, and a truncated file does too.
  const std::vector<std::string> files = {"MANIFEST",  "bi.ckpt",
                                          "cross.ckpt", "kb.ckpt",
                                          "index.ckpt", "rerank.ckpt"};
  for (const std::string& file : files) {
    const std::string path = dir + "/" + file;
    const std::vector<std::uint8_t> original = ReadAll(path);
    ASSERT_FALSE(original.empty()) << file;

    std::vector<std::uint8_t> flipped = original;
    flipped[original.size() / 2] ^= 0x10;
    WriteAll(path, flipped);
    auto corrupt = LoadModelBundle(dir);
    EXPECT_FALSE(corrupt.ok()) << "flipped byte in " << file;

    std::vector<std::uint8_t> truncated(original.begin(),
                                        original.end() - 1);
    WriteAll(path, truncated);
    auto cut = LoadModelBundle(dir);
    EXPECT_FALSE(cut.ok()) << "truncated " << file;

    WriteAll(path, original);
    ASSERT_TRUE(LoadModelBundle(dir).ok()) << "restore of " << file;
  }
  // A missing artifact file is as fatal as a corrupt one.
  const std::string gone = dir + "/index.ckpt";
  const std::vector<std::uint8_t> saved = ReadAll(gone);
  std::remove(gone.c_str());
  EXPECT_FALSE(LoadModelBundle(dir).ok());
  WriteAll(gone, saved);
  EXPECT_TRUE(LoadModelBundle(dir).ok());
}

TEST_F(BundleTest, CraftedRerankCountsAreAStatus) {
  // A rerank artifact passes every CRC when its writer crafted it, so its
  // counts and ids are untrusted. Each case below is the loadable artifact
  // of the first case with one field crafted: shapes whose product wraps or
  // vanishes, counts the section cannot hold, and id sets or a vocabulary
  // table out of order must each be a clean Status before anything is
  // allocated from them or served.
  const CraftedRerank valid = ValidRerank();
  {
    auto loaded = LoadWithRerankSection(
        "bundle_crafted_rerank_valid",
        [&](util::BinaryWriter* w) { WriteCraftedRerank(valid, w); });
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    ASSERT_EQ(loaded->rerank_cache.tokens.size(), valid.rows_written);
    EXPECT_EQ(loaded->rerank_cache.tokens[0].title_ids, valid.title);
    EXPECT_EQ(loaded->rerank_cache.vocab.at("gamma"), 2u);
  }
  const std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  const std::uint64_t kTwo62 = std::uint64_t{1} << 62;
  struct Case {
    const char* name;
    std::function<void(CraftedRerank*)> craft;
  };
  const std::vector<Case> cases = {
      {"rows 2^40, cols 0",
       [](CraftedRerank* c) {
         c->rows = c->num_tokens = std::uint64_t{1} << 40;
         c->cols = 0;
         c->floats = 0;
         c->rows_written = 0;
       }},
      {"rows = cols = 2^32",
       [&](CraftedRerank* c) {
         c->rows = c->cols = c->num_tokens = kTwo32;
         c->floats = 0;
         c->rows_written = 0;
       }},
      {"token rows past the section end",
       [](CraftedRerank* c) {
         c->rows = c->num_tokens = 4096;
         c->cols = 1;
         c->floats = 4096;
         c->rows_written = 0;
       }},
      {"unsupported version", [](CraftedRerank* c) { c->version = 2; }},
      {"vocabulary count 2^32-1",
       [&](CraftedRerank* c) { c->vocab_count = kTwo32 - 1; }},
      {"vocabulary count 2^62",
       [&](CraftedRerank* c) { c->vocab_count = kTwo62; }},
      {"set length past the section end",
       [](CraftedRerank* c) { c->title_count = std::uint64_t{1} << 40; }},
      {"set length 2^62, whose byte size wraps",
       [&](CraftedRerank* c) { c->title_count = kTwo62; }},
      {"id >= vocabulary size",
       [](CraftedRerank* c) { c->title = {0, 3}; }},
      {"non-ascending id set", [](CraftedRerank* c) { c->title = {2, 0}; }},
      {"repeated id", [](CraftedRerank* c) { c->title = {1, 1}; }},
      // Ids {0, 1} stay below the two distinct strings, so only the
      // table's own order check can reject the repeat.
      {"duplicate vocabulary strings",
       [](CraftedRerank* c) {
         c->vocab = {"alpha", "alpha", "gamma"};
         c->title = {0, 1};
       }},
      {"unsorted vocabulary strings",
       [](CraftedRerank* c) { c->vocab = {"beta", "alpha", "gamma"}; }},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    CraftedRerank c = valid;
    k.craft(&c);
    auto loaded = LoadWithRerankSection(
        "bundle_crafted_rerank",
        [&](util::BinaryWriter* w) { WriteCraftedRerank(c, w); });
    EXPECT_FALSE(loaded.ok());
  }
}

TEST_F(BundleTest, OldRerankArtifactIsRejectedNotReinterpreted) {
  // The retired "RRNK" layout stored every token set as sorted strings.
  // A well-formed, CRC-valid artifact in it must load as a Status that says
  // to re-save, never be read under the new layout.
  const std::size_t n = index_.size();
  const std::size_t d = cross_->config().dim;
  auto loaded = LoadWithRerankSection(
      "bundle_old_rerank", [&](util::BinaryWriter* w) {
        w->WriteU32(0x4B4E5252u);  // "RRNK"
        w->WriteU64(n);
        w->WriteU64(d);
        w->WriteFloatVector(std::vector<float>(n * d, 0.5f));
        w->WriteU64(n);
        for (std::size_t r = 0; r < n; ++r) {
          w->WriteU64(2);
          w->WriteString("alpha");
          w->WriteString("beta");
          w->WriteU64(0);
          w->WriteString("title");
          w->WriteString("title");
          w->WriteU32(0);
        }
      });
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("re-save"), std::string::npos)
      << loaded.status().message();
}

TEST_F(BundleTest, MissingDirectoryOrManifestIsNotFoundNotACrash) {
  EXPECT_FALSE(LoadModelBundle(TempPath("no_such_bundle")).ok());
}

TEST_F(BundleTest, RetiredManifestShardCountIsIgnored) {
  // Manifests written while bundles could declare a KB shard count end with
  // that u32 after the artifact table. It never changed a response, so a
  // loader accepts it and ignores it; any other tail after the table is
  // corruption, even inside a CRC-valid container.
  const std::string dir = BundleDir("bundle_retired_shards");
  ASSERT_TRUE(Save(dir).ok());
  auto plain = LoadModelBundle(dir);
  ASSERT_TRUE(plain.ok()) << plain.status().message();
  const std::string path = dir + "/MANIFEST";
  auto saved = CheckpointReader::FromFile(path);
  ASSERT_TRUE(saved.ok()) << saved.status().message();
  ASSERT_EQ(saved->SectionNames(), std::vector<std::string>{"manifest"});
  const util::BinaryReader table = *saved->Section("manifest");

  // The saved section plus `extra` trailing bytes: a retired shard count
  // (4) first, then stray bytes.
  const auto reframe = [&](std::size_t extra) {
    CheckpointWriter out;
    util::BinaryWriter* w = out.AddSection("manifest");
    w->WriteRaw(table.data(), table.Remaining());
    if (extra >= 4) w->WriteU32(4);
    const std::uint8_t stray[8] = {0x5A, 0x5A, 0x5A, 0x5A,
                                   0x5A, 0x5A, 0x5A, 0x5A};
    w->WriteRaw(stray, extra >= 4 ? extra - 4 : extra);
    WriteAll(path, out.Serialize());
  };

  reframe(4);
  auto old = LoadModelBundle(dir);
  ASSERT_TRUE(old.ok()) << old.status().message();
  EXPECT_EQ(old->model_version, plain->model_version);
  EXPECT_EQ(old->domain, plain->domain);
  EXPECT_EQ(old->bi->params()->ValuesCrc32(),
            plain->bi->params()->ValuesCrc32());
  EXPECT_EQ(old->cross->params()->ValuesCrc32(),
            plain->cross->params()->ValuesCrc32());
  EXPECT_EQ(old->kb->num_entities(), plain->kb->num_entities());
  EXPECT_EQ(old->index.ids(), plain->index.ids());
  for (std::size_t r = 0; r < plain->index.size(); ++r) {
    EXPECT_TRUE(std::equal(plain->index.EmbeddingAt(r),
                           plain->index.EmbeddingAt(r) + plain->index.dim(),
                           old->index.EmbeddingAt(r)))
        << "row " << r;
  }
  EXPECT_EQ(old->has_rerank_cache, plain->has_rerank_cache);
  EXPECT_EQ(old->rerank_cache.tokens.size(), plain->rerank_cache.tokens.size());
  EXPECT_EQ(old->rerank_cache.vocab.size(), plain->rerank_cache.vocab.size());
  EXPECT_EQ(old->has_clustered, plain->has_clustered);
  EXPECT_EQ(old->has_cascade, plain->has_cascade);

  for (const std::size_t extra : {1u, 2u, 3u, 5u, 8u}) {
    SCOPED_TRACE(extra);
    reframe(extra);
    util::Result<ModelBundle> loaded = util::Status::Internal("not run");
    EXPECT_NO_THROW(loaded = LoadModelBundle(dir));
    EXPECT_FALSE(loaded.ok());
  }
}

TEST_F(BundleTest, OpenArtifactParsesTheBytesOpenVerified) {
  // Open reads each artifact once and keeps the bytes whose whole-file CRC
  // it checked; replacing or deleting the file afterwards changes nothing
  // OpenArtifact returns. A fresh Open sees the replacement.
  const std::string dir = BundleDir("bundle_verified_bytes");
  ASSERT_TRUE(Save(dir).ok());
  auto bundle = BundleReader::Open(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status().message();

  const std::string path = dir + "/bi.ckpt";
  auto other = MakeBi(/*seed=*/99);
  ASSERT_NE(other->params()->ValuesCrc32(), bi_->params()->ValuesCrc32());
  {
    CheckpointWriter ckpt;
    other->SaveCheckpoint(&ckpt);
    ASSERT_TRUE(ckpt.WriteToFile(path).ok());
  }
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "file replaced" : "file deleted");
    auto ckpt = bundle->OpenArtifact("bi_encoder");
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().message();
    auto bi = model::BiEncoder::FromCheckpoint(*ckpt);
    ASSERT_TRUE(bi.ok()) << bi.status().message();
    EXPECT_EQ((*bi)->params()->ValuesCrc32(), bi_->params()->ValuesCrc32());
    if (pass == 0) {
      EXPECT_FALSE(BundleReader::Open(dir).ok());
      std::remove(path.c_str());
    }
  }
}

// Writes a bundle of this fixture's kb and index around the given encoder
// containers, so a test can craft either one (with valid CRCs).
util::Status SaveCraftedBundle(const std::string& dir,
                               const CheckpointWriter& bi,
                               const CheckpointWriter& cross,
                               const kb::KnowledgeBase& kb,
                               const retrieval::DenseIndex& index) {
  BundleWriter bundle(dir);
  CheckpointWriter kb_ckpt, index_ckpt;
  kb.Save(kb_ckpt.AddSection("kb"));
  index.Save(index_ckpt.AddSection("index"));
  METABLINK_RETURN_IF_ERROR(bundle.AddArtifact("bi_encoder", "bi.ckpt", bi));
  METABLINK_RETURN_IF_ERROR(
      bundle.AddArtifact("cross_encoder", "cross.ckpt", cross));
  METABLINK_RETURN_IF_ERROR(bundle.AddArtifact("kb", "kb.ckpt", kb_ckpt));
  METABLINK_RETURN_IF_ERROR(
      bundle.AddArtifact("index", "index.ckpt", index_ckpt));
  return bundle.Finalize(3, "target");
}

// Copies section `name` of a serialized container into `out` verbatim.
void CopySection(const CheckpointWriter& from, const std::string& name,
                 CheckpointWriter* out) {
  auto parsed = CheckpointReader::Parse(from.Serialize());
  ASSERT_TRUE(parsed.ok());
  auto section = parsed->Section(name);
  ASSERT_TRUE(section.ok());
  out->AddSection(name)->WriteRaw(section->data(), section->Remaining());
}

TEST_F(BundleTest, ParameterFloatCountMustMatchItsShape) {
  // A params section whose float count disagrees with its declared shape,
  // or that carries bytes after the last parameter, passes every CRC when
  // its writer crafted it. Loading it must fail instead of resizing the
  // weights to the stored count (a 1-float mention_table would otherwise
  // load, and the first encode read past it).
  struct Crafted {
    const char* name;
    std::function<void(std::vector<float>*)> edit_mention_table;
    bool trailing_bytes;
  };
  const std::vector<Crafted> cases = {
      {"short count", [](std::vector<float>* v) { v->resize(1); }, false},
      {"long count", [](std::vector<float>* v) { v->push_back(0.5f); },
       false},
      {"trailing bytes", [](std::vector<float>*) {}, true},
  };
  CheckpointWriter real_bi, cross;
  bi_->SaveCheckpoint(&real_bi);
  cross_->SaveCheckpoint(&cross);
  for (const Crafted& c : cases) {
    SCOPED_TRACE(c.name);
    CheckpointWriter bi;
    CopySection(real_bi, "bi_config", &bi);
    util::BinaryWriter* w = bi.AddSection("bi_params");
    w->WriteU64(bi_->params()->parameters().size());
    for (const auto& p : bi_->params()->parameters()) {
      std::vector<float> values = p->value.data();
      if (p->name == "mention_table") c.edit_mention_table(&values);
      w->WriteString(p->name);
      w->WriteU64(p->value.rows());
      w->WriteU64(p->value.cols());
      w->WriteFloatVector(values);
    }
    if (c.trailing_bytes) w->WriteU32(0);

    // The model-level load (fixed shapes) and the bundle load both refuse.
    auto parsed = CheckpointReader::Parse(bi.Serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    auto model = MakeBi();
    EXPECT_FALSE(model->LoadCheckpoint(*parsed).ok());
    EXPECT_FALSE(model::BiEncoder::FromCheckpoint(*parsed).ok());
    const std::string dir = BundleDir("bundle_crafted_params");
    ASSERT_TRUE(
        SaveCraftedBundle(dir, bi, cross, corpus_->kb, index_).ok());
    util::Result<ModelBundle> loaded = util::Status::Internal("not run");
    EXPECT_NO_THROW(loaded = LoadModelBundle(dir));
    EXPECT_FALSE(loaded.ok());
  }
}

TEST_F(BundleTest, CraftedEncoderConfigsAreAStatus) {
  // An encoder's stored config sizes its weights, and a crafted container
  // passes every CRC, so the loader must check the stored shapes against
  // the config and the bytes that hold them before building anything. A
  // huge dim, hidden width or bucket count, with the real params section
  // or with one whose shape headers agree but hold no floats, must each
  // come back as a Status (never std::bad_alloc).
  constexpr std::uint64_t k30 = std::uint64_t{1} << 30;
  constexpr std::uint64_t k40 = std::uint64_t{1} << 40;
  constexpr std::uint64_t k62 = std::uint64_t{1} << 62;
  struct Crafted {
    const char* name;
    bool cross;
    std::uint64_t dim, hidden;
    std::uint32_t buckets;
    bool matching_headers;  // params declare the crafted shapes, no floats
  };
  const std::vector<Crafted> cases = {
      {"bi dim 2^30", false, k30, 0, 2048, false},
      {"bi dim 2^40", false, k40, 0, 2048, false},
      {"bi dim 2^40, headers agree", false, k40, 0, 2048, true},
      {"bi buckets 2^32-1", false, 16, 0, 0xFFFFFFFFu, false},
      {"bi buckets 2^32-1, headers agree", false, 16, 0, 0xFFFFFFFFu, true},
      {"cross dim 2^40", true, k40, 16, 2048, false},
      {"cross dim 2^62, headers agree", true, k62, 16, 2048, true},
      {"cross hidden 2^30", true, 16, k30, 2048, false},
      {"cross hidden 2^40, headers agree", true, 16, k40, 2048, true},
      {"cross buckets 2^31, headers agree", true, 16, 16, 1u << 31, true},
  };
  CheckpointWriter real_bi, real_cross;
  bi_->SaveCheckpoint(&real_bi);
  cross_->SaveCheckpoint(&real_cross);
  for (const Crafted& c : cases) {
    SCOPED_TRACE(c.name);
    const char* prefix = c.cross ? "cross" : "bi";
    model::FeatureConfig features =
        c.cross ? SmallCrossConfig().features : SmallBiConfig().features;
    features.hasher.num_buckets = c.buckets;
    CheckpointWriter crafted;
    util::BinaryWriter* config =
        crafted.AddSection(std::string(prefix) + "_config");
    config->WriteU64(c.dim);
    if (c.cross) config->WriteU64(c.hidden);
    model::SaveFeatureConfig(features, config);
    const std::string params = std::string(prefix) + "_params";
    if (c.matching_headers) {
      const std::uint64_t b = c.buckets, d = c.dim, h = c.hidden;
      using Shapes =
          std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>>;
      const Shapes shapes =
          c.cross ? Shapes{{"cross_table", b, d},
                           {"cross_w1", 3 * d + 6, h},
                           {"cross_b1", 1, h},
                           {"cross_w2", h, 1},
                           {"cross_b2", 1, 1}}
                  : Shapes{{"mention_table", b, d}, {"mention_proj", d, d},
                           {"mention_bias", 1, d},  {"entity_table", b, d},
                           {"entity_proj", d, d},   {"entity_bias", 1, d}};
      util::BinaryWriter* w = crafted.AddSection(params);
      w->WriteU64(shapes.size());
      for (const auto& [name, rows, cols] : shapes) {
        w->WriteString(name);
        w->WriteU64(rows);
        w->WriteU64(cols);
        w->WriteU64(rows * cols);  // wraps for the largest shapes
      }
    } else {
      CopySection(c.cross ? real_cross : real_bi, params, &crafted);
    }

    auto parsed = CheckpointReader::Parse(crafted.Serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    bool ok = true;
    if (c.cross) {
      EXPECT_NO_THROW(ok = model::CrossEncoder::FromCheckpoint(*parsed).ok());
    } else {
      EXPECT_NO_THROW(ok = model::BiEncoder::FromCheckpoint(*parsed).ok());
    }
    EXPECT_FALSE(ok);

    const std::string dir = BundleDir("bundle_crafted_config");
    ASSERT_TRUE(SaveCraftedBundle(dir, c.cross ? real_bi : crafted,
                                  c.cross ? crafted : real_cross,
                                  corpus_->kb, index_)
                    .ok());
    util::Result<ModelBundle> loaded = util::Status::Internal("not run");
    EXPECT_NO_THROW(loaded = LoadModelBundle(dir));
    EXPECT_FALSE(loaded.ok());
  }
}

}  // namespace
}  // namespace metablink::store
