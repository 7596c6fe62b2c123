#ifndef METABLINK_STORE_MODEL_BUNDLE_H_
#define METABLINK_STORE_MODEL_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "kb/knowledge_base.h"
#include "model/bi_encoder.h"
#include "model/cascade.h"
#include "model/cross_encoder.h"
#include "retrieval/clustered_index.h"
#include "retrieval/dense_index.h"
#include "store/bundle.h"
#include "util/status.h"

namespace metablink::store {

/// Borrowed views of everything that goes into a packaged serving model.
/// `rerank_cache` is optional (nullptr skips the artifact; the loader
/// recomputes it instead).
struct ModelBundleParts {
  std::uint64_t model_version = 0;
  std::string domain;
  const model::BiEncoder* bi = nullptr;
  const model::CrossEncoder* cross = nullptr;
  const kb::KnowledgeBase* kb = nullptr;
  const retrieval::DenseIndex* index = nullptr;
  const model::CrossEntityCache* rerank_cache = nullptr;
  /// Optional clustered (IVF) form of `index`. A server built from the
  /// bundle probes through it; nullptr skips the artifact and the server
  /// scans `index` exhaustively.
  const retrieval::ClusteredIndex* clustered = nullptr;
  /// Optional calibrated rerank-cascade policy (train::CalibrateCascade);
  /// nullptr skips the artifact and a cascade-serving loader falls back to
  /// ServerOptions::cascade or the uncalibrated default.
  const model::CascadeModel* cascade = nullptr;
};

/// A fully loaded serving model: everything LinkingServer needs to answer
/// queries for one domain, owned in one place so a server can swap whole
/// model versions atomically.
struct ModelBundle {
  std::uint64_t model_version = 0;
  std::string domain;
  std::unique_ptr<model::BiEncoder> bi;
  std::unique_ptr<model::CrossEncoder> cross;
  std::unique_ptr<kb::KnowledgeBase> kb;
  retrieval::DenseIndex index;
  bool has_rerank_cache = false;
  model::CrossEntityCache rerank_cache;
  /// Clustered form of `index`, present when the bundle shipped one. NOTE:
  /// the loader attaches it to `index` for validation, but moving the
  /// ModelBundle relocates `index` — re-call clustered.Attach(&index) on
  /// the bundle's final resting place before querying through it.
  bool has_clustered = false;
  retrieval::ClusteredIndex clustered;
  /// Calibrated cascade policy, present when the bundle shipped one.
  bool has_cascade = false;
  model::CascadeModel cascade;
};

/// Packages `parts` into the bundle directory `dir`: one checkpoint
/// container per component ("bi_encoder", "cross_encoder", "kb", "index",
/// optionally "rerank_cache") plus the MANIFEST, all written atomically.
/// Pre: bi, cross, kb, and index are non-null.
util::Status SaveModelBundle(const ModelBundleParts& parts,
                             const std::string& dir);

/// Opens, validates, and loads every artifact of a bundle. Corruption
/// anywhere (manifest, artifact CRC, section CRC, shape mismatch) is a
/// clean non-OK Status; on success the returned bundle is self-contained
/// and ready to serve.
util::Result<ModelBundle> LoadModelBundle(const std::string& dir);

}  // namespace metablink::store

#endif  // METABLINK_STORE_MODEL_BUNDLE_H_
