#include "store/model_bundle.h"

#include <algorithm>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/serialize.h"
#include "util/string_util.h"

namespace metablink::store {

namespace {

constexpr std::uint32_t kRerankTag = 0x4B4E5252u;  // "RRNK"

// The smallest framed token row: two set counts, two string lengths, and
// the has_phrase flag. Caps how many rows a section can claim.
constexpr std::size_t kMinTokenRowBytes = 8 + 8 + 8 + 8 + 4;

// Sets are serialized as sorted strings, so identical caches produce
// identical bytes (and therefore identical CRCs) whatever ids the
// vocabulary happened to assign.
void SaveTokenSet(const std::vector<std::uint32_t>& ids,
                  const std::vector<const std::string*>& by_id,
                  util::BinaryWriter* w) {
  std::vector<const std::string*> sorted;
  for (std::uint32_t id : ids) sorted.push_back(by_id[id]);
  std::sort(sorted.begin(), sorted.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  w->WriteU64(sorted.size());
  for (const std::string* s : sorted) w->WriteString(*s);
}

// Reads one serialized set, interning its strings as they are read.
util::Status LoadTokenSet(util::BinaryReader* r, model::TokenVocabulary* vocab,
                          std::vector<std::string>* strings,
                          std::vector<std::uint32_t>* ids) {
  std::uint64_t n = 0;
  METABLINK_RETURN_IF_ERROR(r->ReadU64(&n));
  strings->clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string s;
    METABLINK_RETURN_IF_ERROR(r->ReadString(&s));
    strings->push_back(std::move(s));
  }
  model::InternTokenSet(*strings, vocab, ids);
  return util::Status::OK();
}

void SaveRerankCache(const model::CrossEntityCache& cache,
                     CheckpointWriter* ckpt) {
  util::BinaryWriter* w = ckpt->AddSection("rerank");
  w->WriteU32(kRerankTag);
  w->WriteU64(cache.entity_vec.rows());
  w->WriteU64(cache.entity_vec.cols());
  w->WriteFloatVector(cache.entity_vec.data());
  w->WriteU64(cache.tokens.size());
  std::vector<const std::string*> by_id(cache.vocab.size());
  for (const auto& [token, id] : cache.vocab) by_id[id] = &token;
  for (const model::CachedEntityTokens& t : cache.tokens) {
    SaveTokenSet(t.title_ids, by_id, w);
    SaveTokenSet(t.desc_ids, by_id, w);
    w->WriteString(t.norm_title);
    w->WriteString(t.norm_base);
    w->WriteU32(t.has_phrase ? 1u : 0u);
  }
}

util::Status LoadRerankCache(const CheckpointReader& ckpt,
                             model::CrossEntityCache* out) {
  auto section = ckpt.Section("rerank");
  if (!section.ok()) return section.status();
  std::uint32_t tag = 0;
  METABLINK_RETURN_IF_ERROR(section->ReadU32(&tag));
  if (tag != kRerankTag) {
    return util::Status::InvalidArgument("not a rerank-cache artifact");
  }
  std::uint64_t rows = 0, cols = 0;
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&rows));
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&cols));
  std::vector<float> flat;
  METABLINK_RETURN_IF_ERROR(section->ReadFloatVector(&flat));
  // rows * cols == flat.size(), without the product that could wrap.
  if (cols == 0 || flat.size() % cols != 0 || rows != flat.size() / cols) {
    return util::Status::InvalidArgument("corrupt rerank-cache shape");
  }
  std::uint64_t num_tokens = 0;
  METABLINK_RETURN_IF_ERROR(section->ReadU64(&num_tokens));
  if (num_tokens != rows) {
    return util::Status::InvalidArgument(util::StrFormat(
        "rerank cache has %llu token rows for %llu vector rows",
        static_cast<unsigned long long>(num_tokens),
        static_cast<unsigned long long>(rows)));
  }
  if (num_tokens > section->Remaining() / kMinTokenRowBytes) {
    return util::Status::OutOfRange("truncated rerank-cache token rows");
  }
  std::vector<model::CachedEntityTokens> tokens(num_tokens);
  model::TokenVocabulary vocab;
  std::vector<std::string> strings;
  for (model::CachedEntityTokens& t : tokens) {
    METABLINK_RETURN_IF_ERROR(
        LoadTokenSet(&*section, &vocab, &strings, &t.title_ids));
    METABLINK_RETURN_IF_ERROR(
        LoadTokenSet(&*section, &vocab, &strings, &t.desc_ids));
    METABLINK_RETURN_IF_ERROR(section->ReadString(&t.norm_title));
    METABLINK_RETURN_IF_ERROR(section->ReadString(&t.norm_base));
    std::uint32_t has_phrase = 0;
    METABLINK_RETURN_IF_ERROR(section->ReadU32(&has_phrase));
    t.has_phrase = has_phrase != 0;
  }
  out->entity_vec = tensor::Tensor(static_cast<std::size_t>(rows),
                                   static_cast<std::size_t>(cols),
                                   std::move(flat));
  out->tokens = std::move(tokens);
  out->vocab = std::move(vocab);
  return util::Status::OK();
}

}  // namespace

util::Status SaveModelBundle(const ModelBundleParts& parts,
                             const std::string& dir) {
  if (parts.bi == nullptr || parts.cross == nullptr || parts.kb == nullptr ||
      parts.index == nullptr) {
    return util::Status::InvalidArgument(
        "a model bundle needs bi, cross, kb, and index");
  }
  BundleWriter bundle(dir);
  {
    CheckpointWriter ckpt;
    parts.bi->SaveCheckpoint(&ckpt);
    METABLINK_RETURN_IF_ERROR(bundle.AddArtifact("bi_encoder", "bi.ckpt",
                                                 ckpt));
  }
  {
    CheckpointWriter ckpt;
    parts.cross->SaveCheckpoint(&ckpt);
    METABLINK_RETURN_IF_ERROR(bundle.AddArtifact("cross_encoder", "cross.ckpt",
                                                 ckpt));
  }
  {
    CheckpointWriter ckpt;
    parts.kb->Save(ckpt.AddSection("kb"));
    METABLINK_RETURN_IF_ERROR(bundle.AddArtifact("kb", "kb.ckpt", ckpt));
  }
  {
    CheckpointWriter ckpt;
    parts.index->Save(ckpt.AddSection("index"));
    METABLINK_RETURN_IF_ERROR(bundle.AddArtifact("index", "index.ckpt", ckpt));
  }
  if (parts.rerank_cache != nullptr) {
    CheckpointWriter ckpt;
    SaveRerankCache(*parts.rerank_cache, &ckpt);
    METABLINK_RETURN_IF_ERROR(bundle.AddArtifact("rerank_cache", "rerank.ckpt",
                                                 ckpt));
  }
  if (parts.clustered != nullptr) {
    if (!parts.clustered->built()) {
      return util::Status::InvalidArgument(
          "bundle clustered index was never built");
    }
    if (parts.clustered->size() != parts.index->size() ||
        parts.clustered->dim() != parts.index->dim()) {
      return util::Status::InvalidArgument(
          "bundle clustered index does not match the dense index shape");
    }
    CheckpointWriter ckpt;
    parts.clustered->Save(ckpt.AddSection("clustered"));
    METABLINK_RETURN_IF_ERROR(bundle.AddArtifact("clustered",
                                                 "clustered.ckpt", ckpt));
  }
  if (parts.cascade != nullptr) {
    if (parts.cascade->config.rerank_head_k == 0) {
      return util::Status::InvalidArgument(
          "bundle cascade rerank_head_k must be >= 1");
    }
    CheckpointWriter ckpt;
    parts.cascade->Save(ckpt.AddSection("cascade"));
    METABLINK_RETURN_IF_ERROR(bundle.AddArtifact("cascade", "cascade.ckpt",
                                                 ckpt));
  }
  return bundle.Finalize(parts.model_version, parts.domain,
                         parts.num_shards);
}

util::Result<ModelBundle> LoadModelBundle(const std::string& dir) {
  auto bundle = BundleReader::Open(dir);
  if (!bundle.ok()) return bundle.status();

  ModelBundle out;
  out.model_version = bundle->manifest().model_version;
  out.domain = bundle->manifest().domain;
  out.num_shards = bundle->manifest().num_shards;

  auto bi_ckpt = bundle->OpenArtifact("bi_encoder");
  if (!bi_ckpt.ok()) return bi_ckpt.status();
  auto bi = model::BiEncoder::FromCheckpoint(*bi_ckpt);
  if (!bi.ok()) return bi.status();
  out.bi = std::move(*bi);

  auto cross_ckpt = bundle->OpenArtifact("cross_encoder");
  if (!cross_ckpt.ok()) return cross_ckpt.status();
  auto cross = model::CrossEncoder::FromCheckpoint(*cross_ckpt);
  if (!cross.ok()) return cross.status();
  out.cross = std::move(*cross);

  auto kb_ckpt = bundle->OpenArtifact("kb");
  if (!kb_ckpt.ok()) return kb_ckpt.status();
  auto kb_section = kb_ckpt->Section("kb");
  if (!kb_section.ok()) return kb_section.status();
  auto kb = kb::KnowledgeBase::Load(&*kb_section);
  if (!kb.ok()) return kb.status();
  out.kb = std::make_unique<kb::KnowledgeBase>(std::move(*kb));

  auto index_ckpt = bundle->OpenArtifact("index");
  if (!index_ckpt.ok()) return index_ckpt.status();
  auto index_section = index_ckpt->Section("index");
  if (!index_section.ok()) return index_section.status();
  METABLINK_RETURN_IF_ERROR(out.index.Load(&*index_section));

  // Cross-artifact consistency: each artifact passed its own CRC, but a
  // bundle assembled from mismatched pieces must still be rejected.
  if (out.kb->EntitiesInDomain(out.domain).empty()) {
    return util::Status::InvalidArgument(
        "bundle KB has no entities in served domain '" + out.domain + "'");
  }
  for (kb::EntityId id : out.index.ids()) {
    if (id >= out.kb->num_entities()) {
      return util::Status::InvalidArgument(
          "bundle index references entity ids outside its KB");
    }
  }

  if (bundle->Has("rerank_cache")) {
    auto rerank_ckpt = bundle->OpenArtifact("rerank_cache");
    if (!rerank_ckpt.ok()) return rerank_ckpt.status();
    METABLINK_RETURN_IF_ERROR(LoadRerankCache(*rerank_ckpt,
                                              &out.rerank_cache));
    if (out.rerank_cache.tokens.size() != out.index.size()) {
      return util::Status::InvalidArgument(
          "bundle rerank cache does not cover the indexed entity set");
    }
    if (out.rerank_cache.entity_vec.cols() != out.cross->config().dim) {
      return util::Status::InvalidArgument(
          "bundle rerank cache rows do not match the cross-encoder dim");
    }
    out.has_rerank_cache = true;
  }

  if (bundle->Has("clustered")) {
    auto clustered_ckpt = bundle->OpenArtifact("clustered");
    if (!clustered_ckpt.ok()) return clustered_ckpt.status();
    auto clustered_section = clustered_ckpt->Section("clustered");
    if (!clustered_section.ok()) return clustered_section.status();
    METABLINK_RETURN_IF_ERROR(out.clustered.Load(&*clustered_section));
    // Attach validates the clustering against this bundle's own index (row
    // count and dimension), rejecting bundles assembled from mismatched
    // artifacts even though each passed its CRC.
    METABLINK_RETURN_IF_ERROR(out.clustered.Attach(&out.index));
    out.has_clustered = true;
  }

  if (bundle->Has("cascade")) {
    auto cascade_ckpt = bundle->OpenArtifact("cascade");
    if (!cascade_ckpt.ok()) return cascade_ckpt.status();
    auto cascade_section = cascade_ckpt->Section("cascade");
    if (!cascade_section.ok()) return cascade_section.status();
    METABLINK_RETURN_IF_ERROR(out.cascade.Load(&*cascade_section));
    out.has_cascade = true;
  }
  return out;
}

}  // namespace metablink::store
