#include "store/model_bundle.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/serialize.h"
#include "util/string_util.h"

namespace metablink::store {

namespace {

// The rerank artifact: the tag, a version, the entity-tower rows, the
// vocabulary table (every vocabulary token, once, in ascending byte
// order), then per entity its title and description sets as ascending
// table positions and its normalized title forms. Identical caches produce
// identical bytes (and therefore identical CRCs) whatever ids the
// in-memory vocabulary happened to assign, and a load interns each
// distinct token once instead of every occurrence.
constexpr std::uint32_t kRerankTag = 0x324B5252u;  // "RRK2"
constexpr std::uint32_t kRerankVersion = 1;
// The retired layout, which stored every set as sorted strings.
constexpr std::uint32_t kOldRerankTag = 0x4B4E5252u;  // "RRNK"

// The smallest framed vocabulary entry: its string length.
constexpr std::size_t kMinVocabEntryBytes = 8;
// The smallest framed token row: two set counts, two string lengths, and
// the has_phrase flag. Caps how many rows a section can claim.
constexpr std::size_t kMinTokenRowBytes = 8 + 8 + 8 + 8 + 4;

// Writes `ids` mapped to table positions through `pos`, ascending.
void SaveIdSet(const std::vector<std::uint32_t>& ids,
               const std::vector<std::uint32_t>& pos,
               std::vector<std::uint32_t>* scratch, util::BinaryWriter* w) {
  scratch->clear();
  for (std::uint32_t id : ids) scratch->push_back(pos[id]);
  std::sort(scratch->begin(), scratch->end());
  w->WriteU32Vector(*scratch);
}

// Reads one set of table positions, which must ascend strictly below
// `vocab_size`: OverlapFeaturesCached intersects sets as sorted runs.
util::Status LoadIdSet(util::BinaryReader* r, std::size_t vocab_size,
                       std::vector<std::uint32_t>* ids) {
  METABLINK_RETURN_IF_ERROR(r->ReadU32Vector(ids));
  for (std::size_t i = 1; i < ids->size(); ++i) {
    if ((*ids)[i] <= (*ids)[i - 1]) {
      return util::Status::InvalidArgument(
          "rerank-cache token set is not strictly ascending");
    }
  }
  if (!ids->empty() && ids->back() >= vocab_size) {
    return util::Status::InvalidArgument(
        "rerank-cache token id outside the vocabulary table");
  }
  return util::Status::OK();
}

void SaveRerankCache(const model::CrossEntityCache& cache,
                     CheckpointWriter* ckpt) {
  std::vector<const std::string*> by_id(cache.vocab.size());
  for (const auto& [token, id] : cache.vocab) by_id[id] = &token;
  // table[i] is the in-memory id of table entry i; pos inverts it.
  std::vector<std::uint32_t> table(by_id.size());
  std::iota(table.begin(), table.end(), 0u);
  std::sort(table.begin(), table.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return *by_id[a] < *by_id[b];
            });
  std::vector<std::uint32_t> pos(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    pos[table[i]] = static_cast<std::uint32_t>(i);
  }

  util::BinaryWriter* w = ckpt->AddSection("rerank");
  w->WriteU32(kRerankTag);
  w->WriteU32(kRerankVersion);
  w->WriteU64(cache.entity_vec.rows());
  w->WriteU64(cache.entity_vec.cols());
  w->WriteFloatVector(cache.entity_vec.data());
  w->WriteU64(table.size());
  for (std::uint32_t id : table) w->WriteString(*by_id[id]);
  w->WriteU64(cache.tokens.size());
  std::vector<std::uint32_t> scratch;
  for (const model::CachedEntityTokens& t : cache.tokens) {
    SaveIdSet(t.title_ids, pos, &scratch, w);
    SaveIdSet(t.desc_ids, pos, &scratch, w);
    w->WriteString(t.norm_title);
    w->WriteString(t.norm_base);
    w->WriteU32(t.has_phrase ? 1u : 0u);
  }
}

// Loads the vocabulary table: its entries must ascend strictly, so each
// token takes its table position as id and no two share one.
util::Status LoadVocabularyTable(util::BinaryReader* r,
                                 model::TokenVocabulary* vocab) {
  std::uint64_t n = 0;
  METABLINK_RETURN_IF_ERROR(r->ReadU64(&n));
  if (n > r->Remaining() / kMinVocabEntryBytes) {
    return util::Status::OutOfRange("truncated rerank-cache vocabulary");
  }
  // Positions are u32 ids.
  if (n > std::uint64_t{1} << 32) {
    return util::Status::InvalidArgument("rerank-cache vocabulary too large");
  }
  vocab->reserve(static_cast<std::size_t>(n));
  const std::string* prev = nullptr;
  std::string s;
  for (std::uint64_t i = 0; i < n; ++i) {
    METABLINK_RETURN_IF_ERROR(r->ReadString(&s));
    if (prev != nullptr && !(*prev < s)) {
      return util::Status::InvalidArgument(
          "rerank-cache vocabulary is not strictly ascending");
    }
    // Node keys stay put across rehashes, so `prev` stays valid.
    prev = &vocab->emplace(std::move(s), static_cast<std::uint32_t>(i))
                .first->first;
  }
  return util::Status::OK();
}

util::Status LoadRerankCache(const CheckpointReader& ckpt,
                             model::CrossEntityCache* out) {
  auto section = ckpt.Section("rerank");
  if (!section.ok()) return section.status();
  std::uint32_t tag = 0, version = 0;
  METABLINK_RETURN_IF_ERROR(section->ReadU32(&tag));
  if (tag == kOldRerankTag) {
    return util::Status::InvalidArgument(
        "rerank-cache artifact has the retired \"RRNK\" layout; re-save "
        "the bundle");
  }
  if (tag != kRerankTag) {
    return util::Status::InvalidArgument("not a rerank-cache artifact");
  }
  METABLINK_RETURN_IF_ERROR(section->ReadU32(&version));
  if (version == 0 || version > kRerankVersion) {
    return util::Status::InvalidArgument(util::StrFormat(
        "unsupported rerank-cache version %u", version));
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
  model::TokenVocabulary vocab;
  METABLINK_RETURN_IF_ERROR(LoadVocabularyTable(&*section, &vocab));
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
  for (model::CachedEntityTokens& t : tokens) {
    METABLINK_RETURN_IF_ERROR(
        LoadIdSet(&*section, vocab.size(), &t.title_ids));
    METABLINK_RETURN_IF_ERROR(
        LoadIdSet(&*section, vocab.size(), &t.desc_ids));
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
  return bundle.Finalize(parts.model_version, parts.domain);
}

util::Result<ModelBundle> LoadModelBundle(const std::string& dir) {
  auto bundle = BundleReader::Open(dir);
  if (!bundle.ok()) return bundle.status();

  ModelBundle out;
  out.model_version = bundle->manifest().model_version;
  out.domain = bundle->manifest().domain;

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
