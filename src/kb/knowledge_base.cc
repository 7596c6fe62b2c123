#include "kb/knowledge_base.h"

#include "util/string_util.h"

namespace metablink::kb {

namespace {
std::string TitleKey(const std::string& domain, const std::string& title) {
  std::string key = domain;
  key += '\x1f';
  key += title;
  return key;
}
const std::vector<EntityId> kEmptyIdList;
const std::string kEmptyString;
}  // namespace

util::Result<EntityId> KnowledgeBase::AddEntity(Entity entity) {
  if (entity.title.empty()) {
    return util::Status::InvalidArgument("entity title must be non-empty");
  }
  std::string key = TitleKey(entity.domain, entity.title);
  if (title_index_.count(key) > 0) {
    return util::Status::AlreadyExists(util::StrFormat(
        "entity '%s' already exists in domain '%s'", entity.title.c_str(),
        entity.domain.c_str()));
  }
  EntityId id = static_cast<EntityId>(entities_.size());
  entity.id = id;
  title_index_.emplace(std::move(key), id);
  auto [it, inserted] = domain_entities_.try_emplace(entity.domain);
  if (inserted) domain_order_.push_back(entity.domain);
  it->second.push_back(id);
  entities_.push_back(std::move(entity));
  return id;
}

util::Result<Entity> KnowledgeBase::GetEntity(EntityId id) const {
  if (id >= entities_.size()) {
    return util::Status::NotFound(
        util::StrFormat("no entity with id %u", id));
  }
  return entities_[id];
}

util::Result<EntityId> KnowledgeBase::FindByTitle(
    const std::string& domain, const std::string& title) const {
  auto it = title_index_.find(TitleKey(domain, title));
  if (it == title_index_.end()) {
    return util::Status::NotFound(util::StrFormat(
        "entity '%s' not found in domain '%s'", title.c_str(),
        domain.c_str()));
  }
  return it->second;
}

const std::vector<EntityId>& KnowledgeBase::EntitiesInDomain(
    const std::string& domain) const {
  auto it = domain_entities_.find(domain);
  return it == domain_entities_.end() ? kEmptyIdList : it->second;
}

std::vector<std::string> KnowledgeBase::DomainNames() const {
  return domain_order_;
}

RelationId KnowledgeBase::AddRelation(const std::string& name) {
  auto it = relation_ids_.find(name);
  if (it != relation_ids_.end()) return it->second;
  RelationId id = static_cast<RelationId>(relation_names_.size());
  relation_ids_.emplace(name, id);
  relation_names_.push_back(name);
  return id;
}

const std::string& KnowledgeBase::RelationName(RelationId id) const {
  if (id >= relation_names_.size()) return kEmptyString;
  return relation_names_[id];
}

util::Status KnowledgeBase::AddTriple(EntityId head, RelationId relation,
                                      EntityId tail) {
  if (head >= entities_.size() || tail >= entities_.size()) {
    return util::Status::InvalidArgument("triple references unknown entity");
  }
  if (relation >= relation_names_.size()) {
    return util::Status::InvalidArgument("triple references unknown relation");
  }
  triples_.push_back(Triple{head, relation, tail});
  return util::Status::OK();
}

std::vector<Triple> KnowledgeBase::TriplesFrom(EntityId head) const {
  std::vector<Triple> out;
  for (const Triple& t : triples_) {
    if (t.head == head) out.push_back(t);
  }
  return out;
}

void KnowledgeBase::Save(util::BinaryWriter* writer) const {
  writer->WriteU64(entities_.size());
  for (const Entity& e : entities_) {
    writer->WriteString(e.title);
    writer->WriteString(e.description);
    writer->WriteString(e.domain);
  }
  writer->WriteU64(relation_names_.size());
  for (const auto& r : relation_names_) writer->WriteString(r);
  writer->WriteU64(triples_.size());
  for (const Triple& t : triples_) {
    writer->WriteU32(t.head);
    writer->WriteU32(t.relation);
    writer->WriteU32(t.tail);
  }
}

util::Result<KnowledgeBase> KnowledgeBase::Load(util::BinaryReader* reader) {
  KnowledgeBase kb;
  std::uint64_t num_entities = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&num_entities));
  for (std::uint64_t i = 0; i < num_entities; ++i) {
    Entity e;
    METABLINK_RETURN_IF_ERROR(reader->ReadString(&e.title));
    METABLINK_RETURN_IF_ERROR(reader->ReadString(&e.description));
    METABLINK_RETURN_IF_ERROR(reader->ReadString(&e.domain));
    auto r = kb.AddEntity(std::move(e));
    if (!r.ok()) return r.status();
  }
  std::uint64_t num_relations = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&num_relations));
  for (std::uint64_t i = 0; i < num_relations; ++i) {
    std::string name;
    METABLINK_RETURN_IF_ERROR(reader->ReadString(&name));
    kb.AddRelation(name);
  }
  std::uint64_t num_triples = 0;
  METABLINK_RETURN_IF_ERROR(reader->ReadU64(&num_triples));
  for (std::uint64_t i = 0; i < num_triples; ++i) {
    std::uint32_t h = 0, r = 0, t = 0;
    METABLINK_RETURN_IF_ERROR(reader->ReadU32(&h));
    METABLINK_RETURN_IF_ERROR(reader->ReadU32(&r));
    METABLINK_RETURN_IF_ERROR(reader->ReadU32(&t));
    METABLINK_RETURN_IF_ERROR(kb.AddTriple(h, r, t));
  }
  return kb;
}

}  // namespace metablink::kb
