#ifndef METABLINK_KB_KNOWLEDGE_BASE_H_
#define METABLINK_KB_KNOWLEDGE_BASE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "kb/entity.h"
#include "util/serialize.h"
#include "util/status.h"

namespace metablink::kb {

/// Relation identifier.
using RelationId = std::uint32_t;

/// A (head, relation, tail) fact triple; G = {E; R; T} in the paper's
/// preliminaries.
struct Triple {
  EntityId head = kInvalidEntityId;
  RelationId relation = 0;
  EntityId tail = kInvalidEntityId;

  bool operator==(const Triple& o) const {
    return head == o.head && relation == o.relation && tail == o.tail;
  }
};

/// In-memory knowledge base: an entity set partitioned into domains, a
/// relation vocabulary, and fact triples. Entities are append-only and
/// densely numbered, which lets downstream components (retrieval index,
/// embedding matrices) use EntityId as a direct row index.
class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  // ---- Entities ----------------------------------------------------------

  /// Adds an entity (id is assigned; `entity.id` is ignored). Titles must be
  /// unique within a domain. Returns the assigned id.
  util::Result<EntityId> AddEntity(Entity entity);

  /// Looks up an entity by id.
  util::Result<Entity> GetEntity(EntityId id) const;

  /// Borrowing accessor; pre: `id` < num_entities().
  const Entity& entity(EntityId id) const { return entities_[id]; }

  std::size_t num_entities() const { return entities_.size(); }
  const std::vector<Entity>& entities() const { return entities_; }

  /// Finds an entity id by (domain, title); NotFound if absent.
  util::Result<EntityId> FindByTitle(const std::string& domain,
                                     const std::string& title) const;

  // ---- Domains -----------------------------------------------------------

  /// All entity ids belonging to `domain` (empty if unknown domain).
  const std::vector<EntityId>& EntitiesInDomain(
      const std::string& domain) const;

  /// Names of all domains in insertion order.
  std::vector<std::string> DomainNames() const;

  // ---- Relations and triples ---------------------------------------------

  /// Interns a relation name, returning its id.
  RelationId AddRelation(const std::string& name);

  /// Returns the relation name for `id` (empty if out of range).
  const std::string& RelationName(RelationId id) const;

  std::size_t num_relations() const { return relation_names_.size(); }

  /// Adds a fact triple. Both entity ids must exist.
  util::Status AddTriple(EntityId head, RelationId relation, EntityId tail);

  const std::vector<Triple>& triples() const { return triples_; }

  /// All triples with `head` as the subject.
  std::vector<Triple> TriplesFrom(EntityId head) const;

  // ---- Serialization -----------------------------------------------------

  void Save(util::BinaryWriter* writer) const;
  static util::Result<KnowledgeBase> Load(util::BinaryReader* reader);

 private:
  std::vector<Entity> entities_;
  std::unordered_map<std::string, std::vector<EntityId>> domain_entities_;
  std::vector<std::string> domain_order_;
  // (domain + '\x1f' + title) -> id, for uniqueness and FindByTitle.
  std::unordered_map<std::string, EntityId> title_index_;
  std::vector<std::string> relation_names_;
  std::unordered_map<std::string, RelationId> relation_ids_;
  std::vector<Triple> triples_;
};

}  // namespace metablink::kb

#endif  // METABLINK_KB_KNOWLEDGE_BASE_H_
