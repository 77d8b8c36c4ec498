#include "catalog/catalog.h"

#include <algorithm>

namespace caddb {

bool EffectiveSchema::IsInherited(const std::string& name) const {
  auto it = provenance.find(name);
  return it != provenance.end() && it->second.inherited;
}

const AttributeDef* EffectiveSchema::FindAttribute(
    const std::string& name) const {
  for (const auto& a : attributes) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

const SubclassDef* EffectiveSchema::FindSubclass(
    const std::string& name) const {
  for (const auto& s : subclasses) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const SubrelDef* EffectiveSchema::FindSubrel(const std::string& name) const {
  for (const auto& s : subrels) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Catalog::Catalog(obs::Observability* obs)
    : obs_(obs::SharedOrOwned(obs, &owned_obs_)) {
  m_cache_hits_ = obs_->metrics.GetCounter(
      kSchemaCacheHits,
      "Effective-schema cache probes that found a cached schema");
  m_cache_misses_ = obs_->metrics.GetCounter(
      kSchemaCacheMisses,
      "Effective-schema cache probes that had to compute the schema");
  m_compute_us_ = obs_->metrics.GetHistogram(
      "caddb_catalog_compute_schema_us",
      "Time to compute one effective schema (cache miss path)");
  // Built-in simple domains, addressable by name from DDL text.
  domains_["integer"] = Domain::Int();
  domains_["real"] = Domain::Real();
  domains_["boolean"] = Domain::Bool();
  domains_["string"] = Domain::String();
  domains_["char"] = Domain::String();  // the paper's `char` attributes
  domains_["Point"] = Domain::Point();
}

Status Catalog::RegisterDomain(const std::string& name, Domain domain) {
  if (HasName(name)) {
    return AlreadyExists("name '" + name + "' is already registered");
  }
  domains_[name] = std::move(domain);
  InvalidateSchemaCache();
  return OkStatus();
}

Status Catalog::RegisterObjectType(ObjectTypeDef def) {
  if (def.name.empty()) return InvalidArgument("object type without a name");
  if (HasName(def.name)) {
    return AlreadyExists("name '" + def.name + "' is already registered");
  }
  // Reject duplicate member names within the definition.
  std::set<std::string> seen;
  for (const auto& a : def.attributes) {
    if (!seen.insert(a.name).second) {
      return InvalidArgument("duplicate member '" + a.name + "' in type '" +
                             def.name + "'");
    }
  }
  for (const auto& s : def.subclasses) {
    if (!seen.insert(s.name).second) {
      return InvalidArgument("duplicate member '" + s.name + "' in type '" +
                             def.name + "'");
    }
  }
  for (const auto& s : def.subrels) {
    if (!seen.insert(s.name).second) {
      return InvalidArgument("duplicate member '" + s.name + "' in type '" +
                             def.name + "'");
    }
  }
  object_types_[def.name] = std::move(def);
  InvalidateSchemaCache();
  return OkStatus();
}

Status Catalog::RegisterRelType(RelTypeDef def) {
  if (def.name.empty()) {
    return InvalidArgument("relationship type without a name");
  }
  if (HasName(def.name)) {
    return AlreadyExists("name '" + def.name + "' is already registered");
  }
  std::set<std::string> seen;
  for (const auto& p : def.participants) {
    if (!seen.insert(p.role).second) {
      return InvalidArgument("duplicate role '" + p.role + "' in rel-type '" +
                             def.name + "'");
    }
  }
  for (const auto& a : def.attributes) {
    if (!seen.insert(a.name).second) {
      return InvalidArgument("duplicate member '" + a.name +
                             "' in rel-type '" + def.name + "'");
    }
  }
  for (const auto& s : def.subclasses) {
    if (!seen.insert(s.name).second) {
      return InvalidArgument("duplicate member '" + s.name +
                             "' in rel-type '" + def.name + "'");
    }
  }
  rel_types_[def.name] = std::move(def);
  InvalidateSchemaCache();
  return OkStatus();
}

Status Catalog::RegisterInherRelType(InherRelTypeDef def) {
  if (def.name.empty()) {
    return InvalidArgument("inheritance relationship type without a name");
  }
  if (HasName(def.name)) {
    return AlreadyExists("name '" + def.name + "' is already registered");
  }
  if (def.transmitter_type.empty()) {
    return InvalidArgument("inher-rel-type '" + def.name +
                           "' lacks a transmitter type");
  }
  if (def.inheriting.empty()) {
    return InvalidArgument("inher-rel-type '" + def.name +
                           "' has an empty inheriting clause");
  }
  std::set<std::string> seen;
  for (const auto& item : def.inheriting) {
    if (!seen.insert(item).second) {
      return InvalidArgument("duplicate inheriting item '" + item +
                             "' in inher-rel-type '" + def.name + "'");
    }
  }
  inher_rel_types_[def.name] = std::move(def);
  InvalidateSchemaCache();
  return OkStatus();
}

Result<Domain> Catalog::ResolveDomain(const std::string& name) const {
  auto it = domains_.find(name);
  if (it == domains_.end()) {
    return NotFound("domain '" + name + "' is not registered");
  }
  return it->second;
}

const ObjectTypeDef* Catalog::FindObjectType(const std::string& name) const {
  auto it = object_types_.find(name);
  return it == object_types_.end() ? nullptr : &it->second;
}

const RelTypeDef* Catalog::FindRelType(const std::string& name) const {
  auto it = rel_types_.find(name);
  return it == rel_types_.end() ? nullptr : &it->second;
}

const InherRelTypeDef* Catalog::FindInherRelType(
    const std::string& name) const {
  auto it = inher_rel_types_.find(name);
  return it == inher_rel_types_.end() ? nullptr : &it->second;
}

bool Catalog::HasName(const std::string& name) const {
  return domains_.count(name) > 0 || object_types_.count(name) > 0 ||
         rel_types_.count(name) > 0 || inher_rel_types_.count(name) > 0;
}

std::vector<std::string> Catalog::ObjectTypeNames() const {
  std::vector<std::string> out;
  out.reserve(object_types_.size());
  for (const auto& [name, def] : object_types_) out.push_back(name);
  return out;
}

std::vector<std::string> Catalog::RelTypeNames() const {
  std::vector<std::string> out;
  out.reserve(rel_types_.size());
  for (const auto& [name, def] : rel_types_) out.push_back(name);
  return out;
}

std::vector<std::string> Catalog::InherRelTypeNames() const {
  std::vector<std::string> out;
  out.reserve(inher_rel_types_.size());
  for (const auto& [name, def] : inher_rel_types_) out.push_back(name);
  return out;
}

std::vector<std::string> Catalog::DomainNames() const {
  std::vector<std::string> out;
  out.reserve(domains_.size());
  for (const auto& [name, def] : domains_) out.push_back(name);
  return out;
}

void Catalog::InvalidateSchemaCache() {
  std::lock_guard<std::mutex> lock(schema_cache_mu_);
  schema_cache_.clear();
  ++schema_epoch_;
}

Result<EffectiveSchema> Catalog::EffectiveSchemaFor(
    const std::string& type_name) const {
  CADDB_ASSIGN_OR_RETURN(const EffectiveSchema* schema,
                         FindEffectiveSchema(type_name));
  return *schema;
}

Result<const EffectiveSchema*> Catalog::FindEffectiveSchema(
    const std::string& type_name) const {
  // Held across the compute: ComputeEffectiveSchema never re-enters the
  // cache, and serializing concurrent misses avoids duplicate work.
  std::lock_guard<std::mutex> lock(schema_cache_mu_);
  auto it = schema_cache_.find(type_name);
  if (it != schema_cache_.end()) {
    m_cache_hits_->Increment();
    return &it->second;
  }
  m_cache_misses_->Increment();
  std::set<std::string> in_progress;
  obs::Span span(&obs_->trace, "catalog.compute_schema", m_compute_us_,
                 /*always_time=*/true);
  span.AddAttribute("type", type_name);
  Result<EffectiveSchema> schema =
      ComputeEffectiveSchema(type_name, &in_progress);
  if (!schema.ok()) return schema.status();
  const EffectiveSchema* cached =
      &(schema_cache_[type_name] = *std::move(schema));
  return cached;
}

Result<EffectiveSchema> Catalog::ComputeEffectiveSchema(
    const std::string& type_name, std::set<std::string>* in_progress) const {
  const ObjectTypeDef* def = FindObjectType(type_name);
  if (def == nullptr) {
    return NotFound("object type '" + type_name + "' is not registered");
  }
  if (!in_progress->insert(type_name).second) {
    return CycleError("type-level inheritance cycle through '" + type_name +
                      "'");
  }

  EffectiveSchema schema;
  if (!def->inheritor_in.empty()) {
    const InherRelTypeDef* rel = FindInherRelType(def->inheritor_in);
    if (rel == nullptr) {
      return NotFound("type '" + type_name +
                      "' is inheritor-in unknown inher-rel-type '" +
                      def->inheritor_in + "'");
    }
    if (!rel->inheritor_type.empty() && rel->inheritor_type != type_name) {
      return TypeMismatch("type '" + type_name + "' declares inheritor-in '" +
                          rel->name + "' which requires inheritor type '" +
                          rel->inheritor_type + "'");
    }
    Result<EffectiveSchema> transmitter =
        ComputeEffectiveSchema(rel->transmitter_type, in_progress);
    if (!transmitter.ok()) return transmitter.status();

    schema.inheritor_in = rel->name;
    schema.transmitter_type = rel->transmitter_type;

    // Only items named in the inheriting clause pass through (selectivity /
    // permeability, paper section 4.1). Each must exist in the transmitter's
    // effective schema, so chained hierarchies compose.
    for (const std::string& item : rel->inheriting) {
      if (const AttributeDef* a = transmitter->FindAttribute(item)) {
        schema.attributes.push_back(*a);
        schema.provenance[item] = {
            /*inherited=*/true,
            transmitter->IsInherited(item)
                ? transmitter->provenance.at(item).origin_type
                : rel->transmitter_type};
      } else if (const SubclassDef* s = transmitter->FindSubclass(item)) {
        schema.subclasses.push_back(*s);
        schema.provenance[item] = {
            /*inherited=*/true,
            transmitter->IsInherited(item)
                ? transmitter->provenance.at(item).origin_type
                : rel->transmitter_type};
      } else {
        return InvalidArgument(
            "inher-rel-type '" + rel->name + "' inherits '" + item +
            "' which is neither an attribute nor a subclass of transmitter "
            "type '" +
            rel->transmitter_type + "'");
      }
    }
  }

  // Local items; collisions with inherited names are rejected (the paper
  // gives no shadowing semantics, so we forbid shadowing outright).
  for (const auto& a : def->attributes) {
    if (schema.provenance.count(a.name) > 0) {
      return InvalidArgument("type '" + type_name + "' redeclares inherited '" +
                             a.name + "'");
    }
    schema.attributes.push_back(a);
    schema.provenance[a.name] = {/*inherited=*/false, type_name};
  }
  for (const auto& s : def->subclasses) {
    if (schema.provenance.count(s.name) > 0) {
      return InvalidArgument("type '" + type_name + "' redeclares inherited '" +
                             s.name + "'");
    }
    schema.subclasses.push_back(s);
    schema.provenance[s.name] = {/*inherited=*/false, type_name};
  }
  for (const auto& s : def->subrels) {
    if (schema.provenance.count(s.name) > 0) {
      return InvalidArgument("type '" + type_name + "' redeclares inherited '" +
                             s.name + "'");
    }
    schema.subrels.push_back(s);
    schema.provenance[s.name] = {/*inherited=*/false, type_name};
  }

  in_progress->erase(type_name);
  return schema;
}

Status Catalog::ValidateDomainTree(const Domain& d,
                                   const std::string& where) const {
  switch (d.kind()) {
    case Domain::Kind::kNamed: {
      Result<Domain> resolved = ResolveDomain(d.name());
      if (!resolved.ok()) {
        return NotFound("unresolved domain '" + d.name() + "' in " + where);
      }
      return OkStatus();
    }
    case Domain::Kind::kRecord:
      for (const auto& f : d.record_fields()) {
        CADDB_RETURN_IF_ERROR(ValidateDomainTree(f.second, where));
      }
      return OkStatus();
    case Domain::Kind::kListOf:
    case Domain::Kind::kSetOf:
    case Domain::Kind::kMatrixOf:
      return ValidateDomainTree(d.element(), where);
    case Domain::Kind::kRef:
      if (!d.name().empty() && FindObjectType(d.name()) == nullptr &&
          FindRelType(d.name()) == nullptr) {
        return NotFound("unresolved object type '" + d.name() + "' in " +
                        where);
      }
      return OkStatus();
    default:
      return OkStatus();
  }
}

Status Catalog::Validate() const {
  for (const auto& [name, d] : domains_) {
    CADDB_RETURN_IF_ERROR(ValidateDomainTree(d, "domain '" + name + "'"));
  }
  for (const auto& [name, def] : object_types_) {
    for (const auto& a : def.attributes) {
      CADDB_RETURN_IF_ERROR(ValidateDomainTree(
          a.domain, "attribute '" + name + "." + a.name + "'"));
    }
    for (const auto& s : def.subclasses) {
      if (FindObjectType(s.element_type) == nullptr) {
        return NotFound("subclass '" + name + "." + s.name +
                        "' has unknown element type '" + s.element_type + "'");
      }
    }
    for (const auto& s : def.subrels) {
      if (FindRelType(s.rel_type) == nullptr) {
        return NotFound("subrel '" + name + "." + s.name +
                        "' has unknown rel-type '" + s.rel_type + "'");
      }
    }
    // Forces cycle detection and inheriting-clause resolution.
    Result<EffectiveSchema> schema = EffectiveSchemaFor(name);
    if (!schema.ok()) return schema.status();
  }
  for (const auto& [name, def] : rel_types_) {
    for (const auto& p : def.participants) {
      if (!p.object_type.empty() && FindObjectType(p.object_type) == nullptr) {
        return NotFound("role '" + name + "." + p.role +
                        "' has unknown object type '" + p.object_type + "'");
      }
    }
    for (const auto& a : def.attributes) {
      CADDB_RETURN_IF_ERROR(ValidateDomainTree(
          a.domain, "attribute '" + name + "." + a.name + "'"));
    }
    for (const auto& s : def.subclasses) {
      if (FindObjectType(s.element_type) == nullptr) {
        return NotFound("subclass '" + name + "." + s.name +
                        "' has unknown element type '" + s.element_type + "'");
      }
    }
  }
  for (const auto& [name, def] : inher_rel_types_) {
    if (FindObjectType(def.transmitter_type) == nullptr) {
      return NotFound("inher-rel-type '" + name +
                      "' has unknown transmitter type '" +
                      def.transmitter_type + "'");
    }
    if (!def.inheritor_type.empty() &&
        FindObjectType(def.inheritor_type) == nullptr) {
      return NotFound("inher-rel-type '" + name +
                      "' has unknown inheritor type '" + def.inheritor_type +
                      "'");
    }
    Result<EffectiveSchema> transmitter =
        EffectiveSchemaFor(def.transmitter_type);
    if (!transmitter.ok()) return transmitter.status();
    for (const std::string& item : def.inheriting) {
      if (transmitter->FindAttribute(item) == nullptr &&
          transmitter->FindSubclass(item) == nullptr) {
        return InvalidArgument("inher-rel-type '" + name + "' inherits '" +
                               item + "' which transmitter type '" +
                               def.transmitter_type + "' does not provide");
      }
    }
    for (const auto& a : def.attributes) {
      CADDB_RETURN_IF_ERROR(ValidateDomainTree(
          a.domain, "attribute '" + name + "." + a.name + "'"));
    }
    for (const auto& s : def.subclasses) {
      if (FindObjectType(s.element_type) == nullptr) {
        return NotFound("subclass '" + name + "." + s.name +
                        "' has unknown element type '" + s.element_type + "'");
      }
    }
  }
  return OkStatus();
}

}  // namespace caddb
