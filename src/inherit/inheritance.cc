#include "inherit/inheritance.h"

namespace caddb {

InheritanceManager::InheritanceManager(ObjectStore* store,
                                       NotificationCenter* notifications,
                                       obs::Observability* obs)
    : store_(store),
      notifications_(notifications),
      obs_(obs::SharedOrOwned(obs, &owned_obs_)) {
  m_cache_hits_ = obs_->metrics.GetCounter(
      kCacheHits, "Resolution-cache probes served from a valid entry");
  m_cache_misses_ = obs_->metrics.GetCounter(
      kCacheMisses,
      "Resolution-cache probes that fell through to a chain walk");
  m_invalidations_ = obs_->metrics.GetCounter(
      kCacheInvalidations,
      "Cache probes that evicted a stale entry (also counted as misses)");
  m_resolutions_ = obs_->metrics.GetCounter(
      "caddb_inherit_resolutions_total",
      "Inherited attribute/subclass reads resolved (cached or walked)");
  m_resolve_us_ = obs_->metrics.GetHistogram(
      "caddb_inherit_resolve_us",
      "Inherited read latency; recorded only while tracing is enabled");
}

Result<Surrogate> InheritanceManager::Bind(Surrogate inheritor,
                                           Surrogate transmitter,
                                           const std::string& inher_rel_type) {
  return store_->CreateInherRel(inher_rel_type, transmitter, inheritor);
}

Status InheritanceManager::Unbind(Surrogate inheritor) {
  Result<Surrogate> rel = BindingOf(inheritor);
  // ObjectStore::Unbind bumps the inheritor's per-object version (the one
  // fine-grained cache entries depend on), so cached inherited values of the
  // inheritor — and of everything bound below it — go stale here, never
  // serving a pre-unbind value for a now-unbound inheritor.
  CADDB_RETURN_IF_ERROR(store_->Unbind(inheritor));
  if (rel.ok() && rel->valid() && notifications_ != nullptr) {
    notifications_->Forget(*rel);
  }
  return OkStatus();
}

Result<Surrogate> InheritanceManager::TransmitterOf(
    Surrogate inheritor) const {
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(inheritor));
  Surrogate rel_s = obj->bound_inher_rel();
  if (!rel_s.valid()) return Surrogate::Invalid();
  CADDB_ASSIGN_OR_RETURN(const DbObject* rel, store_->Get(rel_s));
  return rel->Participant("transmitter");
}

Result<Surrogate> InheritanceManager::BindingOf(Surrogate inheritor) const {
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(inheritor));
  return obj->bound_inher_rel();
}

Result<std::vector<Surrogate>> InheritanceManager::InheritorsOf(
    Surrogate transmitter) const {
  std::vector<Surrogate> out;
  for (Surrogate rel_s : store_->InherRelsOfTransmitter(transmitter)) {
    Result<const DbObject*> rel = store_->Get(rel_s);
    if (!rel.ok()) {
      return InternalError(
          "where-used index names inher-rel @" + std::to_string(rel_s.id) +
          " of transmitter @" + std::to_string(transmitter.id) +
          " which the store cannot produce: " + rel.status().ToString());
    }
    out.push_back((*rel)->Participant("inheritor"));
  }
  return out;
}

template <typename T>
bool InheritanceManager::EntryValid(const CacheEntry<T>& entry) const {
  if (entry.schema_epoch != store_->catalog().schema_epoch()) return false;
  for (const auto& [id, version] : entry.deps) {
    if (store_->ObjectVersion(Surrogate(id)) != version) return false;
  }
  return true;
}

template <typename T>
const T* InheritanceManager::Probe(std::map<CacheKey, CacheEntry<T>>* cache,
                                   const CacheKey& key) const {
  auto it = cache->find(key);
  if (it != cache->end()) {
    if (EntryValid(it->second)) {
      m_cache_hits_->Increment();
      return &it->second.payload;
    }
    m_invalidations_->Increment();
    cache->erase(it);
  }
  m_cache_misses_->Increment();
  return nullptr;
}

template <typename T>
void InheritanceManager::FillChain(std::map<CacheKey, CacheEntry<T>>* cache,
                                   const std::string& item,
                                   const std::vector<const DbObject*>& chain,
                                   bool terminal_is_local,
                                   const T& payload) const {
  const uint64_t epoch = store_->catalog().schema_epoch();
  // A terminal that resolved `item` as its own local data never consults the
  // cache on reads, so an entry keyed on it would be dead weight.
  const size_t cached_nodes =
      terminal_is_local ? chain.size() - 1 : chain.size();
  for (size_t i = 0; i < cached_nodes; ++i) {
    CacheEntry<T>& entry =
        (*cache)[CacheKey(chain[i]->surrogate().id, item)];
    entry.schema_epoch = epoch;
    entry.deps.clear();
    for (size_t j = i; j < chain.size(); ++j) {
      entry.deps.emplace_back(chain[j]->surrogate().id, chain[j]->version());
    }
    entry.payload = payload;
  }
}

Result<Value> InheritanceManager::GetAttribute(Surrogate s,
                                               const std::string& name) const {
  // Trace-gated on purpose: this is the hottest read path, so the clock
  // only runs (and the histogram only fills) while tracing is enabled.
  obs::Span span(&obs_->trace, "inherit.get_attribute", m_resolve_us_);
  span.AddAttribute("attr", name);
  m_resolutions_->Increment();
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(s));

  if (obj->kind() != ObjKind::kObject) {
    // Relationship objects have no inherited attributes.
    return store_->GetLocalAttribute(s, name);
  }

  CADDB_ASSIGN_OR_RETURN(
      const EffectiveSchema* schema,
      store_->catalog().FindEffectiveSchema(obj->type_name()));
  if (schema->FindAttribute(name) == nullptr) {
    return NotFound("type '" + obj->type_name() + "' has no attribute '" +
                    name + "'");
  }
  if (!schema->IsInherited(name)) {
    return obj->LocalAttribute(name);
  }

  if (cache_enabled_) {
    if (const Value* hit = Probe(&attr_cache_, CacheKey(s.id, name))) {
      return *hit;
    }
  }

  // Inherited: resolve through the transmitter chain (view semantics),
  // recording every visited object as a dependency of the result. Unbound
  // inheritors only inherit the attribute *structure*, so the value is null
  // (and depends on exactly the node whose binding is missing).
  std::vector<const DbObject*> chain;
  Value resolved = Value::Null();
  bool terminal_is_local = false;
  const DbObject* node = obj;
  const EffectiveSchema* node_schema = schema;
  while (true) {
    chain.push_back(node);
    if (!node_schema->IsInherited(name)) {
      resolved = node->LocalAttribute(name);
      terminal_is_local = true;
      break;
    }
    Surrogate rel_s = node->bound_inher_rel();
    if (!rel_s.valid()) break;
    CADDB_ASSIGN_OR_RETURN(const DbObject* rel, store_->Get(rel_s));
    CADDB_ASSIGN_OR_RETURN(node, store_->Get(rel->Participant("transmitter")));
    CADDB_ASSIGN_OR_RETURN(
        node_schema,
        store_->catalog().FindEffectiveSchema(node->type_name()));
  }

  if (cache_enabled_) {
    FillChain(&attr_cache_, name, chain, terminal_is_local, resolved);
  }
  return resolved;
}

Result<std::vector<Surrogate>> InheritanceManager::GetSubclass(
    Surrogate s, const std::string& name) const {
  obs::Span span(&obs_->trace, "inherit.get_subclass", m_resolve_us_);
  span.AddAttribute("subclass", name);
  m_resolutions_->Increment();
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(s));

  if (obj->kind() != ObjKind::kObject) {
    const std::vector<Surrogate>* members = obj->Subclass(name);
    if (members != nullptr) return *members;
    // Relationship subclasses are declared in the rel / inher-rel type.
    const RelTypeDef* rel_def =
        store_->catalog().FindRelType(obj->type_name());
    if (rel_def != nullptr && rel_def->FindSubclass(name) != nullptr) {
      return std::vector<Surrogate>{};
    }
    const InherRelTypeDef* inher_def =
        store_->catalog().FindInherRelType(obj->type_name());
    if (inher_def != nullptr) {
      for (const auto& sub : inher_def->subclasses) {
        if (sub.name == name) return std::vector<Surrogate>{};
      }
    }
    return NotFound("type '" + obj->type_name() + "' has no subclass '" +
                    name + "'");
  }

  CADDB_ASSIGN_OR_RETURN(
      const EffectiveSchema* schema,
      store_->catalog().FindEffectiveSchema(obj->type_name()));
  if (schema->FindSubclass(name) == nullptr) {
    return NotFound("type '" + obj->type_name() + "' has no subclass '" +
                    name + "'");
  }
  if (!schema->IsInherited(name)) {
    const std::vector<Surrogate>* members = obj->Subclass(name);
    return members == nullptr ? std::vector<Surrogate>{} : *members;
  }

  if (cache_enabled_) {
    if (const std::vector<Surrogate>* hit =
            Probe(&subclass_cache_, CacheKey(s.id, name))) {
      return *hit;
    }
  }

  // Same chain walk as GetAttribute: the member list is the terminal
  // transmitter's local subclass, viewed read-only through the chain.
  std::vector<const DbObject*> chain;
  std::vector<Surrogate> resolved;
  bool terminal_is_local = false;
  const DbObject* node = obj;
  const EffectiveSchema* node_schema = schema;
  while (true) {
    chain.push_back(node);
    if (!node_schema->IsInherited(name)) {
      const std::vector<Surrogate>* members = node->Subclass(name);
      if (members != nullptr) resolved = *members;
      terminal_is_local = true;
      break;
    }
    Surrogate rel_s = node->bound_inher_rel();
    if (!rel_s.valid()) break;
    CADDB_ASSIGN_OR_RETURN(const DbObject* rel, store_->Get(rel_s));
    CADDB_ASSIGN_OR_RETURN(node, store_->Get(rel->Participant("transmitter")));
    CADDB_ASSIGN_OR_RETURN(
        node_schema,
        store_->catalog().FindEffectiveSchema(node->type_name()));
  }

  if (cache_enabled_) {
    FillChain(&subclass_cache_, name, chain, terminal_is_local, resolved);
  }
  return resolved;
}

void InheritanceManager::NotifyChange(Surrogate transmitter,
                                      const std::string& item) {
  for (Surrogate rel_s : store_->InherRelsOfTransmitter(transmitter)) {
    Result<const DbObject*> rel = store_->Get(rel_s);
    if (!rel.ok()) continue;
    const InherRelTypeDef* def =
        store_->catalog().FindInherRelType((*rel)->type_name());
    if (def == nullptr || !def->Permeable(item)) continue;
    if (notifications_ != nullptr) {
      notifications_->Record(rel_s, transmitter, item);
    }
    // The inheritor's *inherited* view of `item` changed, which in turn is
    // visible to the inheritor's own inheritors if permeable there.
    NotifyChange((*rel)->Participant("inheritor"), item);
  }
}

Status InheritanceManager::SetAttribute(Surrogate s, const std::string& name,
                                        Value v) {
  CADDB_RETURN_IF_ERROR(store_->SetAttribute(s, name, std::move(v)));
  NotifyChange(s, name);
  return OkStatus();
}

Result<Surrogate> InheritanceManager::CreateSubobject(
    Surrogate parent, const std::string& subclass_name) {
  CADDB_ASSIGN_OR_RETURN(Surrogate s,
                         store_->CreateSubobject(parent, subclass_name));
  NotifyChange(parent, subclass_name);
  return s;
}

Status InheritanceManager::DeleteObject(Surrogate s,
                                        ObjectStore::DeletePolicy policy) {
  // Capture the containment context before deletion for the notification.
  Surrogate parent = Surrogate::Invalid();
  std::string subclass;
  Result<const DbObject*> obj = store_->Get(s);
  if (obj.ok() && (*obj)->IsSubobject()) {
    parent = (*obj)->parent();
    subclass = (*obj)->parent_subclass();
  }
  CADDB_RETURN_IF_ERROR(store_->Delete(s, policy));
  if (parent.valid() && !subclass.empty() && store_->Exists(parent)) {
    NotifyChange(parent, subclass);
  }
  return OkStatus();
}

Result<std::map<std::string, Value>> InheritanceManager::Snapshot(
    Surrogate s) const {
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(s));
  std::map<std::string, Value> out;
  if (obj->kind() == ObjKind::kObject) {
    CADDB_ASSIGN_OR_RETURN(
        const EffectiveSchema* schema,
        store_->catalog().FindEffectiveSchema(obj->type_name()));
    for (const AttributeDef& a : schema->attributes) {
      CADDB_ASSIGN_OR_RETURN(Value v, GetAttribute(s, a.name));
      out[a.name] = std::move(v);
    }
  } else {
    out = obj->attributes();
  }
  return out;
}

Result<Value> InheritanceManager::ResolveAttributeUncached(
    Surrogate s, const std::string& name) const {
  CADDB_ASSIGN_OR_RETURN(const DbObject* node, store_->Get(s));
  CADDB_ASSIGN_OR_RETURN(
      const EffectiveSchema* node_schema,
      store_->catalog().FindEffectiveSchema(node->type_name()));
  if (node_schema->FindAttribute(name) == nullptr) {
    return NotFound("type '" + node->type_name() + "' has no attribute '" +
                    name + "'");
  }
  while (node_schema->IsInherited(name)) {
    Surrogate rel_s = node->bound_inher_rel();
    if (!rel_s.valid()) return Value::Null();  // unbound: structure only
    CADDB_ASSIGN_OR_RETURN(const DbObject* rel, store_->Get(rel_s));
    CADDB_ASSIGN_OR_RETURN(node, store_->Get(rel->Participant("transmitter")));
    CADDB_ASSIGN_OR_RETURN(
        node_schema,
        store_->catalog().FindEffectiveSchema(node->type_name()));
  }
  return node->LocalAttribute(name);
}

Result<std::vector<Surrogate>> InheritanceManager::ResolveSubclassUncached(
    Surrogate s, const std::string& name) const {
  CADDB_ASSIGN_OR_RETURN(const DbObject* node, store_->Get(s));
  CADDB_ASSIGN_OR_RETURN(
      const EffectiveSchema* node_schema,
      store_->catalog().FindEffectiveSchema(node->type_name()));
  if (node_schema->FindSubclass(name) == nullptr) {
    return NotFound("type '" + node->type_name() + "' has no subclass '" +
                    name + "'");
  }
  while (node_schema->IsInherited(name)) {
    Surrogate rel_s = node->bound_inher_rel();
    if (!rel_s.valid()) return std::vector<Surrogate>{};
    CADDB_ASSIGN_OR_RETURN(const DbObject* rel, store_->Get(rel_s));
    CADDB_ASSIGN_OR_RETURN(node, store_->Get(rel->Participant("transmitter")));
    CADDB_ASSIGN_OR_RETURN(
        node_schema,
        store_->catalog().FindEffectiveSchema(node->type_name()));
  }
  const std::vector<Surrogate>* members = node->Subclass(name);
  return members == nullptr ? std::vector<Surrogate>{} : *members;
}

std::vector<std::string> InheritanceManager::AuditCache() const {
  std::vector<std::string> out;
  auto describe = [](const CacheKey& key) {
    return "(@" + std::to_string(key.first) + ", '" + key.second + "')";
  };
  for (const auto& [key, entry] : attr_cache_) {
    if (!EntryValid(entry)) continue;  // legal staleness, evicted on probe
    Result<Value> fresh =
        ResolveAttributeUncached(Surrogate(key.first), key.second);
    if (!fresh.ok()) {
      out.push_back("attribute cache entry " + describe(key) +
                    " validates but cannot be re-resolved: " +
                    fresh.status().ToString());
    } else if (*fresh != entry.payload) {
      out.push_back("attribute cache entry " + describe(key) + " holds " +
                    entry.payload.ToString() +
                    " but a fresh resolution yields " + fresh->ToString());
    }
  }
  for (const auto& [key, entry] : subclass_cache_) {
    if (!EntryValid(entry)) continue;
    Result<std::vector<Surrogate>> fresh =
        ResolveSubclassUncached(Surrogate(key.first), key.second);
    if (!fresh.ok()) {
      out.push_back("subclass cache entry " + describe(key) +
                    " validates but cannot be re-resolved: " +
                    fresh.status().ToString());
    } else if (*fresh != entry.payload) {
      out.push_back("subclass cache entry " + describe(key) + " holds " +
                    std::to_string(entry.payload.size()) +
                    " member(s) but a fresh resolution yields " +
                    std::to_string(fresh->size()));
    }
  }
  return out;
}

void InheritanceManager::EnableCache(bool on) {
  if (on == cache_enabled_) return;
  cache_enabled_ = on;
  attr_cache_.clear();
  subclass_cache_.clear();
}

void InheritanceManager::ResetCacheStats() {
  m_cache_hits_->Reset();
  m_cache_misses_->Reset();
  m_invalidations_->Reset();
}

}  // namespace caddb
