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
      "Cache probes that erased a stale entry (the read then walks)");
  m_evictions_ = obs_->metrics.GetCounter(
      kCacheEvictions,
      "Resolution-cache entries dropped to stay within the entry cap");
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

bool InheritanceManager::EntryValid(const CacheEntry& entry) const {
  if (entry.schema_epoch != store_->catalog().schema_epoch()) return false;
  for (const auto& [id, version] : entry.deps) {
    if (store_->ObjectVersion(Surrogate(id)) != version) return false;
  }
  return true;
}

const InheritanceManager::CacheEntry* InheritanceManager::Probe(
    const CacheKey& key) const {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  if (!EntryValid(it->second)) {
    m_invalidations_->Increment();
    cache_.erase(it);
    return nullptr;
  }
  m_cache_hits_->Increment();
  it->second.referenced = true;
  return &it->second;
}

Result<const DbObject*> InheritanceManager::WalkChain(
    const DbObject* obj, const EffectiveSchema* schema,
    const std::string& name, std::vector<const DbObject*>* chain) const {
  const DbObject* node = obj;
  const EffectiveSchema* node_schema = schema;
  while (true) {
    chain->push_back(node);
    if (!node_schema->IsInherited(name)) return node;
    Surrogate rel_s = node->bound_inher_rel();
    if (!rel_s.valid()) return nullptr;
    CADDB_ASSIGN_OR_RETURN(const DbObject* rel, store_->Get(rel_s));
    CADDB_ASSIGN_OR_RETURN(node, store_->Get(rel->Participant("transmitter")));
    CADDB_ASSIGN_OR_RETURN(
        node_schema,
        store_->catalog().FindEffectiveSchema(node->type_name()));
  }
}

void InheritanceManager::FillChain(Item item, const std::string& name,
                                   const std::vector<const DbObject*>& chain,
                                   bool terminal_is_local,
                                   const CacheEntry& resolved) const {
  const uint64_t epoch = store_->catalog().schema_epoch();
  // A terminal that resolved `name` as its own local data never consults
  // the cache on reads, so an entry keyed on it would be dead weight.
  const size_t cached_nodes =
      terminal_is_local ? chain.size() - 1 : chain.size();
  for (size_t i = 0; i < cached_nodes; ++i) {
    CacheEntry& entry = cache_[CacheKey{chain[i]->surrogate().id, item, name}];
    entry = resolved;
    entry.schema_epoch = epoch;
    for (size_t j = i; j < chain.size(); ++j) {
      entry.deps.emplace_back(chain[j]->surrogate().id, chain[j]->version());
    }
  }
  if (cache_.size() > kCacheCapacity) TrimCache();
}

void InheritanceManager::TrimCache() const {
  const size_t target = kCacheCapacity - kCacheCapacity / 8;
  uint64_t evicted = 0;
  // Stale entries first: they can never hit again.
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (EntryValid(it->second)) {
      ++it;
    } else {
      it = cache_.erase(it);
      ++evicted;
    }
  }
  // Then a second-chance sweep, resuming where the last one stopped: an
  // entry filled or hit since the sweep last passed it survives this pass.
  auto it = cache_.lower_bound(trim_cursor_);
  while (cache_.size() > target) {
    if (it == cache_.end()) it = cache_.begin();
    if (it->second.referenced) {
      it->second.referenced = false;
      ++it;
    } else {
      it = cache_.erase(it);
      ++evicted;
    }
  }
  trim_cursor_ = it == cache_.end() ? CacheKey{} : it->first;
  m_evictions_->Increment(evicted);
}

Result<Value> InheritanceManager::GetAttribute(Surrogate s,
                                               const std::string& name) const {
  // Trace-gated on purpose: this is the hottest read path, so the clock
  // only runs (and the histogram only fills) while tracing is enabled.
  obs::Span span(&obs_->trace, "inherit.get_attribute", m_resolve_us_);
  span.AddAttribute("attr", name);
  m_resolutions_->Increment();
  CacheKey key{s.id, Item::kAttribute, name};
  if (const CacheEntry* hit = Probe(key)) return hit->value;

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
  if (!schema->IsInherited(name)) return obj->LocalAttribute(name);

  // Inherited: resolve through the transmitter chain (view semantics),
  // recording every visited object as a dependency of the result. Unbound
  // inheritors only inherit the attribute *structure*, so the value is null
  // (and depends on exactly the node whose binding is missing).
  m_cache_misses_->Increment();
  std::vector<const DbObject*> chain;
  CADDB_ASSIGN_OR_RETURN(const DbObject* terminal,
                         WalkChain(obj, schema, name, &chain));
  CacheEntry resolved;
  if (terminal != nullptr) resolved.value = terminal->LocalAttribute(name);
  FillChain(Item::kAttribute, name, chain, terminal != nullptr, resolved);
  return resolved.value;
}

Result<std::vector<Surrogate>> InheritanceManager::GetSubclass(
    Surrogate s, const std::string& name) const {
  obs::Span span(&obs_->trace, "inherit.get_subclass", m_resolve_us_);
  span.AddAttribute("subclass", name);
  m_resolutions_->Increment();
  CacheKey key{s.id, Item::kSubclass, name};
  if (const CacheEntry* hit = Probe(key)) return hit->members;

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

  // Same chain walk as GetAttribute: the member list is the terminal
  // transmitter's local subclass, viewed read-only through the chain.
  m_cache_misses_->Increment();
  std::vector<const DbObject*> chain;
  CADDB_ASSIGN_OR_RETURN(const DbObject* terminal,
                         WalkChain(obj, schema, name, &chain));
  CacheEntry resolved;
  if (terminal != nullptr && terminal->Subclass(name) != nullptr) {
    resolved.members = *terminal->Subclass(name);
  }
  FillChain(Item::kSubclass, name, chain, terminal != nullptr, resolved);
  return resolved.members;
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

Status InheritanceManager::ResolveUncached(const CacheKey& key,
                                           CacheEntry* fresh) const {
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(Surrogate(key.id)));
  CADDB_ASSIGN_OR_RETURN(
      const EffectiveSchema* schema,
      store_->catalog().FindEffectiveSchema(obj->type_name()));
  std::vector<const DbObject*> chain;
  CADDB_ASSIGN_OR_RETURN(const DbObject* terminal,
                         WalkChain(obj, schema, key.name, &chain));
  if (terminal == nullptr) return OkStatus();  // unbound: structure only
  if (key.item == Item::kAttribute) {
    fresh->value = terminal->LocalAttribute(key.name);
  } else if (terminal->Subclass(key.name) != nullptr) {
    fresh->members = *terminal->Subclass(key.name);
  }
  return OkStatus();
}

std::vector<std::string> InheritanceManager::AuditCache() const {
  std::vector<std::string> out;
  for (const auto& [key, entry] : cache_) {
    if (!EntryValid(entry)) continue;  // legal staleness, erased on probe
    const bool attribute = key.item == Item::kAttribute;
    const std::string what =
        std::string(attribute ? "attribute" : "subclass") +
        " cache entry (@" + std::to_string(key.id) + ", '" + key.name + "')";
    CacheEntry fresh;
    Status resolved = ResolveUncached(key, &fresh);
    if (!resolved.ok()) {
      out.push_back(what + " validates but cannot be re-resolved: " +
                    resolved.ToString());
    } else if (attribute && fresh.value != entry.value) {
      out.push_back(what + " holds " + entry.value.ToString() +
                    " but a fresh resolution yields " +
                    fresh.value.ToString());
    } else if (!attribute && fresh.members != entry.members) {
      out.push_back(what + " holds " + std::to_string(entry.members.size()) +
                    " member(s) but a fresh resolution yields " +
                    std::to_string(fresh.members.size()));
    }
  }
  return out;
}

void InheritanceManager::ResetCacheStats() {
  m_cache_hits_->Reset();
  m_cache_misses_->Reset();
  m_invalidations_->Reset();
  m_evictions_->Reset();
}

}  // namespace caddb
