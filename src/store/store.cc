#include "store/store.h"

#include <algorithm>
#include <deque>

namespace caddb {

namespace {

std::string Describe(const DbObject& obj) {
  return std::string(ObjKindName(obj.kind())) + " @" +
         std::to_string(obj.surrogate().id) + " of type '" + obj.type_name() +
         "'";
}

}  // namespace

DbObject* ObjectStore::Find(Surrogate s) {
  auto it = objects_.find(s.id);
  if (it == objects_.end()) return nullptr;
  if (!it->second && !FaultIn(s.id)) return nullptr;
  hot_.insert(s.id);
  return it->second.get();
}

const DbObject* ObjectStore::Find(Surrogate s) const {
  return const_cast<ObjectStore*>(this)->Find(s);
}

bool ObjectStore::FaultIn(uint64_t id) const {
  if (pager_ == nullptr) {
    last_pager_error_ =
        InternalError("object " + std::to_string(id) +
                      " is paged out but no pager is attached");
    return false;
  }
  Result<std::unique_ptr<DbObject>> loaded = pager_->Fetch(id);
  if (!loaded.ok()) {
    last_pager_error_ = loaded.status();
    return false;
  }
  objects_[id] = std::move(loaded).value();
  paged_out_versions_.erase(id);
  return true;
}

void ObjectStore::EnsureAllResident() const {
  for (const auto& [id, obj] : objects_) {
    if (!obj) (void)FaultIn(id);  // failures surface via last_pager_error_
  }
}

void ObjectStore::Touch(DbObject* obj) {
  obj->BumpVersion();
  MarkDirty(obj->surrogate().id);
}

Status ObjectStore::CreateClass(const std::string& class_name,
                                const std::string& object_type) {
  if (class_name.empty()) return InvalidArgument("empty class name");
  if (classes_.count(class_name) > 0) {
    return AlreadyExists("class '" + class_name + "' already exists");
  }
  if (catalog_->FindObjectType(object_type) == nullptr) {
    return NotFound("class '" + class_name + "' names unknown object type '" +
                    object_type + "'");
  }
  classes_[class_name] = ClassInfo{object_type, {}};
  return OkStatus();
}

Result<std::vector<Surrogate>> ObjectStore::ClassMembers(
    const std::string& class_name) const {
  auto it = classes_.find(class_name);
  if (it == classes_.end()) {
    return NotFound("class '" + class_name + "' does not exist");
  }
  return it->second.members;
}

Result<std::string> ObjectStore::ClassType(
    const std::string& class_name) const {
  auto it = classes_.find(class_name);
  if (it == classes_.end()) {
    return NotFound("class '" + class_name + "' does not exist");
  }
  return it->second.object_type;
}

std::vector<std::string> ObjectStore::ClassNames() const {
  std::vector<std::string> out;
  out.reserve(classes_.size());
  for (const auto& [name, info] : classes_) out.push_back(name);
  return out;
}

Result<Surrogate> ObjectStore::NewObjectInternal(const std::string& type_name,
                                                 ObjKind kind) {
  Surrogate s(next_surrogate_++);
  objects_[s.id] = std::make_unique<DbObject>(s, type_name, kind);
  extents_[type_name].push_back(s);
  MarkDirty(s.id);
  return s;
}

Result<Surrogate> ObjectStore::CreateObject(const std::string& type_name,
                                            const std::string& class_name) {
  // Computing the effective schema both validates the type and catches
  // broken inheritor-in declarations before any instance exists.
  Result<const EffectiveSchema*> schema =
      catalog_->FindEffectiveSchema(type_name);
  if (!schema.ok()) return schema.status();

  std::string cls;
  if (!class_name.empty()) {
    auto it = classes_.find(class_name);
    if (it == classes_.end()) {
      return NotFound("class '" + class_name + "' does not exist");
    }
    if (it->second.object_type != type_name) {
      return TypeMismatch("class '" + class_name + "' holds objects of type '" +
                          it->second.object_type + "', not '" + type_name +
                          "'");
    }
    cls = class_name;
  }

  CADDB_ASSIGN_OR_RETURN(Surrogate s,
                         NewObjectInternal(type_name, ObjKind::kObject));
  if (!cls.empty()) {
    classes_[cls].members.push_back(s);
    Find(s)->set_class_name(cls);
  }
  return s;
}

Result<Surrogate> ObjectStore::CreateSubobject(
    Surrogate parent, const std::string& subclass_name) {
  DbObject* owner = Find(parent);
  if (owner == nullptr) {
    return NotFound("no object with surrogate @" + std::to_string(parent.id));
  }

  std::string element_type;
  switch (owner->kind()) {
    case ObjKind::kObject: {
      Result<const EffectiveSchema*> schema =
          catalog_->FindEffectiveSchema(owner->type_name());
      if (!schema.ok()) return schema.status();
      const SubclassDef* def = (*schema)->FindSubclass(subclass_name);
      if (def == nullptr) {
        return NotFound("type '" + owner->type_name() +
                        "' has no subclass '" + subclass_name + "'");
      }
      if ((*schema)->IsInherited(subclass_name)) {
        return InheritedReadOnly(
            "subclass '" + subclass_name + "' of " + Describe(*owner) +
            " is inherited; create the subobject in the transmitter instead");
      }
      element_type = def->element_type;
      break;
    }
    case ObjKind::kRelationship: {
      const RelTypeDef* def = catalog_->FindRelType(owner->type_name());
      if (def == nullptr) {
        return InternalError("relationship object of unregistered type '" +
                             owner->type_name() + "'");
      }
      const SubclassDef* sub = def->FindSubclass(subclass_name);
      if (sub == nullptr) {
        return NotFound("rel-type '" + owner->type_name() +
                        "' has no subclass '" + subclass_name + "'");
      }
      element_type = sub->element_type;
      break;
    }
    case ObjKind::kInherRel: {
      const InherRelTypeDef* def =
          catalog_->FindInherRelType(owner->type_name());
      if (def == nullptr) {
        return InternalError("inher-rel object of unregistered type '" +
                             owner->type_name() + "'");
      }
      const SubclassDef* sub = nullptr;
      for (const auto& s : def->subclasses) {
        if (s.name == subclass_name) {
          sub = &s;
          break;
        }
      }
      if (sub == nullptr) {
        return NotFound("inher-rel-type '" + owner->type_name() +
                        "' has no subclass '" + subclass_name + "'");
      }
      element_type = sub->element_type;
      break;
    }
  }

  Result<const EffectiveSchema*> element_schema =
      catalog_->FindEffectiveSchema(element_type);
  if (!element_schema.ok()) return element_schema.status();

  CADDB_ASSIGN_OR_RETURN(Surrogate s,
                         NewObjectInternal(element_type, ObjKind::kObject));
  DbObject* child = Find(s);
  child->SetParent(parent, subclass_name);
  // `owner` may have been invalidated by map rehash only if objects_ were an
  // unordered container of values; objects are held by unique_ptr, so the
  // pointer is stable. Re-find for clarity regardless.
  owner = Find(parent);
  owner->AddToSubclass(subclass_name, s);
  Touch(owner);
  return s;
}

Status ObjectStore::ValidateParticipants(
    const RelTypeDef& def,
    const std::map<std::string, std::vector<Surrogate>>& participants) const {
  for (const auto& [role, members] : participants) {
    if (def.FindParticipant(role) == nullptr) {
      return InvalidArgument("rel-type '" + def.name + "' has no role '" +
                             role + "'");
    }
  }
  for (const ParticipantDef& p : def.participants) {
    auto it = participants.find(p.role);
    size_t n = it == participants.end() ? 0 : it->second.size();
    if (!p.is_set && n != 1) {
      return InvalidArgument("role '" + def.name + "." + p.role +
                             "' requires exactly one participant, got " +
                             std::to_string(n));
    }
    if (it == participants.end()) continue;
    for (Surrogate m : it->second) {
      const DbObject* obj = Find(m);
      if (obj == nullptr) {
        return NotFound("participant @" + std::to_string(m.id) + " of role '" +
                        p.role + "' does not exist");
      }
      if (!p.object_type.empty() && obj->type_name() != p.object_type) {
        return TypeMismatch("role '" + def.name + "." + p.role +
                            "' requires objects of type '" + p.object_type +
                            "', got " + Describe(*obj));
      }
    }
  }
  return OkStatus();
}

Result<Surrogate> ObjectStore::CreateRelationship(
    const std::string& rel_type,
    const std::map<std::string, std::vector<Surrogate>>& participants) {
  const RelTypeDef* def = catalog_->FindRelType(rel_type);
  if (def == nullptr) {
    return NotFound("rel-type '" + rel_type + "' is not registered");
  }
  CADDB_RETURN_IF_ERROR(ValidateParticipants(*def, participants));

  CADDB_ASSIGN_OR_RETURN(Surrogate s,
                         NewObjectInternal(rel_type, ObjKind::kRelationship));
  DbObject* rel = Find(s);
  for (const auto& [role, members] : participants) {
    rel->SetParticipants(role, members);
    for (Surrogate m : members) where_used_[m.id].insert(s.id);
  }
  return s;
}

Result<Surrogate> ObjectStore::CreateSubrel(
    Surrogate owner_s, const std::string& subrel_name,
    const std::map<std::string, std::vector<Surrogate>>& participants) {
  DbObject* owner = Find(owner_s);
  if (owner == nullptr) {
    return NotFound("no object with surrogate @" + std::to_string(owner_s.id));
  }
  if (owner->kind() != ObjKind::kObject) {
    return InvalidArgument("subrels can only be created in objects, not in " +
                           Describe(*owner));
  }
  Result<const EffectiveSchema*> schema =
      catalog_->FindEffectiveSchema(owner->type_name());
  if (!schema.ok()) return schema.status();
  const SubrelDef* def = (*schema)->FindSubrel(subrel_name);
  if (def == nullptr) {
    return NotFound("type '" + owner->type_name() + "' has no subrel '" +
                    subrel_name + "'");
  }
  CADDB_ASSIGN_OR_RETURN(Surrogate s,
                         CreateRelationship(def->rel_type, participants));
  DbObject* rel = Find(s);
  rel->SetParent(owner_s, subrel_name);
  owner = Find(owner_s);
  owner->AddToSubrel(subrel_name, s);
  Touch(owner);
  return s;
}

Result<Surrogate> ObjectStore::CreateInherRel(
    const std::string& inher_rel_type, Surrogate transmitter_s,
    Surrogate inheritor_s) {
  const InherRelTypeDef* def = catalog_->FindInherRelType(inher_rel_type);
  if (def == nullptr) {
    return NotFound("inher-rel-type '" + inher_rel_type +
                    "' is not registered");
  }
  DbObject* transmitter = Find(transmitter_s);
  if (transmitter == nullptr) {
    return NotFound("transmitter @" + std::to_string(transmitter_s.id) +
                    " does not exist");
  }
  DbObject* inheritor = Find(inheritor_s);
  if (inheritor == nullptr) {
    return NotFound("inheritor @" + std::to_string(inheritor_s.id) +
                    " does not exist");
  }
  if (transmitter->kind() != ObjKind::kObject ||
      inheritor->kind() != ObjKind::kObject) {
    return InvalidArgument(
        "inheritance relates objects; got " + Describe(*transmitter) +
        " and " + Describe(*inheritor));
  }
  if (transmitter->type_name() != def->transmitter_type) {
    return TypeMismatch("inher-rel-type '" + def->name +
                        "' requires transmitter of type '" +
                        def->transmitter_type + "', got " +
                        Describe(*transmitter));
  }
  if (!def->inheritor_type.empty() &&
      inheritor->type_name() != def->inheritor_type) {
    return TypeMismatch("inher-rel-type '" + def->name +
                        "' requires inheritor of type '" +
                        def->inheritor_type + "', got " + Describe(*inheritor));
  }
  // The inheritor's type must declare itself inheritor-in this relationship
  // (paper 4.1: "it must be explicitly stated that the type is an inheritor
  // type in an inheritance relationship").
  const ObjectTypeDef* inheritor_type =
      catalog_->FindObjectType(inheritor->type_name());
  if (inheritor_type == nullptr ||
      inheritor_type->inheritor_in != def->name) {
    return FailedPrecondition("type '" + inheritor->type_name() +
                              "' does not declare inheritor-in '" + def->name +
                              "'");
  }
  if (inheritor->bound_inher_rel().valid()) {
    return AlreadyExists(Describe(*inheritor) +
                         " is already bound to a transmitter");
  }
  // Object-level cycle check: walking transmitters from `transmitter` must
  // never reach `inheritor`.
  Surrogate walk = transmitter_s;
  while (walk.valid()) {
    if (walk == inheritor_s) {
      return CycleError("binding would create an inheritance cycle through @" +
                        std::to_string(inheritor_s.id));
    }
    const DbObject* node = Find(walk);
    if (node == nullptr || !node->bound_inher_rel().valid()) break;
    const DbObject* rel = Find(node->bound_inher_rel());
    if (rel == nullptr) break;
    walk = rel->Participant("transmitter");
  }

  CADDB_ASSIGN_OR_RETURN(Surrogate s,
                         NewObjectInternal(inher_rel_type, ObjKind::kInherRel));
  DbObject* rel = Find(s);
  rel->SetParticipants("transmitter", {transmitter_s});
  rel->SetParticipants("inheritor", {inheritor_s});
  where_used_[transmitter_s.id].insert(s.id);
  where_used_[inheritor_s.id].insert(s.id);
  inheritor = Find(inheritor_s);
  inheritor->set_bound_inher_rel(s);
  Touch(inheritor);
  return s;
}

Result<const DbObject*> ObjectStore::Get(Surrogate s) const {
  const DbObject* obj = Find(s);
  if (obj == nullptr) {
    return NotFound("no object with surrogate @" + std::to_string(s.id));
  }
  return obj;
}

DbObject* ObjectStore::GetMutable(Surrogate s) {
  DbObject* obj = Find(s);
  // The caller may mutate through this pointer; be conservative about what
  // the next checkpoint must re-capture.
  if (obj != nullptr) MarkDirty(s.id);
  return obj;
}

Status ObjectStore::ValidateRefTargets(const Value& v,
                                       const Domain& d) const {
  switch (d.kind()) {
    case Domain::Kind::kRef: {
      if (v.kind() != Value::Kind::kRef) return OkStatus();
      Surrogate target = v.AsRef();
      if (!target.valid()) return OkStatus();  // null reference
      const DbObject* obj = Find(target);
      if (obj == nullptr) {
        return NotFound("reference to nonexistent object @" +
                        std::to_string(target.id));
      }
      if (!d.name().empty() && obj->type_name() != d.name()) {
        return TypeMismatch("reference must target type '" + d.name() +
                            "', got " + Describe(*obj));
      }
      return OkStatus();
    }
    case Domain::Kind::kRecord: {
      if (v.kind() != Value::Kind::kRecord) return OkStatus();
      for (const auto& vf : v.fields()) {
        for (const auto& df : d.record_fields()) {
          if (df.first == vf.first) {
            CADDB_RETURN_IF_ERROR(ValidateRefTargets(vf.second, df.second));
            break;
          }
        }
      }
      return OkStatus();
    }
    case Domain::Kind::kListOf:
    case Domain::Kind::kSetOf:
    case Domain::Kind::kMatrixOf: {
      if (v.kind() != Value::Kind::kList && v.kind() != Value::Kind::kSet &&
          v.kind() != Value::Kind::kMatrix) {
        return OkStatus();
      }
      for (const Value& e : v.elements()) {
        CADDB_RETURN_IF_ERROR(ValidateRefTargets(e, d.element()));
      }
      return OkStatus();
    }
    case Domain::Kind::kNamed: {
      Result<Domain> resolved = catalog_->ResolveDomain(d.name());
      if (!resolved.ok()) return resolved.status();
      return ValidateRefTargets(v, *resolved);
    }
    default:
      return OkStatus();
  }
}

Status ObjectStore::SetAttribute(Surrogate s, const std::string& name,
                                 Value v) {
  DbObject* obj = Find(s);
  if (obj == nullptr) {
    return NotFound("no object with surrogate @" + std::to_string(s.id));
  }

  // Domain copies are cheap (nested structure is shared_ptr-shared); the
  // schema itself comes from the catalog cache and is not copied.
  Domain domain;
  switch (obj->kind()) {
    case ObjKind::kObject: {
      Result<const EffectiveSchema*> schema =
          catalog_->FindEffectiveSchema(obj->type_name());
      if (!schema.ok()) return schema.status();
      const AttributeDef* def = (*schema)->FindAttribute(name);
      if (def == nullptr) {
        return NotFound("type '" + obj->type_name() + "' has no attribute '" +
                        name + "'");
      }
      if ((*schema)->IsInherited(name)) {
        // "The inherited data must not be updated in the inheritor" (paper
        // section 2); updates go through the transmitter.
        return InheritedReadOnly("attribute '" + name + "' of " +
                                 Describe(*obj) +
                                 " is inherited and therefore read-only");
      }
      domain = def->domain;
      break;
    }
    case ObjKind::kRelationship: {
      const RelTypeDef* def = catalog_->FindRelType(obj->type_name());
      const AttributeDef* attr =
          def == nullptr ? nullptr : def->FindAttribute(name);
      if (attr == nullptr) {
        return NotFound("rel-type '" + obj->type_name() +
                        "' has no attribute '" + name + "'");
      }
      domain = attr->domain;
      break;
    }
    case ObjKind::kInherRel: {
      const InherRelTypeDef* def =
          catalog_->FindInherRelType(obj->type_name());
      const AttributeDef* attr =
          def == nullptr ? nullptr : def->FindAttribute(name);
      if (attr == nullptr) {
        return NotFound("inher-rel-type '" + obj->type_name() +
                        "' has no attribute '" + name + "'");
      }
      domain = attr->domain;
      break;
    }
  }

  CADDB_RETURN_IF_ERROR(domain.Validate(v, catalog_));
  CADDB_RETURN_IF_ERROR(ValidateRefTargets(v, domain));
  obj->SetLocalAttribute(name, std::move(v));
  Touch(obj);
  return OkStatus();
}

Result<Value> ObjectStore::GetLocalAttribute(Surrogate s,
                                             const std::string& name) const {
  const DbObject* obj = Find(s);
  if (obj == nullptr) {
    return NotFound("no object with surrogate @" + std::to_string(s.id));
  }
  switch (obj->kind()) {
    case ObjKind::kObject: {
      Result<const EffectiveSchema*> schema =
          catalog_->FindEffectiveSchema(obj->type_name());
      if (!schema.ok()) return schema.status();
      if ((*schema)->FindAttribute(name) == nullptr) {
        return NotFound("type '" + obj->type_name() + "' has no attribute '" +
                        name + "'");
      }
      break;
    }
    case ObjKind::kRelationship: {
      const RelTypeDef* def = catalog_->FindRelType(obj->type_name());
      if (def == nullptr || def->FindAttribute(name) == nullptr) {
        return NotFound("rel-type '" + obj->type_name() +
                        "' has no attribute '" + name + "'");
      }
      break;
    }
    case ObjKind::kInherRel: {
      const InherRelTypeDef* def =
          catalog_->FindInherRelType(obj->type_name());
      if (def == nullptr || def->FindAttribute(name) == nullptr) {
        return NotFound("inher-rel-type '" + obj->type_name() +
                        "' has no attribute '" + name + "'");
      }
      break;
    }
  }
  return obj->LocalAttribute(name);
}

std::vector<Surrogate> ObjectStore::Extent(
    const std::string& type_name) const {
  auto it = extents_.find(type_name);
  if (it == extents_.end()) return {};
  return it->second;
}

std::vector<Surrogate> ObjectStore::ReferencingRelationships(
    Surrogate s) const {
  auto it = where_used_.find(s.id);
  if (it == where_used_.end()) return {};
  std::vector<Surrogate> out;
  out.reserve(it->second.size());
  for (uint64_t id : it->second) out.push_back(Surrogate(id));
  return out;
}

std::vector<Surrogate> ObjectStore::AllObjects() const {
  std::vector<Surrogate> out;
  out.reserve(objects_.size());
  for (const auto& [id, obj] : objects_) out.push_back(Surrogate(id));
  return out;
}

std::vector<Surrogate> ObjectStore::InherRelsOfTransmitter(
    Surrogate s) const {
  std::vector<Surrogate> out;
  auto it = where_used_.find(s.id);
  if (it == where_used_.end()) return out;
  for (uint64_t id : it->second) {
    const DbObject* rel = Find(Surrogate(id));
    if (rel != nullptr && rel->kind() == ObjKind::kInherRel &&
        rel->Participant("transmitter") == s) {
      out.push_back(rel->surrogate());
    }
  }
  return out;
}

void ObjectStore::CollectCascade(Surrogate s, std::set<uint64_t>* out) const {
  std::deque<uint64_t> worklist{s.id};
  while (!worklist.empty()) {
    uint64_t id = worklist.front();
    worklist.pop_front();
    if (!out->insert(id).second) continue;
    const DbObject* obj = Find(Surrogate(id));
    if (obj == nullptr) continue;
    for (const auto& [name, members] : obj->subclasses()) {
      for (Surrogate m : members) worklist.push_back(m.id);
    }
    for (const auto& [name, members] : obj->subrels()) {
      for (Surrogate m : members) worklist.push_back(m.id);
    }
    auto used = where_used_.find(id);
    if (used != where_used_.end()) {
      for (uint64_t rel : used->second) worklist.push_back(rel);
    }
  }
}

std::vector<std::string> ObjectStore::AuditIndexes() const {
  std::vector<std::string> out;
  auto describe = [](uint64_t id) { return "@" + std::to_string(id); };

  // The audit walks the whole primary map; paged-out objects must be
  // resident for it.
  EnsureAllResident();
  for (const auto& [id, obj] : objects_) {
    if (!obj) {
      out.push_back("object " + describe(id) +
                    " is paged out and cannot be loaded (" +
                    last_pager_error_.ToString() + ")");
    }
  }

  // classes_: every listed member is live, of the class's type, claims the
  // class, and is listed once.
  for (const auto& [name, info] : classes_) {
    std::set<uint64_t> seen;
    for (Surrogate m : info.members) {
      const DbObject* obj = Find(m);
      if (obj == nullptr) {
        out.push_back("class '" + name + "' lists dead object " +
                      describe(m.id));
        continue;
      }
      if (!seen.insert(m.id).second) {
        out.push_back("class '" + name + "' lists " + describe(m.id) +
                      " more than once");
      }
      if (obj->type_name() != info.object_type) {
        out.push_back("class '" + name + "' (type '" + info.object_type +
                      "') lists " + describe(m.id) + " of type '" +
                      obj->type_name() + "'");
      }
      if (obj->class_name() != name) {
        out.push_back("class '" + name + "' lists " + describe(m.id) +
                      " which claims class '" + obj->class_name() + "'");
      }
    }
  }
  for (const auto& [id, obj] : objects_) {
    if (!obj || obj->class_name().empty()) continue;
    auto cls = classes_.find(obj->class_name());
    if (cls == classes_.end()) {
      out.push_back("object " + describe(id) + " claims unknown class '" +
                    obj->class_name() + "'");
    } else if (std::find(cls->second.members.begin(),
                         cls->second.members.end(),
                         obj->surrogate()) == cls->second.members.end()) {
      out.push_back("object " + describe(id) + " claims class '" +
                    obj->class_name() + "' but the class does not list it");
    }
  }

  // extents_: membership matches the primary map exactly.
  for (const auto& [type, members] : extents_) {
    std::set<uint64_t> seen;
    for (Surrogate m : members) {
      const DbObject* obj = Find(m);
      if (obj == nullptr) {
        out.push_back("extent of '" + type + "' lists dead object " +
                      describe(m.id));
        continue;
      }
      if (!seen.insert(m.id).second) {
        out.push_back("extent of '" + type + "' lists " + describe(m.id) +
                      " more than once");
      }
      if (obj->type_name() != type) {
        out.push_back("extent of '" + type + "' lists " + describe(m.id) +
                      " of type '" + obj->type_name() + "'");
      }
    }
  }
  for (const auto& [id, obj] : objects_) {
    if (!obj) continue;
    auto ext = extents_.find(obj->type_name());
    if (ext == extents_.end() ||
        std::find(ext->second.begin(), ext->second.end(), obj->surrogate()) ==
            ext->second.end()) {
      out.push_back("object " + describe(id) +
                    " is missing from the extent of '" + obj->type_name() +
                    "'");
    }
  }

  // where_used_: forward entries reference live relationship objects that
  // really have the key as a participant; reverse, every participant link of
  // every relationship object is indexed.
  for (const auto& [target, rels] : where_used_) {
    if (Find(Surrogate(target)) == nullptr) {
      out.push_back("where-used index has an entry for dead object " +
                    describe(target));
    }
    for (uint64_t rel_id : rels) {
      const DbObject* rel = Find(Surrogate(rel_id));
      if (rel == nullptr) {
        out.push_back("where-used entry of " + describe(target) +
                      " names dead relationship " + describe(rel_id));
        continue;
      }
      bool references = false;
      for (const auto& [role, members] : rel->participants()) {
        if (std::find(members.begin(), members.end(), Surrogate(target)) !=
            members.end()) {
          references = true;
          break;
        }
      }
      if (!references) {
        out.push_back("where-used entry of " + describe(target) + " names " +
                      describe(rel_id) +
                      " which has no such participant");
      }
    }
  }
  for (const auto& [id, obj] : objects_) {
    if (!obj || obj->kind() == ObjKind::kObject) continue;
    for (const auto& [role, members] : obj->participants()) {
      for (Surrogate m : members) {
        auto used = where_used_.find(m.id);
        if (used == where_used_.end() || used->second.count(id) == 0) {
          out.push_back("participant " + describe(m.id) +
                        " of relationship " + describe(id) +
                        " is missing from the where-used index");
        }
      }
    }
  }
  return out;
}

void ObjectStore::RepairIndexes() {
  // The membership lists are fully derivable from the primary map; class
  // registrations keep their declared type, and a class that exists only as
  // an object's claim is recreated from that object.
  EnsureAllResident();
  for (auto& [name, info] : classes_) info.members.clear();
  extents_.clear();
  where_used_.clear();
  for (const auto& [id, obj] : objects_) {  // ascending id = creation order
    if (!obj) continue;  // unloadable; AuditIndexes reports the cause
    extents_[obj->type_name()].push_back(obj->surrogate());
    if (!obj->class_name().empty()) {
      ClassInfo& info = classes_[obj->class_name()];
      if (info.object_type.empty()) info.object_type = obj->type_name();
      info.members.push_back(obj->surrogate());
    }
    if (obj->kind() != ObjKind::kObject) {
      for (const auto& [role, members] : obj->participants()) {
        for (Surrogate m : members) where_used_[m.id].insert(id);
      }
    }
  }
}

Status ObjectStore::Delete(Surrogate s, DeletePolicy policy) {
  if (Find(s) == nullptr) {
    return NotFound("no object with surrogate @" + std::to_string(s.id));
  }
  std::set<uint64_t> doomed;
  CollectCascade(s, &doomed);

  // Pre-check before any mutation: a transmitter inside the doomed set must
  // not leave bound inheritors behind under kRestrict.
  std::vector<Surrogate> detach;  // inheritors to unbind under kDetach
  for (uint64_t id : doomed) {
    const DbObject* obj = Find(Surrogate(id));
    if (obj == nullptr || obj->kind() != ObjKind::kInherRel) continue;
    Surrogate transmitter = obj->Participant("transmitter");
    Surrogate inheritor = obj->Participant("inheritor");
    if (doomed.count(inheritor.id) > 0) continue;  // dies along with us
    if (doomed.count(transmitter.id) > 0 &&
        policy == DeletePolicy::kRestrict) {
      return FailedPrecondition(
          "cannot delete: transmitter @" + std::to_string(transmitter.id) +
          " still has bound inheritor @" + std::to_string(inheritor.id) +
          " (use kDetachInheritors to unbind)");
    }
    detach.push_back(inheritor);
  }

  for (Surrogate inheritor : detach) {
    DbObject* obj = Find(inheritor);
    if (obj != nullptr) {
      obj->set_bound_inher_rel(Surrogate::Invalid());
      Touch(obj);
    }
  }

  for (uint64_t id : doomed) {
    DbObject* obj = Find(Surrogate(id));
    if (obj == nullptr) continue;

    // Detach from a surviving parent's member list.
    if (obj->IsSubobject() && doomed.count(obj->parent().id) == 0) {
      DbObject* parent = Find(obj->parent());
      if (parent != nullptr) {
        if (!parent->RemoveFromSubclass(obj->parent_subclass(),
                                        obj->surrogate())) {
          parent->RemoveFromSubrel(obj->parent_subclass(), obj->surrogate());
        }
        Touch(parent);
      }
    }
    // Remove from class extent.
    if (!obj->class_name().empty()) {
      auto cls = classes_.find(obj->class_name());
      if (cls != classes_.end()) {
        auto& members = cls->second.members;
        members.erase(
            std::remove(members.begin(), members.end(), obj->surrogate()),
            members.end());
      }
    }
    // Remove from the per-type extent.
    auto ext = extents_.find(obj->type_name());
    if (ext != extents_.end()) {
      auto& members = ext->second;
      members.erase(
          std::remove(members.begin(), members.end(), obj->surrogate()),
          members.end());
    }
    // Unregister from the where-used index on surviving participants.
    for (const auto& [role, members] : obj->participants()) {
      for (Surrogate m : members) {
        if (doomed.count(m.id) > 0) continue;
        auto used = where_used_.find(m.id);
        if (used != where_used_.end()) used->second.erase(id);
      }
    }
    where_used_.erase(id);
  }

  for (uint64_t id : doomed) {
    objects_.erase(id);
    paged_out_versions_.erase(id);
    hot_.erase(id);
    dirty_.erase(id);
    if (track_dirty_) deleted_.insert(id);
  }
  return OkStatus();
}

ObjectStore::CheckpointSet ObjectStore::TakeCheckpointSet() {
  CheckpointSet out;
  out.dirty.swap(dirty_);
  out.deleted.swap(deleted_);
  return out;
}

void ObjectStore::RestoreCheckpointSet(CheckpointSet set) {
  for (uint64_t id : set.dirty) {
    // An object deleted after the failed capture stays deleted-only.
    if (objects_.count(id) > 0) dirty_.insert(id);
  }
  deleted_.insert(set.deleted.begin(), set.deleted.end());
}

void ObjectStore::MarkAllDirty() {
  for (const auto& [id, obj] : objects_) dirty_.insert(id);
}

Status ObjectStore::AdoptLoadedObject(std::unique_ptr<DbObject> object) {
  uint64_t id = object->surrogate().id;
  if (id == 0) return InternalError("adopted object has no surrogate");
  if (objects_.count(id) > 0) {
    return InternalError("adopted object @" + std::to_string(id) +
                         " already exists");
  }
  objects_[id] = std::move(object);
  if (next_surrogate_ <= id) next_surrogate_ = id + 1;
  return OkStatus();
}

void ObjectStore::SetNextSurrogate(uint64_t next) {
  if (next > next_surrogate_) next_surrogate_ = next;
}

size_t ObjectStore::TrimResident(size_t budget) {
  if (pager_ == nullptr || objects_.empty()) return 0;
  size_t evicted = 0;
  // Second-chance sweep in surrogate order, resuming where the last sweep
  // stopped, bounded at two revolutions per call. Only clean, cold objects
  // whose page record exists may be evicted — a dirty object's only
  // up-to-date state is the in-memory copy.
  size_t steps = objects_.size() * 2;
  auto it = objects_.lower_bound(trim_cursor_);
  while (steps-- > 0 && resident_objects() > budget) {
    if (it == objects_.end()) it = objects_.begin();
    uint64_t id = it->first;
    std::unique_ptr<DbObject>& slot = it->second;
    ++it;
    trim_cursor_ = id + 1;
    if (!slot) continue;
    if (dirty_.count(id) > 0) continue;
    if (hot_.count(id) > 0) {
      hot_.erase(id);  // second chance spent
      continue;
    }
    if (!pager_->Contains(id)) continue;
    paged_out_versions_[id] = slot->version();
    slot.reset();
    ++evicted;
  }
  return evicted;
}

Status ObjectStore::Unbind(Surrogate inheritor_s) {
  DbObject* inheritor = Find(inheritor_s);
  if (inheritor == nullptr) {
    return NotFound("no object with surrogate @" +
                    std::to_string(inheritor_s.id));
  }
  Surrogate rel = inheritor->bound_inher_rel();
  if (!rel.valid()) {
    return FailedPrecondition(Describe(*inheritor) +
                              " is not bound to a transmitter");
  }
  inheritor->set_bound_inher_rel(Surrogate::Invalid());
  Touch(inheritor);
  return Delete(rel, DeletePolicy::kRestrict);
}

}  // namespace caddb
