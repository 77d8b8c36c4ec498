#include "txn/workspace.h"

#include "wal/wal.h"

namespace caddb {

Result<WorkspaceId> WorkspaceManager::Create(const std::string& user) {
  if (user.empty()) return InvalidArgument("workspace without a user");
  WorkspaceId id = next_id_++;
  workspaces_[id] = Workspace{user, {}};
  return id;
}

Status WorkspaceManager::Discard(WorkspaceId ws) {
  auto it = workspaces_.find(ws);
  if (it == workspaces_.end()) {
    return NotFound("workspace " + std::to_string(ws) + " does not exist");
  }
  for (const auto& [object_id, state] : it->second.objects) {
    checkout_owner_.erase(object_id);
  }
  workspaces_.erase(it);
  return OkStatus();
}

Status WorkspaceManager::Checkout(WorkspaceId ws, Surrogate object) {
  auto it = workspaces_.find(ws);
  if (it == workspaces_.end()) {
    return NotFound("workspace " + std::to_string(ws) + " does not exist");
  }
  auto owner = checkout_owner_.find(object.id);
  if (owner != checkout_owner_.end()) {
    if (owner->second == ws) {
      return AlreadyExists("@" + std::to_string(object.id) +
                           " is already checked out by this workspace");
    }
    return ConflictError("@" + std::to_string(object.id) +
                         " is checked out by workspace " +
                         std::to_string(owner->second));
  }
  std::lock_guard<std::mutex> gate(*store_mu_);
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, manager_->store()->Get(object));
  CheckedOutObject state;
  state.base_version = obj->version();
  CADDB_ASSIGN_OR_RETURN(state.copy, manager_->Snapshot(object));
  it->second.objects[object.id] = std::move(state);
  checkout_owner_[object.id] = ws;
  return OkStatus();
}

bool WorkspaceManager::IsCheckedOut(Surrogate object) const {
  return checkout_owner_.count(object.id) > 0;
}

std::vector<Surrogate> WorkspaceManager::CheckedOutBy(WorkspaceId ws) const {
  std::vector<Surrogate> out;
  auto it = workspaces_.find(ws);
  if (it == workspaces_.end()) return out;
  for (const auto& [object_id, state] : it->second.objects) {
    out.push_back(Surrogate(object_id));
  }
  return out;
}

Status WorkspaceManager::Set(WorkspaceId ws, Surrogate object,
                             const std::string& attr, Value v) {
  auto it = workspaces_.find(ws);
  if (it == workspaces_.end()) {
    return NotFound("workspace " + std::to_string(ws) + " does not exist");
  }
  auto obj_it = it->second.objects.find(object.id);
  if (obj_it == it->second.objects.end()) {
    return FailedPrecondition("@" + std::to_string(object.id) +
                              " is not checked out by workspace " +
                              std::to_string(ws));
  }
  // Schema / domain / read-only validation against the live type.
  std::lock_guard<std::mutex> gate(*store_mu_);
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, manager_->store()->Get(object));
  if (obj->kind() == ObjKind::kObject) {
    Result<EffectiveSchema> schema =
        manager_->store()->catalog().EffectiveSchemaFor(obj->type_name());
    if (!schema.ok()) return schema.status();
    const AttributeDef* def = schema->FindAttribute(attr);
    if (def == nullptr) {
      return NotFound("type '" + obj->type_name() + "' has no attribute '" +
                      attr + "'");
    }
    if (schema->IsInherited(attr)) {
      return InheritedReadOnly("attribute '" + attr +
                               "' is inherited and read-only, even in a "
                               "workspace");
    }
    CADDB_RETURN_IF_ERROR(
        def->domain.Validate(v, &manager_->store()->catalog()));
  }
  obj_it->second.copy[attr] = v;
  obj_it->second.dirty[attr] = std::move(v);
  return OkStatus();
}

Result<Value> WorkspaceManager::Get(WorkspaceId ws, Surrogate object,
                                    const std::string& attr) const {
  auto it = workspaces_.find(ws);
  if (it == workspaces_.end()) {
    return NotFound("workspace " + std::to_string(ws) + " does not exist");
  }
  auto obj_it = it->second.objects.find(object.id);
  if (obj_it == it->second.objects.end()) {
    return FailedPrecondition("@" + std::to_string(object.id) +
                              " is not checked out by workspace " +
                              std::to_string(ws));
  }
  auto attr_it = obj_it->second.copy.find(attr);
  if (attr_it == obj_it->second.copy.end()) {
    return NotFound("no attribute '" + attr + "' in the checked-out copy");
  }
  return attr_it->second;
}

Status WorkspaceManager::Checkin(WorkspaceId ws) {
  // The whole checkin — validation, the applies, and the group's commit
  // marker — runs under the store gate: the group is not a
  // transaction-manager transaction, so a checkpoint capture could not
  // mask a half-applied batch; instead it must never observe one. Only the
  // commit's durability wait runs outside the gate.
  uint64_t commit_lsn = 0;
  Status result;
  {
    std::lock_guard<std::mutex> gate(*store_mu_);
    result = CheckinLocked(ws, &commit_lsn);
  }
  if (commit_lsn != 0) {
    Status durable = wal_->FinishCommit(commit_lsn);
    if (result.ok()) result = durable;
  }
  return result;
}

Status WorkspaceManager::CheckinLocked(WorkspaceId ws, uint64_t* commit_lsn) {
  auto it = workspaces_.find(ws);
  if (it == workspaces_.end()) {
    return NotFound("workspace " + std::to_string(ws) + " does not exist");
  }
  // Phase 1: validate — every object unchanged in the store since checkout.
  for (const auto& [object_id, state] : it->second.objects) {
    Result<const DbObject*> obj = manager_->store()->Get(Surrogate(object_id));
    if (!obj.ok()) {
      return ConflictError("@" + std::to_string(object_id) +
                           " was deleted during the design transaction");
    }
    if ((*obj)->version() != state.base_version) {
      return ConflictError("@" + std::to_string(object_id) +
                           " changed in the database during the design "
                           "transaction (lost update prevented)");
    }
  }
  // Phase 2: apply dirty attributes and release checkouts. The writes are
  // logged as one bracketed group under a pseudo-transaction id, so a crash
  // mid-checkin replays either the whole batch or none of it.
  uint64_t group = 0;
  auto log = [&](wal::Record record) -> Status {
    if (wal_ == nullptr) return OkStatus();
    if (group == 0) {
      group = wal_->AllocateGroupTxn();
      CADDB_RETURN_IF_ERROR(wal_->Append(wal::Record::Begin(group)).status());
    }
    record.txn = group;
    return wal_->Append(std::move(record)).status();
  };
  // The marker is appended here under the gate; Checkin waits for
  // durability (FinishCommit) after releasing it.
  auto commit_group = [&]() -> Status {
    if (group == 0) return OkStatus();
    CADDB_ASSIGN_OR_RETURN(
        *commit_lsn, wal_->AppendCommitRecord(wal::Record::Commit(group)));
    return OkStatus();
  };
  for (auto& [object_id, state] : it->second.objects) {
    for (auto& [attr, value] : state.dirty) {
      Status applied =
          manager_->SetAttribute(Surrogate(object_id), attr, value);
      if (!applied.ok()) {
        // Seal what was already applied so the log matches the store.
        CADDB_RETURN_IF_ERROR(commit_group());
        return applied;
      }
      CADDB_RETURN_IF_ERROR(log(
          wal::Record::SetAttribute(wal::kAutoCommitTxn, object_id, attr,
                                    value)));
    }
    checkout_owner_.erase(object_id);
  }
  workspaces_.erase(it);
  return commit_group();
}

}  // namespace caddb
