#include "txn/transaction.h"

#include "wal/wal.h"

namespace caddb {

Result<TxnId> TransactionManager::Begin(const std::string& user) {
  if (user.empty()) return InvalidArgument("transaction without a user");
  std::lock_guard<std::mutex> lock(mu_);
  TxnId id = next_txn_++;
  txns_[id] = TxnState{user, {}};
  return id;
}

Status TransactionManager::Commit(TxnId txn) {
  bool begin_logged = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return NotFound("transaction " + std::to_string(txn) + " is not active");
    }
    begin_logged = it->second.begin_logged;
    if (wal_ == nullptr || !begin_logged) txns_.erase(it);
  }
  // The commit marker goes to the log *before* the locks fall: any
  // conflicting write of another transaction can only be logged after it,
  // so log order stays consistent with the 2PL serialization order.
  if (wal_ != nullptr && begin_logged) {
    Status logged;
    uint64_t commit_lsn = 0;
    {
      // Marker-lsn assignment and removal from the active set happen
      // atomically with respect to checkpoint capture (which snapshots
      // last_lsn and the undo sets under the same gate). Otherwise a
      // capture could see this transaction as still active while its
      // marker lsn is already at or below the checkpoint lsn — its writes
      // would be masked with before-images AND skipped on replay: a lost
      // update. The fsync wait stays outside the gate.
      std::lock_guard<std::mutex> gate(*store_mu_);
      Result<uint64_t> lsn = wal_->AppendCommitRecord(wal::Record::Commit(txn));
      logged = lsn.status();
      if (lsn.ok()) commit_lsn = *lsn;
      std::lock_guard<std::mutex> lock(mu_);
      txns_.erase(txn);
    }
    if (logged.ok()) logged = wal_->FinishCommit(commit_lsn);
    if (!logged.ok()) {
      locks_->ReleaseAll(txn);
      return logged;
    }
  }
  locks_->ReleaseAll(txn);
  return OkStatus();
}

Status TransactionManager::Abort(TxnId txn) {
  TxnState state;
  {
    // Removal from the active set and the before-image restores happen in
    // one gate hold: a checkpoint capture either still sees the
    // transaction active (and masks its writes with the same before-images
    // the restores are about to apply) or sees the fully restored store —
    // never restored-but-unmasked uncommitted state.
    std::lock_guard<std::mutex> gate(*store_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = txns_.find(txn);
      if (it == txns_.end()) {
        return NotFound("transaction " + std::to_string(txn) +
                        " is not active");
      }
      state = std::move(it->second);
      txns_.erase(it);
    }
    // Restore before-images newest-first while still holding the X-locks.
    for (auto it = state.undo.rbegin(); it != state.undo.rend(); ++it) {
      // Restoration also re-notifies inheritors: their view changed back.
      Status restored =
          manager_->SetAttribute(it->object, it->attr, it->before);
      (void)restored;  // the object may have been deleted meanwhile
    }
  }
  if (wal_ != nullptr && state.begin_logged) {
    // The restores above are not logged; the abort marker tells recovery to
    // skip this transaction's records wholesale. No fsync — an abort that
    // evaporates in a crash aborts again implicitly (no commit marker).
    Result<uint64_t> logged = wal_->Append(wal::Record::Abort(txn));
    if (!logged.ok()) {
      locks_->ReleaseAll(txn);
      return logged.status();
    }
  }
  locks_->ReleaseAll(txn);
  return OkStatus();
}

TransactionManager::UndoSnapshot TransactionManager::SnapshotUndo() const {
  UndoSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, state] : txns_) {
    if (!state.begin_logged) continue;  // no logged writes, nothing to mask
    if (out.oldest_begin_lsn == 0 || state.begin_lsn < out.oldest_begin_lsn) {
      out.oldest_begin_lsn = state.begin_lsn;
    }
    for (const UndoRecord& undo : state.undo) {
      // First write wins: undo records are appended in write order, so the
      // earliest record per (object, attr) holds the pre-transaction value.
      out.masks[undo.object.id].emplace(undo.attr, undo.before);
    }
  }
  return out;
}

bool TransactionManager::IsActive(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return txns_.count(txn) > 0;
}

Status TransactionManager::LockInheritanceChain(TxnId txn, Surrogate s,
                                                const std::string& attr) {
  const ObjectStore* store = manager_->store();
  Surrogate current = s;
  std::string item = attr;
  while (true) {
    const DbObject* obj;
    {
      std::lock_guard<std::mutex> lock(*store_mu_);
      Result<const DbObject*> r = store->Get(current);
      if (!r.ok()) return r.status();
      obj = *r;
    }
    if (obj->kind() != ObjKind::kObject) return OkStatus();
    Result<EffectiveSchema> schema =
        store->catalog().EffectiveSchemaFor(obj->type_name());
    if (!schema.ok()) return schema.status();
    if (!schema->IsInherited(item)) return OkStatus();
    Surrogate rel_s = obj->bound_inher_rel();
    if (!rel_s.valid()) return OkStatus();
    Surrogate transmitter;
    std::string rel_type;
    {
      std::lock_guard<std::mutex> lock(*store_mu_);
      Result<const DbObject*> rel = store->Get(rel_s);
      if (!rel.ok()) return rel.status();
      transmitter = (*rel)->Participant("transmitter");
      rel_type = (*rel)->type_name();
    }
    // Lock inheritance: read-lock the transmitter's exported part.
    CADDB_RETURN_IF_ERROR(locks_->Acquire(
        txn, LockItem::Exported(transmitter, rel_type), LockMode::kShared));
    current = transmitter;
  }
}

Result<Value> TransactionManager::Read(TxnId txn, Surrogate s,
                                       const std::string& attr) {
  std::string user;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return NotFound("transaction " + std::to_string(txn) + " is not active");
    }
    user = it->second.user;
  }
  {
    std::lock_guard<std::mutex> lock(*store_mu_);
    CADDB_RETURN_IF_ERROR(acl_->CheckRead(user, s, *manager_->store()));
  }
  CADDB_RETURN_IF_ERROR(
      locks_->Acquire(txn, LockItem::Whole(s), LockMode::kShared));
  CADDB_RETURN_IF_ERROR(LockInheritanceChain(txn, s, attr));
  std::lock_guard<std::mutex> lock(*store_mu_);
  return manager_->GetAttribute(s, attr);
}

Status TransactionManager::Write(TxnId txn, Surrogate s,
                                 const std::string& attr, Value v) {
  std::string user;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return NotFound("transaction " + std::to_string(txn) + " is not active");
    }
    user = it->second.user;
  }
  {
    std::lock_guard<std::mutex> lock(*store_mu_);
    // The lock manager only grants what access control admits (section 6):
    // an X-lock for a user without update rights is refused outright.
    CADDB_RETURN_IF_ERROR(acl_->CheckUpdate(user, s, *manager_->store()));
  }
  CADDB_RETURN_IF_ERROR(
      locks_->Acquire(txn, LockItem::Whole(s), LockMode::kExclusive));

  std::lock_guard<std::mutex> store_lock(*store_mu_);
  Result<Value> before = manager_->store()->GetLocalAttribute(s, attr);
  if (!before.ok()) return before.status();
  Value logged_value = wal_ != nullptr ? v : Value();
  CADDB_RETURN_IF_ERROR(manager_->SetAttribute(s, attr, std::move(v)));
  bool need_begin = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txns_.find(txn);
    if (it != txns_.end()) {
      it->second.undo.push_back(UndoRecord{s, attr, std::move(*before)});
      if (wal_ != nullptr && !it->second.begin_logged) {
        it->second.begin_logged = true;
        need_begin = true;
      }
    }
  }
  // Logged while still under store_mu_, so log order matches the physical
  // mutation order. Durability rides on the later commit marker — no sync
  // here.
  if (wal_ != nullptr) {
    if (need_begin) {
      CADDB_ASSIGN_OR_RETURN(uint64_t begin_lsn,
                             wal_->Append(wal::Record::Begin(txn)));
      std::lock_guard<std::mutex> lock(mu_);
      auto it = txns_.find(txn);
      if (it != txns_.end()) it->second.begin_lsn = begin_lsn;
    }
    CADDB_RETURN_IF_ERROR(
        wal_->Append(wal::Record::SetAttribute(txn, s.id, attr,
                                               std::move(logged_value)))
            .status());
  }
  return OkStatus();
}

Result<size_t> TransactionManager::LockExpansion(TxnId txn, Surrogate root,
                                                 LockMode desired) {
  std::string user;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) {
      return NotFound("transaction " + std::to_string(txn) + " is not active");
    }
    user = it->second.user;
  }

  std::vector<Surrogate> targets;
  {
    std::lock_guard<std::mutex> lock(*store_mu_);
    Expander expander(manager_);
    ExpandOptions options;
    options.materialize_attributes = false;  // structure walk only
    CADDB_ASSIGN_OR_RETURN(ExpansionNode tree, expander.Expand(root, options));
    Expander::CollectSurrogates(tree, &targets);
  }

  size_t locked = 0;
  for (Surrogate s : targets) {
    Rights rights;
    {
      std::lock_guard<std::mutex> lock(*store_mu_);
      rights = acl_->EffectiveRights(user, s, *manager_->store());
    }
    if (!rights.read) {
      return PermissionDenied("user '" + user + "' may not read @" +
                              std::to_string(s.id) +
                              " inside the expansion of @" +
                              std::to_string(root.id));
    }
    // Downgrade: never grant a lock allowing more than access control
    // admits. Standard objects in the expansion are locked in read-mode.
    LockMode mode = desired;
    if (mode == LockMode::kExclusive && !rights.update) {
      mode = LockMode::kShared;
    }
    CADDB_RETURN_IF_ERROR(locks_->Acquire(txn, LockItem::Whole(s), mode));
    ++locked;
  }
  return locked;
}

}  // namespace caddb
