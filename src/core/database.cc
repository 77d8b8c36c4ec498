#include "core/database.h"

#include <chrono>
#include <filesystem>

#include "analysis/analyzer.h"
#include "persist/dump.h"
#include "store/object_codec.h"
#include "wal/checkpoint.h"
#include "wal/record.h"
#include "wal/wal.h"

namespace caddb {

using wal::kAutoCommitTxn;
using wal::Record;

namespace {

/// Demand-paging adapter: the store faults clean objects back in through
/// this; payloads come off pages via the buffer pool.
class HeapPager : public ObjectPager {
 public:
  explicit HeapPager(const storage::PagedHeap* heap) : heap_(heap) {}

  bool Contains(uint64_t id) const override { return heap_->Contains(id); }

  Result<std::unique_ptr<DbObject>> Fetch(uint64_t id) const override {
    CADDB_ASSIGN_OR_RETURN(std::string payload, heap_->Fetch(id));
    return store_codec::DecodeObjectPayload(payload);
  }

 private:
  const storage::PagedHeap* heap_;
};

}  // namespace

Database::~Database() {
  StopCheckpointer();
  if (wal_ != nullptr) {
    // Best-effort clean shutdown; a real crash never reaches this.
    (void)Close();
  }
}

Status Database::LogOpLocked(const Record& record, uint64_t* commit_lsn) {
  if (wal_ == nullptr) return OkStatus();
  CADDB_ASSIGN_OR_RETURN(*commit_lsn, wal_->AppendCommitRecord(record));
  return OkStatus();
}

Status Database::FinishOp(Status result, uint64_t commit_lsn) {
  if (commit_lsn != 0) {
    Status durable = wal_->FinishCommit(commit_lsn);
    if (result.ok()) result = durable;
  }
  if (result.ok()) MaybeTrimResident();
  return result;
}

void Database::MaybeTrimResident() {
  if (resident_budget_ == 0) return;
  std::lock_guard<std::mutex> gate(store_gate_);
  if (store_.resident_objects() > resident_budget_) {
    store_.TrimResident(resident_budget_);
  }
}

Status Database::CheckWritable() const {
  if (read_only_) {
    return FailedPrecondition(
        "database is read-only (a replica follows the primary's log; "
        "promote it before writing)");
  }
  return OkStatus();
}

// ---- Durability ----

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& dir, const wal::DurabilityOptions& options) {
  // An obs bundle in the options adopts the whole database (the replication
  // follower routes every rebuild into one bundle this way); otherwise the
  // database owns its own and recovery + log report into it.
  auto db = std::make_unique<Database>(options.wal.obs);
  wal::DurabilityOptions opts = options;
  if (opts.wal.obs == nullptr) opts.wal.obs = db->observability();
  opts.read_only = false;
  CADDB_ASSIGN_OR_RETURN(db->recovery_report_,
                         wal::Recover(dir, db.get(), opts));
  // The log is attached only now, so replay above did not re-log itself,
  // and always starts a fresh segment — a torn tail is never appended to.
  CADDB_ASSIGN_OR_RETURN(
      std::unique_ptr<wal::Wal> wal,
      wal::Wal::Open(dir, opts.wal, db->recovery_report_.last_lsn + 1));
  db->wal_ = std::move(wal);
  db->transactions_.set_wal(db->wal_.get());
  db->versions_.set_wal(db->wal_.get());
  db->workspaces_.set_wal(db->wal_.get());
  // A new generation per process lifetime: the fresh checkpoint below
  // anchors it, so one generation never mixes two processes' id spaces and
  // a replication follower can spot a rewound primary.
  db->generation_ = db->recovery_report_.generation + 1;
  if (db->files_ == nullptr) {
    // No checkpoint (fresh directory, or a log replayed without one):
    // nothing lives on pages yet. Open the page file and mark everything
    // dirty so the checkpoint below writes the whole store onto it.
    CADDB_RETURN_IF_ERROR(db->InitPagedStore(dir, {}, opts));
    db->store_.MarkAllDirty();
  }
  CADDB_RETURN_IF_ERROR(db->Checkpoint());
  if (opts.checkpoint_interval_ms != 0) {
    db->StartCheckpointer(opts.checkpoint_interval_ms);
  }
  return db;
}

Result<std::unique_ptr<Database>> Database::OpenReadOnly(
    const std::string& dir, const wal::DurabilityOptions& options) {
  auto db = std::make_unique<Database>(options.wal.obs);
  wal::DurabilityOptions opts = options;
  if (opts.wal.obs == nullptr) opts.wal.obs = db->observability();
  opts.read_only = true;
  opts.checkpoint_interval_ms = 0;
  CADDB_ASSIGN_OR_RETURN(db->recovery_report_,
                         wal::Recover(dir, db.get(), opts));
  db->generation_ = db->recovery_report_.generation;
  db->read_only_ = true;
  return db;
}

Status Database::InitPagedStore(const std::string& dir,
                                const std::map<uint32_t, std::string>& images,
                                const wal::DurabilityOptions& options) {
  if (files_ != nullptr) {
    return FailedPrecondition("paged store is already initialized");
  }
  storage::FileManagerOptions fm;
  fm.read_only = options.read_only;
  const std::string path =
      (std::filesystem::path(dir) / storage::kPageFileName).string();
  CADDB_ASSIGN_OR_RETURN(files_, storage::FileManager::Open(path, fm));
  if (options.read_only) {
    // Never write a byte: the checkpoint's page images overlay the file on
    // read, healing torn in-place writes without touching them.
    files_->SetOverlay(images);
  } else {
    // Heal: the published images are authoritative over whatever state a
    // crash mid-phase-two left in the file.
    for (const auto& [id, image] : images) {
      CADDB_RETURN_IF_ERROR(files_->WritePage(id, image));
    }
    if (!images.empty()) CADDB_RETURN_IF_ERROR(files_->Sync());
  }
  storage::BufferPoolOptions po;
  po.capacity = options.buffer_pool_pages;
  // The WAL rule: a dirty page may only reach disk once the log explains
  // it. During recovery (no wal yet) pages carry only checkpointed state —
  // flush freely.
  po.flushed_lsn = [this]() {
    return wal_ != nullptr ? wal_->stats().synced_lsn : ~uint64_t{0};
  };
  po.ensure_flushed = [this](uint64_t) {
    return wal_ != nullptr ? wal_->Sync() : OkStatus();
  };
  pool_ = std::make_unique<storage::BufferPool>(files_.get(), std::move(po));
  heap_ = std::make_unique<storage::PagedHeap>(files_.get(), pool_.get());
  CADDB_RETURN_IF_ERROR(heap_->LoadAll(
      [this](uint64_t id, const std::string& payload) -> Status {
        CADDB_ASSIGN_OR_RETURN(std::unique_ptr<DbObject> object,
                               store_codec::DecodeObjectPayload(payload));
        if (object->surrogate().id != id) {
          return InternalError("page record keyed @" + std::to_string(id) +
                               " decodes as @" +
                               std::to_string(object->surrogate().id));
        }
        return store_.AdoptLoadedObject(std::move(object));
      }));
  pager_ = std::make_unique<HeapPager>(heap_.get());
  store_.set_pager(pager_.get());
  store_.set_dirty_tracking(true);
  resident_budget_ = options.resident_object_budget;
  return OkStatus();
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) {
    return FailedPrecondition("database is not durable (no wal attached)");
  }
  if (files_ == nullptr) {
    return FailedPrecondition("database has no paged store");
  }
  std::lock_guard<std::mutex> serialize(checkpoint_mu_);
  obs::Span span(&obs_->trace, "wal.checkpoint", m_checkpoint_us_,
                 /*always_time=*/true);

  // Phase 1 — capture, the only part commits wait on: under the store gate,
  // claim the dirty/deleted sets, snapshot the active transactions' undo
  // masks, encode every dirty object (masking uncommitted writes with their
  // before-images), and snapshot the non-paged meta state.
  uint64_t lsn_cap = 0;
  ObjectStore::CheckpointSet set;
  TransactionManager::UndoSnapshot undo;
  std::vector<std::pair<uint64_t, std::string>> encoded;
  wal::CheckpointData data;
  {
    obs::Span pause(&obs_->trace, "wal.checkpoint_pause",
                    m_checkpoint_pause_us_, /*always_time=*/true);
    std::lock_guard<std::mutex> gate(store_gate_);
    lsn_cap = wal_->last_lsn();
    undo = transactions_.SnapshotUndo();
    set = store_.TakeCheckpointSet();
    for (uint64_t id : set.dirty) {
      // Dirty objects are never paged out, so this is a map lookup.
      Result<const DbObject*> object = store_.Get(Surrogate(id));
      if (!object.ok()) continue;  // raced a delete; set.deleted covers it
      auto mask = undo.masks.find(id);
      encoded.emplace_back(
          id, store_codec::EncodeObjectPayload(
                  **object,
                  mask != undo.masks.end() ? &mask->second : nullptr));
    }
    Result<std::string> meta = persist::DumpMeta(*this);
    if (!meta.ok()) {
      store_.RestoreCheckpointSet(std::move(set));
      return meta.status();
    }
    data.meta = std::move(*meta);
    data.replay_from = undo.oldest_begin_lsn;
    // A masked object's page image holds before-images, not its live
    // state: once the spanning transaction commits, the next checkpoint
    // must rewrite it. Re-dirty immediately so that happens.
    ObjectStore::CheckpointSet masked;
    for (const auto& [id, overrides] : undo.masks) {
      if (set.dirty.count(id) > 0) masked.dirty.insert(id);
    }
    store_.RestoreCheckpointSet(std::move(masked));
  }

  // Phase 2 — stage (gate released; commits proceed): apply the batch to
  // pinned buffer-pool pages and capture their images.
  Status staged = OkStatus();
  for (uint64_t id : set.deleted) {
    staged = heap_->Erase(id);
    if (!staged.ok()) break;
  }
  if (staged.ok()) {
    for (const auto& [id, payload] : encoded) {
      staged = heap_->Upsert(id, payload);
      if (!staged.ok()) break;
    }
  }
  if (staged.ok()) {
    data.pages = heap_->CaptureBatchImages(lsn_cap);
    // Phase 3 — the log must durably explain everything up to the covering
    // lsn before the checkpoint claims it.
    staged = wal_->Sync();
  }
  // Phase 4 — atomic publication. The page images ride inside the
  // checkpoint file (double-write journal): after this rename, every
  // in-place page write below is recoverable.
  if (staged.ok()) {
    staged = wal::WriteCheckpoint(wal_->dir(), lsn_cap, generation_, data);
  }
  if (!staged.ok()) {
    // The batch pages stay pinned and dirty in the pool; the restored set
    // makes the next attempt re-capture and retry them (Erase and Upsert
    // are idempotent).
    std::lock_guard<std::mutex> gate(store_gate_);
    store_.RestoreCheckpointSet(std::move(set));
    CADDB_LOG(&obs_->log, obs::LogLevel::kWarn, "storage",
              "checkpoint attempt failed, dirty set restored: " +
                  staged.ToString());
    return staged;
  }
  m_checkpoints_->Increment();
  CADDB_LOG(&obs_->log, obs::LogLevel::kInfo, "storage",
            "checkpoint published through lsn " + std::to_string(lsn_cap) +
                " (" + std::to_string(encoded.size()) + " object(s), " +
                std::to_string(data.pages.size()) + " page image(s))");

  // Phase 5 — in-place page writes, fsync, unpin. A crash (or torn write)
  // in here is healed from the just-published images on the next open.
  CADDB_RETURN_IF_ERROR(heap_->CompleteBatch());

  // Phase 6 — truncate the log, but never past a record a spanning
  // transaction may still need replayed.
  uint64_t retain = lsn_cap + 1;
  if (undo.oldest_begin_lsn != 0) {
    retain = std::min(retain, undo.oldest_begin_lsn);
  }
  return wal_->RotateAndTruncate(retain);
}

Database::StorageStats Database::storage_stats() const {
  StorageStats out;
  if (files_ == nullptr) return out;
  out.paged = true;
  out.pool = pool_->stats();
  out.heap = heap_->stats();
  out.page_writes = files_->writes();
  std::lock_guard<std::mutex> gate(store_gate_);
  out.resident_objects = store_.resident_objects();
  out.dirty_objects = store_.dirty_objects();
  return out;
}

void Database::StartCheckpointer(uint64_t interval_ms) {
  checkpoint_interval_ms_ = interval_ms;
  stop_checkpointer_ = false;
  checkpointer_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(checkpointer_mu_);
    while (!stop_checkpointer_) {
      checkpointer_cv_.wait_for(
          lock, std::chrono::milliseconds(checkpoint_interval_ms_));
      if (stop_checkpointer_) break;
      lock.unlock();
      // A failed attempt restored the dirty set; the next tick retries.
      (void)Checkpoint();
      lock.lock();
    }
  });
}

void Database::StopCheckpointer() {
  if (!checkpointer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(checkpointer_mu_);
    stop_checkpointer_ = true;
  }
  checkpointer_cv_.notify_all();
  checkpointer_.join();
}

Status Database::Close() {
  StopCheckpointer();
  if (wal_ == nullptr) return OkStatus();
  transactions_.set_wal(nullptr);
  versions_.set_wal(nullptr);
  workspaces_.set_wal(nullptr);
  Status closed = wal_->Close();
  wal_.reset();
  return closed;
}

// ---- Schema ----

Status Database::ExecuteDdl(const std::string& source) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    result = ddl::Parser::ParseSchema(source, &catalog_, &ddl_warnings_);
    if (result.ok() && eager_ddl_validation_) {
      analysis::DiagnosticBag bag = CheckSchema();
      if (bag.HasErrors()) {
        result = FailedPrecondition("schema analysis found " + bag.Summary() +
                                    ":\n" + bag.RenderText());
      }
    }
    if (result.ok()) {
      result = LogOpLocked(Record::Ddl(kAutoCommitTxn, source), &commit_lsn);
    }
  }
  return FinishOp(std::move(result), commit_lsn);
}

analysis::DiagnosticBag Database::CheckSchema() const {
  const uint64_t epoch = catalog_.schema_epoch();
  if (schema_check_valid_ && schema_check_epoch_ == epoch) {
    m_ddl_skipped_->Increment();
    return schema_check_cache_;
  }
  schema_check_cache_ = analysis::AnalyzeSchema(catalog_);
  schema_check_epoch_ = epoch;
  schema_check_valid_ = true;
  m_ddl_run_->Increment();
  return schema_check_cache_;
}

analysis::DiagnosticBag Database::CheckStore() const {
  return analysis::AnalyzeStore(store_, &inheritance_);
}

analysis::DiagnosticBag Database::Check() const {
  return analysis::AnalyzeDatabase(store_, &inheritance_);
}

// ---- Convenience forwarding with redo logging ----
//
// Each mutating operation holds the store gate across {mutate, append redo
// record}: a checkpoint capture between the two would snapshot the mutation
// while replay — whose floor is the checkpoint lsn — re-applies the record,
// duplicating a create. The durability wait (FinishOp) runs after the gate
// falls, so a checkpoint capture never waits on an fsync.

Status Database::CreateClass(const std::string& name,
                             const std::string& type) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    result = store_.CreateClass(name, type);
    if (result.ok()) {
      result = LogOpLocked(Record::CreateClass(kAutoCommitTxn, name, type),
                           &commit_lsn);
    }
  }
  return FinishOp(std::move(result), commit_lsn);
}

Result<Surrogate> Database::CreateObject(const std::string& type,
                                         const std::string& class_name) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Surrogate created;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    Result<Surrogate> made = store_.CreateObject(type, class_name);
    result = made.status();
    if (result.ok()) {
      created = *made;
      result = LogOpLocked(
          Record::CreateObject(kAutoCommitTxn, created.id, type, class_name),
          &commit_lsn);
    }
  }
  CADDB_RETURN_IF_ERROR(FinishOp(std::move(result), commit_lsn));
  return created;
}

Result<Surrogate> Database::CreateSubobject(Surrogate parent,
                                            const std::string& subclass) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Surrogate created;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    Result<Surrogate> made = inheritance_.CreateSubobject(parent, subclass);
    result = made.status();
    if (result.ok()) {
      created = *made;
      result = LogOpLocked(Record::CreateSubobject(kAutoCommitTxn, created.id,
                                                   parent.id, subclass),
                           &commit_lsn);
    }
  }
  CADDB_RETURN_IF_ERROR(FinishOp(std::move(result), commit_lsn));
  return created;
}

namespace {

std::map<std::string, std::vector<uint64_t>> ParticipantIds(
    const std::map<std::string, std::vector<Surrogate>>& participants) {
  std::map<std::string, std::vector<uint64_t>> out;
  for (const auto& [role, members] : participants) {
    std::vector<uint64_t>& ids = out[role];
    for (Surrogate m : members) ids.push_back(m.id);
  }
  return out;
}

}  // namespace

Result<Surrogate> Database::CreateRelationship(
    const std::string& rel_type,
    const std::map<std::string, std::vector<Surrogate>>& participants) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Surrogate created;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    Result<Surrogate> made = store_.CreateRelationship(rel_type, participants);
    result = made.status();
    if (result.ok()) {
      created = *made;
      result = LogOpLocked(
          Record::CreateRelationship(kAutoCommitTxn, created.id, rel_type,
                                     ParticipantIds(participants)),
          &commit_lsn);
    }
  }
  CADDB_RETURN_IF_ERROR(FinishOp(std::move(result), commit_lsn));
  return created;
}

Result<Surrogate> Database::CreateSubrel(
    Surrogate owner, const std::string& subrel,
    const std::map<std::string, std::vector<Surrogate>>& participants) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Surrogate created;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    Result<Surrogate> made = store_.CreateSubrel(owner, subrel, participants);
    result = made.status();
    if (result.ok()) {
      created = *made;
      result = LogOpLocked(
          Record::CreateSubrel(kAutoCommitTxn, created.id, owner.id, subrel,
                               ParticipantIds(participants)),
          &commit_lsn);
    }
  }
  CADDB_RETURN_IF_ERROR(FinishOp(std::move(result), commit_lsn));
  return created;
}

Result<Surrogate> Database::CreateCheckedSubrel(
    Surrogate owner, const std::string& subrel,
    const std::map<std::string, std::vector<Surrogate>>& participants) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Surrogate member;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    Result<Surrogate> made = store_.CreateSubrel(owner, subrel, participants);
    result = made.status();
    if (result.ok()) {
      member = *made;
      Status where = checker_.CheckSubrelMember(owner, subrel, member);
      if (!where.ok()) {
        // A rejected member nets out to nothing — including in the log.
        Status cleanup = inheritance_.DeleteObject(member);
        (void)cleanup;
        result = where;
      } else {
        result = LogOpLocked(
            Record::CreateSubrel(kAutoCommitTxn, member.id, owner.id, subrel,
                                 ParticipantIds(participants)),
            &commit_lsn);
      }
    }
  }
  CADDB_RETURN_IF_ERROR(FinishOp(std::move(result), commit_lsn));
  return member;
}

Result<Surrogate> Database::Bind(Surrogate inheritor, Surrogate transmitter,
                                 const std::string& inher_rel_type) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Surrogate created;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    Result<Surrogate> made =
        inheritance_.Bind(inheritor, transmitter, inher_rel_type);
    result = made.status();
    if (result.ok()) {
      created = *made;
      result = LogOpLocked(
          Record::Bind(kAutoCommitTxn, created.id, inheritor.id,
                       transmitter.id, inher_rel_type),
          &commit_lsn);
    }
  }
  CADDB_RETURN_IF_ERROR(FinishOp(std::move(result), commit_lsn));
  return created;
}

Status Database::Unbind(Surrogate inheritor) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    result = inheritance_.Unbind(inheritor);
    if (result.ok()) {
      result = LogOpLocked(Record::Unbind(kAutoCommitTxn, inheritor.id),
                           &commit_lsn);
    }
  }
  return FinishOp(std::move(result), commit_lsn);
}

Status Database::Set(Surrogate s, const std::string& attr, Value v) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    Value logged = wal_ != nullptr ? v : Value();
    result = inheritance_.SetAttribute(s, attr, std::move(v));
    if (result.ok()) {
      result = LogOpLocked(Record::SetAttribute(kAutoCommitTxn, s.id, attr,
                                                std::move(logged)),
                           &commit_lsn);
    }
  }
  return FinishOp(std::move(result), commit_lsn);
}

Status Database::Delete(Surrogate s, ObjectStore::DeletePolicy policy) {
  CADDB_RETURN_IF_ERROR(CheckWritable());
  uint64_t commit_lsn = 0;
  Status result;
  {
    std::lock_guard<std::mutex> gate(store_gate_);
    result = inheritance_.DeleteObject(s, policy);
    if (result.ok()) {
      result = LogOpLocked(
          Record::Delete(
              kAutoCommitTxn, s.id,
              policy == ObjectStore::DeletePolicy::kDetachInheritors),
          &commit_lsn);
    }
  }
  return FinishOp(std::move(result), commit_lsn);
}

// ---- Gated reads ----

Result<Value> Database::Get(Surrogate s, const std::string& attr) const {
  std::lock_guard<std::mutex> gate(store_gate_);
  return inheritance_.GetAttribute(s, attr);
}

Result<std::vector<Surrogate>> Database::Subclass(
    Surrogate s, const std::string& name) const {
  std::lock_guard<std::mutex> gate(store_gate_);
  return inheritance_.GetSubclass(s, name);
}

Result<bool> Database::Holds(Surrogate s, const std::string& text) const {
  Result<expr::ExprPtr> e = ddl::Parser::ParseConstraintExpression(text);
  if (!e.ok()) return e.status();
  std::lock_guard<std::mutex> gate(store_gate_);
  return checker_.Evaluate(s, **e);
}

}  // namespace caddb
