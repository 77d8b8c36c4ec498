#ifndef CADDB_CORE_DATABASE_H_
#define CADDB_CORE_DATABASE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diagnostics.h"
#include "catalog/catalog.h"
#include "constraints/checker.h"
#include "ddl/parser.h"
#include "inherit/inheritance.h"
#include "inherit/notification.h"
#include "obs/observability.h"
#include "query/expansion.h"
#include "query/query.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/paged_heap.h"
#include "store/store.h"
#include "txn/access_control.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "txn/workspace.h"
#include "versions/version_graph.h"
#include "wal/recovery.h"

namespace caddb {

/// Replication telemetry a replication::Follower attaches to the read-only
/// database it maintains, surfaced through DatabaseStats and the shell's
/// `replica status`.
struct ReplicaInfo {
  bool is_replica = false;
  /// "following", "caught-up", or "quarantined (CADnnn ...)".
  std::string state;
  uint64_t manifest_seq = 0;  // last manifest applied
  uint64_t generation = 0;    // primary log generation being followed
  uint64_t replay_lsn = 0;    // last lsn replayed into this database
  uint64_t shipped_lsn = 0;   // newest lsn the primary has shipped
  uint64_t lag() const {
    return shipped_lsn > replay_lsn ? shipped_lsn - replay_lsn : 0;
  }
};

/// One in-memory CAD/CAM database: catalog + object store + value-inheritance
/// engine + constraint checker + query/expansion + version management +
/// transactions. This is the public entry point; examples and benchmarks
/// program exclusively against it.
///
/// Usage sketch:
///
///   caddb::Database db;
///   CHECK_OK(db.ExecuteDdl(R"(obj-type Plate = attributes: ... end Plate;)"));
///   auto plate = db.CreateObject("Plate");
///   CHECK_OK(db.Set(*plate, "Thickness", caddb::Value::Int(4)));
///
/// Thread model: the convenience methods below take the store gate, so
/// they may be called from several threads; a direct subsystem read
/// (expander(), query(), constraints()) must hold LockStore() itself.
/// Multi-statement isolation goes through transactions().
class Database {
 public:
  /// Registry names of the schema-analysis memo counters.
  static constexpr char kSchemaAnalysesRun[] =
      "caddb_ddl_schema_analyses_run_total";
  static constexpr char kSchemaAnalysesSkipped[] =
      "caddb_ddl_schema_analyses_skipped_total";

  /// `obs` (not owned; must outlive the database) redirects all metrics and
  /// traces into an external bundle; by default the database owns its own,
  /// so two databases in one process (a primary and its follower) keep
  /// separate books.
  explicit Database(obs::Observability* obs = nullptr)
      : obs_(obs::SharedOrOwned(obs, &owned_obs_)),
        catalog_(obs_),
        store_(&catalog_),
        inheritance_(&store_, &notifications_, obs_),
        checker_(&inheritance_),
        query_(&inheritance_),
        expander_(&inheritance_),
        versions_(&inheritance_),
        locks_(&catalog_, obs_),
        transactions_(&inheritance_, &locks_, &acl_),
        workspaces_(&inheritance_) {
    m_checkpoints_ = obs_->metrics.GetCounter(
        "caddb_wal_checkpoints_total", "Checkpoints published");
    m_checkpoint_us_ = obs_->metrics.GetHistogram(
        "caddb_wal_checkpoint_us",
        "Checkpoint duration (capture + stage + publish + truncate)");
    m_checkpoint_pause_us_ = obs_->metrics.GetHistogram(
        "caddb_wal_checkpoint_pause_us",
        "Commit-blocking portion of a checkpoint (the capture critical "
        "section under the store gate)");
    m_ddl_run_ = obs_->metrics.GetCounter(
        kSchemaAnalysesRun,
        "Schema analyses run (the catalog's schema epoch had changed)");
    m_ddl_skipped_ = obs_->metrics.GetCounter(
        kSchemaAnalysesSkipped,
        "Schema checks answered from the memo (schema epoch unchanged)");
    // Transactions and workspaces serialize store access against checkpoint
    // capture through one database-wide gate.
    transactions_.set_store_gate(&store_gate_);
    workspaces_.set_store_gate(&store_gate_);
  }

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Closes the write-ahead log cleanly (best effort) if one is attached.
  ~Database();

  // ---- Durability (write-ahead log + checkpoints + crash recovery) ----
  /// Opens (creating if necessary) a durable database rooted at directory
  /// `dir`: loads the newest valid checkpoint, replays every committed
  /// transaction and auto-committed operation from the log (stopping at the
  /// first torn or corrupt record), runs the store fsck, then publishes a
  /// fresh checkpoint and truncates the log before logging resumes. The
  /// fresh checkpoint is not optional — it anchors the new process's
  /// surrogate and transaction id spaces, so a log generation never mixes
  /// the ids of two processes.
  static Result<std::unique_ptr<Database>> Open(
      const std::string& dir,
      const wal::DurabilityOptions& options = wal::DurabilityOptions{});

  /// Replays `dir` like Open but writes nothing back: no log is attached,
  /// no fresh checkpoint is published, and every mutating entry point fails
  /// with kFailedPrecondition afterwards. This is how a replication
  /// follower materializes shipped state without disturbing the shipped
  /// bytes (the staged directory stays byte-comparable to the primary's).
  static Result<std::unique_ptr<Database>> OpenReadOnly(
      const std::string& dir,
      const wal::DurabilityOptions& options = wal::DurabilityOptions{});

  /// Incremental checkpoint: captures the dirty/deleted object sets and
  /// the live-transaction undo masks in one short critical section under
  /// the store gate (commits block only for that capture, not for the I/O),
  /// stages the dirty objects onto buffer-pool pages, embeds the dirtied
  /// page images in the atomically-published checkpoint file (a double-
  /// write journal), then writes the pages in place and truncates the log.
  /// Writes of transactions still active at capture are masked with their
  /// before-images, and the checkpoint records the oldest such begin lsn so
  /// recovery replays them iff they later committed — active transactions
  /// no longer block checkpointing. A failed attempt restores the dirty
  /// sets and leaves the page batch pinned for retry.
  Status Checkpoint();

  /// Recovery plumbing (called by wal::Recover and Open): opens pages.db in
  /// `dir`, heals it with the checkpoint's page `images` (or overlays them,
  /// read-only), adopts every stored object into the store, and wires the
  /// demand-paging and dirty-tracking machinery.
  Status InitPagedStore(const std::string& dir,
                        const std::map<uint32_t, std::string>& images,
                        const wal::DurabilityOptions& options);

  /// Blocks Checkpoint() (and the in-place page writes + log truncation it
  /// performs) while held. The replication shipper snapshots the
  /// checkpoint file, the page file and the segments under this, so the
  /// shipped triple is mutually consistent.
  std::unique_lock<std::mutex> PauseCheckpoints() {
    return std::unique_lock<std::mutex>(checkpoint_mu_);
  }

  /// Holds the store gate across a read that goes to the subsystems
  /// directly (expander, query engine, constraint checker, analyzer)
  /// instead of through a gated method: such reads fault objects in and
  /// fill the resolution cache, and both are guarded by the gate. Call no
  /// gated Database method (Get, Set, Holds, ...) while holding it.
  std::unique_lock<std::mutex> LockStore() const {
    return std::unique_lock<std::mutex>(store_gate_);
  }

  /// Paged-store telemetry for `status` and the benchmarks.
  struct StorageStats {
    bool paged = false;
    storage::BufferPoolStats pool;
    storage::PagedHeap::Stats heap;
    size_t resident_objects = 0;
    size_t dirty_objects = 0;
    uint64_t page_writes = 0;
  };
  StorageStats storage_stats() const;

  /// The paged heap (null until InitPagedStore — i.e. for in-memory
  /// databases). Read-only inspection: the disk verifier's tests cross-check
  /// its surrogate directory against the one re-derived from raw pages.
  storage::PagedHeap* heap() { return heap_.get(); }

  /// Syncs and closes the log; mutations afterwards are no longer logged.
  Status Close();

  bool durable() const { return wal_ != nullptr; }
  wal::Wal* wal() { return wal_.get(); }
  /// What the recovery pass of Open found (default-initialized for a
  /// database that was default-constructed rather than opened).
  const wal::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }

  /// True for databases materialized via OpenReadOnly: every mutating entry
  /// point fails with kFailedPrecondition.
  bool read_only() const { return read_only_; }
  /// Log generation this process writes (loaded generation + 1 for Open;
  /// the loaded generation itself for OpenReadOnly, which writes nothing).
  uint64_t generation() const { return generation_; }
  /// Replication telemetry; is_replica is false unless a Follower set it.
  const ReplicaInfo& replica_info() const { return replica_info_; }
  void set_replica_info(const ReplicaInfo& info) { replica_info_ = info; }

  // ---- Schema ----
  /// Parses and registers schema text (paper syntax); warnings accumulate in
  /// ddl_warnings(). With eager DDL validation enabled, the schema analyzer
  /// runs after registration and any *error*-severity finding fails the
  /// call (the definitions stay registered, like a failing ValidateSchema
  /// after the fact; analyzer warnings never fail it).
  Status ExecuteDdl(const std::string& source);
  /// Whole-catalog consistency check (resolves forward references).
  Status ValidateSchema() const { return catalog_.Validate(); }
  const std::vector<std::string>& ddl_warnings() const {
    return ddl_warnings_;
  }

  /// When on, every ExecuteDdl is followed by the static schema analysis
  /// (`caddb check`-style) so defective DDL fails at definition time instead
  /// of at first use. Off by default: the paper's adaptation workflow
  /// tolerates temporarily inconsistent schemas (forward references across
  /// multiple ExecuteDdl calls).
  void set_eager_ddl_validation(bool on) { eager_ddl_validation_ = on; }
  bool eager_ddl_validation() const { return eager_ddl_validation_; }

  // ---- Static integrity analysis ----
  /// Schema passes only (CAD0xx). Memoized on the catalog's schema epoch:
  /// a check against a schema that has not changed since the last one
  /// returns the cached diagnostics without re-analyzing, so eager DDL
  /// validation and repeated `check schema` runs cost one analysis per
  /// actual schema change. The counters below (views of the bundle's
  /// caddb_ddl_schema_analyses_* counters) prove the skip.
  analysis::DiagnosticBag CheckSchema() const;
  uint64_t schema_analyses_run() const { return m_ddl_run_->value(); }
  uint64_t schema_analyses_skipped() const { return m_ddl_skipped_->value(); }
  /// Store passes only (CAD1xx), including the resolution-cache audit.
  analysis::DiagnosticBag CheckStore() const;
  /// Both, merged and sorted — the `caddb check` entry point.
  analysis::DiagnosticBag Check() const;

  // ---- Observability ----
  /// The metrics/trace bundle this database (and every subsystem under it)
  /// reports into. Never null.
  obs::Observability* observability() const { return obs_; }
  /// Span-completion subscription: `fn` runs, on the completing thread,
  /// for every span finished while tracing is enabled. Returns a token for
  /// RemoveObserver. Callbacks must not re-enter the tracer.
  using Observer = obs::Tracer::Observer;
  int AddObserver(Observer fn) {
    return obs_->trace.AddObserver(std::move(fn));
  }
  void RemoveObserver(int token) { obs_->trace.RemoveObserver(token); }

  // ---- Subsystem access ----
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
  NotificationCenter& notifications() { return notifications_; }
  const NotificationCenter& notifications() const { return notifications_; }
  InheritanceManager& inheritance() { return inheritance_; }
  const InheritanceManager& inheritance() const { return inheritance_; }
  ConstraintChecker& constraints() { return checker_; }
  QueryEngine& query() { return query_; }
  Expander& expander() { return expander_; }
  VersionManager& versions() { return versions_; }
  const VersionManager& versions() const { return versions_; }
  LockManager& locks() { return locks_; }
  AccessControl& access_control() { return acl_; }
  TransactionManager& transactions() { return transactions_; }
  WorkspaceManager& workspaces() { return workspaces_; }

  // ---- Convenience forwarding (the common instance-level operations) ----
  // Mutating operations live in database.cc: each one appends its redo
  // record to the write-ahead log (as an auto-committed operation) when the
  // database was opened durably. Reads stay inline.
  Status CreateClass(const std::string& name, const std::string& type);
  Result<Surrogate> CreateObject(const std::string& type,
                                 const std::string& class_name = "");
  Result<Surrogate> CreateSubobject(Surrogate parent,
                                    const std::string& subclass);
  Result<Surrogate> CreateRelationship(
      const std::string& rel_type,
      const std::map<std::string, std::vector<Surrogate>>& participants);
  Result<Surrogate> CreateSubrel(
      Surrogate owner, const std::string& subrel,
      const std::map<std::string, std::vector<Surrogate>>& participants);
  /// CreateSubrel + immediate where-clause check; on violation the freshly
  /// created relationship is removed again and the violation returned.
  /// (Plain CreateSubrel defers the check — the paper's adaptation workflow
  /// tolerates temporary inconsistency; this is the eager variant.) Logged
  /// only after the check passes: a rejected member nets out to nothing.
  Result<Surrogate> CreateCheckedSubrel(
      Surrogate owner, const std::string& subrel,
      const std::map<std::string, std::vector<Surrogate>>& participants);
  Result<Surrogate> Bind(Surrogate inheritor, Surrogate transmitter,
                         const std::string& inher_rel_type);
  Status Unbind(Surrogate inheritor);
  Status Set(Surrogate s, const std::string& attr, Value v);
  /// Reads take the store gate too: with demand paging even a read may
  /// fault an object in, and a background checkpointer may be trimming.
  Result<Value> Get(Surrogate s, const std::string& attr) const;
  Result<std::vector<Surrogate>> Subclass(Surrogate s,
                                          const std::string& name) const;
  Status Delete(Surrogate s, ObjectStore::DeletePolicy policy =
                                 ObjectStore::DeletePolicy::kRestrict);
  /// Parses `text` as a constraint expression and evaluates it anchored at
  /// `s` (handy for top-down version selection and ad-hoc checks).
  Result<bool> Holds(Surrogate s, const std::string& text) const;

 private:
  /// Appends `record` as an auto-committed operation when a wal is
  /// attached (must hold store_gate_: the marker lsn and the store
  /// mutation it describes become atomic w.r.t. checkpoint capture);
  /// `*appended` tells FinishOp whether a durability wait is owed.
  Status LogOpLocked(const wal::Record& record, bool* appended);
  /// Outside the gate: waits for the commit's durability policy, then
  /// trims resident objects to the configured budget.
  Status FinishOp(Status result, bool appended);
  void MaybeTrimResident();
  void StartCheckpointer(uint64_t interval_ms);
  void StopCheckpointer();

  /// kFailedPrecondition for read-only (replica) databases, OK otherwise.
  /// Every mutating convenience method and ExecuteDdl checks it first.
  Status CheckWritable() const;

  // Declared first: every subsystem below registers its instruments with
  // the bundle during construction.
  std::unique_ptr<obs::Observability> owned_obs_;
  obs::Observability* obs_;
  obs::Counter* m_checkpoints_;
  obs::Counter* m_ddl_run_;
  obs::Counter* m_ddl_skipped_;
  obs::Histogram* m_checkpoint_us_;

  Catalog catalog_;
  ObjectStore store_;
  NotificationCenter notifications_;
  InheritanceManager inheritance_;
  ConstraintChecker checker_;
  QueryEngine query_;
  Expander expander_;
  VersionManager versions_;
  LockManager locks_;
  AccessControl acl_;
  TransactionManager transactions_;
  WorkspaceManager workspaces_;
  std::vector<std::string> ddl_warnings_;
  bool eager_ddl_validation_ = false;

  // Durability: present only for databases created via Open.
  std::unique_ptr<wal::Wal> wal_;
  wal::RecoveryReport recovery_report_;
  bool read_only_ = false;
  uint64_t generation_ = 0;
  ReplicaInfo replica_info_;

  // Paged store (present once InitPagedStore ran — every durable open).
  // Declaration order is destruction-in-reverse: the heap drops before the
  // pool, the pool before the file manager.
  std::unique_ptr<storage::FileManager> files_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::PagedHeap> heap_;
  std::unique_ptr<ObjectPager> pager_;
  size_t resident_budget_ = 0;

  /// Serializes every store mutation/read against checkpoint capture, and
  /// guards the inheritance manager's resolution cache (filled by reads).
  /// Shared into the transaction and workspace managers. Lock order:
  /// store_gate_ -> subsystem mutexes -> heap/pool/file mutexes.
  mutable std::mutex store_gate_;
  /// Serializes whole checkpoints (foreground calls, the background
  /// checkpointer, and the shipper's consistency pause). Never taken while
  /// store_gate_ is held.
  std::mutex checkpoint_mu_;
  obs::Histogram* m_checkpoint_pause_us_;

  // Background checkpointer (Open with checkpoint_interval_ms != 0).
  std::thread checkpointer_;
  std::mutex checkpointer_mu_;
  std::condition_variable checkpointer_cv_;
  bool stop_checkpointer_ = false;
  uint64_t checkpoint_interval_ms_ = 0;

  // CheckSchema memoization (satellite of the durability work: recovery and
  // eager DDL validation both call it repeatedly).
  mutable analysis::DiagnosticBag schema_check_cache_;
  mutable uint64_t schema_check_epoch_ = 0;
  mutable bool schema_check_valid_ = false;
};

}  // namespace caddb

#endif  // CADDB_CORE_DATABASE_H_
