#ifndef CADDB_TXN_WORKSPACE_H_
#define CADDB_TXN_WORKSPACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "inherit/inheritance.h"
#include "util/result.h"

namespace caddb {

namespace wal {
class Wal;
}

using WorkspaceId = uint64_t;

/// Long design transactions via checkout/checkin (paper section 6 cites
/// [KLMP84], [KSUW85]): a designer checks objects out into a private
/// workspace, works on the copies for however long the design takes, and
/// checks the changes back in. Checkout is exclusive per object (classic
/// engineering checkout), and checkin detects lost updates by comparing the
/// object's version counter against the checkout-time base.
class WorkspaceManager {
 public:
  /// `manager` is not owned and must outlive the workspace manager.
  explicit WorkspaceManager(InheritanceManager* manager)
      : manager_(manager) {}

  WorkspaceManager(const WorkspaceManager&) = delete;
  WorkspaceManager& operator=(const WorkspaceManager&) = delete;

  Result<WorkspaceId> Create(const std::string& user);
  /// Discards all private changes and releases checkouts.
  Status Discard(WorkspaceId ws);

  /// Copies the object's effective attributes (inherited values
  /// materialized) into the workspace and marks it checked out. Fails with
  /// kConflict when another workspace holds it.
  Status Checkout(WorkspaceId ws, Surrogate object);
  /// True if `object` is checked out by any workspace.
  bool IsCheckedOut(Surrogate object) const;
  std::vector<Surrogate> CheckedOutBy(WorkspaceId ws) const;

  /// Updates the private copy. Inherited attributes stay read-only even in
  /// the workspace — adaptation happens on local data only.
  Status Set(WorkspaceId ws, Surrogate object, const std::string& attr,
             Value v);
  /// Reads the private copy (checkout-time value unless overwritten).
  Result<Value> Get(WorkspaceId ws, Surrogate object,
                    const std::string& attr) const;

  /// Writes all dirty attributes back and releases the workspace's
  /// checkouts. Fails with kConflict — touching nothing — when any
  /// checked-out object changed in the store since checkout.
  Status Checkin(WorkspaceId ws);

  /// Attaches (or with nullptr, detaches) the write-ahead log. Workspace
  /// state itself is transient by design (like locks, it is not dumped),
  /// but a checkin mutates the store — those writes are logged as one
  /// Begin/Commit-bracketed group (pseudo-transaction id from the Wal), so
  /// recovery replays a checkin all-or-nothing with one durability point.
  void set_wal(wal::Wal* wal) { wal_ = wal; }

  /// Shares the database-wide store gate (see
  /// TransactionManager::set_store_gate). Checkout/Set/Get/Checkin take it
  /// around store access — with demand paging even a read may fault an
  /// object in — and Checkin holds it across the whole apply+log batch so
  /// a checkpoint capture never snapshots a half-applied checkin.
  void set_store_gate(std::mutex* gate) { store_mu_ = gate; }

 private:
  /// Sets `*commit_lsn` once the group's commit marker is appended.
  Status CheckinLocked(WorkspaceId ws, uint64_t* commit_lsn);

  struct CheckedOutObject {
    uint64_t base_version = 0;                // store version at checkout
    std::map<std::string, Value> copy;        // private attribute values
    std::map<std::string, Value> dirty;       // changed in the workspace
  };
  struct Workspace {
    std::string user;
    std::map<uint64_t, CheckedOutObject> objects;
  };

  InheritanceManager* manager_;
  wal::Wal* wal_ = nullptr;  // not owned; null = non-durable
  mutable std::mutex own_store_mu_;
  std::mutex* store_mu_ = &own_store_mu_;
  std::map<WorkspaceId, Workspace> workspaces_;
  std::map<uint64_t, WorkspaceId> checkout_owner_;  // object -> workspace
  WorkspaceId next_id_ = 1;
};

}  // namespace caddb

#endif  // CADDB_TXN_WORKSPACE_H_
