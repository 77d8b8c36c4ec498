#include "replication/follower.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "wal/crc32c.h"
#include "wal/log_io.h"

namespace caddb {
namespace replication {

namespace fs = std::filesystem;

namespace {
constexpr char kQuarantineFileName[] = "QUARANTINE";
}  // namespace

const char* FollowerStateName(FollowerState state) {
  switch (state) {
    case FollowerState::kNeverSynced:
      return "never-synced";
    case FollowerState::kFollowing:
      return "following";
    case FollowerState::kQuarantined:
      return "quarantined";
    case FollowerState::kPromoted:
      return "promoted";
  }
  return "unknown";
}

Follower::Follower(std::string replica_dir, FollowerOptions options)
    : replica_dir_(std::move(replica_dir)),
      staged_dir_(options.staged_dir.empty()
                      ? (fs::path(replica_dir_) / ".staged").string()
                      : options.staged_dir),
      options_(std::move(options)) {
  obs_ = obs::SharedOrOwned(
      options_.obs != nullptr ? options_.obs : options_.durability.wal.obs,
      &owned_obs_);
  // Rebuilt read-only databases (and the promotion open) report into the
  // follower's bundle rather than each rebuild getting a fresh one.
  if (options_.durability.wal.obs == nullptr) {
    options_.durability.wal.obs = obs_;
  }
  m_polls_ = obs_->metrics.GetCounter("caddb_replication_polls_total",
                                      "Catch-up cycles started");
  m_rebuilds_ = obs_->metrics.GetCounter(
      "caddb_replication_rebuilds_total",
      "Full rebuilds from staged shipments (applied manifests)");
  m_retries_ = obs_->metrics.GetCounter(
      "caddb_replication_read_retries_total",
      "File-read attempts beyond the first (backoff retries)");
  m_quarantines_ = obs_->metrics.GetCounter(
      "caddb_replication_quarantines_total",
      "Divergence verdicts (CAD201-205) entered");
  m_reseeds_ = obs_->metrics.GetCounter(
      "caddb_replication_reseeds_total",
      "Reseed attempts on a quarantined replica");
  m_lag_ = obs_->metrics.GetGauge(
      "caddb_replication_replica_lag",
      "shipped_lsn - replay_lsn after the last applied manifest");
  m_poll_us_ = obs_->metrics.GetHistogram("caddb_replication_poll_us",
                                          "One catch-up cycle, end to end");
  m_rebuild_us_ = obs_->metrics.GetHistogram(
      "caddb_replication_rebuild_us",
      "Replay of a staged shipment into a fresh read-only database");
  if (!options_.file_reader) {
    options_.file_reader = [](const std::string& path) {
      return wal::ReadFileToString(path);
    };
  }
  if (!options_.sleeper) {
    options_.sleeper = [](uint64_t us) {
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    };
  }
  if (!options_.jitter_source) {
    options_.jitter_source = [rng = std::make_shared<std::mt19937>(
                                  std::random_device{}())]() mutable {
      return std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    };
  }
  if (!options_.clock_us) {
    options_.clock_us = [] {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };
  }
  // A quarantine survives restarts: re-applying divergent data after a
  // follower bounce would defeat the whole point of detecting it.
  Result<std::string> persisted = wal::ReadFileToString(
      (fs::path(replica_dir_) / kQuarantineFileName).string());
  if (persisted.ok()) {
    const std::string& text = *persisted;
    size_t newline = text.find('\n');
    quarantine_code_ = text.substr(0, newline);
    if (newline != std::string::npos) {
      quarantine_reason_ = text.substr(newline + 1);
      while (!quarantine_reason_.empty() &&
             quarantine_reason_.back() == '\n') {
        quarantine_reason_.pop_back();
      }
    }
    state_ = FollowerState::kQuarantined;
  }
}

Status Follower::Quarantine(const std::string& code,
                            const std::string& reason) {
  m_quarantines_->Increment();
  state_ = FollowerState::kQuarantined;
  quarantine_code_ = code;
  quarantine_reason_ = reason;
  CADDB_LOG(&obs_->log, obs::LogLevel::kError, "replication",
            "quarantined (" + code + "): " + reason);
  // Best effort: losing the persisted diagnostic must not mask the
  // in-memory refusal.
  (void)wal::AtomicWriteFile(
      (fs::path(replica_dir_) / kQuarantineFileName).string(),
      code + "\n" + reason + "\n");
  return FailedPrecondition(code + ": " + reason +
                            " — replica quarantined; rebuild it from a "
                            "fresh shipment after resolving the divergence");
}

Result<std::string> Follower::ReadWithRetry(
    const std::string& path,
    const std::function<Status(const std::string&)>& validate,
    PollResult* result) {
  Status last_error = OkStatus();
  uint64_t backoff = options_.initial_backoff_us;
  for (uint64_t attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    ++result->read_attempts;
    const uint64_t started = options_.clock_us();
    Result<std::string> bytes = options_.file_reader(path);
    const uint64_t elapsed = options_.clock_us() - started;
    if (bytes.ok() && options_.attempt_timeout_us != 0 &&
        elapsed > options_.attempt_timeout_us) {
      // The answer came, but after the deadline: as good as lost.
      last_error = Unavailable("read of " + path + " took " +
                               std::to_string(elapsed) + "us (deadline " +
                               std::to_string(options_.attempt_timeout_us) +
                               "us)");
    } else if (!bytes.ok()) {
      last_error = bytes.status();
    } else {
      Status valid = validate(*bytes);
      if (valid.ok()) return std::move(*bytes);
      last_error = valid;
    }
    if (attempt < options_.max_attempts) {
      m_retries_->Increment();
      // Jittered delay in [backoff*(1-jitter), backoff]; the *schedule*
      // (what doubles) is unjittered so the envelope stays predictable.
      uint64_t delay = backoff;
      if (options_.backoff_jitter > 0) {
        const double shave = options_.jitter_source() *
                             options_.backoff_jitter *
                             static_cast<double>(backoff);
        delay = backoff - static_cast<uint64_t>(shave);
      }
      options_.sleeper(delay);
      backoff = std::min(backoff * 2, options_.max_backoff_us);
    }
  }
  if (last_error.code() == Code::kNotFound) return last_error;
  return Unavailable("giving up on " + path + " after " +
                     std::to_string(options_.max_attempts) +
                     " attempt(s): " + last_error.ToString());
}

Result<PollResult> Follower::Poll() {
  if (state_ == FollowerState::kQuarantined) {
    return FailedPrecondition(quarantine_code_ + ": " + quarantine_reason_ +
                              " — replica is quarantined");
  }
  if (state_ == FollowerState::kPromoted) {
    return FailedPrecondition("replica was promoted; following has ended");
  }
  obs::Span poll_span(&obs_->trace, "replication.poll", m_poll_us_,
                      /*always_time=*/true);
  m_polls_->Increment();
  PollResult result;
  result.manifest_seq = last_seq_;
  result.replay_lsn = replay_lsn_;

  // 1. The manifest. A missing one means nothing was shipped yet; a torn
  // or garbled one means a transfer is in flight — both leave the current
  // database serving.
  Manifest manifest;
  Result<std::string> manifest_bytes = ReadWithRetry(
      (fs::path(replica_dir_) / kManifestFileName).string(),
      [&](const std::string& bytes) -> Status {
        Result<Manifest> decoded = Manifest::Decode(bytes);
        if (!decoded.ok()) return decoded.status();
        manifest = std::move(*decoded);
        return OkStatus();
      },
      &result);
  if (!manifest_bytes.ok()) {
    if (manifest_bytes.status().code() == Code::kNotFound) return result;
    return manifest_bytes.status();
  }

  // 2. Stale manifests (duplicate or reordered publication) are ignored.
  if (manifest.seq <= last_seq_) return result;

  // 3. Divergence checks that need no file fetches. Structural nonsense
  // and backwards movement are the primary's history changing under us —
  // quarantine before touching any data.
  Status structural = manifest.Validate();
  if (!structural.ok()) return Quarantine("CAD204", structural.message());
  if (manifest.generation < generation_) {
    return Quarantine(
        "CAD201", "primary log generation moved backwards (" +
                      std::to_string(generation_) + " -> " +
                      std::to_string(manifest.generation) +
                      "): the shipped history is not the one applied");
  }
  if (manifest.generation == generation_ &&
      manifest.checkpoint.lsn < anchor_lsn_) {
    return Quarantine(
        "CAD202", "checkpoint anchor moved backwards within generation " +
                      std::to_string(generation_) + " (lsn " +
                      std::to_string(anchor_lsn_) + " -> " +
                      std::to_string(manifest.checkpoint.lsn) + ")");
  }

  // 4. Fetch everything the manifest references into the staging area,
  // re-validating size and CRC against the manifest. A mismatch is a
  // transfer problem (torn, corrupted, or racing the next shipment), so
  // it retries and at worst reports kUnavailable — CRC failures here are
  // never divergence.
  std::error_code ec;
  fs::create_directories(staged_dir_, ec);
  if (ec) {
    return InternalError("cannot create staging dir " + staged_dir_ + ": " +
                         ec.message());
  }
  struct Wanted {
    std::string file;
    uint64_t bytes;
    uint32_t crc;
  };
  std::vector<Wanted> wanted;
  wanted.push_back({manifest.checkpoint.file, manifest.checkpoint.bytes,
                    manifest.checkpoint.crc});
  if (manifest.pagefile.present) {
    wanted.push_back({manifest.pagefile.file, manifest.pagefile.bytes,
                      manifest.pagefile.crc});
  }
  for (const ManifestSegment& seg : manifest.segments) {
    wanted.push_back({seg.file, seg.bytes, seg.crc});
  }
  for (const Wanted& want : wanted) {
    Result<std::string> fetched = ReadWithRetry(
        (fs::path(replica_dir_) / want.file).string(),
        [&](const std::string& bytes) -> Status {
          // The shipped prefix may have grown (tail segment re-shipped by
          // a newer in-flight shipment): a longer file whose prefix still
          // matches is fine, a shorter or differing one is not yet the
          // promised shipment.
          if (bytes.size() < want.bytes) {
            return Unavailable(want.file + ": " +
                               std::to_string(bytes.size()) + " bytes, " +
                               "manifest promises " +
                               std::to_string(want.bytes));
          }
          uint32_t crc = wal::Crc32c(bytes.data(), want.bytes);
          if (crc != want.crc) {
            return Unavailable(want.file + ": crc mismatch against manifest");
          }
          return OkStatus();
        },
        &result);
    if (!fetched.ok()) {
      if (fetched.status().code() == Code::kNotFound) {
        return Unavailable("replica file " + want.file +
                           " named by the manifest is missing");
      }
      return fetched.status();
    }
    std::string validated = std::move(*fetched);
    validated.resize(want.bytes);  // stage exactly the promised prefix
    const std::string target = (fs::path(staged_dir_) / want.file).string();
    Result<std::string> existing = wal::ReadFileToString(target);
    if (!existing.ok() || *existing != validated) {
      CADDB_RETURN_IF_ERROR(wal::AtomicWriteFile(target, validated));
    }
  }
  // Stale staged files from older manifests would confuse the rebuild
  // (recovery scans the whole directory).
  for (const fs::directory_entry& entry :
       fs::directory_iterator(staged_dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    bool referenced = false;
    for (const Wanted& want : wanted) {
      referenced = referenced || want.file == name;
    }
    if (!referenced) fs::remove(entry.path(), ec);
  }

  // 5. Full rebuild from the staged, validated bytes.
  wal::DurabilityOptions durability = options_.durability;
  durability.fingerprint_lsn = replay_lsn_;
  // The manifest's trace stamp (the originating commit's context) parents
  // the rebuild span: one tree from client command to follower catch-up.
  // Unstamped manifests (old primary, tracing off) root a local span.
  obs::Span rebuild_span(&obs_->trace, "replication.rebuild", manifest.trace,
                         m_rebuild_us_, /*always_time=*/true);
  rebuild_span.AddAttribute("manifest_seq", manifest.seq);
  Result<std::unique_ptr<Database>> rebuilt =
      Database::OpenReadOnly(staged_dir_, durability);
  m_rebuilds_->Increment();
  if (!rebuilt.ok()) {
    // Checksums matched what the primary shipped, yet it does not replay:
    // the primary shipped a broken history. That is divergence, not a
    // transfer hiccup.
    return Quarantine("CAD205", "shipped state fails replay: " +
                                    rebuilt.status().ToString());
  }
  const wal::RecoveryReport& report = (*rebuilt)->recovery_report();

  // 6. Replayed-prefix continuity: within one generation and one
  // checkpoint anchor, the records this follower already applied must
  // still be exactly what replays up to the old watermark. (An advanced
  // anchor folds records into the checkpoint body and resets the
  // comparison baseline; the generation rules cover the rest.)
  if (last_seq_ != 0 && manifest.generation == generation_ &&
      manifest.checkpoint.lsn == anchor_lsn_) {
    if (report.last_lsn < replay_lsn_) {
      return Quarantine(
          "CAD203", "replayed prefix shrank (lsn " +
                        std::to_string(replay_lsn_) + " -> " +
                        std::to_string(report.last_lsn) +
                        ") within one generation and checkpoint anchor");
    }
    if (report.fingerprint_at != fingerprint_) {
      return Quarantine(
          "CAD203",
          "replayed prefix through lsn " + std::to_string(replay_lsn_) +
              " no longer matches what this replica applied "
              "(fingerprint " + std::to_string(fingerprint_) + " -> " +
              std::to_string(report.fingerprint_at) +
              "): history was rewritten under the follower");
    }
  }

  // 7. Serve it.
  db_ = std::move(*rebuilt);
  last_seq_ = manifest.seq;
  generation_ = manifest.generation;
  anchor_lsn_ = manifest.checkpoint.lsn;
  replay_lsn_ = report.last_lsn;
  fingerprint_ = report.applied_fingerprint;
  shipped_lsn_ = manifest.shipped_lsn();
  state_ = FollowerState::kFollowing;
  db_->set_replica_info(replica_info());
  m_lag_->Set(static_cast<int64_t>(replica_info().lag()));
  result.advanced = true;
  result.manifest_seq = last_seq_;
  result.replay_lsn = replay_lsn_;
  CADDB_LOG(&obs_->log, obs::LogLevel::kInfo, "replication",
            "applied manifest seq " + std::to_string(last_seq_) +
                ", replayed through lsn " + std::to_string(replay_lsn_) +
                " (lag " + std::to_string(replica_info().lag()) + ")");
  return result;
}

Result<PollResult> Follower::Reseed() {
  if (state_ != FollowerState::kQuarantined) {
    return FailedPrecondition(
        std::string("replica is not quarantined (state: ") +
        FollowerStateName(state_) + "); nothing to reseed");
  }
  m_reseeds_->Increment();
  const std::string saved_code = quarantine_code_;
  const std::string saved_reason = quarantine_reason_;
  // Forget the divergence baseline: the operator accepts the primary's
  // current history as the new truth, so the poll below re-stages from the
  // manifest checkpoint with nothing to compare against.
  state_ = FollowerState::kNeverSynced;
  quarantine_code_.clear();
  quarantine_reason_.clear();
  db_.reset();
  last_seq_ = 0;
  generation_ = 0;
  anchor_lsn_ = 0;
  replay_lsn_ = 0;
  fingerprint_ = 0;
  shipped_lsn_ = 0;
  Result<PollResult> polled = Poll();
  if (polled.ok() && polled->advanced) {
    // Only a completed rebuild clears the persisted verdict.
    std::error_code ec;
    fs::remove(fs::path(replica_dir_) / kQuarantineFileName, ec);
    return polled;
  }
  // The rebuild did not complete. Unless the poll raised a *new* verdict,
  // the original one stands — a reseed that went nowhere must not silently
  // unlock the replica.
  if (state_ != FollowerState::kQuarantined) {
    state_ = FollowerState::kQuarantined;
    quarantine_code_ = saved_code;
    quarantine_reason_ = saved_reason;
  }
  if (!polled.ok()) return polled.status();
  return FailedPrecondition(
      "reseed found no applicable shipment; replica stays quarantined (" +
      quarantine_code_ + ": " + quarantine_reason_ + ")");
}

ReplicaInfo Follower::replica_info() const {
  ReplicaInfo info;
  info.is_replica = true;
  if (state_ == FollowerState::kQuarantined) {
    info.state = std::string("quarantined (") + quarantine_code_ + ")";
  } else if (state_ == FollowerState::kFollowing &&
             replay_lsn_ >= shipped_lsn_) {
    info.state = "caught-up";
  } else {
    info.state = FollowerStateName(state_);
  }
  info.manifest_seq = last_seq_;
  info.generation = generation_;
  info.replay_lsn = replay_lsn_;
  info.shipped_lsn = shipped_lsn_;
  return info;
}

Result<std::unique_ptr<Database>> Follower::Promote() {
  if (state_ == FollowerState::kQuarantined) {
    return FailedPrecondition(
        "refusing to promote a quarantined replica (" + quarantine_code_ +
        ": " + quarantine_reason_ + ")");
  }
  if (state_ == FollowerState::kPromoted) {
    return FailedPrecondition("replica was already promoted");
  }
  // Final catch-up. Transient unavailability is expected — the primary is
  // typically dead, that is why we are promoting — but a divergence
  // detected here still refuses.
  Result<PollResult> last = Poll();
  if (!last.ok() && state_ == FollowerState::kQuarantined) {
    return last.status();
  }
  if (last_seq_ == 0) {
    return FailedPrecondition(
        "replica never applied a shipment; nothing to promote");
  }
  db_.reset();  // release the read-only view of the staged directory
  wal::DurabilityOptions durability = options_.durability;
  durability.fingerprint_lsn = 0;
  // A private follower bundle dies with the follower; the promoted
  // primary outlives it, so it gets a bundle of its own.
  if (owned_obs_ != nullptr) durability.wal.obs = nullptr;
  // The full open: final replay, fsck, a fresh checkpoint in a new log
  // generation, truncation — after this the staged directory is a
  // first-class primary durability directory.
  Result<std::unique_ptr<Database>> promoted =
      Database::Open(staged_dir_, durability);
  if (!promoted.ok()) {
    return Annotate("promotion of " + replica_dir_, promoted.status());
  }
  state_ = FollowerState::kPromoted;
  return promoted;
}

}  // namespace replication
}  // namespace caddb
