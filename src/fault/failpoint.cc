#include "fault/failpoint.h"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/string_util.h"

namespace caddb {
namespace fault {

namespace {

std::string WithErrno(const std::string& msg, int err) {
  return msg + " (errno " + std::to_string(err) + ": " +
         std::strerror(err) + ")";
}

void RealSleep(uint64_t delay_us) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(delay_us / 1000000);
  ts.tv_nsec = static_cast<long>((delay_us % 1000000) * 1000);
  while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

/// "50ms" / "2000us" / "1s" / bare number (us) → microseconds. The number
/// is capped so that every unit stays within 64 bits.
Result<uint64_t> ParseDuration(const std::string& text) {
  const size_t digits = std::min(text.find_first_not_of("0123456789"),
                                 text.size());
  Result<uint64_t> value =
      ParseUint(std::string_view(text).substr(0, digits), "duration",
                UINT64_MAX / 1000000);
  if (!value.ok()) return InvalidArgument("bad duration '" + text + "'");
  const std::string unit = text.substr(digits);
  if (unit.empty() || unit == "us") return *value;
  if (unit == "ms") return *value * 1000;
  if (unit == "s") return *value * 1000000;
  return InvalidArgument("bad duration unit '" + unit + "' in '" + text +
                         "'");
}

}  // namespace

const char* ActionKindName(ActionKind kind) {
  switch (kind) {
    case ActionKind::kOff:
      return "off";
    case ActionKind::kError:
      return "error";
    case ActionKind::kAbort:
      return "abort";
    case ActionKind::kDelay:
      return "delay";
    case ActionKind::kCut:
      return "cut";
    case ActionKind::kDrop:
      return "drop";
    case ActionKind::kTruncate:
      return "truncate";
    case ActionKind::kReset:
      return "reset";
    case ActionKind::kCorrupt:
      return "corrupt";
    case ActionKind::kDuplicate:
      return "duplicate";
    case ActionKind::kReorder:
      return "reorder";
    case ActionKind::kStall:
      return "stall";
  }
  return "?";
}

Result<ActionKind> ActionKindFromName(const std::string& name) {
  for (ActionKind kind :
       {ActionKind::kOff, ActionKind::kError, ActionKind::kAbort,
        ActionKind::kDelay, ActionKind::kCut, ActionKind::kDrop,
        ActionKind::kTruncate, ActionKind::kReset, ActionKind::kCorrupt,
        ActionKind::kDuplicate, ActionKind::kReorder, ActionKind::kStall}) {
    if (name == ActionKindName(kind)) return kind;
  }
  return InvalidArgument("unknown failpoint action '" + name + "'");
}

Result<FailpointSpec> FailpointSpec::Parse(
    const std::vector<std::string>& tokens) {
  if (tokens.empty()) {
    return InvalidArgument("empty failpoint spec (expected an action kind)");
  }
  FailpointSpec spec;
  // First token: kind, optionally "kind=value".
  {
    const std::string& tok = tokens[0];
    const size_t eq = tok.find('=');
    const std::string kind_name = tok.substr(0, eq);
    CADDB_ASSIGN_OR_RETURN(spec.kind, ActionKindFromName(kind_name));
    const std::string value =
        eq == std::string::npos ? "" : tok.substr(eq + 1);
    if (spec.kind == ActionKind::kDelay) {
      if (value.empty()) {
        return InvalidArgument("delay needs a duration (delay=50ms)");
      }
      CADDB_ASSIGN_OR_RETURN(spec.delay_us, ParseDuration(value));
    } else if (spec.kind == ActionKind::kCut) {
      if (value.empty()) {
        return InvalidArgument("cut needs a byte budget (cut=4096)");
      }
      CADDB_ASSIGN_OR_RETURN(spec.arg, ParseUint(value, "cut budget"));
    } else if (spec.kind == ActionKind::kError) {
      spec.message = value;  // optional
    } else if (!value.empty()) {
      return InvalidArgument(std::string("action '") +
                             ActionKindName(spec.kind) + "' takes no value");
    }
  }
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const size_t eq = tok.find('=');
    if (tok.rfind("--", 0) != 0 || eq == std::string::npos) {
      return InvalidArgument("bad failpoint modifier '" + tok +
                             "' (expected --skip/--every/--times/--p/--seed"
                             "=value)");
    }
    const std::string key = tok.substr(2, eq - 2);
    const std::string value = tok.substr(eq + 1);
    if (key == "skip") {
      CADDB_ASSIGN_OR_RETURN(spec.skip, ParseUint(value, "--skip"));
    } else if (key == "every") {
      CADDB_ASSIGN_OR_RETURN(spec.every, ParseUint(value, "--every"));
      if (spec.every == 0) return InvalidArgument("--every must be >= 1");
    } else if (key == "times") {
      CADDB_ASSIGN_OR_RETURN(spec.times, ParseUint(value, "--times"));
    } else if (key == "p") {
      const char* end = value.data() + value.size();
      auto [stop, ec] = std::from_chars(value.data(), end, spec.probability);
      if (value.empty() || ec != std::errc() || stop != end) {
        return InvalidArgument("bad --p '" + value + "'");
      }
      // Written so that NaN fails too.
      if (!(spec.probability >= 0.0 && spec.probability <= 1.0)) {
        return InvalidArgument("--p must be within [0, 1]");
      }
    } else if (key == "seed") {
      CADDB_ASSIGN_OR_RETURN(uint64_t seed,
                             ParseUint(value, "--seed", UINT32_MAX));
      spec.seed = static_cast<uint32_t>(seed);
    } else {
      return InvalidArgument("unknown failpoint modifier '--" + key + "'");
    }
  }
  return spec;
}

Result<FailpointSpec> FailpointSpec::ParseString(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return Parse(tokens);
}

std::string FailpointSpec::ToString() const {
  std::string out = ActionKindName(kind);
  if (kind == ActionKind::kDelay) {
    out += "=" + std::to_string(delay_us) + "us";
  } else if (kind == ActionKind::kCut) {
    out += "=" + std::to_string(arg);
  } else if (kind == ActionKind::kError && !message.empty()) {
    out += "=" + message;
  }
  if (skip != 0) out += " --skip=" + std::to_string(skip);
  if (every != 1) out += " --every=" + std::to_string(every);
  if (times != 0) out += " --times=" + std::to_string(times);
  if (probability < 1.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " --p=%g", probability);
    out += buf;
    out += " --seed=" + std::to_string(seed);
  }
  return out;
}

FailpointRegistry::FailpointRegistry() {
  constexpr uint32_t kGeneric = KindBit(ActionKind::kError) |
                                KindBit(ActionKind::kAbort) |
                                KindBit(ActionKind::kDelay);
  constexpr uint32_t kNetWrite =
      KindBit(ActionKind::kDrop) | KindBit(ActionKind::kTruncate) |
      KindBit(ActionKind::kReset) | KindBit(ActionKind::kDelay) |
      KindBit(ActionKind::kError);
  constexpr uint32_t kNetRead =
      KindBit(ActionKind::kDrop) | KindBit(ActionKind::kReset) |
      KindBit(ActionKind::kDelay) | KindBit(ActionKind::kError);
  constexpr uint32_t kShip =
      KindBit(ActionKind::kDrop) | KindBit(ActionKind::kTruncate) |
      KindBit(ActionKind::kDuplicate) | KindBit(ActionKind::kReorder) |
      KindBit(ActionKind::kCorrupt) | KindBit(ActionKind::kStall) |
      KindBit(ActionKind::kDelay) | KindBit(ActionKind::kError);
  (void)Declare(sites::kWalAppendPreFsync,
                "before the WAL file fsync that makes a commit durable",
                kGeneric);
  (void)Declare(sites::kWalFileCut,
                "byte budget for newly opened WAL segments: appends beyond "
                "`cut=N` bytes are silently dropped and fsync lies "
                "(simulated crash cut)",
                KindBit(ActionKind::kCut));
  (void)Declare(sites::kWalCheckpointPublish,
                "before a checkpoint file is atomically published",
                kGeneric);
  (void)Declare(sites::kStoragePageWrite,
                "before a page image is written to pages.db", kGeneric);
  (void)Declare(sites::kStoragePageFlush,
                "before pages.db is fsynced", kGeneric);
  (void)Declare(sites::kStorageFileCut,
                "byte budget for pages.db page writes, evaluated when the "
                "file opens writable: the write straddling `cut=N` is torn, "
                "later writes are silently dropped and fsync lies "
                "(simulated crash cut)",
                KindBit(ActionKind::kCut));
  (void)Declare(sites::kReplicationShip,
                "per ship attempt: the shipper's fault matrix "
                "(drop/truncate/duplicate/reorder/corrupt/stall)",
                kShip);
  (void)Declare(sites::kReplicationShipManifest,
                "before the replica MANIFEST is atomically published",
                kGeneric);
  (void)Declare(sites::kNetSessionWrite,
                "server-side socket writes (drop/truncate/reset mid-frame)",
                kNetWrite);
  (void)Declare(sites::kNetSessionRead,
                "server-side socket reads (slow-loris delay, fake EOF, "
                "reset)",
                kNetRead);
  (void)Declare(sites::kNetClientWrite,
                "client-side socket writes (drop/truncate/reset mid-frame)",
                kNetWrite);
  (void)Declare(sites::kNetClientRead,
                "client-side socket reads (slow-loris delay, fake EOF, "
                "reset)",
                kNetRead);
}

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* global = new FailpointRegistry();
  return *global;
}

Status FailpointRegistry::Declare(const std::string& site,
                                  const std::string& help,
                                  uint32_t supported_kinds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it != sites_.end()) {
    if (it->second.supported == supported_kinds) return OkStatus();
    return AlreadyExists("failpoint site '" + site +
                         "' already declared with a different kind set");
  }
  Site& s = sites_[site];
  s.help = help;
  s.supported = supported_kinds;
  return OkStatus();
}

Status FailpointRegistry::Arm(const std::string& site,
                              const FailpointSpec& spec,
                              obs::MetricsRegistry* metrics,
                              obs::EventLog* log) {
  if (spec.kind == ActionKind::kOff) return Disarm(site);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    return NotFound(WithErrno(
        "fault arm '" + site + "': unknown failpoint site", ENOENT));
  }
  Site& s = it->second;
  if ((s.supported & KindBit(spec.kind)) == 0) {
    return InvalidArgument(WithErrno(
        "fault arm '" + site + "': action '" +
            ActionKindName(spec.kind) + "' is not supported at this site",
        EINVAL));
  }
  if (!s.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  s.armed = true;
  s.spec = spec;
  s.hits = 0;
  s.fired = 0;
  s.rng.seed(spec.seed);
  s.fired_counter =
      metrics == nullptr
          ? nullptr
          : metrics->GetCounter(
                "caddb_fault_fired_total{site=\"" + site + "\"}",
                "Failpoint fires by site");
  s.event_log = log;
  return OkStatus();
}

Status FailpointRegistry::ArmFromString(const std::string& directive,
                                        obs::MetricsRegistry* metrics,
                                        obs::EventLog* log) {
  std::vector<std::string> tokens;
  std::istringstream in(directive);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  if (tokens.empty()) {
    return InvalidArgument("empty fault directive (expected '<site> "
                           "<action> [modifiers]')");
  }
  const std::string site = tokens[0];
  tokens.erase(tokens.begin());
  Result<FailpointSpec> spec = FailpointSpec::Parse(tokens);
  if (!spec.ok()) {
    return InvalidArgument(WithErrno(
        "fault arm '" + site + "': " + spec.status().message(), EINVAL));
  }
  return Arm(site, *spec, metrics, log);
}

Status FailpointRegistry::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    return NotFound(WithErrno(
        "fault disarm '" + site + "': unknown failpoint site", ENOENT));
  }
  Site& s = it->second;
  if (s.armed) {
    s.armed = false;
    s.fired_counter = nullptr;
    s.event_log = nullptr;
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  return OkStatus();
}

size_t FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t disarmed = 0;
  for (auto& [name, s] : sites_) {
    if (s.armed) {
      s.armed = false;
      s.fired_counter = nullptr;
      s.event_log = nullptr;
      armed_count_.fetch_sub(1, std::memory_order_relaxed);
      ++disarmed;
    }
  }
  return disarmed;
}

std::vector<SiteInfo> FailpointRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SiteInfo> out;
  out.reserve(sites_.size());
  for (const auto& [name, s] : sites_) {
    SiteInfo info;
    info.name = name;
    info.help = s.help;
    info.armed = s.armed;
    info.spec = s.armed ? s.spec.ToString() : "off";
    info.hits = s.hits;
    info.fired = s.fired;
    out.push_back(std::move(info));
  }
  return out;
}

bool FailpointRegistry::Hit(const std::string& site, FiredAction* out) {
  // Captured under mu_, emitted after — the log sink may do file I/O and
  // Hit() promises not to dawdle while holding the registry lock.
  obs::EventLog* fire_log = nullptr;
  uint64_t fire_hit = 0, fire_no = 0;
  std::string fire_spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end() || !it->second.armed) return false;
    Site& s = it->second;
    const FailpointSpec& spec = s.spec;
    ++s.hits;
    if (s.hits <= spec.skip) return false;
    const uint64_t eligible = s.hits - spec.skip;
    if ((eligible - 1) % spec.every != 0) return false;
    if (spec.times != 0 && s.fired >= spec.times) return false;
    if (spec.probability < 1.0) {
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      if (uniform(s.rng) >= spec.probability) return false;
    }
    ++s.fired;
    if (s.fired_counter != nullptr) s.fired_counter->Increment();
    if (out != nullptr) {
      out->kind = spec.kind;
      out->delay_us = spec.delay_us;
      out->arg = spec.arg;
      out->message = spec.message;
    }
    if (s.event_log != nullptr &&
        s.event_log->ShouldLog(obs::LogLevel::kWarn)) {
      fire_log = s.event_log;
      fire_hit = s.hits;
      fire_no = s.fired;
      fire_spec = spec.ToString();
    }
  }
  if (fire_log != nullptr) {
    fire_log->Log(obs::LogLevel::kWarn, "fault",
                  "failpoint " + site + " fired (hit " +
                      std::to_string(fire_hit) + ", fire " +
                      std::to_string(fire_no) + "): " + fire_spec);
  }
  return true;
}

Status FailpointRegistry::Inject(const std::string& site) {
  FiredAction action;
  if (!Hit(site, &action)) return OkStatus();
  switch (action.kind) {
    case ActionKind::kDelay:
      SleepFor(action.delay_us);
      return OkStatus();
    case ActionKind::kAbort:
      std::fprintf(stderr, "failpoint %s: injected abort\n", site.c_str());
      std::fflush(stderr);
      std::abort();
    default: {
      std::string msg = "failpoint " + site + ": injected failure";
      if (!action.message.empty()) msg += ": " + action.message;
      return Unavailable(std::move(msg));
    }
  }
}

void FailpointRegistry::set_sleeper(std::function<void(uint64_t)> sleeper) {
  std::lock_guard<std::mutex> lock(mu_);
  sleeper_ = std::move(sleeper);
}

void FailpointRegistry::SleepFor(uint64_t delay_us) {
  std::function<void(uint64_t)> sleeper;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sleeper = sleeper_;
  }
  if (sleeper) {
    sleeper(delay_us);
  } else {
    RealSleep(delay_us);
  }
}

}  // namespace fault
}  // namespace caddb
