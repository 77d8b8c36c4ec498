#include "analysis/diagnostics.h"

#include <algorithm>

namespace caddb {
namespace analysis {

namespace {

int SeverityRank(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return 0;
    case Severity::kWarning:
      return 1;
    case Severity::kNote:
      return 2;
  }
  return 3;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          *out += "\\u00";
          out->push_back(kHex[(c >> 4) & 0xf]);
          out->push_back(kHex[c & 0xf]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string Plural(size_t n, const char* noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

}  // namespace

const std::vector<DiagnosticCodeInfo>& CodeRegistry() {
  // The one authoritative table of diagnostic codes. DESIGN.md's rendered
  // tables and every analyzer emission are checked against it in
  // analysis_test — adding a code means adding it here (append-only) and in
  // DESIGN.md, or the suite fails.
  static const std::vector<DiagnosticCodeInfo> kRegistry = {
      {"CAD001", "inheritance cycle (inheritor-in / transmitter chain)"},
      {"CAD002", "inher-rel-type names an unknown transmitter type"},
      {"CAD003", "inher-rel-type names an unknown inheritor type"},
      {"CAD004", "obj-type is inheritor-in an unknown inher-rel-type"},
      {"CAD005", "inheritor type mismatch (rel requires a different "
                 "inheritor)"},
      {"CAD006", "inheriting clause names no attribute/subclass of "
                 "transmitter"},
      {"CAD007", "local declaration shadows an inherited item"},
      {"CAD008", "constraint expression references an unknown name"},
      {"CAD009", "subclass has an unknown element type"},
      {"CAD010", "subrel has an unknown rel-type"},
      {"CAD011", "participant role has an unknown object type"},
      {"CAD012", "unresolved domain reference"},
      {"CAD013", "inher-rel-type is never used as anyone's inheritor-in"},
      {"CAD014", "inheritor-type restriction no type can ever satisfy"},
      {"CAD101", "dangling surrogate reference"},
      {"CAD102", "orphaned subobject (containment back-pointer broken)"},
      {"CAD103", "locally stored value for an inherited (read-only) "
                 "attribute"},
      {"CAD104", "live object of an unregistered type"},
      {"CAD105", "inheritance binding inconsistency"},
      {"CAD106", "store index inconsistency (extent / class / where-used)"},
      {"CAD107", "resolution-cache entry disagrees with a fresh resolution"},
      {"CAD201", "primary log generation moved backwards"},
      {"CAD202", "checkpoint anchor moved backwards within one generation"},
      {"CAD203", "replayed log prefix no longer matches what was applied"},
      {"CAD204", "manifest structurally inconsistent"},
      {"CAD205", "shipped state fails replay or fsck despite valid "
                 "checksums"},
      {"CAD301", "page checksum mismatch (torn write or bit rot)"},
      {"CAD302", "page header claims a different page id than its position"},
      {"CAD303", "page slot directory malformed (overrun, overlap, or "
                 "out-of-bounds slot)"},
      {"CAD304", "page record malformed (short, undecodable, or keyed to a "
                 "different surrogate)"},
      {"CAD305", "overflow chain broken (dangling next, id mismatch, or "
                 "cycle)"},
      {"CAD306", "orphaned overflow page unreachable from any chain head"},
      {"CAD307", "surrogate mapped by more than one live record (directory "
                 "bijection violated)"},
      {"CAD308", "live data references a free page (freelist and mapped "
                 "pages intersect)"},
      {"CAD309", "page lsn beyond the log's durable horizon"},
      {"CAD310", "page file has a torn tail (size not a page multiple)"},
      {"CAD311", "wal segment torn or corrupt mid-chain (later records "
                 "stranded)"},
      {"CAD312", "wal tail segment torn past the last valid frame"},
      {"CAD313", "wal lsn discontinuity (in-segment regression or seam "
                 "gap/overlap)"},
      {"CAD314", "wal frame payload undecodable despite a valid checksum"},
      {"CAD315", "checkpoint file unreadable (header, retired version, crc, "
                 "or name mismatch)"},
      {"CAD316", "checkpoint body malformed (structure or replay floor past "
                 "the cover lsn)"},
      {"CAD317", "checkpoint page image invalid (size, parse, id, or lsn)"},
      {"CAD318", "checkpoint replay floor not covered by the retained "
                 "segments"},
      {"CAD319", "manifest seq/generation inconsistent with the staged "
                 "checkpoint"},
      {"CAD320", "manifest damaged (decode, crc, or structural validation "
                 "failure)"},
      {"CAD321", "manifest names a missing or mismatched artifact"},
      {"CAD322", "replica is quarantined (persisted divergence verdict)"},
      {"CAD323", "stale temp files (debris of an interrupted atomic "
                 "publish)"},
  };
  return kRegistry;
}

const DiagnosticCodeInfo* FindCodeInfo(const std::string& code) {
  const std::vector<DiagnosticCodeInfo>& registry = CodeRegistry();
  auto it = std::lower_bound(
      registry.begin(), registry.end(), code,
      [](const DiagnosticCodeInfo& info, const std::string& key) {
        return key.compare(info.code) > 0;
      });
  if (it == registry.end() || code != it->code) return nullptr;
  return &*it;
}

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "?";
}

void DiagnosticBag::Add(std::string code, Severity severity,
                        std::string message, SourceLoc loc, std::string entity,
                        std::string hint) {
  diagnostics_.push_back({std::move(code), severity, std::move(message), loc,
                          std::move(entity), std::move(hint)});
}

void DiagnosticBag::Merge(const DiagnosticBag& other) {
  diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(),
                      other.diagnostics_.end());
}

bool DiagnosticBag::Has(const std::string& code) const {
  return std::any_of(
      diagnostics_.begin(), diagnostics_.end(),
      [&code](const Diagnostic& d) { return d.code == code; });
}

size_t DiagnosticBag::Count(Severity severity) const {
  return static_cast<size_t>(std::count_if(
      diagnostics_.begin(), diagnostics_.end(),
      [severity](const Diagnostic& d) { return d.severity == severity; }));
}

void DiagnosticBag::Sort() {
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (SeverityRank(a.severity) != SeverityRank(b.severity)) {
                       return SeverityRank(a.severity) < SeverityRank(b.severity);
                     }
                     if (a.loc.line != b.loc.line) {
                       return a.loc.line < b.loc.line;
                     }
                     return a.code < b.code;
                   });
}

std::string DiagnosticBag::RenderText() const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += d.code;
    out += " ";
    out += SeverityName(d.severity);
    out += ": ";
    out += d.message;
    if (!d.entity.empty() || d.loc.valid()) {
      out += " [";
      out += d.entity;
      if (d.loc.valid()) {
        if (!d.entity.empty()) out += " @ ";
        out += d.loc.ToString();
      }
      out += "]";
    }
    out += "\n";
    if (!d.hint.empty()) {
      out += "    hint: ";
      out += d.hint;
      out += "\n";
    }
  }
  return out;
}

std::string DiagnosticBag::RenderJson() const {
  std::string out = "{\"diagnostics\":[";
  for (size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    if (i > 0) out += ",";
    out += "{\"code\":";
    AppendJsonString(&out, d.code);
    out += ",\"severity\":";
    AppendJsonString(&out, SeverityName(d.severity));
    out += ",\"message\":";
    AppendJsonString(&out, d.message);
    if (d.loc.valid()) {
      out += ",\"line\":" + std::to_string(d.loc.line);
      out += ",\"column\":" + std::to_string(d.loc.column);
    }
    out += ",\"entity\":";
    AppendJsonString(&out, d.entity);
    if (!d.hint.empty()) {
      out += ",\"hint\":";
      AppendJsonString(&out, d.hint);
    }
    out += "}";
  }
  out += "],\"errors\":" + std::to_string(error_count());
  out += ",\"warnings\":" + std::to_string(warning_count());
  out += ",\"notes\":" + std::to_string(Count(Severity::kNote));
  out += "}";
  return out;
}

std::string DiagnosticBag::Summary() const {
  if (diagnostics_.empty()) return "clean";
  std::string out;
  if (error_count() > 0) out += Plural(error_count(), "error");
  if (warning_count() > 0) {
    if (!out.empty()) out += ", ";
    out += Plural(warning_count(), "warning");
  }
  size_t notes = Count(Severity::kNote);
  if (notes > 0) {
    if (!out.empty()) out += ", ";
    out += Plural(notes, "note");
  }
  return out;
}

}  // namespace analysis
}  // namespace caddb
