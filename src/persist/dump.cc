#include "persist/dump.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "ddl/printer.h"
#include "persist/value_codec.h"
#include "util/string_util.h"

namespace caddb {
namespace persist {

Result<Value> RemapValueRefs(const Value& v,
                             const std::map<uint64_t, uint64_t>& mapping) {
  switch (v.kind()) {
    case Value::Kind::kRef: {
      Surrogate target = v.AsRef();
      if (!target.valid()) return v;
      auto it = mapping.find(target.id);
      if (it == mapping.end()) {
        return ParseError("value references unknown surrogate @" +
                          std::to_string(target.id));
      }
      return Value::Ref(Surrogate(it->second));
    }
    case Value::Kind::kRecord: {
      std::vector<Value::Field> fields;
      for (const auto& [name, field] : v.fields()) {
        CADDB_ASSIGN_OR_RETURN(Value mapped, RemapValueRefs(field, mapping));
        fields.emplace_back(name, std::move(mapped));
      }
      return Value::Record(std::move(fields));
    }
    case Value::Kind::kList:
    case Value::Kind::kSet:
    case Value::Kind::kMatrix: {
      std::vector<Value> elements;
      for (const Value& e : v.elements()) {
        CADDB_ASSIGN_OR_RETURN(Value mapped, RemapValueRefs(e, mapping));
        elements.push_back(std::move(mapped));
      }
      if (v.kind() == Value::Kind::kList) return Value::List(elements);
      if (v.kind() == Value::Kind::kSet) return Value::Set(elements);
      return Value::Matrix(v.rows(), v.cols(), elements);
    }
    default:
      return v;
  }
}

namespace {

/// Emits the version-manager block (design/version/vdefault/generic lines)
/// shared by the full dump and the v3 meta snapshot.
Status AppendVersionState(const Database& db, std::string* out) {
  const VersionManager& versions = db.versions();
  for (const std::string& name : versions.DesignObjectNames()) {
    CADDB_ASSIGN_OR_RETURN(const DesignObject* design, versions.Find(name));
    *out += "design " + name + " " + design->object_type() + "\n";
    std::vector<const VersionInfo*> ordered;
    for (const VersionInfo& v : design->versions()) ordered.push_back(&v);
    std::sort(ordered.begin(), ordered.end(),
              [](const VersionInfo* a, const VersionInfo* b) {
                return a->seq < b->seq;
              });
    for (const VersionInfo* v : ordered) {
      *out += "version " + name + " " + std::to_string(v->object.id) + " " +
              VersionStateName(v->state);
      for (Surrogate p : v->predecessors) {
        *out += " " + std::to_string(p.id);
      }
      *out += "\n";
    }
    if (design->default_version().valid()) {
      *out += "vdefault " + name + " " +
              std::to_string(design->default_version().id) + "\n";
    }
  }
  for (const VersionManager::GenericBinding& g : versions.GenericBindings()) {
    *out += "generic " + std::to_string(g.inheritor.id) + " " + g.design +
            " " + g.inher_rel_type;
    if (g.resolved_version.valid()) {
      *out += " " + std::to_string(g.resolved_version.id);
    }
    *out += "\n";
  }
  return OkStatus();
}

}  // namespace

Result<std::string> Dumper::Dump(const Database& db) {
  std::string out = "caddb-dump 1\n";
  const std::string schema = ddl::SchemaPrinter::Print(db.catalog());
  out += "schema " + std::to_string(schema.size()) + "\n" + schema;

  const ObjectStore& store = db.store();
  for (const std::string& name : store.ClassNames()) {
    CADDB_ASSIGN_OR_RETURN(std::string type, store.ClassType(name));
    out += "class " + name + " " + type + "\n";
  }

  std::vector<Surrogate> all = store.AllObjects();
  std::string attr_lines;
  for (Surrogate s : all) {
    CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store.Get(s));
    switch (obj->kind()) {
      case ObjKind::kObject: {
        out += "O " + std::to_string(s.id) + " " + obj->type_name();
        if (obj->IsSubobject()) {
          out += " P " + std::to_string(obj->parent().id) + " " +
                 obj->parent_subclass();
        } else if (!obj->class_name().empty()) {
          out += " C " + obj->class_name();
        }
        out += "\n";
        break;
      }
      case ObjKind::kRelationship: {
        out += "R " + std::to_string(s.id) + " " + obj->type_name();
        if (obj->IsSubobject()) {
          out += " P " + std::to_string(obj->parent().id) + " " +
                 obj->parent_subclass();
        }
        for (const auto& [role, members] : obj->participants()) {
          out += " role " + role;
          for (Surrogate m : members) out += " " + std::to_string(m.id);
          out += " ;";
        }
        out += "\n";
        break;
      }
      case ObjKind::kInherRel: {
        out += "I " + std::to_string(s.id) + " " + obj->type_name() + " " +
               std::to_string(obj->Participant("transmitter").id) + " " +
               std::to_string(obj->Participant("inheritor").id) + "\n";
        break;
      }
    }
    for (const auto& [attr, value] : obj->attributes()) {
      if (value.is_null()) continue;
      attr_lines += "A " + std::to_string(s.id) + " " + attr + " " +
                    EncodeValue(value) + "\n";
    }
  }
  // Version-manager state: design objects, version graphs, generic
  // bindings. Emitted after the objects so the loader can map surrogates.
  CADDB_RETURN_IF_ERROR(AppendVersionState(db, &out));

  out += attr_lines;
  out += "end\n";
  return out;
}

Status Dumper::Load(const std::string& dump, Database* db) {
  if (db->store().size() != 0) {
    return FailedPrecondition("Load requires an empty database");
  }
  size_t pos = 0;
  size_t line_no = 0;  // 1-based line of the most recent next_line()
  auto next_line = [&]() -> std::string {
    ++line_no;
    size_t eol = dump.find('\n', pos);
    std::string line = eol == std::string::npos
                           ? dump.substr(pos)
                           : dump.substr(pos, eol - pos);
    pos = eol == std::string::npos ? dump.size() : eol + 1;
    return line;
  };
  auto here = [&](Status status) {
    return Annotate("dump line " + std::to_string(line_no),
                    std::move(status));
  };

  if (next_line() != "caddb-dump 1") {
    return here(ParseError("not a caddb dump (bad magic line)"));
  }
  std::string schema_header = next_line();
  if (!StartsWith(schema_header, "schema ")) {
    return here(ParseError("missing schema section"));
  }
  size_t schema_size = 0;
  try {
    schema_size = static_cast<size_t>(std::stoull(schema_header.substr(7)));
  } catch (...) {
    return here(ParseError("bad schema byte count"));
  }
  if (pos + schema_size > dump.size()) {
    return here(ParseError("truncated schema section"));
  }
  std::string schema = dump.substr(pos, schema_size);
  pos += schema_size;
  ++line_no;  // errors in the schema body point at its first line
  CADDB_RETURN_IF_ERROR(here(db->ExecuteDdl(schema)));
  CADDB_RETURN_IF_ERROR(here(db->ValidateSchema()));
  // Skip past the schema body so the record lines below report accurately.
  const size_t schema_lines =
      static_cast<size_t>(std::count(schema.begin(), schema.end(), '\n')) +
      ((!schema.empty() && schema.back() != '\n') ? 1 : 0);
  line_no = 2 + schema_lines;

  std::map<uint64_t, uint64_t> mapping;  // old surrogate -> new surrogate
  auto map_id = [&](uint64_t old_id) -> Result<Surrogate> {
    auto it = mapping.find(old_id);
    if (it == mapping.end()) {
      return ParseError("dump references unknown surrogate @" +
                        std::to_string(old_id));
    }
    return Surrogate(it->second);
  };

  struct AttrRecord {
    uint64_t old_id;
    std::string attr;
    std::string encoded;
    size_t line;
  };
  std::vector<AttrRecord> attrs;

  while (pos < dump.size()) {
    std::string line = next_line();
    if (line.empty()) continue;
    if (line == "end") break;
    // One record per line; the lambda collects this line's errors so they
    // can all be stamped with the line number in a single place.
    Status line_status = [&]() -> Status {
    std::istringstream in(line);
    std::string tag;
    in >> tag;
    if (tag == "class") {
      std::string name, type;
      in >> name >> type;
      CADDB_RETURN_IF_ERROR(db->CreateClass(name, type));
    } else if (tag == "O") {
      uint64_t old_id;
      std::string type, marker;
      in >> old_id >> type;
      Surrogate created;
      if (in >> marker) {
        if (marker == "P") {
          uint64_t parent_id;
          std::string subclass;
          in >> parent_id >> subclass;
          CADDB_ASSIGN_OR_RETURN(Surrogate parent, map_id(parent_id));
          CADDB_ASSIGN_OR_RETURN(created,
                                 db->CreateSubobject(parent, subclass));
        } else if (marker == "C") {
          std::string class_name;
          in >> class_name;
          CADDB_ASSIGN_OR_RETURN(created, db->CreateObject(type, class_name));
        } else {
          return ParseError("bad object marker '" + marker + "'");
        }
      } else {
        CADDB_ASSIGN_OR_RETURN(created, db->CreateObject(type));
      }
      mapping[old_id] = created.id;
    } else if (tag == "R") {
      uint64_t old_id;
      std::string type;
      in >> old_id >> type;
      std::string token;
      bool has_parent = false;
      uint64_t parent_id = 0;
      std::string subrel;
      std::map<std::string, std::vector<Surrogate>> participants;
      while (in >> token) {
        if (token == "P") {
          has_parent = true;
          in >> parent_id >> subrel;
        } else if (token == "role") {
          std::string role;
          in >> role;
          std::vector<Surrogate>& members = participants[role];
          std::string member;
          while (in >> member && member != ";") {
            uint64_t member_id = 0;
            try {
              member_id = std::stoull(member);
            } catch (...) {
              return ParseError("bad participant id '" + member + "'");
            }
            CADDB_ASSIGN_OR_RETURN(Surrogate m, map_id(member_id));
            members.push_back(m);
          }
        } else {
          return ParseError("bad relationship token '" + token + "'");
        }
      }
      Surrogate created;
      if (has_parent) {
        CADDB_ASSIGN_OR_RETURN(Surrogate parent, map_id(parent_id));
        CADDB_ASSIGN_OR_RETURN(
            created, db->CreateSubrel(parent, subrel, participants));
      } else {
        CADDB_ASSIGN_OR_RETURN(created,
                               db->CreateRelationship(type, participants));
      }
      mapping[old_id] = created.id;
    } else if (tag == "I") {
      uint64_t old_id, transmitter_id, inheritor_id;
      std::string type;
      in >> old_id >> type >> transmitter_id >> inheritor_id;
      CADDB_ASSIGN_OR_RETURN(Surrogate transmitter, map_id(transmitter_id));
      CADDB_ASSIGN_OR_RETURN(Surrogate inheritor, map_id(inheritor_id));
      CADDB_ASSIGN_OR_RETURN(Surrogate created,
                             db->Bind(inheritor, transmitter, type));
      mapping[old_id] = created.id;
    } else if (tag == "design") {
      std::string name, type;
      in >> name >> type;
      CADDB_RETURN_IF_ERROR(db->versions().CreateDesignObject(name, type));
    } else if (tag == "version") {
      std::string design, state_name;
      uint64_t old_id;
      in >> design >> old_id >> state_name;
      CADDB_ASSIGN_OR_RETURN(Surrogate object, map_id(old_id));
      std::vector<Surrogate> predecessors;
      uint64_t pred;
      while (in >> pred) {
        CADDB_ASSIGN_OR_RETURN(Surrogate p, map_id(pred));
        predecessors.push_back(p);
      }
      CADDB_RETURN_IF_ERROR(
          db->versions().AddVersion(design, object, predecessors));
      CADDB_ASSIGN_OR_RETURN(VersionState state,
                             VersionStateFromName(state_name));
      CADDB_RETURN_IF_ERROR(db->versions().SetState(design, object, state));
    } else if (tag == "vdefault") {
      std::string design;
      uint64_t old_id;
      in >> design >> old_id;
      CADDB_ASSIGN_OR_RETURN(Surrogate object, map_id(old_id));
      CADDB_RETURN_IF_ERROR(
          db->versions().SetDefaultVersion(design, object));
    } else if (tag == "generic") {
      uint64_t inheritor_id;
      std::string design, rel_type;
      in >> inheritor_id >> design >> rel_type;
      CADDB_ASSIGN_OR_RETURN(Surrogate inheritor, map_id(inheritor_id));
      CADDB_ASSIGN_OR_RETURN(
          uint64_t binding,
          db->versions().BindGeneric(inheritor, design, rel_type));
      uint64_t resolved_id = 0;
      if (in >> resolved_id) {
        CADDB_ASSIGN_OR_RETURN(Surrogate resolved, map_id(resolved_id));
        CADDB_RETURN_IF_ERROR(db->versions().MarkResolved(binding, resolved));
      }
    } else if (tag == "A") {
      AttrRecord record;
      in >> record.old_id >> record.attr;
      // The remainder of the line (after the two fields and one space) is
      // the encoded value; values may contain spaces inside strings.
      std::string rest;
      std::getline(in, rest);
      if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);
      record.encoded = rest;
      record.line = line_no;
      attrs.push_back(std::move(record));
    } else {
      return ParseError("unknown dump record '" + tag + "'");
    }
    return OkStatus();
    }();
    CADDB_RETURN_IF_ERROR(here(std::move(line_status)));
  }

  for (const AttrRecord& record : attrs) {
    line_no = record.line;  // attributes apply after all objects exist
    Status attr_status = [&]() -> Status {
      CADDB_ASSIGN_OR_RETURN(Surrogate target, map_id(record.old_id));
      CADDB_ASSIGN_OR_RETURN(Value decoded, DecodeValue(record.encoded));
      CADDB_ASSIGN_OR_RETURN(Value remapped,
                             RemapValueRefs(decoded, mapping));
      return db->Set(target, record.attr, std::move(remapped));
    }();
    CADDB_RETURN_IF_ERROR(here(std::move(attr_status)));
  }
  return OkStatus();
}

Result<std::string> DumpMeta(const Database& db) {
  std::string out = "caddb-meta 1\n";
  const std::string schema = ddl::SchemaPrinter::Print(db.catalog());
  out += "schema " + std::to_string(schema.size()) + "\n" + schema;
  const ObjectStore& store = db.store();
  for (const std::string& name : store.ClassNames()) {
    CADDB_ASSIGN_OR_RETURN(std::string type, store.ClassType(name));
    out += "class " + name + " " + type + "\n";
  }
  CADDB_RETURN_IF_ERROR(AppendVersionState(db, &out));
  out += "nextsur " + std::to_string(store.next_surrogate()) + "\n";
  out += "end\n";
  return out;
}

Status LoadMeta(const std::string& meta, Database* db) {
  size_t pos = 0;
  size_t line_no = 0;
  auto next_line = [&]() -> std::string {
    ++line_no;
    size_t eol = meta.find('\n', pos);
    std::string line = eol == std::string::npos ? meta.substr(pos)
                                                : meta.substr(pos, eol - pos);
    pos = eol == std::string::npos ? meta.size() : eol + 1;
    return line;
  };
  auto here = [&](Status status) {
    return Annotate("meta line " + std::to_string(line_no), std::move(status));
  };
  // Version lines reference page-adopted objects by their real surrogate.
  auto check_id = [&](uint64_t id) -> Result<Surrogate> {
    if (!db->store().Exists(Surrogate(id))) {
      return ParseError("meta references unknown surrogate @" +
                        std::to_string(id));
    }
    return Surrogate(id);
  };

  if (next_line() != "caddb-meta 1") {
    return here(ParseError("not a caddb meta snapshot (bad magic line)"));
  }
  std::string schema_header = next_line();
  if (!StartsWith(schema_header, "schema ")) {
    return here(ParseError("missing schema section"));
  }
  size_t schema_size = 0;
  try {
    schema_size = static_cast<size_t>(std::stoull(schema_header.substr(7)));
  } catch (...) {
    return here(ParseError("bad schema byte count"));
  }
  if (pos + schema_size > meta.size()) {
    return here(ParseError("truncated schema section"));
  }
  std::string schema = meta.substr(pos, schema_size);
  pos += schema_size;
  ++line_no;
  CADDB_RETURN_IF_ERROR(here(db->ExecuteDdl(schema)));
  CADDB_RETURN_IF_ERROR(here(db->ValidateSchema()));
  const size_t schema_lines =
      static_cast<size_t>(std::count(schema.begin(), schema.end(), '\n')) +
      ((!schema.empty() && schema.back() != '\n') ? 1 : 0);
  line_no = 2 + schema_lines;

  bool saw_end = false;
  while (pos < meta.size()) {
    std::string line = next_line();
    if (line.empty()) continue;
    if (line == "end") {
      saw_end = true;
      break;
    }
    Status line_status = [&]() -> Status {
      std::istringstream in(line);
      std::string tag;
      in >> tag;
      if (tag == "class") {
        std::string name, type;
        in >> name >> type;
        // Store-level create: memberships come back via RepairIndexes.
        CADDB_RETURN_IF_ERROR(db->store().CreateClass(name, type));
      } else if (tag == "design") {
        std::string name, type;
        in >> name >> type;
        CADDB_RETURN_IF_ERROR(db->versions().CreateDesignObject(name, type));
      } else if (tag == "version") {
        std::string design, state_name;
        uint64_t id;
        in >> design >> id >> state_name;
        CADDB_ASSIGN_OR_RETURN(Surrogate object, check_id(id));
        std::vector<Surrogate> predecessors;
        uint64_t pred;
        while (in >> pred) {
          CADDB_ASSIGN_OR_RETURN(Surrogate p, check_id(pred));
          predecessors.push_back(p);
        }
        CADDB_RETURN_IF_ERROR(
            db->versions().AddVersion(design, object, predecessors));
        CADDB_ASSIGN_OR_RETURN(VersionState state,
                               VersionStateFromName(state_name));
        CADDB_RETURN_IF_ERROR(db->versions().SetState(design, object, state));
      } else if (tag == "vdefault") {
        std::string design;
        uint64_t id;
        in >> design >> id;
        CADDB_ASSIGN_OR_RETURN(Surrogate object, check_id(id));
        CADDB_RETURN_IF_ERROR(db->versions().SetDefaultVersion(design, object));
      } else if (tag == "generic") {
        uint64_t inheritor_id;
        std::string design, rel_type;
        in >> inheritor_id >> design >> rel_type;
        CADDB_ASSIGN_OR_RETURN(Surrogate inheritor, check_id(inheritor_id));
        CADDB_ASSIGN_OR_RETURN(
            uint64_t binding,
            db->versions().BindGeneric(inheritor, design, rel_type));
        uint64_t resolved_id = 0;
        if (in >> resolved_id) {
          CADDB_ASSIGN_OR_RETURN(Surrogate resolved, check_id(resolved_id));
          CADDB_RETURN_IF_ERROR(db->versions().MarkResolved(binding, resolved));
        }
      } else if (tag == "nextsur") {
        uint64_t next = 0;
        in >> next;
        if (in.fail() || next == 0) return ParseError("bad nextsur value");
        db->store().SetNextSurrogate(next);
      } else {
        return ParseError("unknown meta record '" + tag + "'");
      }
      return OkStatus();
    }();
    CADDB_RETURN_IF_ERROR(here(std::move(line_status)));
  }
  if (!saw_end) {
    return here(ParseError("meta snapshot is missing its end line"));
  }
  return OkStatus();
}

Result<std::string> CanonicalDump(const Database& db) {
  CADDB_ASSIGN_OR_RETURN(std::string raw, Dumper::Dump(db));
  Database fresh;
  CADDB_RETURN_IF_ERROR(Dumper::Load(raw, &fresh));
  return Dumper::Dump(fresh);
}

}  // namespace persist
}  // namespace caddb
