#include "obs/wave_recorder.h"

#include <utility>

namespace deltamon::obs {

Json ValueToJson(const Value& v) {
  Json out = Json::Object();
  switch (v.kind()) {
    case ValueKind::kNull:
      out.Set("t", "null");
      break;
    case ValueKind::kBool:
      out.Set("t", "b");
      out.Set("v", v.AsBool());
      break;
    case ValueKind::kInt:
      out.Set("t", "i");
      out.Set("v", v.AsInt());
      break;
    case ValueKind::kDouble:
      out.Set("t", "d");
      out.Set("v", v.AsDouble());
      break;
    case ValueKind::kString:
      out.Set("t", "s");
      out.Set("v", v.AsString());
      break;
    case ValueKind::kObject:
      out.Set("t", "o");
      out.Set("v", static_cast<int64_t>(v.AsObject().id));
      out.Set("type", static_cast<int64_t>(v.AsObject().type));
      break;
  }
  return out;
}

Result<Value> ValueFromJson(const Json& j) {
  if (!j.is_object()) return Status::ParseError("cell is not an object");
  const Json* t = j.Get("t");
  if (t == nullptr || !t->is_string()) {
    return Status::ParseError("cell has no type tag");
  }
  const std::string& tag = t->as_string();
  const Json* v = j.Get("v");
  if (tag == "null") return Value();
  if (v == nullptr) return Status::ParseError("cell has no value");
  if (tag == "b") {
    if (!v->is_bool()) return Status::ParseError("bool cell: bad value");
    return Value(v->as_bool());
  }
  if (tag == "i") {
    if (!v->is_int()) return Status::ParseError("int cell: bad value");
    return Value(v->as_int());
  }
  if (tag == "d") {
    if (!v->is_number()) return Status::ParseError("double cell: bad value");
    return Value(v->as_double());
  }
  if (tag == "s") {
    if (!v->is_string()) return Status::ParseError("string cell: bad value");
    return Value(v->as_string());
  }
  if (tag == "o") {
    const Json* type = j.Get("type");
    if (!v->is_int() || type == nullptr || !type->is_int()) {
      return Status::ParseError("object cell: bad value");
    }
    return Value(Oid{static_cast<uint64_t>(v->as_int()),
                     static_cast<TypeId>(type->as_int())});
  }
  return Status::ParseError("cell has unknown type tag '" + tag + "'");
}

Json TupleToJson(const Tuple& t) {
  Json out = Json::Array();
  for (const Value& v : t.values()) out.Append(ValueToJson(v));
  return out;
}

Result<Tuple> TupleFromJson(const Json& j) {
  if (!j.is_array()) return Status::ParseError("row is not an array");
  std::vector<Value> values;
  values.reserve(j.size());
  for (const Json& cell : j.array_items()) {
    DELTAMON_ASSIGN_OR_RETURN(Value v, ValueFromJson(cell));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

namespace {

Json RowsToJson(const std::vector<Tuple>& rows) {
  Json out = Json::Array();
  for (const Tuple& t : rows) out.Append(TupleToJson(t));
  return out;
}

Result<std::vector<Tuple>> RowsFromJson(const Json* j) {
  std::vector<Tuple> rows;
  if (j == nullptr) return rows;
  if (!j->is_array()) return Status::ParseError("rows is not an array");
  rows.reserve(j->size());
  for (const Json& row : j->array_items()) {
    DELTAMON_ASSIGN_OR_RETURN(Tuple t, TupleFromJson(row));
    rows.push_back(std::move(t));
  }
  return rows;
}

Result<uint64_t> UintField(const Json& j, const char* key) {
  const Json* v = j.Get(key);
  if (v == nullptr || !v->is_int()) {
    return Status::ParseError(std::string("missing integer field '") + key +
                              "'");
  }
  return static_cast<uint64_t>(v->as_int());
}

}  // namespace

Json WaveRelationDelta::ToJson() const {
  Json out = Json::Object();
  out.Set("relation", relation);
  out.Set("plus", RowsToJson(plus));
  out.Set("minus", RowsToJson(minus));
  return out;
}

Result<WaveRelationDelta> WaveRelationDelta::FromJson(const Json& j) {
  if (!j.is_object()) return Status::ParseError("delta is not an object");
  const Json* name = j.Get("relation");
  if (name == nullptr || !name->is_string()) {
    return Status::ParseError("delta has no relation name");
  }
  WaveRelationDelta out;
  out.relation = name->as_string();
  DELTAMON_ASSIGN_OR_RETURN(out.plus, RowsFromJson(j.Get("plus")));
  DELTAMON_ASSIGN_OR_RETURN(out.minus, RowsFromJson(j.Get("minus")));
  return out;
}

Json WaveRecord::ToJson() const {
  Json out = Json::Object();
  out.Set("seq", static_cast<int64_t>(seq));
  out.Set("trace_id", static_cast<int64_t>(trace_id));
  out.Set("version", static_cast<int64_t>(version));
  out.Set("round", static_cast<int64_t>(round));
  out.Set("threads", static_cast<int64_t>(threads));
  out.Set("kernels", kernels);
  Json in = Json::Array();
  for (const WaveRelationDelta& d : influents) in.Append(d.ToJson());
  out.Set("influents", std::move(in));
  Json r = Json::Array();
  for (const WaveRelationDelta& d : roots) r.Append(d.ToJson());
  out.Set("roots", std::move(r));
  Json f = Json::Array();
  for (const std::string& s : firings) f.Append(s);
  out.Set("firings", std::move(f));
  return out;
}

Result<WaveRecord> WaveRecord::FromJson(const Json& j) {
  if (!j.is_object()) return Status::ParseError("wave is not an object");
  WaveRecord out;
  DELTAMON_ASSIGN_OR_RETURN(out.seq, UintField(j, "seq"));
  DELTAMON_ASSIGN_OR_RETURN(out.trace_id, UintField(j, "trace_id"));
  DELTAMON_ASSIGN_OR_RETURN(out.version, UintField(j, "version"));
  DELTAMON_ASSIGN_OR_RETURN(out.round, UintField(j, "round"));
  DELTAMON_ASSIGN_OR_RETURN(out.threads, UintField(j, "threads"));
  const Json* kernels = j.Get("kernels");
  if (kernels == nullptr || !kernels->is_bool()) {
    return Status::ParseError("wave has no kernels flag");
  }
  out.kernels = kernels->as_bool();
  for (const char* key : {"influents", "roots"}) {
    const Json* list = j.Get(key);
    if (list == nullptr || !list->is_array()) {
      return Status::ParseError(std::string("wave has no ") + key);
    }
    std::vector<WaveRelationDelta>& dst =
        key[0] == 'i' ? out.influents : out.roots;
    for (const Json& d : list->array_items()) {
      DELTAMON_ASSIGN_OR_RETURN(WaveRelationDelta delta,
                                WaveRelationDelta::FromJson(d));
      dst.push_back(std::move(delta));
    }
  }
  const Json* firings = j.Get("firings");
  if (firings == nullptr || !firings->is_array()) {
    return Status::ParseError("wave has no firings");
  }
  for (const Json& f : firings->array_items()) {
    if (!f.is_string()) return Status::ParseError("firing is not a string");
    out.firings.push_back(f.as_string());
  }
  return out;
}

Json WaveRecord::OutcomeJson() const {
  Json out = Json::Object();
  out.Set("round", static_cast<int64_t>(round));
  Json in = Json::Array();
  for (const WaveRelationDelta& d : influents) in.Append(d.ToJson());
  out.Set("influents", std::move(in));
  Json r = Json::Array();
  for (const WaveRelationDelta& d : roots) r.Append(d.ToJson());
  out.Set("roots", std::move(r));
  Json f = Json::Array();
  for (const std::string& s : firings) f.Append(s);
  out.Set("firings", std::move(f));
  return out;
}

ProcessLog<WaveRecord>& GlobalWaveRecorder() {
  static auto* recorder = new ProcessLog<WaveRecord>(64);
  return *recorder;
}

Json WaveFileJson(const std::vector<WaveRecord>& records, bool enabled,
                  size_t capacity, uint64_t total, uint64_t dropped) {
  Json waves = Json::Array();
  for (const WaveRecord& r : records) waves.Append(r.ToJson());
  Json out = Json::Object();
  out.Set("schema", "deltamon.wave.v1");
  out.Set("enabled", enabled);
  out.Set("capacity", static_cast<int64_t>(capacity));
  out.Set("total_records", static_cast<int64_t>(total));
  out.Set("dropped_records", static_cast<int64_t>(dropped));
  out.Set("waves", std::move(waves));
  return out;
}

Result<std::vector<WaveRecord>> ParseWaveFile(const std::string& text) {
  DELTAMON_ASSIGN_OR_RETURN(Json doc, Json::Parse(text));
  if (!doc.is_object()) return Status::ParseError("wave file: not an object");
  const Json* schema = doc.Get("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "deltamon.wave.v1") {
    return Status::ParseError("wave file: schema is not deltamon.wave.v1");
  }
  const Json* waves = doc.Get("waves");
  if (waves == nullptr || !waves->is_array()) {
    return Status::ParseError("wave file: no waves array");
  }
  std::vector<WaveRecord> out;
  out.reserve(waves->size());
  for (const Json& w : waves->array_items()) {
    DELTAMON_ASSIGN_OR_RETURN(WaveRecord record, WaveRecord::FromJson(w));
    out.push_back(std::move(record));
  }
  return out;
}

}  // namespace deltamon::obs
