#include "ipin/serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "ipin/common/json.h"
#include "ipin/common/string_util.h"

namespace ipin::serve {
namespace {

// Serialization stays hand-rolled (like obs/export.cc): the reader side uses
// common/json, the writer side controls its bytes exactly.

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* MethodName(Method method) {
  switch (method) {
    case Method::kQuery:
      return "query";
    case Method::kTopk:
      return "topk";
    case Method::kHealth:
      return "health";
    case Method::kStats:
      return "stats";
    case Method::kReload:
      return "reload";
    case Method::kMetrics:
      return "metrics";
    case Method::kDebug:
      return "debug";
    case Method::kReshardStatus:
      return "reshard_status";
  }
  return "query";
}

const char* ModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kSketch:
      return "sketch";
    case QueryMode::kExact:
      return "exact";
    case QueryMode::kAuto:
      return "auto";
  }
  return "auto";
}

bool Fail(std::string* error, const char* reason) {
  if (error != nullptr) *error = reason;
  return false;
}

// JSON numbers arrive as doubles; a cast that leaves the destination's
// range is undefined behavior, so every integer field goes through one of
// these. Clamping to +/-2^53 keeps the value exactly representable.
int64_t ToClampedInt64(double v) {
  constexpr double kLimit = 9007199254740992.0;  // 2^53
  if (!std::isfinite(v)) return 0;
  return static_cast<int64_t>(std::clamp(v, -kLimit, kLimit));
}

bool IsValidNodeIdNumber(double v) {
  return std::isfinite(v) && v >= 0.0 &&
         v <= static_cast<double>(std::numeric_limits<NodeId>::max()) &&
         std::trunc(v) == v;
}

// Parses the optional hex trace-context field `key`. True on success (value
// absent counts, leaving *out at 0); false fails the request.
bool ParseTraceField(const JsonValue& doc, const char* key, uint64_t* out,
                     std::string* error) {
  *out = 0;
  const JsonValue* value = doc.Find(key);
  if (value == nullptr) return true;
  if (!value->is_string()) {
    Fail(error, "trace ids must be hex strings");
    return false;
  }
  const auto id = TraceIdFromHex(value->string_value());
  if (!id.has_value()) {
    Fail(error, "trace ids must be 1-16 hex digits");
    return false;
  }
  *out = *id;
  return true;
}

}  // namespace

std::string TraceIdToHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

std::optional<uint64_t> TraceIdFromHex(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return std::nullopt;
  uint64_t value = 0;
  for (const char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

std::string RanksToHex(const std::vector<uint8_t>& ranks) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(ranks.size() * 2);
  for (const uint8_t rank : ranks) {
    out += kDigits[rank >> 4];
    out += kDigits[rank & 0xf];
  }
  return out;
}

std::optional<std::vector<uint8_t>> RanksFromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::vector<uint8_t> ranks;
  ranks.reserve(hex.size() / 2);
  int acc = 0;
  for (size_t i = 0; i < hex.size(); ++i) {
    const char c = hex[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    if (i % 2 == 0) {
      acc = digit << 4;
    } else {
      ranks.push_back(static_cast<uint8_t>(acc | digit));
    }
  }
  return ranks;
}

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kBadRequest:
      return "BAD_REQUEST";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kOverloaded:
      return "OVERLOADED";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "INTERNAL";
}

std::optional<StatusCode> StatusCodeFromName(std::string_view name) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kBadRequest, StatusCode::kDeadlineExceeded,
        StatusCode::kOverloaded, StatusCode::kUnavailable,
        StatusCode::kInternal}) {
    if (name == StatusCodeName(code)) return code;
  }
  return std::nullopt;
}

std::optional<Request> ParseRequest(std::string_view line, std::string* error,
                                    int64_t* id_out) {
  const auto doc = JsonValue::Parse(line);
  if (!doc.has_value() || !doc->is_object()) {
    Fail(error, "request is not a JSON object");
    return std::nullopt;
  }
  Request request;
  request.id = ToClampedInt64(doc->FindNumber("id", 0.0));
  if (id_out != nullptr) *id_out = request.id;

  const std::string method = doc->FindString("method", "query");
  if (method == "query") {
    request.method = Method::kQuery;
  } else if (method == "topk") {
    request.method = Method::kTopk;
  } else if (method == "health") {
    request.method = Method::kHealth;
  } else if (method == "stats") {
    request.method = Method::kStats;
  } else if (method == "reload") {
    request.method = Method::kReload;
  } else if (method == "metrics") {
    request.method = Method::kMetrics;
  } else if (method == "debug") {
    request.method = Method::kDebug;
  } else if (method == "reshard_status") {
    request.method = Method::kReshardStatus;
  } else {
    Fail(error, "unknown method");
    return std::nullopt;
  }

  const std::string format = doc->FindString("format", "prom");
  if (format == "prom") {
    request.format = MetricsFormat::kPrometheus;
  } else if (format == "json") {
    request.format = MetricsFormat::kJson;
  } else {
    Fail(error, "unknown format");
    return std::nullopt;
  }

  if (!ParseTraceField(*doc, "trace_id", &request.trace_id, error) ||
      !ParseTraceField(*doc, "parent_span", &request.parent_span, error)) {
    return std::nullopt;
  }

  const std::string mode = doc->FindString("mode", "auto");
  if (mode == "sketch") {
    request.mode = QueryMode::kSketch;
  } else if (mode == "exact") {
    request.mode = QueryMode::kExact;
  } else if (mode == "auto") {
    request.mode = QueryMode::kAuto;
  } else {
    Fail(error, "unknown mode");
    return std::nullopt;
  }

  const double deadline = doc->FindNumber("deadline_ms", 0.0);
  if (deadline < 0) {
    Fail(error, "negative deadline_ms");
    return std::nullopt;
  }
  request.deadline_ms = ToClampedInt64(deadline);

  request.k = ToClampedInt64(doc->FindNumber("k", 10.0));
  if (request.method == Method::kTopk && request.k < 1) {
    Fail(error, "topk needs k >= 1");
    return std::nullopt;
  }
  const JsonValue* want_ranks = doc->Find("want_ranks");
  request.want_ranks =
      want_ranks != nullptr && want_ranks->is_bool() && want_ranks->bool_value();

  const JsonValue* seeds = doc->Find("seeds");
  if (seeds != nullptr) {
    if (!seeds->is_array()) {
      Fail(error, "seeds is not an array");
      return std::nullopt;
    }
    request.seeds.reserve(seeds->array_items().size());
    for (const JsonValue& s : seeds->array_items()) {
      if (!s.is_number() || !IsValidNodeIdNumber(s.number_value())) {
        Fail(error, "seed is not a non-negative integer node id");
        return std::nullopt;
      }
      request.seeds.push_back(static_cast<NodeId>(s.number_value()));
    }
  }
  if (request.method == Method::kQuery && request.seeds.empty()) {
    Fail(error, "query without seeds");
    return std::nullopt;
  }
  return request;
}

std::string SerializeRequest(const Request& request) {
  std::string out = "{\"id\": " + std::to_string(request.id) +
                    ", \"method\": \"" + MethodName(request.method) + "\"";
  if (request.method == Method::kQuery) {
    out += ", \"seeds\": [";
    for (size_t i = 0; i < request.seeds.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(request.seeds[i]);
    }
    out += "], \"mode\": \"";
    out += ModeName(request.mode);
    out += "\"";
  }
  if (request.method == Method::kQuery && request.want_ranks) {
    out += ", \"want_ranks\": true";
  }
  if (request.method == Method::kTopk) {
    out += ", \"k\": " + std::to_string(request.k);
  }
  if (request.method == Method::kMetrics &&
      request.format != MetricsFormat::kPrometheus) {
    out += ", \"format\": \"json\"";
  }
  if (request.deadline_ms > 0) {
    out += ", \"deadline_ms\": " + std::to_string(request.deadline_ms);
  }
  if (request.trace_id != 0) {
    out += ", \"trace_id\": \"" + TraceIdToHex(request.trace_id) + "\"";
  }
  if (request.parent_span != 0) {
    out += ", \"parent_span\": \"" + TraceIdToHex(request.parent_span) + "\"";
  }
  out += "}\n";
  return out;
}

std::optional<Response> ParseResponse(std::string_view line) {
  const auto doc = JsonValue::Parse(line);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  Response response;
  response.id = ToClampedInt64(doc->FindNumber("id", 0.0));
  const auto status = StatusCodeFromName(doc->FindString("status", ""));
  if (!status.has_value()) return std::nullopt;
  response.status = *status;
  response.estimate = doc->FindNumber("estimate", 0.0);
  const JsonValue* degraded = doc->Find("degraded");
  response.degraded =
      degraded != nullptr && degraded->is_bool() && degraded->bool_value();
  const std::string ranks_hex = doc->FindString("ranks", "");
  if (!ranks_hex.empty()) {
    auto ranks = RanksFromHex(ranks_hex);
    if (!ranks.has_value()) return std::nullopt;
    response.ranks = std::move(*ranks);
  }
  const JsonValue* topk = doc->Find("topk");
  if (topk != nullptr) {
    if (!topk->is_array()) return std::nullopt;
    response.topk.reserve(topk->array_items().size());
    for (const JsonValue& pair : topk->array_items()) {
      if (!pair.is_array() || pair.array_items().size() != 2) {
        return std::nullopt;
      }
      const JsonValue& node = pair.array_items()[0];
      const JsonValue& estimate = pair.array_items()[1];
      if (!node.is_number() || !IsValidNodeIdNumber(node.number_value()) ||
          !estimate.is_number()) {
        return std::nullopt;
      }
      response.topk.emplace_back(static_cast<NodeId>(node.number_value()),
                                 estimate.number_value());
    }
  }
  response.epoch = static_cast<uint64_t>(
      std::max<int64_t>(0, ToClampedInt64(doc->FindNumber("epoch", 0.0))));
  response.shards_total = ToClampedInt64(doc->FindNumber("shards_total", 0.0));
  response.shards_answered =
      ToClampedInt64(doc->FindNumber("shards_answered", 0.0));
  response.coverage = doc->FindNumber("coverage", 0.0);
  response.retry_after_ms = ToClampedInt64(doc->FindNumber("retry_after_ms", 0.0));
  response.error = doc->FindString("error", "");
  const auto trace_id = TraceIdFromHex(doc->FindString("trace_id", ""));
  response.trace_id = trace_id.value_or(0);
  response.payload = doc->FindString("payload", "");
  const JsonValue* info = doc->Find("info");
  if (info != nullptr && info->is_object()) {
    for (const auto& [key, value] : info->object_items()) {
      if (value.is_number()) response.info.emplace_back(key, value.number_value());
    }
  }
  return response;
}

std::string SerializeResponse(const Response& response) {
  std::string out = "{\"id\": " + std::to_string(response.id) +
                    ", \"status\": \"" + StatusCodeName(response.status) + "\"";
  if (response.status == StatusCode::kOk) {
    out += ", \"estimate\": " + JsonNumber(response.estimate);
    out += response.degraded ? ", \"degraded\": true" : ", \"degraded\": false";
  }
  if (!response.ranks.empty()) {
    out += ", \"ranks\": \"" + RanksToHex(response.ranks) + "\"";
  }
  if (!response.topk.empty()) {
    out += ", \"topk\": [";
    for (size_t i = 0; i < response.topk.size(); ++i) {
      if (i > 0) out += ", ";
      out += "[";
      out += std::to_string(response.topk[i].first);
      out += ", ";
      out += JsonNumber(response.topk[i].second);
      out += "]";
    }
    out += "]";
  }
  out += ", \"epoch\": " + std::to_string(response.epoch);
  if (response.shards_total > 0) {
    out += ", \"shards_total\": " + std::to_string(response.shards_total);
    out += ", \"shards_answered\": " + std::to_string(response.shards_answered);
    out += ", \"coverage\": " + JsonNumber(response.coverage);
  }
  if (response.retry_after_ms > 0) {
    out += ", \"retry_after_ms\": " + std::to_string(response.retry_after_ms);
  }
  if (!response.error.empty()) {
    out += ", \"error\": \"" + JsonEscape(response.error) + "\"";
  }
  if (response.trace_id != 0) {
    out += ", \"trace_id\": \"" + TraceIdToHex(response.trace_id) + "\"";
  }
  if (!response.payload.empty()) {
    out += ", \"payload\": \"" + JsonEscape(response.payload) + "\"";
  }
  if (!response.info.empty()) {
    out += ", \"info\": {";
    for (size_t i = 0; i < response.info.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += JsonEscape(response.info[i].first);
      out += "\": ";
      out += JsonNumber(response.info[i].second);
    }
    out += "}";
  }
  out += "}\n";
  return out;
}

}  // namespace ipin::serve
