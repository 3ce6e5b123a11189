#include "ipin/serve/shard_map.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "ipin/common/failpoint.h"
#include "ipin/common/hash.h"
#include "ipin/common/json.h"
#include "ipin/common/logging.h"
#include "ipin/common/safe_io.h"
#include "ipin/common/string_util.h"
#include "ipin/obs/metrics.h"

namespace ipin::serve {
namespace {

constexpr char kSchemaV1[] = "ipin.shardmap.v1";
constexpr char kSchemaV2[] = "ipin.shardmap.v2";

// Writer side is hand-rolled like protocol.cc (common/json is a reader).
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

bool Fail(std::string* error, std::string reason) {
  if (error != nullptr) *error = std::move(reason);
  return false;
}

// Reads one endpoint from a shard object; `prefix` is "" for the primary
// endpoint, "mirror_" for the hedging target. True when the fields are
// well-formed (including "entirely absent", which leaves *out invalid —
// the caller decides whether that is acceptable).
bool ParseEndpoint(const JsonValue& shard, const std::string& prefix,
                   ShardEndpoint* out, std::string* error) {
  *out = ShardEndpoint{};
  out->unix_socket_path = shard.FindString(prefix + "unix_socket", "");
  const JsonValue* port = shard.Find(prefix + "tcp_port");
  if (port != nullptr) {
    if (!port->is_number() || port->number_value() < 0 ||
        port->number_value() > 65535 ||
        port->number_value() != static_cast<int>(port->number_value())) {
      return Fail(error, "bad " + prefix + "tcp_port");
    }
    out->tcp_port = static_cast<int>(port->number_value());
    // Only a TCP endpoint has a host. Reading it for a unix socket would
    // make endpoints that dial the same socket compare unequal, and ToJson
    // (which drops the host) would then emit duplicates Parse rejects.
    out->tcp_host = shard.FindString(prefix + "tcp_host", "127.0.0.1");
  }
  if (!out->unix_socket_path.empty() && out->tcp_port >= 0) {
    return Fail(error,
                "shard endpoint must be unix_socket OR tcp_port, not both");
  }
  return true;
}

// Parses one epoch's {virtual_points, shards} pair out of `doc` into a
// ShardMap; shared between the top-level document and its transition block.
std::optional<ShardMap> ParseAssignment(const JsonValue& doc,
                                        std::string* error) {
  const double virtual_points = doc.FindNumber("virtual_points", 64.0);
  if (virtual_points < 1 || virtual_points > 4096 ||
      virtual_points != static_cast<int>(virtual_points)) {
    Fail(error, "bad virtual_points (want an integer in [1, 4096])");
    return std::nullopt;
  }
  const JsonValue* shards = doc.Find("shards");
  if (shards == nullptr || !shards->is_array() ||
      shards->array_items().empty()) {
    Fail(error, "shard map needs a non-empty shards array");
    return std::nullopt;
  }
  std::vector<ShardInfo> infos;
  std::unordered_set<std::string> names;
  infos.reserve(shards->array_items().size());
  for (const JsonValue& entry : shards->array_items()) {
    if (!entry.is_object()) {
      Fail(error, "shard entry is not an object");
      return std::nullopt;
    }
    ShardInfo info;
    info.name = entry.FindString("name", "");
    if (info.name.empty()) {
      Fail(error, "shard without a name");
      return std::nullopt;
    }
    if (!names.insert(info.name).second) {
      Fail(error, "duplicate shard name: " + info.name);
      return std::nullopt;
    }
    if (!ParseEndpoint(entry, "", &info.endpoint, error)) return std::nullopt;
    if (!info.endpoint.valid()) {
      Fail(error, "shard " + info.name + " has no endpoint");
      return std::nullopt;
    }
    if (!ParseEndpoint(entry, "mirror_", &info.mirror, error)) {
      return std::nullopt;
    }
    const JsonValue* replicas = entry.Find("replicas");
    if (replicas != nullptr) {
      if (!replicas->is_array() ||
          replicas->array_items().size() > kMaxReplicas) {
        Fail(error, "shard " + info.name + ": replicas must be an array of " +
                        "at most " + std::to_string(kMaxReplicas) +
                        " endpoints");
        return std::nullopt;
      }
      for (const JsonValue& replica : replicas->array_items()) {
        if (!replica.is_object()) {
          Fail(error, "shard " + info.name + ": replica is not an object");
          return std::nullopt;
        }
        ShardEndpoint ep;
        if (!ParseEndpoint(replica, "", &ep, error)) return std::nullopt;
        if (!ep.valid()) {
          Fail(error, "shard " + info.name + ": replica has no endpoint");
          return std::nullopt;
        }
        if (ep == info.endpoint) {
          Fail(error, "shard " + info.name +
                          ": replica duplicates the primary endpoint");
          return std::nullopt;
        }
        for (const ShardEndpoint& prior : info.replicas) {
          if (ep == prior) {
            Fail(error, "shard " + info.name + ": duplicate replica");
            return std::nullopt;
          }
        }
        info.replicas.push_back(std::move(ep));
      }
    }
    info.index_file = entry.FindString("index_file", "");
    info.fingerprint = entry.FindString("fingerprint", "");
    infos.push_back(std::move(info));
  }
  ShardMap map(std::move(infos), static_cast<int>(virtual_points));
  if (map.num_shards() == 0) {
    Fail(error, "invalid shard list");
    return std::nullopt;
  }
  return map;
}

void AppendShardJson(std::string* out, const ShardInfo& shard) {
  *out += "{\"name\": \"" + JsonEscape(shard.name) + "\"";
  const auto append_endpoint = [out](const std::string& prefix,
                                     const ShardEndpoint& ep) {
    if (!ep.unix_socket_path.empty()) {
      *out += ", \"" + prefix + "unix_socket\": \"" +
              JsonEscape(ep.unix_socket_path) + "\"";
    } else if (ep.tcp_port >= 0) {
      *out += ", \"" + prefix + "tcp_host\": \"" + JsonEscape(ep.tcp_host) +
              "\", \"" + prefix + "tcp_port\": " + std::to_string(ep.tcp_port);
    }
  };
  append_endpoint("", shard.endpoint);
  if (shard.mirror.valid()) append_endpoint("mirror_", shard.mirror);
  if (!shard.replicas.empty()) {
    *out += ", \"replicas\": [";
    for (size_t r = 0; r < shard.replicas.size(); ++r) {
      if (r > 0) *out += ", ";
      *out += "{";
      // append_endpoint writes a leading ", " — splice it out of the
      // object opener.
      std::string ep;
      const auto append_bare = [&ep](const std::string& prefix,
                                     const ShardEndpoint& e) {
        if (!e.unix_socket_path.empty()) {
          ep += "\"" + prefix + "unix_socket\": \"" +
                JsonEscape(e.unix_socket_path) + "\"";
        } else if (e.tcp_port >= 0) {
          ep += "\"" + prefix + "tcp_host\": \"" + JsonEscape(e.tcp_host) +
                "\", \"" + prefix + "tcp_port\": " +
                std::to_string(e.tcp_port);
        }
      };
      append_bare("", shard.replicas[r]);
      *out += ep + "}";
    }
    *out += "]";
  }
  if (!shard.index_file.empty()) {
    *out += ", \"index_file\": \"" + JsonEscape(shard.index_file) + "\"";
  }
  if (!shard.fingerprint.empty()) {
    *out += ", \"fingerprint\": \"" + JsonEscape(shard.fingerprint) + "\"";
  }
  *out += "}";
}

void AppendAssignmentJson(std::string* out, const ShardMap& map) {
  *out += "\"virtual_points\": " + std::to_string(map.virtual_points());
  *out += ", \"shards\": [";
  for (size_t i = 0; i < map.num_shards(); ++i) {
    if (i > 0) *out += ", ";
    AppendShardJson(out, map.shard(i));
  }
  *out += "]";
}

}  // namespace

ShardMap::ShardMap(std::vector<ShardInfo> shards, int virtual_points)
    : shards_(std::move(shards)),
      virtual_points_(std::max(1, virtual_points)) {
  std::unordered_set<std::string> names;
  for (const ShardInfo& shard : shards_) {
    if (shard.name.empty() || !shard.endpoint.valid() ||
        !names.insert(shard.name).second) {
      LogError("shard_map: invalid shard list (empty/duplicate name or "
               "missing endpoint)");
      shards_.clear();
      break;
    }
  }
  BuildRing();
}

void ShardMap::BuildRing() {
  ring_.clear();
  ring_.reserve(shards_.size() * static_cast<size_t>(virtual_points_));
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (int v = 0; v < virtual_points_; ++v) {
      const std::string point_key = shards_[s].name + "#" + std::to_string(v);
      ring_.emplace_back(HashString(point_key), static_cast<uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t ShardMap::OwnerOf(NodeId node) const {
  // Single shard (or degenerate map): no ring walk needed.
  if (ring_.empty()) return 0;
  const uint64_t point = Hash64(node);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<uint64_t, uint32_t>& entry, uint64_t value) {
        return entry.first < value;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

std::vector<std::vector<NodeId>> ShardMap::PartitionSeeds(
    std::span<const NodeId> seeds) const {
  std::vector<std::vector<NodeId>> parts(num_shards());
  for (const NodeId seed : seeds) parts[OwnerOf(seed)].push_back(seed);
  return parts;
}

void ShardMap::BeginTransition(std::shared_ptr<const ShardMap> previous) {
  if (previous != nullptr && previous->InTransition()) {
    // One hop only: a transition's previous epoch is always final. (The
    // rebalance tool never produces a nested block; defend anyway.)
    auto flattened = std::make_shared<ShardMap>(*previous);
    flattened->ClearTransition();
    previous_ = std::move(flattened);
    return;
  }
  previous_ = std::move(previous);
}

bool ShardMap::OwnerMoved(NodeId node) const {
  if (previous_ == nullptr) return false;
  return shards_[OwnerOf(node)].name !=
         previous_->shard(previous_->OwnerOf(node)).name;
}

std::optional<ShardMap> ShardMap::Parse(std::string_view json,
                                        std::string* error) {
  const auto doc = JsonValue::Parse(json);
  if (!doc.has_value() || !doc->is_object()) {
    Fail(error, "shard map is not a JSON object");
    return std::nullopt;
  }
  const std::string schema = doc->FindString("schema", "");
  if (schema != kSchemaV1 && schema != kSchemaV2) {
    Fail(error, std::string("shard map schema is neither ") + kSchemaV1 +
                    " nor " + kSchemaV2);
    return std::nullopt;
  }
  auto map = ParseAssignment(*doc, error);
  if (!map.has_value()) return std::nullopt;
  const JsonValue* transition = doc->Find("transition");
  if (transition != nullptr) {
    if (!transition->is_object()) {
      Fail(error, "transition is not an object");
      return std::nullopt;
    }
    if (transition->Find("transition") != nullptr) {
      Fail(error, "nested transition blocks are not allowed");
      return std::nullopt;
    }
    std::string prev_error;
    auto previous = ParseAssignment(*transition, &prev_error);
    if (!previous.has_value()) {
      Fail(error, "transition: " + prev_error);
      return std::nullopt;
    }
    map->BeginTransition(
        std::make_shared<const ShardMap>(std::move(*previous)));
  }
  return map;
}

std::optional<ShardMap> ShardMap::ParseFile(const std::string& path,
                                            std::string* error) {
  const auto doc = ReadFileBytes(path);
  if (!doc.has_value()) {
    Fail(error, "cannot read " + path);
    return std::nullopt;
  }
  return Parse(*doc, error);
}

std::string ShardMap::ToJson() const {
  bool v2 = InTransition();
  for (const ShardInfo& shard : shards_) {
    if (!shard.replicas.empty() || !shard.index_file.empty() ||
        !shard.fingerprint.empty()) {
      v2 = true;
      break;
    }
  }
  std::string out = "{\"schema\": \"";
  out += v2 ? kSchemaV2 : kSchemaV1;
  out += "\", ";
  AppendAssignmentJson(&out, *this);
  if (InTransition()) {
    out += ", \"transition\": {";
    AppendAssignmentJson(&out, *previous_);
    out += "}";
  }
  out += "}";
  return out;
}

IrsApprox ExtractShardIndex(const IrsApprox& full, const ShardMap& map,
                            size_t shard) {
  std::vector<std::unique_ptr<VersionedHll>> sketches(full.num_nodes());
  for (NodeId u = 0; u < full.num_nodes(); ++u) {
    const SketchView sketch = full.Sketch(u);
    if (sketch && map.OwnerOf(u) == shard) {
      sketches[u] = sketch.Materialize();
    }
  }
  return IrsApprox(full.window(), full.options(), std::move(sketches));
}

ShardMapManager::ShardMapManager(std::string map_path)
    : map_path_(std::move(map_path)) {}

void ShardMapManager::Install(std::shared_ptr<const ShardMap> map) {
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(map);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

std::shared_ptr<const ShardMap> ShardMapManager::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

ShardMapSnapshot ShardMapManager::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {current_, epoch_.load(std::memory_order_acquire)};
}

ShardMapManager::FileStamp ShardMapManager::StampOf(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return {};
  return {static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec,
          static_cast<int64_t>(st.st_size)};
}

ReloadStatus ShardMapManager::Reload(bool force) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);

  const FileStamp stamp = StampOf(map_path_);
  if (!force) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stamp == last_stamp_ && current_ != nullptr) {
      return ReloadStatus::kNoChange;
    }
  }

  const auto rollback = [this](const std::string& reason) {
    IPIN_COUNTER_ADD("serve.shard.map.rollback", 1);
    LogError("serve: shard map reload rejected (" + reason +
             "); keeping epoch " + std::to_string(Epoch()));
    return ReloadStatus::kRolledBack;
  };

  if (IPIN_FAILPOINT("serve.shard.map").fail) {
    return rollback("injected serve.shard.map fault");
  }
  std::string error;
  auto map = ShardMap::ParseFile(map_path_, &error);
  if (!map.has_value()) return rollback(error);

  auto shared = std::make_shared<const ShardMap>(std::move(*map));
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(shared);
    last_stamp_ = stamp;
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  IPIN_COUNTER_ADD("serve.shard.map.ok", 1);
  LogInfo(StrFormat("serve: shard map loaded from %s (%zu shards, epoch %llu%s)",
                    map_path_.c_str(), Current()->num_shards(),
                    static_cast<unsigned long long>(Epoch()),
                    Current()->InTransition() ? ", in transition" : ""));
  return ReloadStatus::kOk;
}

}  // namespace ipin::serve
