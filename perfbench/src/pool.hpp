// Request pool shared by pb_load and pb_layers: the seeded list of
// distinct served requests run.py writes (pool.json), turned into wire
// payloads with the library's own request builders, each paired with the
// one-shot CLI output its reply must equal byte for byte.
#ifndef RESIM_PERFBENCH_SRC_POOL_H
#define RESIM_PERFBENCH_SRC_POOL_H

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/json.hpp"

namespace perfbench {

inline std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

struct PoolEntry {
  bool sweep = false;
  std::string payload;
  std::string ref;  ///< expected response body
};

/// Object member `key`; throws when it is absent.
inline const resim::serve::JsonValue& member(const resim::serve::JsonValue& obj,
                                             const char* key) {
  const resim::serve::JsonValue* v = obj.find(key);
  if (v == nullptr) throw std::runtime_error(std::string("missing JSON member \"") + key + '"');
  return *v;
}

inline std::vector<std::string> strings_of(const resim::serve::JsonValue& v) {
  std::vector<std::string> out;
  for (const auto& s : v.as_array()) out.push_back(s.as_string());
  return out;
}

inline std::vector<PoolEntry> load_pool(const std::string& path) {
  const resim::serve::JsonValue doc = resim::serve::parse_json(slurp(path));
  std::vector<PoolEntry> pool;
  for (const auto& e : doc.as_array()) {
    const auto str = [&](const char* key) { return member(e, key).as_string(); };
    PoolEntry p;
    p.sweep = str("kind") == "sweep";
    // Appending (not "p" + to_string) avoids GCC 12's -Wrestrict false positive.
    std::string id("p");
    id += std::to_string(pool.size());
    if (p.sweep) {
      resim::serve::SweepRequestSpec spec;
      spec.id = id;
      spec.spec_text = str("spec_text");
      spec.sets = strings_of(member(e, "sets"));
      spec.trace_path = str("trace");
      p.payload = resim::serve::build_sweep_request(spec);
    } else {
      resim::serve::SimRequestSpec spec;
      spec.id = id;
      spec.trace_path = str("trace");
      spec.config_text = str("config_text");
      spec.sets = strings_of(member(e, "sets"));
      spec.skip = member(e, "skip").as_u64("skip");
      spec.warmup = member(e, "warmup").as_u64("warmup");
      spec.max_records = member(e, "max_records").as_u64("max_records");
      p.payload = resim::serve::build_sim_request(spec);
    }
    p.ref = slurp(str("ref"));
    pool.push_back(std::move(p));
  }
  return pool;
}

}  // namespace perfbench

#endif  // RESIM_PERFBENCH_SRC_POOL_H
