// pb_gen — seeded trace container generator for the benchmark.
//
//   pb_gen --bench NAME --seed N --insts N --out FILE [--compress]
//
// `resim_cli gen` has no seed flag, so the benchmark reaches trace
// content through the library: the seed becomes
// workload::WorkloadParams::seed (the data memory image), and the trace
// is written with trace::save_trace exactly as `resim_cli gen` writes it,
// with its default 2lev predictor. Without --compress the file is the v2
// container of plain `gen`; with it, the v4 container of
// `gen --compress --prefilter`.
#include <cstdint>
#include <iostream>
#include <map>
#include <string>

#include "config/param_registry.hpp"
#include "resim/resim.hpp"

int main(int argc, char** argv) {
  using namespace resim;
  std::map<std::string, std::string> kv;
  bool compress = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--compress") {
      compress = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      kv.insert_or_assign(key, std::string(argv[++i]));
    } else {
      std::cerr << "pb_gen: unexpected argument " << key << '\n';
      return 2;
    }
  }
  const auto need = [&](const std::string& k) -> const std::string& {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::invalid_argument("missing " + k);
    return it->second;
  };
  try {
    workload::WorkloadParams wp;
    wp.seed = config::parse_u64(need("--seed"), "--seed");
    trace::TraceGenConfig g;
    g.max_insts = config::parse_u64(need("--insts"), "--insts");
    g.bp.kind = bpred::DirKind::kTwoLevel;
    trace::TraceGenerator gen(workload::make_workload(need("--bench"), wp), g);
    const trace::Trace t = gen.generate();
    trace::save_trace(t, need("--out"), trace::kDefaultChunkRecords, compress, compress);
    std::cout << t.records.size() << '\n';
  } catch (const std::exception& e) {
    std::cerr << "pb_gen: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
