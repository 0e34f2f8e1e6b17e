#include "driver/batch_runner.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <istream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "config/names.hpp"
#include "config/param_registry.hpp"
#include "driver/sampling.hpp"
#include "trace/batch_cache.hpp"
#include "trace/file_source.hpp"
#include "trace/reader.hpp"
#include "workload/suite.hpp"

namespace resim::driver {

SimJob SimJob::sweep_point(std::string label, std::string workload,
                           const core::CoreConfig& cfg, std::uint64_t insts) {
  SimJob job;
  job.label = std::move(label);
  job.workload = std::move(workload);
  job.config = cfg;
  job.gen.bp = cfg.bp;
  job.gen.wrong_path_block = cfg.wrong_path_block();
  job.gen.max_insts = insts;
  return job;
}

std::unique_ptr<trace::FileTraceSource> open_trace_file(const std::string& path,
                                                        core::TraceBackend backend) {
  return std::make_unique<trace::FileTraceSource>(
      path, backend == core::TraceBackend::kMmap ? trace::ByteMode::kMapped
                                                 : trace::ByteMode::kRead);
}

namespace {

/// Temp .rsim path: pid + a process-wide counter, so concurrent
/// processes and worker threads never collide.
std::string private_temp_path() {
  static std::atomic<std::uint64_t> counter{0};
  // Built with += to sidestep GCC 12's -Wrestrict false positive
  // (PR105651) on "literal" + std::string chains at -O3.
  std::string p = (std::filesystem::temp_directory_path() / "resim_job").string();
  p += '_';
  p += std::to_string(::getpid());
  p += '_';
  p += std::to_string(counter.fetch_add(1));
  p += ".rsim";
  return p;
}

/// Deterministic serialization of everything that decides a generated
/// trace's byte stream; two generated jobs group only when their record
/// streams are provably identical.
std::string gen_group_key(const std::string& workload, const trace::TraceGenConfig& g) {
  std::string k = workload;
  const auto add = [&k](std::uint64_t v) {
    k += '|';
    k += std::to_string(v);
  };
  add(static_cast<std::uint64_t>(g.bp.kind));
  add(g.bp.l1_entries);
  add(g.bp.hist_bits);
  add(g.bp.pht_entries);
  add(g.bp.bimodal_entries);
  add(g.bp.btb_entries);
  add(g.bp.btb_assoc);
  add(g.bp.ras_entries);
  add(g.wrong_path_block);
  add(g.emit_wrong_path ? 1 : 0);
  add(g.max_insts);
  return k;
}

/// The group a job joins; "" for a job that reads alone (a memory-backend
/// prepared-trace job already shares the decoded records by construction).
std::string group_key(const SimJob& j) {
  const bool memory = j.config.trace_backend == core::TraceBackend::kMemory;
  if (!j.trace_path.empty()) return (memory ? "m:path:" : "f:path:") + j.trace_path;
  if (j.trace) {
    if (memory) return {};
    return "f:ptr:" + std::to_string(reinterpret_cast<std::uintptr_t>(j.trace.get()));
  }
  return (memory ? "m:gen:" : "f:gen:") + gen_group_key(j.workload, j.gen);
}

/// One job group: the record stream its members read and the producer
/// state they share, initialized exactly once by the first member to run.
struct GroupShare {
  explicit GroupShare(const SimJob& j)
      : backend(j.config.trace_backend),
        src_path(j.trace_path),
        src_trace(j.trace),
        workload(j.workload),
        gen(j.gen) {}

  std::once_flag once;
  std::exception_ptr init_error;  ///< init failed: every member rethrows it

  // Planned before the pool starts:
  core::TraceBackend backend;  ///< first member's; memory and file jobs never share
  std::string src_path;        ///< group reads this existing .rsim ("" otherwise)
  std::shared_ptr<const trace::Trace> src_trace;  ///< group reads this prepared trace
  std::string workload;                           ///< generated groups
  trace::TraceGenConfig gen;
  std::size_t members = 0;
  std::size_t expected = 1;                ///< min(members, pool threads)
  std::atomic<std::size_t> unfinished{0};  ///< members yet to finish

  // Resolved by init_group:
  std::shared_ptr<const trace::Trace> trace;       ///< memory groups: the one decode
  std::shared_ptr<trace::SharedBatchCache> cache;  ///< file groups of 2+ (null: v1)
  std::string path;        ///< file groups without a cache: what each member opens
  bool owns_temp = false;  ///< path is a temp file init_group wrote
};

/// The only code that loads, generates or writes a temp .rsim. A temp
/// file is unlinked as soon as no member needs to open it: here once the
/// cache holds it open, else by the group's one member (a temp container
/// is never v1, so a temp group without a cache has one member).
void init_group(GroupShare& g) {
  const auto generate = [&g] {
    return trace::TraceGenerator(workload::make_workload(g.workload), g.gen).generate();
  };
  if (g.backend == core::TraceBackend::kMemory) {
    if (g.src_trace) {
      g.trace = g.src_trace;
    } else if (!g.src_path.empty()) {
      g.trace = std::make_shared<trace::Trace>(trace::load_trace(g.src_path));
    } else {
      g.trace = std::make_shared<trace::Trace>(generate());
    }
    return;
  }
  g.path = g.src_path;
  if (g.path.empty()) {
    g.path = private_temp_path();
    g.owns_temp = true;
    try {
      trace::save_trace(g.src_trace ? *g.src_trace : generate(), g.path);
    } catch (...) {
      std::remove(g.path.c_str());  // a failed write leaves no partial file
      throw;
    }
  }
  if (g.members < 2) return;
  try {
    g.cache = std::make_shared<trace::SharedBatchCache>(g.path, g.expected);
  } catch (const std::invalid_argument&) {
    // v1 container (only possible for a user-supplied src_path): no
    // chunk index to share — members fall back to private sources.
  } catch (...) {
    if (g.owns_temp) std::remove(g.path.c_str());
    throw;
  }
  if (g.owns_temp) {
    std::remove(g.path.c_str());  // the cache's open stream keeps the inode alive
  }
}

/// The member's record source over its initialized group.
std::unique_ptr<trace::TraceSource> member_source(const GroupShare& g,
                                                  core::TraceBackend backend) {
  if (g.trace) return std::make_unique<trace::VectorTraceSource>(*g.trace);
  if (g.cache) return std::make_unique<trace::BatchTraceSource>(g.cache);
  try {
    auto src = open_trace_file(g.path, backend);
    if (g.owns_temp) std::remove(g.path.c_str());  // the open source keeps the inode
    return src;
  } catch (...) {
    if (g.owns_temp) std::remove(g.path.c_str());  // don't leak it on open failure
    throw;
  }
}

JobResult run_member(const SimJob& job, GroupShare& g) {
  job.config.validate();
  std::call_once(g.once, [&g] {
    try {
      init_group(g);
    } catch (...) {
      g.init_error = std::current_exception();
    }
  });
  if (g.init_error) std::rethrow_exception(g.init_error);

  JobResult out;
  out.label = job.label;
  out.workload = job.workload;
  out.config = job.config;
  {
    const std::unique_ptr<trace::TraceSource> src =
        member_source(g, job.config.trace_backend);
    out.result = run_engine(job.config, *src);
  }
  // The last member frees a memory group's records; a cache stays for
  // run()'s decode stats.
  if (g.unfinished.fetch_sub(1) == 1) g.trace.reset();
  return out;
}

/// The grouping decision for a whole run: which jobs share which
/// producer, and the order workers claim jobs in (group members
/// contiguous, groups by first appearance) so a group's consumers run
/// concurrently at any thread count.
struct GroupPlan {
  std::vector<std::unique_ptr<GroupShare>> shares;  ///< first-member order
  std::vector<GroupShare*> of;     ///< per job
  std::vector<std::size_t> order;  ///< claim order over job indices
};

GroupPlan plan_groups(const std::vector<SimJob>& jobs, unsigned threads) {
  GroupPlan plan;
  plan.of.reserve(jobs.size());
  std::map<std::string, std::size_t> index;      // group key -> shares index
  std::vector<std::vector<std::size_t>> buckets;  // per share: its jobs, in order
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string key = group_key(jobs[i]);
    std::size_t s = plan.shares.size();
    if (!key.empty()) s = index.emplace(key, s).first->second;
    if (s == plan.shares.size()) {
      plan.shares.push_back(std::make_unique<GroupShare>(jobs[i]));
      buckets.emplace_back();
    }
    buckets[s].push_back(i);
    plan.of.push_back(plan.shares[s].get());
  }
  // Claim order: each group is one contiguous bucket at its first
  // member's position. Deterministic, so -j1 and -jN traverse identically.
  plan.order.reserve(jobs.size());
  for (std::size_t s = 0; s < plan.shares.size(); ++s) {
    plan.shares[s]->members = buckets[s].size();
    plan.shares[s]->unfinished = buckets[s].size();
    plan.shares[s]->expected = std::min<std::size_t>(buckets[s].size(), threads);
    plan.order.insert(plan.order.end(), buckets[s].begin(), buckets[s].end());
  }
  return plan;
}

}  // namespace

BatchRunner::BatchRunner(unsigned threads)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())) {}

JobResult BatchRunner::run_one(const SimJob& job) {
  GroupShare g(job);
  g.members = 1;
  g.unfinished = 1;
  return run_member(job, g);
}

std::vector<JobResult> BatchRunner::run(const std::vector<SimJob>& jobs,
                                        std::vector<GroupDecodeStats>* decode_stats) const {
  std::vector<JobResult> results(jobs.size());
  const GroupPlan plan = plan_groups(jobs, threads_);
  const auto run_job = [&](std::size_t i) { results[i] = run_member(jobs[i], *plan.of[i]); };

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, jobs.size()));
  if (workers <= 1) {
    for (const std::size_t i : plan.order) run_job(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          for (std::size_t k = next.fetch_add(1);
               k < plan.order.size() && !failed.load(std::memory_order_relaxed);
               k = next.fetch_add(1)) {
            run_job(plan.order[k]);
          }
        } catch (...) {
          errors[w] = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : pool) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  if (decode_stats != nullptr) {
    decode_stats->clear();
    for (const auto& share : plan.shares) {
      if (share->members < 2) continue;  // a group of one shares nothing
      GroupDecodeStats s;
      s.workload = !share->workload.empty() ? share->workload : share->src_path;
      s.members = share->members;
      s.consumers = share->expected;
      if (share->cache) {
        s.chunks_in_trace = share->cache->chunk_count();
        s.chunks_decoded = share->cache->chunks_decoded();
        s.cache_hits = share->cache->hits();
        s.cache_evictions = share->cache->evictions();
      } else if (share->backend == core::TraceBackend::kMemory) {
        s.chunks_decoded = 1;  // the single shared load/generate
      }
      decode_stats->push_back(std::move(s));
    }
  }
  return results;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_header(const std::vector<std::string>& extra_params) {
  std::string h =
      "label,workload,variant,width,ifq,rob,lsq,bp,mem";
  for (const auto& p : extra_params) h += ',' + p;
  h +=
      ",committed,fetched,wrong_path_fetched,squashed,"
      "major_cycles,minor_cycles,trace_records,trace_bits,"
      "ipc,bits_per_record";
  return h;
}

std::string csv_row(const JobResult& r, const std::vector<std::string>& extra_params) {
  const auto& reg = config::ParamRegistry::instance();
  std::ostringstream os;
  os << csv_escape(r.label) << ',' << csv_escape(r.workload) << ','
     << core::variant_name(r.config.variant)
     << ',' << r.config.width << ',' << r.config.ifq_size << ',' << r.config.rob_size
     << ',' << r.config.lsq_size << ',' << config::dir_kind_name(r.config.bp.kind)
     << ',' << config::memsys_kind_name(r.config.mem);
  for (const auto& p : extra_params) os << ',' << csv_escape(reg.get(r.config, p));
  os << ',' << r.result.committed << ','
     << r.result.fetched << ',' << r.result.wrong_path_fetched << ','
     << r.result.squashed << ',' << r.result.major_cycles << ','
     << r.result.minor_cycles << ',' << r.result.trace_records << ','
     << r.result.trace_bits << ',' << std::fixed << std::setprecision(6)
     << r.result.ipc() << ',' << r.result.bits_per_record();
  return os.str();
}

void write_csv(std::ostream& os, const std::vector<JobResult>& results,
               const std::vector<std::string>& extra_params) {
  os << csv_header(extra_params) << '\n';
  for (const auto& r : results) os << csv_row(r, extra_params) << '\n';
}

namespace {

/// The one RFC-4180 walk: split on unquoted commas, fields kept
/// verbatim (quotes included). Joining the result with ',' reproduces
/// the line, so every other helper derives from this split.
std::vector<std::string> split_csv_fields(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;
  for (const char c : line) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  return out;
}

}  // namespace

std::string csv_first_field(const std::string& line) {
  const std::string f = split_csv_fields(line).front();
  if (f.empty() || f[0] != '"') return f;
  std::string out;
  for (std::size_t i = 1; i < f.size(); ++i) {
    if (f[i] == '"') {
      if (i + 1 < f.size() && f[i + 1] == '"') {
        out += '"';
        ++i;  // doubled quote inside a quoted field
      } else {
        break;  // closing quote
      }
    } else {
      out += f[i];
    }
  }
  return out;
}

std::string csv_field_prefix(const std::string& line, std::size_t fields) {
  const auto all = split_csv_fields(line);
  std::string out;
  for (std::size_t i = 0; i < std::min(fields, all.size()); ++i) {
    if (i != 0) out += ',';
    out += all[i];
  }
  return out;
}

std::size_t csv_config_fields(const std::vector<std::string>& extra_params) {
  // Everything before the "committed" column is configuration (label,
  // workload, the fixed config columns, then the extra dotted-path
  // columns). Derived from csv_header itself so the two can never drift.
  const auto fields = split_csv_fields(csv_header(extra_params));
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i] == "committed") return i;
  }
  return fields.size();
}

std::string csv_config_prefix(const SimJob& job,
                              const std::vector<std::string>& extra_params,
                              std::size_t fields) {
  JobResult r;
  r.label = job.label;
  r.workload = job.workload;
  r.config = job.config;
  if (fields == 0) fields = csv_config_fields(extra_params);
  return csv_field_prefix(csv_row(r, extra_params), fields);
}

namespace {

/// Shape check for the final metric column (bits_per_record, always
/// fixed-6 formatted): catches a row truncated inside its last field,
/// which keeps the field count intact.
bool is_fixed6(const std::string& f) {
  const auto dot = f.find('.');
  if (dot == std::string::npos || dot == 0 || f.size() - dot - 1 != 6) return false;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i == dot) continue;
    if (f[i] < '0' || f[i] > '9') return false;
  }
  return true;
}

}  // namespace

ResumeState parse_resume_csv(std::istream& existing,
                             const std::string& expected_header) {
  ResumeState st;
  std::string line;
  if (!std::getline(existing, line)) return st;  // empty file: nothing done yet
  if (line != expected_header) {
    throw std::runtime_error(
        "--resume: existing CSV header does not match this sweep's layout; "
        "refusing to append (file header \"" +
        line + "\", sweep writes \"" + expected_header + "\")");
  }
  const std::size_t want = split_csv_fields(expected_header).size();
  while (std::getline(existing, line)) {
    if (line.empty()) continue;
    const auto fields = split_csv_fields(line);
    if (fields.size() != want || !is_fixed6(fields.back())) {
      ++st.dropped;  // truncated by a crash / full disk: the point re-runs
      continue;
    }
    st.labels.push_back(csv_first_field(line));
    st.rows.push_back(line);
  }
  return st;
}

}  // namespace resim::driver
