// pb_load — closed-loop load generator for the served_mix workload.
//
//   pb_load --socket PATH --pool FILE --conns N --seed N --part I --parts K
//           --poll-ms P
//
// Sends one wave of requests to a running `resim_cli serve` over N
// connections. The pool file (written by run.py) is dealt over the
// connections in an order the seed fixes: the sims round-robin, and the
// sweeps spread evenly over the last connection's share, so sims queue
// behind sweeps. Each share is cut into K parts; wave I sends part I of
// every share, so K waves send each request of the pool once. Each
// connection sends one request, waits for the whole reply, then sends its
// next (closed loop: a slow daemon receives less load); the wave ends when
// every connection has sent its part. Every reply body is compared
// byte for byte with the one-shot CLI output named by the pool entry's
// "ref". With P > 0, connection 0 also polls `status` every P ms, between
// its requests, to track the queue's high-water mark. Prints one JSON line
// with the wave's duration, every request's latency and outcome, and the
// daemon's status counters after the wave.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/param_registry.hpp"
#include "driver/result_export.hpp"
#include "pool.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"

namespace {

using namespace resim;
using Clock = std::chrono::steady_clock;

struct Sample {
  std::size_t pool = 0;
  bool sweep = false;
  double ms = 0.0;
  bool ok = false;
  std::string error;
};

/// Each connection's share of the pool: the sims dealt round-robin, and
/// the sweeps spread evenly over the last connection's share.
std::vector<std::vector<std::size_t>> deal(std::vector<std::size_t> sims,
                                           const std::vector<std::size_t>& sweeps,
                                           unsigned conns, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::shuffle(sims.begin(), sims.end(), rng);
  std::vector<std::vector<std::size_t>> share(conns);
  for (std::size_t i = 0; i < sims.size(); ++i) share[i % conns].push_back(sims[i]);
  auto& last = share.back();
  const std::size_t stride = (last.size() + sweeps.size()) / sweeps.size();
  for (std::size_t j = 0; j < sweeps.size(); ++j) {
    last.insert(last.begin() + static_cast<std::ptrdiff_t>(std::min(j * stride, last.size())),
                sweeps[j]);
  }
  return share;
}

serve::JsonValue status_of(serve::Client& client) {
  std::ostringstream body;
  (void)client.request(serve::build_status_request("status"), body);
  return serve::parse_json(body.str());
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv.insert_or_assign(argv[i], std::string(argv[i + 1]));
  try {
    for (const char* k :
         {"--socket", "--pool", "--conns", "--seed", "--part", "--parts", "--poll-ms"}) {
      if (kv.count(k) == 0) throw std::invalid_argument(std::string("missing ") + k);
    }
    const std::string sock = kv.at("--socket");
    const auto pool = perfbench::load_pool(kv.at("--pool"));
    const auto conns = static_cast<unsigned>(config::parse_u64(kv.at("--conns"), "--conns"));
    const auto seed = config::parse_u64(kv.at("--seed"), "--seed");
    const auto part = config::parse_u64(kv.at("--part"), "--part");
    const auto parts = config::parse_u64(kv.at("--parts"), "--parts");
    const std::chrono::milliseconds poll_every(config::parse_u64(kv.at("--poll-ms"), "--poll-ms"));
    std::vector<std::size_t> sims;
    std::vector<std::size_t> sweeps;
    for (std::size_t i = 0; i < pool.size(); ++i) (pool[i].sweep ? sweeps : sims).push_back(i);
    if (conns == 0 || sims.empty() || sweeps.empty() || part >= parts) {
      throw std::invalid_argument("need >= 1 connection, sims, sweeps and --part < --parts");
    }

    auto share = deal(sims, sweeps, conns, seed);
    for (auto& s : share) {
      const auto cut = [&](std::uint64_t k) {
        return s.begin() + static_cast<std::ptrdiff_t>(k * s.size() / parts);
      };
      s = std::vector<std::size_t>(cut(part), cut(part + 1));
    }
    std::vector<serve::Client> clients;
    for (unsigned c = 0; c < conns; ++c) clients.push_back(serve::Client::connect_to_unix(sock));

    std::mutex mu;  // guards samples, pending_max, polls, fatal
    std::vector<Sample> samples;
    std::uint64_t pending_max = 0;
    std::uint64_t polls = 0;
    std::string fatal;

    const auto start = Clock::now();
    auto next_poll = start;
    const auto worker = [&](unsigned c) {
      try {
        serve::Client& client = clients[c];
        for (const std::size_t p : share[c]) {
          Sample s;
          s.pool = p;
          s.sweep = pool[p].sweep;
          std::ostringstream body;
          const auto t0 = Clock::now();
          try {
            (void)client.request(pool[p].payload, body);
            s.ok = body.str() == pool[p].ref;
            if (!s.ok) s.error = "body differs from the one-shot CLI output";
          } catch (const serve::ServerError& e) {
            s.error = e.code();
          }
          s.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
          std::uint64_t pending = 0;
          const bool poll = c == 0 && poll_every.count() > 0 && Clock::now() >= next_poll;
          if (poll) {
            pending = perfbench::member(status_of(client), "pending").as_u64("pending");
            next_poll = Clock::now() + poll_every;
          }
          const std::lock_guard<std::mutex> lock(mu);
          samples.push_back(std::move(s));
          if (poll) {
            ++polls;
            pending_max = std::max(pending_max, pending);
          }
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mu);
        fatal = e.what();
      }
    };
    {
      std::vector<std::jthread> threads;  // joined on every exit path
      for (unsigned c = 0; c < conns; ++c) threads.emplace_back(worker, c);
    }
    const double wave_s = std::chrono::duration<double>(Clock::now() - start).count();
    if (!fatal.empty()) throw std::runtime_error(fatal);

    serve::Client client = serve::Client::connect_to_unix(sock);
    std::ostringstream status;
    (void)client.request(serve::build_status_request("final"), status);
    std::string st = status.str();
    while (!st.empty() && (st.back() == '\n' || st.back() == '\r')) st.pop_back();

    std::ostringstream out;
    out.precision(9);
    out << "{\"wave_s\": " << wave_s << ", \"pending_max\": " << pending_max
        << ", \"status_polls\": " << polls << ", \"status\": " << st << ", \"requests\": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto& s = samples[i];
      out << (i == 0 ? "" : ", ") << "{\"kind\": \"" << (s.sweep ? "sweep" : "sim")
          << "\", \"pool\": " << s.pool << ", \"ms\": " << s.ms
          << ", \"ok\": " << (s.ok ? "true" : "false") << ", \"error\": \""
          << driver::json_escape(s.error) << "\"}";
    }
    out << "]}";
    std::cout << out.str() << '\n';
  } catch (const std::exception& e) {
    std::cerr << "pb_load: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
