// Micro-kernels with analytically-known timing behaviour.
//
// These are the golden workloads for the property tests in
// tests/test_engine_golden.cpp: each kernel pins one mechanism of the
// out-of-order model (FU latency/occupancy, fetch taken-branch breaks,
// load-use chains, RAS behaviour, store-to-load forwarding, ...).
#ifndef RESIM_WORKLOAD_MICRO_H
#define RESIM_WORKLOAD_MICRO_H

#include <cstdint>

#include "workload/workload.hpp"

namespace resim::workload {

/// `length` dependent single-cycle ALU ops per loop iteration → IPC → 1.
[[nodiscard]] Workload make_dep_chain_alu(std::uint32_t iterations, int length = 16);

/// `streams` independent ALU streams → IPC → min(width, #ALUs).
[[nodiscard]] Workload make_indep_alu(std::uint32_t iterations, int streams = 4, int length = 16);

/// Dependent multiply chain → IPC → 1/mul_latency (pipelined unit).
[[nodiscard]] Workload make_mul_chain(std::uint32_t iterations, int length = 8);

/// Dependent divide chain → IPC → 1/div_latency (unpipelined unit).
[[nodiscard]] Workload make_div_chain(std::uint32_t iterations, int length = 4);

/// `length` mutually independent divides per loop iteration, spread over
/// `streams` source/destination register pairs → IPC → the divider
/// occupancy bound, (length + 2) / (length * div_latency) on one
/// unpipelined unit.
[[nodiscard]] Workload make_indep_div(std::uint32_t iterations, int streams = 4, int length = 4);

/// Pointer chase: each load's address depends on the previous load.
[[nodiscard]] Workload make_pointer_chase(std::uint32_t iterations, int length = 8);

/// Tiny always-taken loop (body_size instructions incl. the back branch):
/// fetch breaks at the taken branch → IPC ≤ body_size per cycle.
[[nodiscard]] Workload make_taken_loop(std::uint32_t iterations, int body_size = 2);

/// Conditional branch taken every `period`-th iteration — learnable by a
/// two-level predictor with history ≥ log2(period), mispredicted by
/// bimodal.
[[nodiscard]] Workload make_periodic_branch(std::uint32_t iterations, int period = 4);

/// Branch whose direction is a seeded 50/50 function of loaded data —
/// unpredictable by any direction predictor.
[[nodiscard]] Workload make_random_branch(std::uint32_t iterations);

/// Nested call ladder of `depth` calls then returns — exercises the RAS.
[[nodiscard]] Workload make_call_ladder(std::uint32_t iterations, int depth = 8);

/// Store immediately followed by a dependent load of the same address —
/// exercises LSQ store-to-load forwarding.
[[nodiscard]] Workload make_store_load_forward(std::uint32_t iterations);

/// Sequential streaming read over `footprint` bytes — cache-friendly or
/// capacity-missing depending on cache size.
[[nodiscard]] Workload make_stream_read(std::uint32_t iterations, std::uint32_t footprint);

}  // namespace resim::workload

#endif  // RESIM_WORKLOAD_MICRO_H
