// Traced layer-by-layer replay of one workload (bench_e2e --trace).
#pragma once

#include "e2e_workloads.hpp"

#include "obs/trace.hpp"

namespace powerlens::bench::e2e {

// Sets the workload up once, then replays its work one public call at a
// time: the offline phase (core), plan computation and its phases
// (features, hw cost tables, clustering, core self time), cache resolution
// and serving (serve), simulation (hw), the reactive governors (baselines),
// exports (obs), and the plan snapshot (io). Every call is wrapped in a span
// of `trace`; the returned metrics are the per-layer metrics. About half of
// `seconds` goes to alternating untraced and traced reps, which give the
// harness's own overhead (bench.trace_overhead).
RunResult replay_layers(Workload workload, std::uint64_t seed, bool smoke,
                        double seconds, const std::string& workdir,
                        const hw::Platform& platform, obs::TraceWriter& trace);

}  // namespace powerlens::bench::e2e
