// storesched -- umbrella header: the whole library in one include.
//
// Reproduction and extension of Saule, Dutot & Mounie, "Scheduling With
// Storage Constraints" (IPDPS 2008): bi-objective (Cmax, Mmax) scheduling
// of independent or precedence-constrained tasks on identical processors.
//
// Most consumers only need the unified solver surface:
//
//   #include "storesched.hpp"
//   using namespace storesched;
//
//   Instance inst({{9, 1}, {1, 8}, {2, 9}}, /*m=*/2);
//   auto solver = make_solver("sbo:lpt,delta=3/2");
//   SolveResult r = solver->solve(inst);
//   // r.objectives, r.cmax_ratio / r.mmax_ratio (exact guarantees), ...
//
// See core/solver.hpp for the spec grammar and README.md for a quickstart.
#pragma once

// Value types, exact rationals, instances, schedules.
#include "common/dag.hpp"
#include "common/dag_generators.hpp"
#include "common/env.hpp"
#include "common/fraction.hpp"
#include "common/gantt.hpp"
#include "common/generators.hpp"
#include "common/instance.hpp"
#include "common/io.hpp"
#include "common/paper_instances.hpp"
#include "common/parallel.hpp"
#include "common/pareto.hpp"
#include "common/rng.hpp"
#include "common/schedule.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

// Sub-algorithm building blocks (makespan schedulers, list scheduling).
#include "algorithms/graham.hpp"
#include "algorithms/partition.hpp"
#include "algorithms/scheduler.hpp"
#include "algorithms/uniform.hpp"

// The paper's algorithms and analyses.
#include "core/conditional.hpp"
#include "core/constrained.hpp"
#include "core/front_approx.hpp"
#include "core/impossibility.hpp"
#include "core/pareto_bb.hpp"
#include "core/pareto_enum.hpp"
#include "core/rls.hpp"
#include "core/sbo.hpp"
#include "core/theory.hpp"
#include "core/triobjective.hpp"
#include "core/uniform_bi.hpp"
#include "core/worstcase.hpp"

// The unified solver API (registry, SolveResult, solve_batch, front).
#include "core/solver.hpp"

// The streaming pipeline (sources, sinks, solve_stream, JSONL wire format).
#include "core/stream.hpp"

// Fault tolerance: failpoint injection, crash-safe resume journal.
#include "common/failpoint.hpp"
#include "core/journal.hpp"

// Execution backends.
#include "sim/event_sim.hpp"
#include "sim/online.hpp"

// The serving tier (network front-end, SLO router, JSONL wire protocol).
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

// The storage tier: the shared-memory instance store, its segment layout,
// and the result cache keyed on the input as given (docs/WIRE_FORMAT.md).
#include "storage/canonical.hpp"
#include "storage/result_cache.hpp"
#include "storage/shm_store.hpp"
#include "storage/wire_format.hpp"
