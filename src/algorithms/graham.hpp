// Graham List Scheduling for precedence-constrained instances.
//
// The classical 2 - 1/m heuristic (paper reference [8]) and the baseline
// RLS degenerates to when the memory cap is infinite: whenever a processor
// is free and a task is ready, the highest-priority ready task starts on
// the earliest-available processor. Precedence instances run an
// event-driven simulation; independent instances place each task directly
// on the processor that frees first, with the simulation's release order
// (docs/ALGORITHMS.md, "Graham list scheduling"). Several standard
// priority policies are provided.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/instance.hpp"
#include "common/schedule.hpp"

namespace storesched {

/// Task-ordering policies used to pick among simultaneously-ready tasks.
enum class PriorityPolicy {
  kInputOrder,   ///< ascending task id (the paper's "arbitrary total order")
  kSpt,          ///< shortest processing time first (Section 5.2)
  kLpt,          ///< longest processing time first
  kBottomLevel,  ///< longest remaining chain first (HLF/CP heuristic)
  kSmallestStorage,  ///< smallest s_i first
  kLargestStorage,   ///< largest s_i first (pack big codes early)
};

std::string to_string(PriorityPolicy policy);

/// Total priority order of all tasks under `policy` (position -> task id);
/// lower position = higher priority. Deterministic: ties break by task id.
std::vector<TaskId> priority_order(const Instance& inst, PriorityPolicy policy);

/// List-schedules `inst` (independent or DAG) and returns a timed schedule.
/// Ratio 2 - 1/m on the makespan for any priority policy [Graham 1969].
Schedule graham_list_schedule(const Instance& inst,
                              PriorityPolicy policy = PriorityPolicy::kInputOrder);

/// The same schedule from the time-event simulation, on any instance:
/// graham_list_schedule's DAG path, and its oracle on independent ones.
Schedule graham_event_schedule(const Instance& inst,
                               PriorityPolicy policy = PriorityPolicy::kInputOrder);

/// SPT list schedule on independent tasks: optimal for the sum of
/// completion times on identical processors (used as the Section 5.2
/// reference). Throws std::logic_error for precedence instances.
Schedule spt_schedule(const Instance& inst);

/// The optimal sum of completion times (value of spt_schedule).
Time optimal_sum_completion(const Instance& inst);

}  // namespace storesched
