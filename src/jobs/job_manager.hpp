// JobManager: admission control in front of the multi-tenant engine.
//
// The engine itself accepts any number of concurrent jobs; the manager is
// the policy layer that bounds how many actually run. Jobs past the
// active limit queue (FIFO within a priority tier, higher tiers first);
// jobs past the queue limit are rejected at submit with AdmissionError.
// The engine's on-job-done callback pumps the queue, so a freed slot is
// refilled without any polling thread.
//
// Limits come from JobManagerConfig, defaulting to the DOOC_JOBS
// environment variable: "active=N,queued=M" (either key optional, 0 or
// absence = unlimited), e.g. DOOC_JOBS=active=2,queued=8.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "jobs/job.hpp"
#include "sched/engine.hpp"
#include "storage/storage_cluster.hpp"

namespace dooc::jobs {

struct JobManagerConfig {
  /// Jobs allowed to run concurrently; 0 = unlimited.
  int max_active = 0;
  /// Jobs allowed to wait for a slot; 0 = unlimited. Ignored while
  /// max_active is unlimited (nothing ever queues then).
  int max_queued = 0;

  /// Parse "active=N,queued=M"; empty/absent keys mean unlimited.
  /// Throws InvalidArgument on malformed input.
  static JobManagerConfig parse(const std::string& grammar);
  /// parse(getenv("DOOC_JOBS")), defaults when unset.
  static JobManagerConfig from_env();
};

class JobManager {
 public:
  JobManager(storage::StorageCluster& cluster, sched::Engine& engine,
             JobManagerConfig config = JobManagerConfig::from_env());
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Admit a job: dispatch it to the engine if an active slot is free,
  /// else queue it. Throws AdmissionError when the queue is full. The
  /// graph must stay alive until await() returns. With namespace_arrays
  /// set the graph is renamed in place into the job's `j<id>.` namespace
  /// (and the written arrays cloned) before this returns.
  JobId submit(sched::TaskGraph& graph, JobOptions options = {});

  /// Block until the job settles and return its Report (rethrows the
  /// job's error). Each submitted job must be awaited exactly once.
  sched::Report await(JobId id);

  [[nodiscard]] JobState state(JobId id);
  [[nodiscard]] std::size_t active_count();
  [[nodiscard]] std::size_t queued_count();
  /// Jobs rejected with AdmissionError since construction.
  [[nodiscard]] std::uint64_t rejected_count();

  [[nodiscard]] const JobManagerConfig& config() const noexcept { return config_; }

 private:
  struct Pending {
    JobId id = 0;
    sched::TaskGraph* graph = nullptr;
    JobOptions options;
  };

  /// Clone every array `graph` writes into job `id`'s namespace and rename
  /// the graph to match (see JobOptions::namespace_arrays).
  void namespace_graph(sched::TaskGraph& graph, JobId id);
  /// Dispatch queued jobs while active slots are free. mutex_ held.
  void pump_locked();
  void on_job_done(JobId id);

  storage::StorageCluster& cluster_;
  sched::Engine& engine_;
  JobManagerConfig config_;

  std::mutex mutex_;
  std::condition_variable state_cv_;  ///< signalled when a job starts or finishes
  std::deque<Pending> queue_;         ///< priority-desc, FIFO within a tier
  std::unordered_map<JobId, JobState> states_;
  /// Dequeued jobs not yet handed to engine_.submit().
  std::unordered_set<JobId> handing_off_;
  std::size_t active_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace dooc::jobs
