// dooc::fault — the fault-injection & recovery layer, end to end:
//
//  * FaultPlan: deterministic schedules (same seed ⇒ same verdicts), the
//    DOOC_FAULTS grammar, outage windows and programmatic mark_down;
//  * RetryPolicy / RetryBudget: capped exponential backoff and deadlines
//    under a fake clock;
//  * ExecutorCore: fault() retry/poison transitions, resurrect() rerun
//    semantics, the all_settled() drain condition;
//  * causal: the "fault" blame category splits retry/latency time out of a
//    Load node's demand-io;
//  * sched::Engine: transient read errors absorbed bit-exactly by the I/O
//    retry loop; permanent failures drain into a structured FaultSummary
//    instead of aborting;
//  * storage: failover to the durable file when a block's home node is down;
//  * SimEngine/testbed: the same plan replayed under virtual time — retries
//    and a bounded one-node outage degrade makespan gracefully.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/fault_plan.hpp"
#include "fault/retry_policy.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "sched/engine.hpp"
#include "sched/executor_core.hpp"
#include "simcluster/testbed.hpp"
#include "storage/storage_cluster.hpp"
#include "test_util.hpp"

namespace dooc {
namespace {

using fault::FaultConfig;
using fault::FaultDecision;
using fault::FaultKind;
using fault::FaultPlan;
using fault::RetryBudget;
using fault::RetryPolicy;
using storage::Interval;

// ---------------------------------------------------------------------------
// FaultPlan: determinism and grammar
// ---------------------------------------------------------------------------

TEST(FaultPlan, SameSeedDrawsTheSameSchedule) {
  FaultConfig cfg;
  cfg.seed = 7;
  cfg.read_error_rate = 0.2;
  cfg.short_read_rate = 0.1;
  cfg.latency_rate = 0.1;
  cfg.latency_s = 0.005;
  FaultPlan a(cfg);
  FaultPlan b(cfg);
  bool injected_any = false;
  for (int node = 0; node < 3; ++node) {
    for (int op = 0; op < 200; ++op) {
      const FaultDecision da = a.next_read(node);
      const FaultDecision db = b.next_read(node);
      EXPECT_EQ(da.action, db.action) << "node " << node << " op " << op;
      injected_any |= da.injects();
    }
  }
  EXPECT_TRUE(injected_any) << "600 draws at 40% total rate must inject";

  // A different seed yields a different schedule somewhere in 200 draws.
  cfg.seed = 8;
  FaultPlan c(cfg);
  bool differs = false;
  FaultPlan a2(a.config());
  for (int op = 0; op < 200; ++op) {
    differs |= a2.next_read(0).action != c.next_read(0).action;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ParseReadsTheFullGrammar) {
  const FaultConfig cfg = FaultPlan::parse(
      "seed=9,read_error=0.05,write_error=0.01,short_read=0.02,"
      "latency=0.1:5ms,down=1@40+10,down=2@7,retries=6,backoff=2ms:50ms,deadline=2s");
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_DOUBLE_EQ(cfg.read_error_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.write_error_rate, 0.01);
  EXPECT_DOUBLE_EQ(cfg.short_read_rate, 0.02);
  EXPECT_DOUBLE_EQ(cfg.latency_rate, 0.1);
  EXPECT_DOUBLE_EQ(cfg.latency_s, 0.005);
  ASSERT_EQ(cfg.outages.size(), 2u);
  EXPECT_EQ(cfg.outages[0].node, 1);
  EXPECT_EQ(cfg.outages[0].after_ops, 40u);
  EXPECT_EQ(cfg.outages[0].duration_ops, 10u);
  EXPECT_EQ(cfg.outages[1].node, 2);
  EXPECT_EQ(cfg.outages[1].after_ops, 7u);
  EXPECT_EQ(cfg.outages[1].duration_ops, UINT64_MAX) << "no +OPS means permanent";
  EXPECT_EQ(cfg.retry.max_attempts, 6);
  EXPECT_DOUBLE_EQ(cfg.retry.base_backoff_s, 0.002);
  EXPECT_DOUBLE_EQ(cfg.retry.max_backoff_s, 0.050);
  EXPECT_DOUBLE_EQ(cfg.retry.deadline_s, 2.0);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("read_error"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("bogus_key=1"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("read_error=not_a_number"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("latency=0.1"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("down=3"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("deadline=5fortnights"), InvalidArgument);
  EXPECT_THROW(FaultPlan(FaultPlan::parse("read_error=1.5")), InvalidArgument)
      << "rates outside [0,1] must be rejected at construction";
}

TEST(FaultPlan, ParsesTheDocumentedExamples) {
  const FaultConfig header = FaultPlan::parse(
      "seed=7,read_error=0.05,write_error=0.01,short_read=0.02,"
      "latency=0.1:5ms,down=1@40,retries=4,backoff=1ms:50ms");
  EXPECT_EQ(header.seed, 7u);
  EXPECT_DOUBLE_EQ(header.short_read_rate, 0.02);
  ASSERT_EQ(header.outages.size(), 1u);
  EXPECT_EQ(header.outages[0].duration_ops, UINT64_MAX);
  EXPECT_EQ(header.retry.max_attempts, 4);
  EXPECT_DOUBLE_EQ(header.retry.max_backoff_s, 0.050);

  const FaultConfig reads = FaultPlan::parse("seed=7,read_error=0.05");
  EXPECT_EQ(reads.seed, 7u);
  EXPECT_DOUBLE_EQ(reads.read_error_rate, 0.05);
  EXPECT_TRUE(reads.outages.empty());

  const FaultConfig outage = FaultPlan::parse("down=1@40+100");
  ASSERT_EQ(outage.outages.size(), 1u);
  EXPECT_EQ(outage.outages[0].node, 1);
  EXPECT_EQ(outage.outages[0].after_ops, 40u);
  EXPECT_EQ(outage.outages[0].duration_ops, 100u);
  EXPECT_EQ(outage.seed, 1u) << "absent keys keep their defaults";
}

TEST(FaultPlan, OutageWindowsRunOnTheOpClock) {
  FaultConfig cfg = FaultPlan::parse("down=0@3+2");
  FaultPlan plan(cfg);
  EXPECT_FALSE(plan.node_down(0));
  for (int i = 0; i < 3; ++i) (void)plan.next_read(0);
  EXPECT_TRUE(plan.node_down(0)) << "after 3 ops the window opens";
  EXPECT_FALSE(plan.node_down(1)) << "other nodes are unaffected";
  for (int i = 0; i < 2; ++i) (void)plan.next_read(0);
  EXPECT_FALSE(plan.node_down(0)) << "the window closes after +2 ops";
  EXPECT_EQ(plan.ops_seen(0), 5u);

  // Programmatic control overrides the schedule either way.
  plan.mark_down(1);
  EXPECT_TRUE(plan.node_down(1));
  plan.mark_up(1);
  EXPECT_FALSE(plan.node_down(1));
}

// ---------------------------------------------------------------------------
// RetryPolicy under a fake clock
// ---------------------------------------------------------------------------

TEST(RetryPolicy, BackoffIsCappedExponential) {
  RetryPolicy p;
  p.base_backoff_s = 0.001;
  p.max_backoff_s = 0.006;
  EXPECT_DOUBLE_EQ(backoff_delay_s(p, 0), 0.0);
  EXPECT_DOUBLE_EQ(backoff_delay_s(p, 1), 0.001);
  EXPECT_DOUBLE_EQ(backoff_delay_s(p, 2), 0.002);
  EXPECT_DOUBLE_EQ(backoff_delay_s(p, 3), 0.004);
  EXPECT_DOUBLE_EQ(backoff_delay_s(p, 4), 0.006) << "capped at max_backoff_s";
  EXPECT_DOUBLE_EQ(backoff_delay_s(p, 40), 0.006);
}

TEST(RetryPolicy, BudgetCountsAttemptsAndEnforcesTheDeadline) {
  RetryPolicy p;
  p.max_attempts = 3;
  p.base_backoff_s = 0.010;
  p.max_backoff_s = 0.040;
  p.deadline_s = 1.0;

  double now = 100.0;  // fake clock
  RetryBudget budget(p, now);
  EXPECT_TRUE(budget.try_again(now));  // failure 1: attempts 2 and 3 remain
  EXPECT_DOUBLE_EQ(budget.next_backoff_s(now), 0.010);
  now += 0.010;
  EXPECT_TRUE(budget.try_again(now));  // failure 2: the final attempt remains
  EXPECT_DOUBLE_EQ(budget.next_backoff_s(now), 0.020);
  now += 0.020;
  EXPECT_FALSE(budget.try_again(now)) << "failure 3 exhausts a 3-attempt budget";
  EXPECT_EQ(budget.failures(), 3);

  // Deadline: attempts remain but time is up.
  RetryBudget late(p, 100.0);
  EXPECT_FALSE(late.try_again(101.5)) << "past the deadline no retry is allowed";
  // The backoff is clipped so a wait never overruns the deadline.
  RetryBudget clip(p, 100.0);
  EXPECT_TRUE(clip.try_again(100.995));
  EXPECT_NEAR(clip.next_backoff_s(100.995), 0.005, 1e-12);
}

// ---------------------------------------------------------------------------
// ExecutorCore: fault() / resurrect() / all_settled()
// ---------------------------------------------------------------------------

sched::Task make_task(std::string name, std::vector<Interval> in, std::vector<Interval> out) {
  sched::Task t;
  t.name = std::move(name);
  t.kind = "test";
  t.inputs = std::move(in);
  t.outputs = std::move(out);
  return t;
}

class FakeProbe final : public sched::ResidencyProbe {
 public:
  std::set<std::string> resident;

  std::uint64_t resident_input_bytes(int, const sched::Task& task) override {
    std::uint64_t bytes = 0;
    for (const auto& in : task.inputs) {
      if (resident.count(in.array) != 0) bytes += in.length;
    }
    return bytes;
  }
  bool inputs_resident(int, const sched::Task& task) override {
    for (const auto& in : task.inputs) {
      if (resident.count(in.array) == 0) return false;
    }
    return true;
  }
};

TEST(ExecutorCoreFault, RetriesThenPoisonsTheTaskAndItsSuccessors) {
  sched::TaskGraph g;
  const sched::TaskId w = g.add(make_task("w", {}, {{"in", 0, 8}}));
  const sched::TaskId r = g.add(make_task("r", {{"in", 0, 8}}, {{"mid", 0, 8}}));
  const sched::TaskId c = g.add(make_task("c", {{"mid", 0, 8}}, {{"out", 0, 8}}));
  g.build();
  FakeProbe probe;
  sched::CoreConfig cfg;
  cfg.max_task_retries = 2;
  sched::ExecutorCore core(g, {0, 0, 0}, 1, cfg, &probe);

  std::vector<std::pair<int, sched::TaskId>> newly;
  core.stage(core.next_to_stage(0, sched::StageSelect::Resident).task, 0);
  core.take_runnable(0);
  core.finish(w, newly);

  std::vector<sched::TaskId> poisoned;
  EXPECT_EQ(core.fault(w, &poisoned), sched::ExecutorCore::FaultAction::Ignored)
      << "faulting a Done task is a stale report";

  for (int attempt = 0; attempt < cfg.max_task_retries; ++attempt) {
    core.stage(core.next_to_stage(0, sched::StageSelect::Missing).task, 1);
    ASSERT_EQ(core.state(r), sched::TaskState::InputsPending);
    EXPECT_EQ(core.fault(r, &poisoned), sched::ExecutorCore::FaultAction::Retry);
    EXPECT_EQ(core.state(r), sched::TaskState::Assigned) << "retry re-queues the task";
    EXPECT_EQ(core.retries(r), attempt + 1);
  }
  EXPECT_TRUE(poisoned.empty());

  // Budget exhausted: the task and its transitive successor poison together.
  core.stage(core.next_to_stage(0, sched::StageSelect::Missing).task, 1);
  EXPECT_EQ(core.fault(r, &poisoned), sched::ExecutorCore::FaultAction::Poisoned);
  ASSERT_EQ(poisoned.size(), 2u);
  EXPECT_EQ(poisoned[0], r) << "the failed task comes first";
  EXPECT_EQ(poisoned[1], c);
  EXPECT_EQ(core.state(r), sched::TaskState::Faulted);
  EXPECT_EQ(core.state(c), sched::TaskState::Faulted);
  EXPECT_FALSE(core.all_done());
  EXPECT_TRUE(core.all_settled()) << "done + faulted covers the graph: drain, don't hang";
  const std::vector<sched::TaskId> faulted = core.faulted_tasks();
  EXPECT_EQ(faulted.size(), 2u);
}

TEST(ExecutorCoreFault, ResurrectRerunsAProducerWithoutDoubleCountingDeps) {
  sched::TaskGraph g;
  const sched::TaskId w = g.add(make_task("w", {}, {{"in", 0, 8}}));
  const sched::TaskId r = g.add(make_task("r", {{"in", 0, 8}}, {{"out", 0, 8}}));
  g.build();
  FakeProbe probe;
  sched::ExecutorCore core(g, {0, 0}, 1, {}, &probe);

  std::vector<std::pair<int, sched::TaskId>> newly;
  core.stage(core.next_to_stage(0, sched::StageSelect::Resident).task, 0);
  core.take_runnable(0);
  core.finish(w, newly);
  core.stage(core.next_to_stage(0, sched::StageSelect::Missing).task, 1);
  ASSERT_EQ(core.state(r), sched::TaskState::InputsPending);

  // The block `w` wrote was lost: re-queue the producer.
  EXPECT_FALSE(core.resurrect(r)) << "only Done tasks can be resurrected";
  EXPECT_TRUE(core.resurrect(w));
  EXPECT_EQ(core.state(w), sched::TaskState::Assigned);

  newly.clear();
  core.stage(core.next_to_stage(0, sched::StageSelect::Resident).task, 0);
  ASSERT_EQ(core.take_runnable(0), w);
  core.finish(w, newly);
  EXPECT_TRUE(newly.empty()) << "a rerun must not decrement successor deps again";
  EXPECT_EQ(core.state(r), sched::TaskState::InputsPending) << "consumer still parked";

  EXPECT_TRUE(core.note_input(r));
  ASSERT_EQ(core.take_runnable(0), r);
  core.finish(r, newly);
  EXPECT_TRUE(core.all_done());
}

// ---------------------------------------------------------------------------
// causal: the "fault" blame category
// ---------------------------------------------------------------------------

obs::ParsedEvent span(const char* cat, const char* name, double ts, double dur, int pid, int tid,
                      std::int64_t task = -1) {
  obs::ParsedEvent ev;
  ev.phase = 'X';
  ev.cat = cat;
  ev.name = name;
  ev.ts_us = ts;
  ev.dur_us = dur;
  ev.pid = pid;
  ev.tid = tid;
  if (task >= 0) ev.args["task"] = static_cast<double>(task);
  return ev;
}

obs::ParsedEvent flow(char phase, std::uint64_t id, double ts, int pid, int tid,
                      std::int64_t task = -1) {
  obs::ParsedEvent ev;
  ev.phase = phase;
  ev.cat = "load";
  ev.name = "flow";
  ev.ts_us = ts;
  ev.pid = pid;
  ev.tid = tid;
  ev.flow_id = id;
  if (task >= 0) ev.args["task"] = static_cast<double>(task);
  return ev;
}

TEST(CausalFault, FaultSpansSplitOutOfALoadNodesDemandIo) {
  using namespace obs::causal;
  // A 100 µs block load feeds a 50 µs compute. 30 µs of the load interval
  // are covered by a cat "fault" span (retry backoff): the path must charge
  // those 30 µs to "fault" and only the remaining 70 µs to demand-io.
  const std::uint64_t load = flow_id_load("A", 0);
  std::vector<obs::ParsedEvent> events;
  events.push_back(flow('s', load, 0.0, 0, 100));
  events.push_back(flow('t', load, 100.0, 0, 100));
  events.push_back(flow('f', load, 100.0, 0, 0, /*task=*/1));
  events.push_back(span("task", "t1", 100.0, 50.0, 0, 0, /*task=*/1));
  events.push_back(span("fault", "retry_backoff", 10.0, 30.0, 0, 100));

  const CausalGraph g = CausalGraph::build(events);
  EXPECT_DOUBLE_EQ(g.makespan_us(), 150.0);
  const Blame b = g.blame();
  EXPECT_DOUBLE_EQ(b.get(kBlameFault), 30.0);
  EXPECT_DOUBLE_EQ(b.get(kBlameDemandIo), 70.0);
  EXPECT_DOUBLE_EQ(b.get(kBlameCompute), 50.0);
  EXPECT_DOUBLE_EQ(b.total_us(), g.makespan_us()) << "blame still tiles the makespan";
}

// ---------------------------------------------------------------------------
// Engine: transient absorption and graceful degradation
// ---------------------------------------------------------------------------

storage::StorageConfig engine_config(const testutil::TempDir& dir) {
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 16ull << 20;
  cfg.default_block_size = 4096;
  return cfg;
}

void import_blocks(storage::StorageNode& node, const std::string& dir_path,
                   const std::string& name, int blocks, std::uint64_t block_bytes) {
  const std::string path = dir_path + "/" + name + ".bin";
  std::ofstream out(path, std::ios::binary);
  std::vector<char> data(static_cast<std::size_t>(blocks) * block_bytes, 'z');
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  node.import_file(name, path, block_bytes);
}

TEST(EngineFault, TransientReadErrorsAreAbsorbedBitExactly) {
  testutil::TempDir dir("fault_transient");
  storage::StorageConfig cfg = engine_config(dir);
  cfg.fault_plan = std::make_shared<FaultPlan>(
      FaultPlan::parse("seed=3,read_error=0.5,retries=10,backoff=1us:4us"));
  storage::StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  std::filesystem::create_directories(node.scratch_dir());
  import_blocks(node, node.scratch_dir(), "m", 8, 64 * 1024);

  sched::TaskGraph g;
  for (int i = 0; i < 8; ++i) {
    node.create_array("ft_out" + std::to_string(i), 8, 8);
    sched::Task t = make_task("r" + std::to_string(i),
                              {{"m", static_cast<std::uint64_t>(i) * 64 * 1024, 1024}},
                              {{"ft_out" + std::to_string(i), 0, 8}});
    t.seq = i;
    t.work = [](sched::TaskContext& ctx) {
      ctx.output(0).as<std::uint64_t>()[0] = static_cast<std::uint64_t>(ctx.input(0).bytes()[0]);
    };
    g.add(std::move(t));
  }
  g.build();

  auto& io_retries = obs::Metrics::instance().counter("io.retries", 0);
  const std::uint64_t retries_before = io_retries.get();

  sched::Engine engine(cluster, {});
  const sched::Report report = engine.run(g);
  EXPECT_EQ(report.tasks_executed, 8u);
  EXPECT_TRUE(report.faults.ok()) << report.faults.to_text();

  // Bit-exact results despite injected failures...
  for (int i = 0; i < 8; ++i) {
    auto r = node.request_read({"ft_out" + std::to_string(i), 0, 8}).get();
    EXPECT_EQ(r.as<std::uint64_t>()[0], static_cast<std::uint64_t>('z'));
  }
  // ...and the recovery left visible fingerprints.
  EXPECT_GT(cfg.fault_plan->injected(FaultKind::ReadError), 0u)
      << "seed=3 at 50% must inject across >= 8 reads";
  EXPECT_GT(io_retries.get(), retries_before) << "absorbed errors surface as io.retries";
}

TEST(EngineFault, PermanentFailureDrainsIntoAStructuredSummary) {
  testutil::TempDir dir("fault_permanent");
  storage::StorageConfig cfg = engine_config(dir);
  cfg.fault_plan = std::make_shared<FaultPlan>(
      FaultPlan::parse("read_error=1.0,retries=2,backoff=1us:2us"));
  storage::StorageCluster cluster(1, cfg);
  auto& node = cluster.node(0);
  std::filesystem::create_directories(node.scratch_dir());
  import_blocks(node, node.scratch_dir(), "m", 2, 64 * 1024);

  sched::TaskGraph g;
  // A healthy writer (no disk inputs) must still complete...
  node.create_array("pf_ok", 8, 8);
  sched::Task ok = make_task("ok", {}, {{"pf_ok", 0, 8}});
  ok.work = [](sched::TaskContext& ctx) { ctx.output(0).as<std::uint64_t>()[0] = 42; };
  g.add(std::move(ok));
  // ...while the doomed reader and its consumer settle as Faulted.
  node.create_array("pf_mid", 8, 8);
  node.create_array("pf_out", 8, 8);
  sched::Task r = make_task("doomed", {{"m", 0, 1024}}, {{"pf_mid", 0, 8}});
  const auto write_one = [](sched::TaskContext& ctx) {
    ctx.output(0).as<std::uint64_t>()[0] = 1;
  };
  r.work = write_one;
  const sched::TaskId rid = g.add(std::move(r));
  sched::Task c = make_task("downstream", {{"pf_mid", 0, 8}}, {{"pf_out", 0, 8}});
  c.work = write_one;
  g.add(std::move(c));
  g.build();

  sched::Engine engine(cluster, {});
  sched::Report report;
  ASSERT_NO_THROW(report = engine.run(g)) << "graceful degradation, not an abort";

  EXPECT_EQ(report.tasks_executed, 1u) << "the healthy writer completed";
  EXPECT_FALSE(report.faults.ok());
  ASSERT_EQ(report.faults.failed.size(), 1u);
  EXPECT_EQ(report.faults.failed[0].task, rid);
  EXPECT_EQ(report.faults.failed[0].name, "doomed");
  EXPECT_FALSE(report.faults.failed[0].error.empty());
  EXPECT_EQ(report.faults.poisoned, 1u) << "the downstream consumer was poisoned";
  EXPECT_GE(report.faults.task_retries, 1u);
  EXPECT_GE(report.faults.load_faults, report.faults.task_retries);
  EXPECT_NE(report.faults.to_text().find("doomed"), std::string::npos);

  auto v = node.request_read({"pf_ok", 0, 8}).get();
  EXPECT_EQ(v.as<std::uint64_t>()[0], 42u);
}

// ---------------------------------------------------------------------------
// Storage: failover when a block's home node is down
// ---------------------------------------------------------------------------

TEST(StorageFault, DurableReadsFailOverWhenTheHomeNodeIsDown) {
  testutil::TempDir dir("fault_failover");
  storage::StorageConfig cfg = engine_config(dir);
  cfg.fault_plan = std::make_shared<FaultPlan>();  // inert: programmatic outages only
  storage::StorageCluster cluster(2, cfg);
  auto& home = cluster.node(0);
  std::filesystem::create_directories(home.scratch_dir());
  import_blocks(home, home.scratch_dir(), "fo_m", 2, 64 * 1024);

  auto& failover = obs::Metrics::instance().counter("storage.failover", 1);
  const std::uint64_t failover_before = failover.get();

  cfg.fault_plan->mark_down(0);
  auto r = cluster.node(1).request_read({"fo_m", 0, 1024}).get();
  EXPECT_EQ(static_cast<char>(r.bytes()[0]), 'z')
      << "the durable file serves the read despite the outage";
  EXPECT_GT(failover.get(), failover_before);
  cfg.fault_plan->mark_up(0);
}

// ---------------------------------------------------------------------------
// DES: the same plan under virtual time
// ---------------------------------------------------------------------------

sim::TestbedExperiment small_experiment() {
  sim::TestbedExperiment e;
  e.nodes = 4;
  e.iterations = 2;
  e.rows_per_node = 100'000;
  e.nnz_per_node = 1'000'000;
  e.blocks_per_node_side = 2;
  e.submatrix_bytes = 64ull << 20;
  return e;
}

TEST(SimFault, FetchRetriesDegradeMakespanGracefully) {
  const sim::TestbedExperiment clean = small_experiment();
  const sim::SimMetrics m0 = sim::run_testbed(clean).metrics;
  EXPECT_EQ(m0.fetch_faults, 0u);

  sim::TestbedExperiment faulty = small_experiment();
  faulty.fault_plan = std::make_shared<FaultPlan>(
      FaultPlan::parse("seed=5,read_error=0.25,retries=6"));
  const sim::SimMetrics m1 = sim::run_testbed(faulty).metrics;

  EXPECT_GT(m1.fetch_faults, 0u) << "25% read errors over dozens of fetches must fire";
  EXPECT_GT(m1.fetch_retries, 0u);
  EXPECT_EQ(m1.tasks_faulted, 0u) << "a 6-attempt budget absorbs 25% transients";
  EXPECT_GT(m1.makespan, m0.makespan) << "retries cost virtual time, not correctness";
}

TEST(SimFault, BoundedNodeOutageCompletesWithDegradedMakespan) {
  const sim::TestbedExperiment clean = small_experiment();
  const sim::SimMetrics m0 = sim::run_testbed(clean).metrics;

  sim::TestbedExperiment outage = small_experiment();
  outage.fault_plan = std::make_shared<FaultPlan>(FaultPlan::parse("down=1@5+40"));
  sim::SimMetrics m1;
  ASSERT_NO_THROW(m1 = sim::run_testbed(outage).metrics)
      << "a bounded outage must drain, not deadlock";
  EXPECT_EQ(m1.tasks_faulted, 0u);
  EXPECT_GE(m1.makespan, m0.makespan);
}

}  // namespace
}  // namespace dooc
