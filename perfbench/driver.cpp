// End-to-end benchmark driver for the out-of-core solver stack.
//
// One single-process, closed-loop client: it starts the next solve only when
// the previous one has finished. Three workloads run through the public APIs
// of solver, sched, storage, spmv and net:
//
//   spmv-ooc    iterated y = Ax on sched::Engine, matrix 4x the per-node
//               memory budget, codec off (the paper's experiment)
//   lanczos-ci  solver::Lanczos with full reorthogonalization on the He-4
//               CI Hamiltonian, codec on, flushed basis (MFDn's computation)
//   spmv-wire   iterated y = Ax through three doocd processes over Unix
//               sockets driven by net::Coordinator
//
// Every layer is measured from outside: the driver times its own calls into
// each layer and reads the counters the program already keeps (sched::Report,
// StorageStats, obs::Metrics, NodeReportMsg, TransportCounters). With
// --trace 1 it also makes one traced solve and splits it into per-layer self
// time. The last line of stdout is the result JSON.
//
// Usage: perfbench_driver --workload=<name> --seed=<n> --seconds=<s>
//                         --trace=<0|1> --workdir=<dir> [--trace-out=<file.json>]
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ci/hamiltonian.hpp"
#include "common/log.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dataflow/transport.hpp"
#include "ledger.hpp"
#include "net/launch.hpp"
#include "net/socket_transport.hpp"
#include "net/spmv_job.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "sched/engine.hpp"
#include "solver/krylov.hpp"
#include "spmv/codec.hpp"
#include "spmv/generator.hpp"
#include "spmv/kernels.hpp"

using namespace dooc;
namespace fs = std::filesystem;
using perfbench::ratio;

namespace {

constexpr int kNodes = 3;
constexpr int kSetups = 3;  // set-up repetitions of the in-process workloads
constexpr double kMiB = 1024.0 * 1024.0;

double now_s() { return obs::TraceClock::now_seconds(); }

// ---------------------------------------------------------------------------
// Process accounting
// ---------------------------------------------------------------------------

double cpu_self_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// utime + stime of another process from /proc/<pid>/stat (fields 14, 15).
double cpu_pid_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::string proc_dir(pid_t pid) {
  return pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
}

/// Reset the peak-RSS watermark (VmHWM) of a process; 0 = this process.
void reset_peak_rss(pid_t pid) {
  std::ofstream out(proc_dir(pid) + "/clear_refs");
  out << "5";
}

/// VmHWM of a process in MiB; 0 = this process.
double peak_rss_mb(pid_t pid) {
  std::ifstream in(proc_dir(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// What a run accumulates and prints
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Run {
  std::vector<double> setup_s;
  std::vector<double> solve_s;
  std::vector<double> step_s;
  std::vector<double> peak_rss_mb;
  double cpu_s = 0.0;
  std::uint64_t steps_attempted = 0;
  std::uint64_t steps_failed = 0;
  double flops = 0.0;  // SpMV flops over all measured solves
  double solver_iters = 0.0;  // median over the solves
  std::vector<Metric> layer;  // per-layer ledger
  std::map<std::string, std::string> notes;
  bool error = false;  // the run broke outside a solve (set-up, probe, trace)

  void add(const std::string& name, const std::string& unit, double value) {
    layer.push_back({name, unit, value});
  }
  /// A solve's steps all fail when the solve threw, reported failure, or
  /// did not verify.
  void record_solve(std::uint64_t steps, bool ok) {
    steps_attempted += steps;
    if (!ok) steps_failed += steps;
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_list(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) out += (i > 0 ? ", " : "") + json_number(xs[i]);
  return out + "]";
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Trace spans of the driver: one per call into a layer
// ---------------------------------------------------------------------------

/// Layers in self-time order, outermost first.
enum Layer { kBench = 0, kSched, kNet, kSpmv, kStorage, kCodec, kNumLayers };
const char* const kLayerNames[kNumLayers] = {"bench", "sched", "net", "spmv", "storage", "codec"};

/// A driver span around one call into `layer`; spans of one solve share
/// `step` (the solve index). Free when tracing is off.
class Call {
 public:
  Call(Layer layer, const char* what, std::uint64_t step) {
    if (obs::trace_enabled()) {
      span_.emplace("perfbench", std::string(kLayerNames[layer]) + ":" + what, -1);
      span_->arg("step", step);
    }
  }

 private:
  std::optional<obs::Span> span_;
};

/// Which layer a program or driver span belongs to; -1 = not a duration
/// span of any layer.
int layer_of(const std::string& cat, const std::string& name) {
  if (cat == "perfbench") {
    const std::string prefix = name.substr(0, name.find(':'));
    for (int l = 0; l < kNumLayers; ++l) {
      if (prefix == kLayerNames[l]) return l;
    }
    return kBench;
  }
  if (cat == "task") return kSpmv;
  if (cat == "sched") return kSched;
  if (cat == "net") return kNet;
  if (cat == "io") return kStorage;
  if (cat == "storage") return name == "decode" ? kCodec : kStorage;
  return -1;
}

struct TraceDigest {
  std::vector<double> self_s = std::vector<double>(kNumLayers, 0.0);
  double multiply_busy_s = 0.0;  // task spans of multiply tasks
  double task_busy_s = 0.0;      // all task spans
  std::uint64_t tasks = 0;
  std::uint64_t picked_tasks = 0;    // task spans that report missing_bytes
  std::uint64_t resident_tasks = 0;  // of those, the ones with missing_bytes == 0
};

bool is_multiply(const std::string& task_name) { return task_name.rfind("x_{", 0) == 0; }

/// Digest the duration spans that overlap [from_us, to_us] (all of them by
/// default). The window keeps the probes that follow a traced solve out of
/// its self times.
void digest_spans(const std::vector<obs::ParsedEvent>& events, TraceDigest& d,
                  double from_us = -1e300, double to_us = 1e300) {
  std::vector<perfbench::LayerSpan> spans;
  for (const auto& e : events) {
    if (e.phase != 'X' || e.ts_us + e.dur_us < from_us || e.ts_us > to_us) continue;
    const int layer = layer_of(e.cat, e.name);
    if (layer < 0) continue;
    spans.push_back({layer, e.cat == "perfbench" ? -1 : e.pid,
                     {e.ts_us * 1e-6, (e.ts_us + e.dur_us) * 1e-6}});
    if (e.cat == "task") {
      const double dur = e.dur_us * 1e-6;
      d.task_busy_s += dur;
      if (is_multiply(e.name)) d.multiply_busy_s += dur;
      ++d.tasks;
      const auto it = e.args.find("missing_bytes");
      if (it != e.args.end()) {
        ++d.picked_tasks;
        if (it->second == 0.0) ++d.resident_tasks;
      }
    }
  }
  const auto self = perfbench::layer_self_times(spans, kNumLayers);
  for (std::size_t l = 0; l < self.size(); ++l) d.self_s[l] += self[l];
}

std::vector<obs::ParsedEvent> parse_events(const std::vector<obs::Event>& events) {
  return obs::parse_chrome_trace(obs::chrome_trace_json(events));
}

/// Per-layer self time per step, the overhead of tracing and the dropped
/// event count of a traced solve.
void add_trace_metrics(Run& run, const TraceDigest& d, std::uint64_t steps, double traced_solve_s,
                       std::uint64_t dropped) {
  run.add("obs.trace_overhead_frac", "ratio",
          perfbench::overhead_frac(traced_solve_s, perfbench::median(run.solve_s)));
  run.add("obs.trace_dropped_events", "count", static_cast<double>(dropped));
  for (int l : {kSpmv, kStorage, kCodec, kSched, kNet, kBench}) {
    run.add(std::string("trace.") + kLayerNames[l] + "_self_ms_per_step", "ms",
            ratio(d.self_s[static_cast<std::size_t>(l)] * 1e3, static_cast<double>(steps)));
  }
}

// ---------------------------------------------------------------------------
// Same-run ceiling probes
// ---------------------------------------------------------------------------

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw IoError("cannot open " + path);
  std::vector<std::byte> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

/// Ceilings are best cases: each probe keeps the fastest of kProbeReps
/// timed repetitions, after one untimed warm-up.
constexpr int kProbeReps = 5;

/// Seconds of the fastest of `reps` calls of `fn`, after one warm-up call.
template <class Fn>
double best_time(Fn&& fn, int reps = kProbeReps) {
  fn();
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    best = std::min(best, now_s() - t0);
  }
  return best;
}

/// pread of every file whole (one block per file, as the storage layer
/// reads them), warm in the page cache. MB/s of the fastest pass.
double pread_ceiling_mbps(const std::vector<std::string>& files) {
  std::uint64_t max_size = 0;
  for (const auto& f : files) max_size = std::max<std::uint64_t>(max_size, fs::file_size(f));
  std::vector<std::byte> buf(max_size);
  std::uint64_t bytes = 0;
  const double best = best_time([&] {
    bytes = 0;
    for (const auto& f : files) {
      const int fd = ::open(f.c_str(), O_RDONLY);
      if (fd < 0) throw IoError("cannot open " + f);
      const auto size = fs::file_size(f);
      std::uint64_t off = 0;
      while (off < size) {
        const ssize_t got = ::pread(fd, buf.data() + off, size - off, static_cast<off_t>(off));
        if (got <= 0) break;
        off += static_cast<std::uint64_t>(got);
      }
      ::close(fd);
      bytes += off;
    }
  });
  return ratio(static_cast<double>(bytes) / 1e6, best);
}

struct KernelProbe {
  double gflops = 0.0;       // serial multiply_any on the blocks, warm
  double decode_gbps = 0.0;  // decode_block on the frames (0: no frames)
};

/// Serial, warm multiply_any over every block file (decoding codec frames
/// first, and timing that decode as the codec ceiling); per block the
/// fastest repetition counts.
KernelProbe kernel_probe(const spmv::DeployedMatrix& m, const std::vector<std::string>& files,
                         std::uint64_t step) {
  ThreadPool pool(1);
  const int k = m.grid.k();
  double flops = 0.0;
  double mult_s = 0.0;
  double decoded = 0.0;
  double decode_s = 0.0;
  for (int u = 0; u < k; ++u) {
    for (int v = 0; v < k; ++v) {
      std::vector<std::byte> bytes = read_file(files[static_cast<std::size_t>(u * k + v)]);
      if (spmv::codec::is_encoded(bytes)) {
        Call c(kCodec, "decode_probe", step);
        const std::uint64_t raw = m.bytes_of(u, v);
        DataBuffer plain;
        decode_s += best_time([&] { plain = spmv::codec::decode_block(bytes, raw); });
        decoded += static_cast<double>(plain.size());
        bytes.assign(plain.data(), plain.data() + plain.size());
      }
      Call c(kSpmv, "kernel_probe", step);
      std::vector<double> x(m.grid.part_size(v), 1.0);
      std::vector<double> y(m.grid.part_size(u), 0.0);
      mult_s += best_time([&] { spmv::multiply_any(bytes, x, y, pool); });
      flops += 2.0 * static_cast<double>(m.nnz_of(u, v));
    }
  }
  return {perfbench::gflops(flops, mult_s), ratio(decoded * 1e-9, decode_s)};
}

/// Engine::run on a graph of `tasks` no-op tasks spread over the nodes:
/// microseconds of wall time per task, fastest of kProbeReps runs.
double noop_sched_us_per_task(sched::Engine& engine, std::size_t tasks) {
  double best = 1e300;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    sched::TaskGraph g;
    for (std::size_t i = 0; i < tasks; ++i) {
      sched::Task t;
      t.name = "noop";
      t.kind = "noop";
      t.preferred_node = static_cast<int>(i % kNodes);
      t.group = static_cast<std::int64_t>(i);
      t.work = [](sched::TaskContext&) {};
      g.add(std::move(t));
    }
    g.build();
    best = std::min(best, engine.run(g).makespan);
  }
  return ratio(best * 1e6, static_cast<double>(tasks));
}

/// Round trip of a 64-byte frame between two SocketTransports over a Unix
/// socket; median microseconds over 2000 round trips.
double socket_rtt_us(const std::string& dir) {
  net::NodeAddress addr;
  addr.kind = net::NodeAddress::Kind::Unix;
  addr.path = dir + "/rtt.sock";
  net::SocketTransportConfig scfg;
  scfg.self = 0;
  auto server = net::SocketTransport::listen(addr, scfg);
  net::SocketTransportConfig ccfg;
  ccfg.self = net::kCoordinatorId;
  auto client = net::SocketTransport::client(ccfg);
  if (!client->connect_peer(0, addr)) throw Error("rtt probe: cannot connect");
  const auto next_frame = [](net::Transport& t) {
    net::RecvEvent ev;
    while (t.recv(ev, 5000)) {
      if (ev.kind == net::RecvEvent::Kind::Frame) return ev;
    }
    throw Error("rtt probe: no frame");
  };
  std::vector<double> rtt;
  for (int i = 0; i < 2200; ++i) {
    const double t0 = now_s();
    client->send(0, net::Channel::FetchReq, static_cast<std::uint64_t>(i), DataBuffer(64));
    net::RecvEvent req = next_frame(*server);
    server->send(req.peer, net::Channel::FetchOk, req.tag, std::move(req.payload));
    (void)next_frame(*client);
    if (i >= 200) rtt.push_back((now_s() - t0) * 1e6);
  }
  client->close();
  server->close();
  return perfbench::median(rtt);
}

struct Probes {
  double read_mbps = 0.0;
  double kernel_gflops = 0.0;
  double decode_gbps = 0.0;
  double noop_us = 0.0;
  double rtt_us = 0.0;
};

/// Every same-run ceiling probe, each inside a driver span.
Probes run_probes(const spmv::DeployedMatrix& m, const std::vector<std::string>& files,
                  sched::Engine& engine, std::size_t noop_tasks, const std::string& workdir,
                  std::uint64_t step) {
  Probes p;
  {
    Call c(kStorage, "pread_probe", step);
    p.read_mbps = pread_ceiling_mbps(files);
  }
  const KernelProbe k = kernel_probe(m, files, step);
  p.kernel_gflops = k.gflops;
  p.decode_gbps = k.decode_gbps;
  {
    Call c(kSched, "noop_probe", step);
    p.noop_us = noop_sched_us_per_task(engine, noop_tasks);
  }
  {
    Call c(kNet, "rtt_probe", step);
    p.rtt_us = socket_rtt_us(workdir);
  }
  return p;
}

/// Stop the trace session, write it to `out` when given, and digest the
/// spans inside [from_s, to_s] (TraceClock seconds).
TraceDigest finish_trace(const std::string& out, double from_s, double to_s,
                         std::uint64_t& dropped) {
  dropped = obs::TraceSession::instance().dropped();
  const std::vector<obs::Event> events = obs::TraceSession::instance().stop();
  if (!out.empty()) obs::write_chrome_trace(out, events);
  TraceDigest d;
  digest_spans(parse_events(events), d, from_s * 1e6, to_s * 1e6);
  return d;
}

std::vector<std::string> block_files(storage::StorageCluster& cluster,
                                     const spmv::DeployedMatrix& m) {
  std::vector<std::string> files;
  const int k = m.grid.k();
  for (int u = 0; u < k; ++u) {
    for (int v = 0; v < k; ++v) {
      files.push_back(cluster.node(m.owner_of(u, v)).scratch_dir() + "/" + m.name_of(u, v));
    }
  }
  return files;
}

/// Sum of the per-node histograms of one metric in a snapshot.
Log2Histogram merged_histogram(const obs::MetricsSnapshot& snap, const std::string& name) {
  Log2Histogram h;
  for (const auto& [key, entry] : snap.entries) {
    if (key.name == name && entry.kind == obs::MetricKind::Histogram) h.merge(entry.hist);
  }
  return h;
}

std::uint64_t counter_total(const obs::MetricsSnapshot& snap, const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& [key, entry] : snap.entries) {
    if (key.name == name && entry.kind == obs::MetricKind::Counter) total += entry.count;
  }
  return total;
}

storage::StorageStats stats_delta(const storage::StorageStats& a, const storage::StorageStats& b) {
  storage::StorageStats d;
  d.disk_reads = b.disk_reads - a.disk_reads;
  d.disk_read_bytes = b.disk_read_bytes - a.disk_read_bytes;
  d.disk_writes = b.disk_writes - a.disk_writes;
  d.disk_write_bytes = b.disk_write_bytes - a.disk_write_bytes;
  d.evictions = b.evictions - a.evictions;
  d.decoded_bytes = b.decoded_bytes - a.decoded_bytes;
  d.disk_read_seconds = b.disk_read_seconds - a.disk_read_seconds;
  d.disk_write_seconds = b.disk_write_seconds - a.disk_write_seconds;
  d.decode_seconds = b.decode_seconds - a.decode_seconds;
  return d;
}

/// The per-layer rows every in-process workload reads from the storage
/// layer's own counters, its metrics and the same-run probes.
void add_storage_rows(Run& run, const storage::StorageStats& s, const obs::MetricsSnapshot& snap,
                      double steps, double cross_node_bytes, double resident_peak_bytes,
                      double budget_bytes, double read_ceiling_mbps) {
  const auto mb = [](std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; };
  const double read_mbps = ratio(mb(s.disk_read_bytes), s.disk_read_seconds);
  run.add("storage.read_mb_per_step", "MB", ratio(mb(s.disk_read_bytes), steps));
  run.add("storage.read_mbps", "MB/s", read_mbps);
  run.add("storage.read_ceiling_mbps", "MB/s", read_ceiling_mbps);
  run.add("storage.read_frac", "ratio", ratio(read_mbps, read_ceiling_mbps));
  const auto hits = static_cast<double>(counter_total(snap, "storage.cache_hit"));
  const auto misses = static_cast<double>(counter_total(snap, "storage.cache_miss"));
  run.add("storage.cache_hit_ratio", "ratio", perfbench::hit_ratio(hits, misses));
  run.add("storage.evictions_per_step", "count", ratio(static_cast<double>(s.evictions), steps));
  run.add("storage.fetch_deferred_per_step", "count",
          ratio(static_cast<double>(counter_total(snap, "storage.fetch_deferred")), steps));
  run.add("storage.cross_node_mb_per_step", "MB", ratio(cross_node_bytes / 1e6, steps));
  run.add("storage.write_mb_per_step", "MB", ratio(mb(s.disk_write_bytes), steps));
  run.add("storage.write_mbps", "MB/s", ratio(mb(s.disk_write_bytes), s.disk_write_seconds));
  run.add("storage.resident_peak_mb", "MiB", resident_peak_bytes / kMiB);
  run.add("storage.resident_over_budget", "ratio", ratio(resident_peak_bytes, budget_bytes));
}

void add_codec_rows(Run& run, const storage::StorageStats& s, double ceiling_gbps,
                    double stored_ratio) {
  const double gbps = ratio(static_cast<double>(s.decoded_bytes) * 1e-9, s.decode_seconds);
  run.add("codec.decode_gbps", "GB/s", gbps);
  run.add("codec.decode_ceiling_gbps", "GB/s", ceiling_gbps);
  run.add("codec.decode_frac", "ratio", ratio(gbps, ceiling_gbps));
  run.add("codec.stored_ratio", "ratio", stored_ratio);
}

/// `resident_tasks` of `picked_tasks` (the tasks whose pick recorded input
/// residency) found every input resident.
void add_sched_rows(Run& run, double tasks, double steps, double task_busy_s, double solve_s,
                    double resident_tasks, double picked_tasks, const Log2Histogram& pending_us,
                    double graph_build_ms, double noop_us) {
  run.add("sched.tasks_per_step", "count", ratio(tasks, steps));
  run.add("sched.busy_frac", "ratio", perfbench::busy_frac(task_busy_s, solve_s, kNodes));
  run.add("sched.resident_pick_ratio", "ratio", ratio(resident_tasks, picked_tasks));
  run.add("sched.inputs_pending_ms_p50", "ms", pending_us.quantile(0.50) * 1e-3);
  run.add("sched.inputs_pending_ms_p99", "ms", pending_us.quantile(0.99) * 1e-3);
  run.add("sched.graph_build_ms", "ms", graph_build_ms);
  run.add("sched.us_per_task_ceiling", "us", noop_us);
}

void add_kernel_rows(Run& run, double flops, double multiply_busy_s, double ceiling_gflops) {
  const double achieved = perfbench::gflops(flops, multiply_busy_s);
  run.add("spmv.kernel_gflops", "GFLOP/s", achieved);
  run.add("spmv.ceiling_gflops", "GFLOP/s", ceiling_gflops);
  run.add("spmv.kernel_frac", "ratio", ratio(achieved, ceiling_gflops));
}

void add_net_rows(Run& run, double steps, double fetch_bytes, double frames, double coord_bytes,
                  double fetch_p50_s, double fetch_p99_s, double wire_mbps, double fallbacks,
                  double rtt_us) {
  run.add("net.fetch_mb_per_step", "MB", ratio(fetch_bytes / 1e6, steps));
  run.add("net.frames_per_step", "count", ratio(frames, steps));
  run.add("net.coord_mb_per_step", "MB", ratio(coord_bytes / 1e6, steps));
  run.add("net.fetch_p50_ms", "ms", fetch_p50_s * 1e3);
  run.add("net.fetch_p99_ms", "ms", fetch_p99_s * 1e3);
  run.add("net.wire_mbps", "MB/s", wire_mbps);
  run.add("net.durable_fallbacks", "count", fallbacks);
  run.add("net.rtt_ceiling_us", "us", rtt_us);
}

/// Samples StorageCluster::total_resident_bytes() and keeps the peak.
struct ResidentPeak {
  std::mutex mutex;
  std::uint64_t peak = 0;
  void sample(storage::StorageCluster& cluster) {
    const std::uint64_t now = cluster.total_resident_bytes();
    std::lock_guard lock(mutex);
    peak = std::max(peak, now);
  }
};

/// Samples a cluster's resident bytes every 5 ms on its own thread, for
/// workloads whose step boundaries fall inside one engine job.
class ResidentPoller {
 public:
  ResidentPoller(storage::StorageCluster& cluster, ResidentPeak& peak)
      : thread_([this, &cluster, &peak] {
          std::unique_lock lock(mutex_);
          while (!cv_.wait_for(lock, std::chrono::milliseconds(5), [this] { return stop_; })) {
            lock.unlock();
            peak.sample(cluster);
            lock.lock();
          }
        }) {}
  ~ResidentPoller() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  ResidentPoller(const ResidentPoller&) = delete;
  ResidentPoller& operator=(const ResidentPoller&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

bool loop_open(double started, double seconds, std::size_t done, std::size_t min_done) {
  return done < min_done || now_s() - started < seconds;
}

// ---------------------------------------------------------------------------
// spmv-ooc
// ---------------------------------------------------------------------------

struct OocParams {
  std::uint64_t n = 1'500'000;
  int row_nnz = 24;
  int k = 6;
  std::uint64_t budget = 64ull << 20;  // per node
  int graph_iterations = 8;            // iterations per chained graph
  int graphs = 2;                      // graphs per solve
};

double ooc_x0(std::uint64_t seed, std::uint64_t i) {
  return 1.0 + 1e-4 * static_cast<double>((i + seed) % 97);
}

void run_spmv_ooc(Run& run, std::uint64_t seed, double seconds, const std::string& trace_out,
                  bool trace, const std::string& workdir) {
  const OocParams p;
  const int iterations = p.graph_iterations * p.graphs;

  // The driver's own input and reference (not part of set-up).
  spmv::CsrMatrix a = spmv::generate_uniform_gap(
      p.n, p.n, spmv::choose_gap_parameter(p.n, p.n, p.n * p.row_nnz), SplitMix64(seed).next());
  for (auto& v : a.values) v *= 0.05;  // keep iterates bounded
  std::vector<double> expect(p.n);
  {
    std::vector<double> y(p.n);
    for (std::uint64_t i = 0; i < p.n; ++i) expect[i] = ooc_x0(seed, i);
    for (int it = 0; it < iterations; ++it) {
      a.multiply(expect, y);
      expect.swap(y);
    }
  }

  const auto owner = spmv::column_strip_owner(kNodes);
  std::unique_ptr<df::TransportStats> transport;
  std::unique_ptr<storage::StorageCluster> cluster;
  std::unique_ptr<sched::Engine> engine;
  spmv::DeployedMatrix deployed;
  for (int s = 0; s < kSetups; ++s) {
    engine.reset();
    cluster.reset();
    const std::string dir = workdir + "/ooc" + std::to_string(s);
    fs::remove_all(workdir + "/ooc" + std::to_string(s - 1));
    storage::StorageConfig cfg;
    cfg.scratch_root = dir;
    cfg.memory_budget = p.budget;
    cfg.codec = spmv::codec::CodecConfig{};  // off, whatever the environment says
    const double t0 = now_s();
    transport = std::make_unique<df::TransportStats>(kNodes);
    cluster = std::make_unique<storage::StorageCluster>(kNodes, cfg, transport.get());
    deployed = spmv::deploy_matrix(*cluster, a, p.k, owner);
    engine = std::make_unique<sched::Engine>(*cluster, sched::EngineConfig{});
    run.setup_s.push_back(now_s() - t0);
  }
  const double nnz = static_cast<double>(deployed.total_nnz());
  a = spmv::CsrMatrix{};  // the driver's copy must not count in the solve's RSS
  ::sync();  // so the kernel's writeback of the block files does not land in a solve

  obs::Metrics::instance().reset();
  const storage::StorageStats stats0 = cluster->total_stats();
  ResidentPeak resident;
  std::vector<double> graph_build_ms;
  double multiply_busy_s = 0.0;
  double task_busy_s = 0.0;
  double tasks = 0.0;
  double resident_tasks = 0.0;
  double cross_node = 0.0;
  std::size_t graph_tasks = 0;

  // One solve: `iterations` steps as chained graphs from a fresh x^0.
  // Returns the solve's wall time; fills the step times.
  const auto solve = [&](std::uint64_t index, bool measured) {
    const std::string base = "x" + std::to_string(index);
    spmv::create_distributed_vector(*cluster, deployed.grid, owner, base, 0,
                                    [&](std::uint64_t i) { return ooc_x0(seed, i); });
    const double cpu0 = cpu_self_s();
    reset_peak_rss(0);
    const double t0 = now_s();
    for (int g = 0; g < p.graphs; ++g) {
      solver::IteratedSpmvConfig cfg;
      cfg.iterations = p.graph_iterations;
      cfg.first_iteration = 1 + g * p.graph_iterations;
      cfg.vector_base = base;
      const double tb = now_s();
      std::optional<solver::IteratedSpmv> drv;
      {
        Call c(kSched, "graph_build", index);
        drv.emplace(*cluster, deployed, cfg);
      }
      if (measured) graph_build_ms.push_back((now_s() - tb) * 1e3);
      graph_tasks = drv->graph().size();
      sched::Report report;
      {
        Call c(kSched, "engine_run", index);
        report = drv->run(*engine);
      }
      if (!report.faults.ok()) throw Error("spmv-ooc: engine reported failed tasks");
      {
        Call c(kStorage, "cleanup", index);
        drv->cleanup_intermediates();
        if (g > 0) {
          for (int u = 0; u < p.k; ++u) {
            cluster->node(0).delete_array(
                spmv::BlockGrid::vector_name(base, cfg.first_iteration - 1, u));
          }
        }
      }
      if (!measured) continue;
      std::vector<std::pair<std::int64_t, double>> ends;
      for (const auto& ev : report.trace) {
        const auto& task = drv->graph().task(ev.task);
        ends.emplace_back(task.group, ev.end);
        const double dur = ev.end - ev.start;
        task_busy_s += dur;
        if (task.kind == "multiply") multiply_busy_s += dur;
        tasks += 1.0;
        if (ev.inputs_resident) resident_tasks += 1.0;
      }
      for (double st : perfbench::steps_from_task_ends(ends)) run.step_s.push_back(st);
      cross_node += static_cast<double>(report.cross_node_bytes);
    }
    const double solve_s = now_s() - t0;
    if (measured) {
      run.cpu_s += cpu_self_s() - cpu0;
      run.peak_rss_mb.push_back(peak_rss_mb(0));
    }
    std::vector<double> got;
    {
      Call c(kStorage, "gather", index);
      got = spmv::gather_vector(*cluster, deployed.grid, base, iterations);
    }
    double max_err = got.size() == p.n ? 0.0 : 1e300;
    {
      Call c(kBench, "verify", index);
      for (std::uint64_t i = 0; i < got.size() && i < p.n; ++i) {
        max_err = std::max(max_err, std::abs(got[i] - expect[i]) / (1.0 + std::abs(expect[i])));
      }
    }
    for (int u = 0; u < p.k; ++u) {
      cluster->node(0).delete_array(spmv::BlockGrid::vector_name(base, 0, u));
      cluster->node(0).delete_array(spmv::BlockGrid::vector_name(base, iterations, u));
    }
    const bool ok = max_err <= 1e-9;
    run.record_solve(static_cast<std::uint64_t>(iterations), ok);
    if (measured) {
      run.solve_s.push_back(solve_s);
      run.flops += 2.0 * nnz * iterations;
    }
    if (!ok) run.notes["verify"] = "max relative error " + json_number(max_err);
    return solve_s;
  };

  const double started = now_s();
  std::uint64_t index = 0;
  std::optional<ResidentPoller> poller(std::in_place, *cluster, resident);
  while (loop_open(started, seconds, run.solve_s.size(), 2)) {
    try {
      solve(index++, true);
    } catch (const std::exception& e) {
      run.record_solve(static_cast<std::uint64_t>(iterations), false);
      run.notes["error"] = e.what();
      break;
    }
  }
  poller.reset();
  run.solver_iters = iterations;
  const storage::StorageStats s = stats_delta(stats0, cluster->total_stats());
  const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  const double steps = static_cast<double>(run.step_s.size());

  if (trace) {
    obs::TraceSession::instance().start();
    const double w0 = now_s();
    const double traced_s = solve(index, false);
    const double w1 = now_s();
    const Probes probes = run_probes(deployed, block_files(*cluster, deployed), *engine,
                                     graph_tasks, workdir, index + 1);
    std::uint64_t dropped = 0;
    const TraceDigest d = finish_trace(trace_out, w0, w1, dropped);

    add_kernel_rows(run, run.flops, multiply_busy_s, probes.kernel_gflops);
    add_storage_rows(run, s, snap, steps, cross_node, static_cast<double>(resident.peak),
                     static_cast<double>(p.budget) * kNodes, probes.read_mbps);
    add_codec_rows(run, s, probes.decode_gbps, deployed.compression_ratio());
    add_sched_rows(run, tasks, steps, task_busy_s,
                   perfbench::median(run.solve_s) * static_cast<double>(run.solve_s.size()),
                   resident_tasks, tasks, merged_histogram(snap, "sched.inputs_pending_us"),
                   perfbench::median(graph_build_ms), probes.noop_us);
    add_net_rows(run, steps, 0, 0, 0, 0, 0, 0, 0, probes.rtt_us);
    add_trace_metrics(run, d, static_cast<std::uint64_t>(iterations), traced_s, dropped);
  }
  engine.reset();
  cluster.reset();
}

// ---------------------------------------------------------------------------
// lanczos-ci
// ---------------------------------------------------------------------------

/// In-memory Lanczos with full reorthogonalization: the same recurrence and
/// stopping rule as solver::Lanczos, on a dense working set.
solver::LanczosResult reference_lanczos(const spmv::CsrMatrix& h,
                                        const solver::LanczosOptions& o) {
  const std::uint64_t n = h.rows;
  std::vector<std::vector<double>> basis;
  {
    SplitMix64 rng(o.seed);
    std::vector<double> v0(n);
    for (auto& x : v0) x = rng.next_double() - 0.5;
    spmv::scale(v0, 1.0 / spmv::norm2(v0));
    basis.push_back(std::move(v0));
  }
  solver::LanczosResult r;
  std::vector<double> w(n);
  for (int j = 0; j < o.max_iterations; ++j) {
    h.multiply(basis[static_cast<std::size_t>(j)], w);
    const double alpha = spmv::dot(w, basis[static_cast<std::size_t>(j)]);
    r.alpha.push_back(alpha);
    spmv::axpy(-alpha, basis[static_cast<std::size_t>(j)], w);
    if (j > 0) spmv::axpy(-r.beta.back(), basis[static_cast<std::size_t>(j) - 1], w);
    for (int i = 0; i <= j; ++i) {
      const double c = spmv::dot(w, basis[static_cast<std::size_t>(i)]);
      if (c != 0.0) spmv::axpy(-c, basis[static_cast<std::size_t>(i)], w);
    }
    const double beta = spmv::norm2(w);
    const solver::TridiagEigen eig = solver::tridiag_eigen(r.alpha, r.beta);
    const int wanted = std::min<int>(o.num_eigenvalues, eig.k);
    r.eigenvalues.assign(eig.values.begin(), eig.values.begin() + wanted);
    bool all = eig.k >= o.num_eigenvalues;
    for (int i = 0; i < wanted; ++i) {
      if (std::abs(beta * eig.last_component(i)) > o.tolerance) all = false;
    }
    r.iterations = j + 1;
    if (all || beta < 1e-14 || j + 1 == o.max_iterations) {
      r.converged = all || beta < 1e-14;
      break;
    }
    r.beta.push_back(beta);
    spmv::scale(w, 1.0 / beta);
    basis.push_back(w);
  }
  return r;
}

struct LanczosParams {
  ci::NucleusConfig nucleus{2, 2, 6, 0};  // He-4, Nmax=6, 2Mj=0
  int k = 4;
  std::uint64_t budget = 4ull << 20;  // per node
  int eigenvalues = 4;
  double tolerance = 1e-6;
  int max_iterations = 400;
  // Start vectors per run: solve r uses start seed r mod this, so a run's
  // median spans several Krylov convergence histories.
  int start_vectors = 4;
};

void run_lanczos_ci(Run& run, std::uint64_t seed, double seconds, const std::string& trace_out,
                    bool trace, const std::string& workdir) {
  const LanczosParams p;
  spmv::CsrMatrix h = ci::build_hamiltonian(p.nucleus);
  solver::LanczosOptions lopts;
  lopts.max_iterations = p.max_iterations;
  lopts.num_eigenvalues = p.eigenvalues;
  lopts.tolerance = p.tolerance;
  lopts.full_reorthogonalization = true;
  lopts.flush_basis = true;
  std::vector<std::uint64_t> start_seeds;
  std::vector<solver::LanczosResult> expect;
  SplitMix64 seeds(seed);
  for (int i = 0; i < p.start_vectors; ++i) {
    lopts.seed = seeds.next();
    start_seeds.push_back(lopts.seed);
    expect.push_back(reference_lanczos(h, lopts));
    if (!expect.back().converged) throw Error("lanczos-ci: in-memory reference did not converge");
  }

  // Written by the engine's job-done callback; declared before the engine
  // so that they outlive its threads.
  ResidentPeak resident;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::vector<double> done_times;

  const auto owner = spmv::column_strip_owner(kNodes);
  std::unique_ptr<storage::StorageCluster> cluster;
  std::unique_ptr<sched::Engine> engine;
  spmv::DeployedMatrix deployed;
  for (int s = 0; s < kSetups; ++s) {
    engine.reset();
    cluster.reset();
    fs::remove_all(workdir + "/ci" + std::to_string(s - 1));
    storage::StorageConfig cfg;
    cfg.scratch_root = workdir + "/ci" + std::to_string(s);
    cfg.memory_budget = p.budget;
    cfg.codec = spmv::codec::CodecConfig::parse("on");
    const double t0 = now_s();
    cluster = std::make_unique<storage::StorageCluster>(kNodes, cfg);
    deployed = spmv::deploy_matrix(*cluster, h, p.k, owner, "H");
    engine = std::make_unique<sched::Engine>(*cluster, sched::EngineConfig{});
    run.setup_s.push_back(now_s() - t0);
  }
  const double nnz = static_cast<double>(deployed.total_nnz());
  h = spmv::CsrMatrix{};
  ::sync();

  // A Lanczos step's SpMV graph, built once outside the solver to time the
  // graph build and size the no-op scheduler probe.
  std::vector<double> graph_build_ms;
  std::size_t step_tasks = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::string base = "gb" + std::to_string(rep);
    solver::IteratedSpmvConfig cfg;
    cfg.iterations = 1;
    cfg.vector_base = base;
    const double t0 = now_s();
    solver::IteratedSpmv drv(*cluster, deployed, cfg);
    graph_build_ms.push_back((now_s() - t0) * 1e3);
    step_tasks = drv.graph().size();
    drv.cleanup_intermediates();
    for (int u = 0; u < p.k; ++u) {
      cluster->node(0).delete_array(spmv::BlockGrid::vector_name(base, 1, u));
    }
  }

  // The callback runs on an engine thread and may lag Engine::run's
  // return, so a solve waits for its last step's callback below.
  engine->set_on_job_done([&](std::uint32_t) {
    const double t = now_s();
    resident.sample(*cluster);
    {
      std::lock_guard lock(done_mutex);
      done_times.push_back(t);
    }
    done_cv.notify_all();
  });

  obs::Metrics::instance().reset();
  const storage::StorageStats stats0 = cluster->total_stats();
  solver::DistVectorOps vecs(*cluster, deployed.grid, owner);
  std::vector<double> iters;

  const auto solve = [&](std::uint64_t index, bool measured) {
    solver::LanczosOptions o = lopts;
    o.base = "lz" + std::to_string(index);
    o.seed = start_seeds[index % start_seeds.size()];
    const solver::LanczosResult& ref = expect[index % expect.size()];
    {
      std::lock_guard lock(done_mutex);
      done_times.clear();
    }
    const double cpu0 = cpu_self_s();
    reset_peak_rss(0);
    const double t0 = now_s();
    solver::LanczosResult got;
    {
      Call c(kBench, "lanczos_run", index);
      solver::Lanczos lanczos(*cluster, deployed, *engine, o);
      got = lanczos.run();
    }
    const double solve_s = now_s() - t0;
    bool ok = got.converged && got.eigenvalues.size() == ref.eigenvalues.size();
    {
      Call c(kBench, "verify", index);
      for (std::size_t i = 0; ok && i < got.eigenvalues.size(); ++i) {
        const double want = ref.eigenvalues[i];
        if (std::abs(got.eigenvalues[i] - want) > 1e-8 * std::max(1.0, std::abs(want))) ok = false;
      }
    }
    {
      Call c(kStorage, "cleanup", index);
      for (int j = 0; j <= got.iterations; ++j) {
        if (vecs.exists(o.base, j)) vecs.remove(o.base, j);
      }
    }
    if (measured) {
      run.cpu_s += cpu_self_s() - cpu0;
      run.peak_rss_mb.push_back(peak_rss_mb(0));
      run.solve_s.push_back(solve_s);
      run.flops += 2.0 * nnz * got.iterations;
      iters.push_back(got.iterations);
      std::unique_lock lock(done_mutex);
      done_cv.wait_for(lock, std::chrono::seconds(5), [&] {
        return done_times.size() >= static_cast<std::size_t>(got.iterations);
      });
      for (double st : perfbench::steps_from_callbacks(t0, done_times)) run.step_s.push_back(st);
    }
    run.record_solve(static_cast<std::uint64_t>(got.iterations), ok);
    if (!ok) run.notes["verify"] = "eigenvalues differ from the in-memory reference";
    return std::pair{solve_s, got.iterations};
  };

  const double started = now_s();
  std::uint64_t index = 0;
  while (loop_open(started, seconds, run.solve_s.size(), expect.size())) {
    try {
      solve(index++, true);
    } catch (const std::exception& e) {
      run.record_solve(static_cast<std::uint64_t>(expect[(index - 1) % expect.size()].iterations),
                       false);
      run.notes["error"] = e.what();
      break;
    }
  }
  run.solver_iters = perfbench::median(iters);
  const storage::StorageStats s = stats_delta(stats0, cluster->total_stats());
  const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  const double steps = static_cast<double>(run.step_s.size());

  if (trace) {
    obs::TraceSession::instance().start();
    const double w0 = now_s();
    const auto [traced_s, traced_iters] = solve(index, false);
    const double w1 = now_s();
    const Probes probes = run_probes(deployed, block_files(*cluster, deployed), *engine,
                                     step_tasks, workdir, index + 1);
    std::uint64_t dropped = 0;
    const TraceDigest d = finish_trace(trace_out, w0, w1, dropped);

    add_kernel_rows(run, 2.0 * nnz * traced_iters, d.multiply_busy_s, probes.kernel_gflops);
    add_storage_rows(run, s, snap, steps, 0.0, static_cast<double>(resident.peak),
                     static_cast<double>(p.budget) * kNodes, probes.read_mbps);
    add_codec_rows(run, s, probes.decode_gbps, deployed.compression_ratio());
    add_sched_rows(run, static_cast<double>(d.tasks), traced_iters, d.task_busy_s, traced_s,
                   static_cast<double>(d.resident_tasks), static_cast<double>(d.picked_tasks),
                   merged_histogram(snap, "sched.inputs_pending_us"),
                   perfbench::median(graph_build_ms), probes.noop_us);
    add_net_rows(run, steps, 0, 0, 0, 0, 0, 0, 0, probes.rtt_us);
    add_trace_metrics(run, d, static_cast<std::uint64_t>(traced_iters), traced_s, dropped);
  }
  engine.reset();
  cluster.reset();
}

// ---------------------------------------------------------------------------
// spmv-wire
// ---------------------------------------------------------------------------

struct WireParams {
  std::uint64_t n = 1'000'000;
  int row_nnz = 24;
  int k = 3;
  int iterations = 8;
};

struct WireRepeat {
  double setup_s = 0.0;
  double solve_s = 0.0;
  double solve_from = 0.0;  // graph build to verify, TraceClock seconds
  double solve_to = 0.0;
  double graph_build_ms = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> steps;
  bool ok = false;
  net::RunResult run;
  std::vector<net::NodeReportMsg> reports;
  net::TransportCounters coord;
  std::vector<obs::ParsedEvent> daemon_events;
};

/// One cluster lifecycle: spawn and connect the daemons, deploy, run,
/// gather, verify, tear down. The launcher's destructor reaps the daemons
/// on every exit path, exceptions included.
WireRepeat wire_repeat(const net::SpmvJob& job, const std::vector<double>& expect,
                       const std::string& dir, std::uint64_t index, bool trace) {
  WireRepeat out;
  fs::create_directories(dir + "/durable");
  net::LaunchConfig lcfg;
  lcfg.manifest = net::Manifest::local_unix(dir, kNodes);
  lcfg.manifest_path = dir + "/manifest.txt";
  lcfg.durable_dir = dir + "/durable";
  lcfg.codec_spec = "off";
  lcfg.telemetry_spec = "off";
  if (trace) {
    lcfg.trace_dir = dir + "/trace";
    fs::create_directories(lcfg.trace_dir);
  }
  const double t0 = now_s();
  net::ClusterLauncher launcher(lcfg);
  std::unique_ptr<net::SocketTransport> transport;
  std::optional<net::Coordinator> coord;
  {
    Call c(kNet, "deploy", index);
    launcher.spawn_all();
    net::SocketTransportConfig tcfg;
    tcfg.self = net::kCoordinatorId;
    transport = net::SocketTransport::client(tcfg);
    for (net::NodeId i = 0; i < kNodes; ++i) {
      if (!transport->connect_peer(i, lcfg.manifest.nodes[static_cast<std::size_t>(i)])) {
        throw Error("spmv-wire: node " + std::to_string(i) + " did not come up");
      }
    }
    net::CoordinatorConfig ccfg;
    ccfg.num_nodes = kNodes;
    ccfg.durable_dir = lcfg.durable_dir;
    ccfg.telemetry = obs::telemetry::TelemetryConfig{};
    coord.emplace(*transport, ccfg);
    job.deploy(*coord);
  }
  out.setup_s = now_s() - t0;

  out.solve_from = now_s();
  std::unique_ptr<solver::IteratedSpmv> drv;
  {
    Call c(kSched, "graph_build", index);
    const double tb = now_s();
    drv = job.build_graph();
    out.graph_build_ms = (now_s() - tb) * 1e3;
  }
  std::vector<std::size_t> tasks_per_step;
  {
    std::map<std::int64_t, std::size_t> per_group;
    const auto& g = drv->graph();
    for (sched::TaskId t = 0; t < g.size(); ++t) ++per_group[g.task(t).group];
    for (const auto& [group, count] : per_group) tasks_per_step.push_back(count);
  }
  std::vector<pid_t> pids;
  for (net::NodeId i = 0; i < kNodes; ++i) pids.push_back(launcher.pid(i));
  const auto cpu_all = [&] {
    double c = cpu_self_s();
    for (pid_t pid : pids) c += cpu_pid_s(pid);
    return c;
  };
  std::vector<double> completions;
  completions.reserve(drv->graph().size());
  coord->progress_hook = [&](std::uint64_t) { completions.push_back(now_s()); };

  for (pid_t pid : pids) reset_peak_rss(pid);
  const double cpu0 = cpu_all();
  const double r0 = now_s();
  {
    Call c(kNet, "coordinator_run", index);
    out.run = coord->run(drv->graph());
  }
  out.solve_s = now_s() - r0;
  out.cpu_s = cpu_all() - cpu0;
  for (pid_t pid : pids) out.peak_rss_mb += peak_rss_mb(pid);
  out.steps = perfbench::steps_from_completions(r0, completions, tasks_per_step);

  if (out.run.ok) {
    std::vector<double> got;
    {
      Call c(kNet, "gather", index);
      got = job.gather(*coord);
    }
    Call c(kBench, "verify", index);
    out.ok = got.size() == expect.size() &&
             std::memcmp(got.data(), expect.data(), got.size() * sizeof(double)) == 0;
  }
  out.solve_to = now_s();
  for (const auto& [id, rep] : coord->collect_reports()) out.reports.push_back(rep);
  out.coord = transport->counters();
  coord->shutdown_cluster();
  transport->close();
  if (launcher.wait_all(10000) > 0) out.ok = false;
  if (trace) {
    for (net::NodeId i = 0; i < kNodes; ++i) {
      const std::string path = lcfg.trace_dir + "/node" + std::to_string(i) + ".json";
      if (!fs::exists(path)) continue;
      auto events = obs::load_chrome_trace(path);
      out.daemon_events.insert(out.daemon_events.end(), events.begin(), events.end());
    }
  }
  return out;
}

void run_spmv_wire(Run& run, std::uint64_t seed, double seconds, const std::string& trace_out,
                   bool trace, const std::string& workdir) {
  const WireParams p;
  net::SpmvJobConfig jcfg;
  jcfg.n = p.n;
  jcfg.grid_k = p.k;
  jcfg.iterations = p.iterations;
  jcfg.num_nodes = kNodes;
  // Size the gap parameter for the wanted nnz; the default d asks for
  // about n^2/4.5 non-zeros.
  jcfg.gap_d = spmv::choose_gap_parameter(p.n, p.n, p.n * p.row_nnz);
  jcfg.seed = SplitMix64(seed).next();
  const net::SpmvJob job(jcfg);
  const std::vector<double> expect = job.reference(workdir + "/wire_ref");
  fs::remove_all(workdir + "/wire_ref");
  const double nnz = static_cast<double>(job.matrix().total_nnz());

  std::vector<double> graph_build_ms;
  std::vector<net::NodeReportMsg> reports;
  double coord_frames = 0.0;  // coordinator transport, sent + received
  double coord_bytes = 0.0;
  std::vector<double> fetch_p50;
  std::vector<double> fetch_p99;

  const auto measure = [&](std::uint64_t index, bool traced) {
    const std::string dir = workdir + "/w" + std::to_string(index);
    WireRepeat r;
    try {
      r = wire_repeat(job, expect, dir, index, traced);
    } catch (const std::exception& e) {
      run.notes["error"] = e.what();
      r.ok = false;
    }
    if (!r.ok && run.notes.count("error") == 0) {
      run.notes["verify"] = r.run.ok ? "result is not bitwise equal to SpmvJob::reference"
                                     : "coordinator run failed: " + r.run.error;
    }
    return std::pair{r, dir};
  };

  const std::size_t tasks_per_iteration =
      job.build_graph()->graph().size() / static_cast<std::size_t>(p.iterations);
  const double started = now_s();
  std::uint64_t index = 0;
  while (loop_open(started, seconds, run.solve_s.size(), 2)) {
    auto [r, dir] = measure(index++, false);
    run.record_solve(static_cast<std::uint64_t>(p.iterations), r.ok);
    if (!r.ok) {
      fs::remove_all(dir);
      break;
    }
    run.setup_s.push_back(r.setup_s);
    run.solve_s.push_back(r.solve_s);
    run.cpu_s += r.cpu_s;
    run.peak_rss_mb.push_back(r.peak_rss_mb);
    run.flops += 2.0 * nnz * p.iterations;
    for (double st : r.steps) run.step_s.push_back(st);
    graph_build_ms.push_back(r.graph_build_ms);
    for (const auto& rep : r.reports) {
      reports.push_back(rep);
      if (rep.fetches_issued > 0) {
        fetch_p50.push_back(rep.fetch_p50_s);
        fetch_p99.push_back(rep.fetch_p99_s);
      }
    }
    coord_frames += static_cast<double>(r.coord.frames_sent + r.coord.frames_received);
    coord_bytes += static_cast<double>(r.coord.bytes_sent + r.coord.bytes_received);
    fs::remove_all(dir);
  }
  run.solver_iters = p.iterations;

  if (trace && run.steps_failed == 0) {
    const double steps = static_cast<double>(run.step_s.size());
    double fetch_bytes = 0.0;
    double frames = coord_frames;
    double fallbacks = 0.0;
    for (const auto& rep : reports) {
      fetch_bytes += static_cast<double>(rep.fetch_bytes_in);
      frames += static_cast<double>(rep.frames_sent);
      fallbacks += static_cast<double>(rep.durable_fallbacks);
    }

    obs::TraceSession::instance().start();
    auto [r, dir] = measure(index, true);
    run.record_solve(static_cast<std::uint64_t>(p.iterations), r.ok);
    Probes probes;
    {
      // Ceilings on the durable block files the traced cluster wrote, and a
      // scheduler ceiling on an in-process engine over an empty cluster.
      std::vector<std::string> files;
      const auto& m = job.matrix();
      for (int u = 0; u < p.k; ++u) {
        for (int v = 0; v < p.k; ++v) {
          files.push_back(net::BlockStore::durable_path(dir + "/durable", m.name_of(u, v)));
        }
      }
      storage::StorageConfig cfg;
      cfg.scratch_root = workdir + "/noop";
      storage::StorageCluster cluster(kNodes, cfg);
      sched::Engine engine(cluster, sched::EngineConfig{});
      probes = run_probes(m, files, engine, tasks_per_iteration, workdir, index + 1);
    }
    fs::remove_all(workdir + "/noop");
    fs::remove_all(dir);
    std::uint64_t dropped = 0;
    // Each process's spans are on its own clock, so each is digested alone.
    TraceDigest d = finish_trace(trace_out, r.solve_from, r.solve_to, dropped);
    digest_spans(r.daemon_events, d);

    add_kernel_rows(run, 2.0 * nnz * p.iterations, d.multiply_busy_s, probes.kernel_gflops);
    const storage::StorageStats none;
    add_storage_rows(run, none, obs::MetricsSnapshot{}, steps, 0.0, 0.0, 0.0, probes.read_mbps);
    add_codec_rows(run, none, probes.decode_gbps, 1.0);
    add_sched_rows(run, static_cast<double>(d.tasks), p.iterations, d.task_busy_s, r.solve_s,
                   static_cast<double>(d.resident_tasks), static_cast<double>(d.picked_tasks),
                   Log2Histogram{},
                   perfbench::median(graph_build_ms), probes.noop_us);
    const double solve_total =
        perfbench::median(run.solve_s) * static_cast<double>(run.solve_s.size());
    add_net_rows(run, steps, fetch_bytes, frames, coord_bytes,
                 perfbench::median(fetch_p50), perfbench::median(fetch_p99),
                 ratio(fetch_bytes / 1e6, solve_total), fallbacks, probes.rtt_us);
    add_trace_metrics(run, d, static_cast<std::uint64_t>(p.iterations), r.solve_s, dropped);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::from_args(argc, argv);
  const std::string workload = opts.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const double seconds = opts.get_double("seconds", 10.0);
  const bool trace = opts.get_int("trace", 0) != 0;
  const std::string workdir = opts.get("workdir", "");
  const std::string trace_out = opts.get("trace-out", "");
  if (workdir.empty()) {
    std::fprintf(stderr, "usage: perfbench_driver --workload=<name> --seed=<n> --seconds=<s> "
                         "--trace=<0|1> --workdir=<dir> [--trace-out=<file.json>]\n");
    return 2;
  }
  Log::set_level(LogLevel::Error);
  fs::create_directories(workdir);

  Run run;
  try {
    if (workload == "spmv-ooc") {
      run_spmv_ooc(run, seed, seconds, trace_out, trace, workdir);
    } else if (workload == "lanczos-ci") {
      run_lanczos_ci(run, seed, seconds, trace_out, trace, workdir);
    } else if (workload == "spmv-wire") {
      run_spmv_wire(run, seed, seconds, trace_out, trace, workdir);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    run.notes["error"] = e.what();
    run.error = true;
  }
  fs::remove_all(workdir);

  const double steps = static_cast<double>(run.step_s.size());
  const double solve_s = perfbench::median(run.solve_s);
  std::vector<double> step_ms;
  for (double s : run.step_s) step_ms.push_back(s * 1e3);
  const perfbench::Tail tail_ms = perfbench::tail(step_ms);
  std::vector<Metric> e2e = {
      {"setup_s", "s", perfbench::median(run.setup_s)},
      {"solve_s", "s", solve_s},
      {"gflops", "GFLOP/s",
       perfbench::gflops(run.flops, solve_s * static_cast<double>(run.solve_s.size()))},
      {"step_ms_p50", "ms", perfbench::median(step_ms)},
      {"step_ms_tail", "ms", tail_ms.value},
      {"cpu_s_per_step", "s", ratio(run.cpu_s, steps)},
      {"solve_peak_rss_mb", "MiB", perfbench::median(run.peak_rss_mb)},
      {"solver_iters", "count", run.solver_iters},
  };
  const bool correct = !run.error && run.steps_failed == 0 && run.steps_attempted > 0;
  const double fail_ratio =
      ratio(static_cast<double>(run.steps_failed), static_cast<double>(run.steps_attempted));

  // Everything the last line cannot carry: sample counts, the tail's
  // percentile, the failure ratio, the ledger and any failure notes.
  std::string notes = "{";
  for (const auto& [k, v] : run.notes) {
    if (notes.size() > 1) notes += ", ";
    std::string clean;
    for (char ch : v) clean += (ch == '"' || ch == '\\' || ch < ' ') ? ' ' : ch;
    notes += "\"" + k + "\": \"" + clean + "\"";
  }
  notes += "}";
  std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, \"solves\": %zu, "
              "\"setups\": %zu, \"steps\": %zu, \"step_tail_percentile\": %s, "
              "\"step_tail_samples\": %zu, \"fail_ratio\": %s, \"notes\": %s, "
              "\"setup_s\": %s, \"solve_s\": %s, \"peak_rss_mb\": %s, \"ledger\": %s}}\n",
              workload.c_str(), static_cast<unsigned long long>(seed), run.solve_s.size(),
              run.setup_s.size(), run.step_s.size(), json_number(tail_ms.percentile).c_str(),
              tail_ms.samples, json_number(fail_ratio).c_str(), notes.c_str(), json_list(run.setup_s).c_str(), json_list(run.solve_s).c_str(),
              json_list(run.peak_rss_mb).c_str(), json_metrics(run.layer).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(run.steps_attempted, 1)),
              static_cast<unsigned long long>(run.steps_failed),
              json_metrics(trace ? run.layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
