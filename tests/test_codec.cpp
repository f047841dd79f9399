// spmv::codec — the per-block compression layer of the storage hot path:
//
//  * CodecConfig: the DOOC_CODEC key=value grammar, rejection of malformed
//    specs;
//  * round trip: every codec x format pair decodes bitwise-identically, on
//    generated and edge-case matrices; non-matrix payloads travel raw;
//  * hostile input: truncated frames, ratio-bomb headers (capped before any
//    allocation), CRC mismatches and malformed section streams all surface
//    as typed CodecError — including hand-forged frames whose CRCs are
//    valid but whose varint streams are not;
//  * BufferPool: aligned, padded acquisitions; free-list reuse; bounded
//    retention;
//  * storage + engine: encoded blocks decode transparently on the fetch
//    path, solver results stay bitwise identical across codec modes (incl.
//    read_ahead and the O_DIRECT fallback), fault injection composes with
//    compressed blocks, and the decode cost shows up as kBlameDecode;
//  * DES: the virtual decode stage moves makespan the right way with
//    codec_ratio/decode_rate and attributes the same kBlameDecode category
//    as the real engine — the cross-backend parity the ablation relies on.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "fault/fault_plan.hpp"
#include "obs/causal.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "sched/engine.hpp"
#include "simcluster/testbed.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/block_grid.hpp"
#include "spmv/codec.hpp"
#include "spmv/generator.hpp"
#include "spmv/sell.hpp"
#include "storage/buffer_pool.hpp"
#include "storage/storage_cluster.hpp"
#include "test_util.hpp"

namespace dooc {
namespace {

using spmv::codec::CodecConfig;
using spmv::codec::CodecError;
using spmv::codec::Mode;

std::vector<std::byte> serialize(const spmv::CsrMatrix& m, bool sell) {
  std::vector<std::byte> csr;
  serialize_csr(m, csr);
  if (!sell) return csr;
  std::vector<std::byte> out;
  serialize_sell(spmv::build_sell(spmv::CsrView::from_bytes(csr), 8, 64), out);
  return out;
}

void expect_bitwise_round_trip(const std::vector<std::byte>& raw, const CodecConfig& cfg,
                               const std::string& what) {
  const auto frame = spmv::codec::encode_block(raw, cfg);
  ASSERT_TRUE(frame.has_value()) << what << ": encoder declined a matrix payload";
  ASSERT_TRUE(spmv::codec::is_encoded(frame->span())) << what;
  EXPECT_EQ(spmv::codec::decoded_bytes(frame->span(), raw.size()), raw.size()) << what;
  const DataBuffer decoded = spmv::codec::decode_block(frame->span(), raw.size());
  ASSERT_EQ(decoded.size(), raw.size()) << what;
  EXPECT_EQ(std::memcmp(decoded.data(), raw.data(), raw.size()), 0)
      << what << ": decode is not bitwise identical";
}

// ---------------------------------------------------------------------------
// CodecConfig: the DOOC_CODEC grammar
// ---------------------------------------------------------------------------

TEST(CodecConfig, ParseReadsTheFullGrammar) {
  const CodecConfig c =
      CodecConfig::parse("adaptive,min_ratio=1.25,shuffle=0,direct_io=1,read_ahead=3");
  EXPECT_EQ(c.mode, Mode::Adaptive);
  EXPECT_DOUBLE_EQ(c.min_ratio, 1.25);
  EXPECT_FALSE(c.shuffle_values);
  EXPECT_TRUE(c.direct_io);
  EXPECT_EQ(c.read_ahead, 3);

  EXPECT_EQ(CodecConfig::parse("mode=on").mode, Mode::On);
  EXPECT_EQ(CodecConfig::parse("off").mode, Mode::Off);
  EXPECT_EQ(CodecConfig::parse("").mode, Mode::Off);
  EXPECT_TRUE(CodecConfig::parse("on").enabled());
}

TEST(CodecConfig, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(CodecConfig::parse("mode=sideways"), InvalidArgument);
  EXPECT_THROW(CodecConfig::parse("on,zstd_level=3"), InvalidArgument);
  EXPECT_THROW(CodecConfig::parse("on,min_ratio=fast"), InvalidArgument);
  EXPECT_THROW(CodecConfig::parse("on,min_ratio=0.5"), InvalidArgument);
  EXPECT_THROW(CodecConfig::parse("on,read_ahead=-1"), InvalidArgument);
}

TEST(CodecConfig, ParsesTheDocumentedAndBenchmarkSpecs) {
  const CodecConfig tuned = CodecConfig::parse("adaptive,min_ratio=1.2,read_ahead=2");
  EXPECT_EQ(tuned.mode, Mode::Adaptive);
  EXPECT_DOUBLE_EQ(tuned.min_ratio, 1.2);
  EXPECT_EQ(tuned.read_ahead, 2);
  EXPECT_TRUE(tuned.shuffle_values);
  EXPECT_FALSE(tuned.direct_io);
  EXPECT_EQ(CodecConfig::parse("adaptive").mode, Mode::Adaptive);

  const CodecConfig on = CodecConfig::parse("on");
  EXPECT_EQ(on.mode, Mode::On);
  EXPECT_DOUBLE_EQ(on.min_ratio, CodecConfig{}.min_ratio);
  EXPECT_EQ(on.read_ahead, 0);
  const CodecConfig off = CodecConfig::parse("off");
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.shuffle_values);
}

// ---------------------------------------------------------------------------
// Round trip: every codec x format pair, bitwise
// ---------------------------------------------------------------------------

TEST(CodecRoundTrip, EveryCodecFormatPairIsBitwise) {
  std::vector<std::pair<const char*, spmv::CsrMatrix>> kinds;
  kinds.emplace_back("uniform", spmv::generate_uniform_gap(512, 512, 6.0, 0xc0dec));
  kinds.emplace_back("power-law", spmv::generate_power_law(512, 512, 12.0, 1.5, 0xc0dec));
  kinds.emplace_back("banded", spmv::generate_banded(512, 9, 4.0));

  CodecConfig noshuffle;
  noshuffle.mode = Mode::On;
  noshuffle.shuffle_values = false;
  const std::pair<const char*, CodecConfig> variants[] = {
      {"on", CodecConfig{Mode::On}},
      {"on-noshuffle", noshuffle},
      {"adaptive", CodecConfig{Mode::Adaptive}},
  };

  for (const auto& [kind, matrix] : kinds) {
    for (const bool sell : {false, true}) {
      const std::vector<std::byte> raw = serialize(matrix, sell);
      for (const auto& [vname, cfg] : variants) {
        expect_bitwise_round_trip(
            raw, cfg, std::string(kind) + "/" + (sell ? "sell" : "csr") + "/" + vname);
      }
    }
  }
}

TEST(CodecRoundTrip, EdgeMatricesSurvive) {
  // Empty matrix, single-row matrix, and a tiny fully dense one — the
  // degenerate shapes where off-by-one section logic would show.
  spmv::CsrMatrix empty;
  empty.rows = 0;
  empty.cols = 0;
  empty.row_ptr = {0};

  spmv::CsrMatrix single;
  single.rows = 1;
  single.cols = 8;
  single.row_ptr = {0, 3};
  single.col_idx = {0, 3, 7};
  single.values = {1.0, -2.5, 1e300};

  spmv::CsrMatrix dense;
  dense.rows = 16;
  dense.cols = 16;
  dense.row_ptr.push_back(0);
  for (std::uint64_t r = 0; r < 16; ++r) {
    for (std::uint32_t c = 0; c < 16; ++c) {
      dense.col_idx.push_back(c);
      dense.values.push_back(static_cast<double>(r * 16 + c) * 0.25);
    }
    dense.row_ptr.push_back(dense.col_idx.size());
  }

  const CodecConfig on{Mode::On};
  int i = 0;
  for (const spmv::CsrMatrix* m : {&empty, &single, &dense}) {
    for (const bool sell : {false, true}) {
      expect_bitwise_round_trip(serialize(*m, sell), on,
                                "edge#" + std::to_string(i) + (sell ? "/sell" : "/csr"));
    }
    ++i;
  }
}

TEST(CodecRoundTrip, NonMatrixPayloadTravelsRaw) {
  // Payloads without a matrix magic (vectors, scratch buffers) are never
  // encoded, and decode_if_encoded passes them through untouched.
  DataBuffer blob(1024);
  auto bytes = blob.as<std::uint64_t>();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& w : bytes) {
    x ^= x << 13;
    x ^= x >> 7;
    w = x ^= x << 17;
  }
  EXPECT_FALSE(spmv::codec::encode_block(blob.span(), CodecConfig{Mode::On}).has_value());
  const DataBuffer through = spmv::codec::decode_if_encoded(blob, blob.size());
  EXPECT_EQ(through, blob) << "pass-through must alias, not copy";
}

TEST(CodecAdaptive, GateKeepsBlocksRawBelowMinRatio) {
  const auto m = spmv::generate_power_law(256, 256, 8.0, 1.5, 42);
  const std::vector<std::byte> raw = serialize(m, false);

  CodecConfig greedy;
  greedy.mode = Mode::Adaptive;
  greedy.min_ratio = 100.0;  // no real matrix compresses 100x
  EXPECT_FALSE(spmv::codec::encode_block(raw, greedy).has_value());

  CodecConfig modest;
  modest.mode = Mode::Adaptive;
  spmv::codec::EncodeStats stats;
  const auto frame = spmv::codec::encode_block(raw, modest, &stats);
  ASSERT_TRUE(frame.has_value());
  EXPECT_GE(stats.ratio(), modest.min_ratio);
  EXPECT_GT(stats.index_ratio(), 1.0) << "column deltas must varint-pack";
}

TEST(CodecEstimate, PredictsAnIndexWinForClusteredColumns) {
  const auto m = spmv::generate_power_law(1024, 1024, 16.0, 1.5, 7);
  const std::vector<std::byte> raw = serialize(m, false);
  const spmv::codec::CodecEstimate est = spmv::codec::estimate_block(raw);
  EXPECT_GT(est.sampled_deltas, 0u);
  EXPECT_GT(est.index_ratio, 1.0);
  EXPECT_GE(est.overall_ratio, 1.0);

  spmv::codec::EncodeStats stats;
  ASSERT_TRUE(spmv::codec::encode_block(raw, CodecConfig{Mode::On}, &stats).has_value());
  // The estimator is a sampler, not an oracle: right direction, right
  // ballpark (within 2x of the achieved index ratio).
  EXPECT_LT(est.index_ratio, stats.index_ratio() * 2.0);
  EXPECT_GT(est.index_ratio, stats.index_ratio() * 0.5);
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

std::vector<std::byte> valid_frame(std::vector<std::byte>* raw_out = nullptr) {
  const auto m = spmv::generate_power_law(256, 256, 8.0, 1.5, 99);
  std::vector<std::byte> raw = serialize(m, false);
  const auto frame = spmv::codec::encode_block(raw, CodecConfig{Mode::On});
  EXPECT_TRUE(frame.has_value());
  if (raw_out) *raw_out = std::move(raw);
  return {frame->data(), frame->data() + frame->size()};
}

void put_u64(std::vector<std::byte>& buf, std::size_t offset, std::uint64_t v) {
  std::memcpy(buf.data() + offset, &v, 8);
}

/// Hand-forge a frame around an arbitrary body with VALID CRCs, so decode
/// gets past the integrity checks and into the section-stream parser.
std::vector<std::byte> forge_frame(const std::vector<std::byte>& body, std::uint64_t raw_bytes) {
  std::vector<std::byte> frame(spmv::codec::kCodecHeaderBytes + body.size());
  put_u64(frame, 0, spmv::codec::kCodecMagic);
  put_u64(frame, 8, spmv::kEndianProbe);
  put_u64(frame, 16, raw_bytes);
  put_u64(frame, 24, body.size());
  put_u64(frame, 32, 0);  // flags
  const std::uint64_t crc_word =
      static_cast<std::uint64_t>(common::crc32({body.data(), body.size()}));
  put_u64(frame, 40, crc_word);  // raw CRC never reached on these paths
  std::memcpy(frame.data() + spmv::codec::kCodecHeaderBytes, body.data(), body.size());
  return frame;
}

TEST(CodecHostile, TruncatedFramesThrow) {
  const std::vector<std::byte> frame = valid_frame();
  const std::uint64_t cap = 1ull << 30;
  // Header cut short.
  EXPECT_THROW((void)spmv::codec::decoded_bytes(
                   {frame.data(), spmv::codec::kCodecHeaderBytes - 1}, cap),
               CodecError);
  // Body cut short of what the header declares.
  EXPECT_THROW((void)spmv::codec::decode_block({frame.data(), frame.size() - 1}, cap), CodecError);
  EXPECT_THROW((void)spmv::codec::decode_block({frame.data(), frame.size() / 2}, cap), CodecError);
}

TEST(CodecHostile, RatioBombHeaderIsCappedBeforeAllocation) {
  std::vector<std::byte> frame = valid_frame();
  put_u64(frame, 16, 1ull << 60);  // claim an exabyte decodes out of this
  try {
    (void)spmv::codec::decode_block(frame, 64ull << 20);
    FAIL() << "a declared size past the cap must throw";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds cap"), std::string::npos) << e.what();
  }
}

TEST(CodecHostile, BodyCorruptionFailsTheCrc) {
  std::vector<std::byte> raw;
  std::vector<std::byte> frame = valid_frame(&raw);
  frame[spmv::codec::kCodecHeaderBytes + frame.size() / 2] ^= std::byte{0x40};
  try {
    (void)spmv::codec::decode_block(frame, raw.size());
    FAIL() << "a flipped body byte must fail the body CRC";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
  }
}

TEST(CodecHostile, ForeignEndianAndBadMagicRejected) {
  const std::uint64_t cap = 1ull << 30;
  std::vector<std::byte> frame = valid_frame();
  put_u64(frame, 8, 0x0807060504030201ull);
  EXPECT_THROW((void)spmv::codec::decode_block(frame, cap), CodecError);
  put_u64(frame, 8, spmv::kEndianProbe);
  put_u64(frame, 0, 0x1111111111111111ull);
  EXPECT_THROW((void)spmv::codec::decoded_bytes(frame, cap), CodecError);
}

TEST(CodecHostile, ForgedSectionStreamsThrowTyped) {
  // Valid CRCs, malicious bodies: the section parser must reject each shape
  // with a CodecError, never crash or over-read.
  // 1. Overlong varint: eleven continuation bytes can't encode a u64.
  std::vector<std::byte> overlong(11, std::byte{0x80});
  EXPECT_THROW((void)spmv::codec::decode_block(forge_frame(overlong, 64), 64), CodecError);
  // 2. Varint cut off by the end of the body.
  std::vector<std::byte> cut = {std::byte{0x80}};
  EXPECT_THROW((void)spmv::codec::decode_block(forge_frame(cut, 64), 64), CodecError);
  // 3. raw_len varint present but the section header ends the body.
  std::vector<std::byte> headless = {std::byte{0x10}};
  EXPECT_THROW((void)spmv::codec::decode_block(forge_frame(headless, 64), 64), CodecError);
  // 4. Raw section whose enc_len overruns the body.
  std::vector<std::byte> overrun = {std::byte{0x08}, std::byte{0x00}, std::byte{0x7F}};
  EXPECT_THROW((void)spmv::codec::decode_block(forge_frame(overrun, 64), 64), CodecError);
  // 5. Unknown section encoding.
  std::vector<std::byte> unknown = {std::byte{0x08}, std::byte{0x09}, std::byte{0x08},
                                    std::byte{0},    std::byte{0},    std::byte{0},
                                    std::byte{0},    std::byte{0},    std::byte{0},
                                    std::byte{0},    std::byte{0}};
  EXPECT_THROW((void)spmv::codec::decode_block(forge_frame(unknown, 8), 8), CodecError);
  // 6. Sections that exceed the declared decoded size.
  std::vector<std::byte> oversize = {std::byte{0x20}, std::byte{0x00}, std::byte{0x20}};
  oversize.resize(3 + 0x20, std::byte{0});
  EXPECT_THROW((void)spmv::codec::decode_block(forge_frame(oversize, 8), 8), CodecError);
}

TEST(CodecHostile, HugeZigzagDeltaIsRejectedWithoutOverflow) {
  // A zigzag-u32 section whose second delta unzigzags to INT64_MAX: added
  // to a nonzero prefix this overflowed the signed accumulator before the
  // range check (UB under UBSan). The wrapped unsigned sum must land
  // outside [0, 2^32) and throw the typed range error instead.
  std::vector<std::byte> body = {std::byte{0x08},   // raw_len = 8 (two u32s)
                                 std::byte{0x02},   // encoding: zigzag-u32
                                 std::byte{0x0B},   // enc_len = 11
                                 std::byte{0x02}};  // zigzag(+1) -> prev = 1
  body.push_back(std::byte{0xFE});  // varint(2^64 - 2): unzigzag = INT64_MAX
  body.insert(body.end(), 8, std::byte{0xFF});
  body.push_back(std::byte{0x01});
  try {
    (void)spmv::codec::decode_block(forge_frame(body, 8), 8);
    FAIL() << "an out-of-range reconstructed u32 must throw";
  } catch (const CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
  }

  // The INT64_MIN twin (zigzag 2^64 - 1) from a zero prefix wraps high too.
  std::vector<std::byte> negative = {std::byte{0x04},  // raw_len = 4 (one u32)
                                     std::byte{0x02},  // encoding: zigzag-u32
                                     std::byte{0x0A},  // enc_len = 10
                                     std::byte{0xFF}};
  negative.insert(negative.end(), 8, std::byte{0xFF});
  negative.push_back(std::byte{0x01});
  EXPECT_THROW((void)spmv::codec::decode_block(forge_frame(negative, 4), 4), CodecError);
}

TEST(CodecEstimate, HostileRowPtrValuesDoNotOverflowTheWidthHistogram) {
  // CsrView::from_bytes validates sizes, not row_ptr values: a corrupt file
  // can carry a row_ptr entry of 2^64 - 1, whose sampled delta needs the
  // full 10-byte varint width. The estimator's width histogram must have a
  // slot for it (it used to write one past the array on the stack).
  const auto m = spmv::generate_power_law(64, 64, 4.0, 1.5, 5);
  std::vector<std::byte> raw = serialize(m, false);
  put_u64(raw, 5 * 8 + 8, 0xFFFFFFFFFFFFFFFFull);  // row_ptr[1]
  const spmv::codec::CodecEstimate est = spmv::codec::estimate_block(raw);
  EXPECT_GT(est.sampled_deltas, 0u) << "the corrupt pointer section must still be sampled";
}

TEST(CodecHostile, ProbeFrameValidatesTheWholeFile) {
  const std::vector<std::byte> frame = valid_frame();
  const std::span<const std::byte> head(frame.data(), spmv::codec::kCodecHeaderBytes);
  const std::uint64_t cap = 1ull << 30;
  EXPECT_EQ(spmv::codec::probe_frame(head, frame.size(), cap),
            spmv::codec::decoded_bytes(frame, cap));
  // A file size that disagrees with header+body is a truncated or padded
  // file — the scan must not trust it.
  EXPECT_THROW((void)spmv::codec::probe_frame(head, frame.size() - 1, cap), CodecError);
  EXPECT_THROW((void)spmv::codec::probe_frame(head, frame.size() + 8, cap), CodecError);
  EXPECT_THROW((void)spmv::codec::probe_frame(head, frame.size(), 16), CodecError);
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

TEST(CodecBufferPool, AcquisitionsAreAlignedAndPadded) {
  storage::BufferPool pool;
  const std::size_t align = pool.alignment();
  EXPECT_GE(align, 512u) << "O_DIRECT needs at least sector alignment";
  DataBuffer b = pool.acquire(1000);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % align, 0u);
  EXPECT_EQ(pool.padded_capacity(1000) % align, 0u);
  EXPECT_GE(pool.padded_capacity(1000), 1000u);
  // The padding contract: an O_DIRECT pread of the rounded-up length may
  // land through data() — write the full padded extent to prove it's ours.
  std::memset(b.data(), 0xAB, pool.padded_capacity(1000));
}

TEST(CodecBufferPool, FreeListReusesAndRetentionIsBounded) {
  storage::BufferPool::Config cfg;
  cfg.max_retained = 4;
  storage::BufferPool pool(cfg);

  {
    DataBuffer first = pool.acquire(8192);
  }  // returns to the free list
  ASSERT_EQ(pool.stats().retained, 1u);
  {
    DataBuffer again = pool.acquire(8192);
    EXPECT_EQ(pool.stats().reuses, 1u) << "same size class must come from the free list";
    EXPECT_EQ(pool.stats().outstanding, 1u);
  }

  // A burst bigger than the retention cap: the excess goes back to the
  // allocator instead of pinning memory.
  std::vector<DataBuffer> burst;
  for (int i = 0; i < 12; ++i) burst.push_back(pool.acquire(8192));
  EXPECT_EQ(pool.stats().outstanding, 12u);
  burst.clear();
  const storage::BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_LE(s.retained, static_cast<std::uint64_t>(cfg.max_retained));
  EXPECT_GE(s.allocations, 12u);
}

TEST(CodecBufferPool, BuffersOutliveThePool) {
  DataBuffer survivor;
  {
    storage::BufferPool pool;
    survivor = pool.acquire(256);
    survivor.as<std::uint64_t>()[0] = 0xFEEDFACE;
  }
  EXPECT_EQ(survivor.as<std::uint64_t>()[0], 0xFEEDFACEu) << "deleter must not dangle";
}

// ---------------------------------------------------------------------------
// Storage + engine: transparent decode, fault interop, blame parity
// ---------------------------------------------------------------------------

struct SolveOutcome {
  std::vector<double> result;
  storage::StorageStats stats;
  double decode_blame_us = 0.0;
  double compression_ratio = 1.0;
};

/// Two-iteration distributed SpMV under a memory squeeze that forces
/// per-iteration block reloads from the scratch files — the path where
/// encoded blocks must decode on the fetchers.
SolveOutcome solve_with(const CodecConfig& codec, std::shared_ptr<fault::FaultPlan> plan = nullptr,
                        int nodes = 2) {
  testutil::TempDir dir("codec_solve");
  storage::StorageConfig cfg;
  cfg.scratch_root = dir.str();
  cfg.memory_budget = 256ull << 10;
  cfg.throttle_read_bw = 80e6;  // loads must dominate for blame to see them
  cfg.codec = codec;
  cfg.fault_plan = std::move(plan);
  storage::StorageCluster cluster(nodes, cfg);

  const auto m = spmv::generate_power_law(768, 768, 48.0, 1.5, 2012);
  const auto owner = spmv::row_strip_owner(nodes);
  const auto deployed = spmv::deploy_matrix(cluster, m, 2, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t i) { return 1.0 + 1e-3 * i; });

  solver::IteratedSpmvConfig config;
  config.iterations = 2;
  config.mode = solver::ReductionMode::Interleaved;
  config.inter_iteration_sync = false;
  solver::IteratedSpmv driver(cluster, deployed, config);

  obs::TraceSession::instance().start();
  sched::Engine engine(cluster, sched::EngineConfig{});
  driver.run(engine);
  const std::vector<obs::Event> events = obs::TraceSession::instance().stop();

  SolveOutcome out;
  out.result = driver.gather_result();
  out.stats = cluster.total_stats();
  out.compression_ratio = deployed.compression_ratio();
  const obs::causal::CausalGraph graph =
      obs::causal::CausalGraph::build(obs::parse_chrome_trace(obs::chrome_trace_json(events)));
  out.decode_blame_us = graph.blame().get(obs::causal::kBlameDecode);
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(CodecStorage, EncodedBlocksDecodeTransparentlyAndBitExactly) {
  const SolveOutcome raw = solve_with(CodecConfig{});
  const SolveOutcome on = solve_with(CodecConfig{Mode::On});

  ASSERT_FALSE(raw.result.empty());
  EXPECT_TRUE(bitwise_equal(raw.result, on.result))
      << "codec must be invisible to the solver's numerics";
  EXPECT_EQ(raw.stats.decoded_blocks, 0u);
  EXPECT_GT(on.stats.decoded_blocks, 0u) << "the squeeze must force reloads of encoded blocks";
  EXPECT_GT(on.stats.decoded_bytes, 0u);
  EXPECT_GT(on.compression_ratio, 1.0);
  EXPECT_DOUBLE_EQ(raw.compression_ratio, 1.0);
}

TEST(CodecStorage, DecodeCostSurfacesAsItsOwnBlameCategory) {
  // Single node: reductions stay local, so the critical-path walk reaches
  // an encoded matrix-block load (Load nodes have no predecessors — with
  // more nodes the walk ends on a raw partial-result transfer instead).
  // This is the engine half of the DES parity in CodecSim below.
  const SolveOutcome raw = solve_with(CodecConfig{}, nullptr, 1);
  const SolveOutcome on = solve_with(CodecConfig{Mode::On}, nullptr, 1);
  EXPECT_EQ(raw.decode_blame_us, 0.0);
  EXPECT_GT(on.decode_blame_us, 0.0)
      << "decode on the fetch path must split out of the load's demand-io";
}

TEST(CodecStorage, ReadAheadAndDirectIoKeepResultsBitExact) {
  const SolveOutcome raw = solve_with(CodecConfig{});
  const SolveOutcome tuned = solve_with(CodecConfig::parse("on,read_ahead=2,direct_io=1"));
  // direct_io falls back gracefully where the filesystem refuses O_DIRECT,
  // so this asserts behaviour, not the syscall flavor.
  EXPECT_TRUE(bitwise_equal(raw.result, tuned.result));
  EXPECT_GT(tuned.stats.decoded_blocks, 0u);
}

TEST(CodecStorage, FaultInjectionComposesWithCompressedBlocks) {
  const SolveOutcome clean = solve_with(CodecConfig{});
  auto plan = std::make_shared<fault::FaultPlan>(
      fault::FaultPlan::parse("seed=3,read_error=0.3,retries=10,backoff=1us:4us"));
  const SolveOutcome faulty = solve_with(CodecConfig{Mode::Adaptive}, plan);

  EXPECT_GT(plan->injected(fault::FaultKind::ReadError), 0u)
      << "30% read errors across dozens of block loads must fire";
  EXPECT_GT(faulty.stats.decoded_blocks, 0u);
  EXPECT_TRUE(bitwise_equal(clean.result, faulty.result))
      << "retried reads of codec frames must still decode bit-exactly";
}

// ---------------------------------------------------------------------------
// DES: modeled decode cost, blame-category parity with the engine
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

TEST(CodecSim, CompressionMovesMakespanAndDecodeRateCharges) {
  const sim::TestbedExperiment raw = small_experiment();
  sim::TestbedExperiment packed = small_experiment();
  packed.codec_ratio = 2.0;

  const double t_raw = sim::run_testbed(raw).time_seconds();
  const double t_packed = sim::run_testbed(packed).time_seconds();
  EXPECT_LT(t_packed, t_raw) << "half the stored bytes over the same device must be faster";

  // Throttle the virtual decoder below the device: now the decode stage
  // dominates and the compressed run must cost MORE than its fast-decode
  // twin — the DES models the trade, not just the win.
  sim::SimResources slow;
  slow.decode_rate = 5e7;
  const double t_slow_decode = sim::run_testbed(packed, slow).time_seconds();
  EXPECT_GT(t_slow_decode, t_packed);
}

TEST(CodecSim, VirtualDecodeSpansFeedTheSameBlameCategory) {
  // Single node (reductions stay local, so the critical-path walk reaches a
  // matrix-block load, not a raw partial transfer) under a memory squeeze
  // that forces per-iteration reloads of the encoded blocks.
  sim::TestbedExperiment packed = small_experiment();
  packed.nodes = 1;
  packed.codec_ratio = 2.0;
  sim::SimResources squeeze;
  squeeze.node_memory = 192ull << 20;  // < 4 blocks x 64 MB

  obs::TraceSession::instance().start();
  (void)sim::run_testbed(packed, squeeze);
  const std::vector<obs::Event> events = obs::TraceSession::instance().stop();
  const obs::causal::CausalGraph graph =
      obs::causal::CausalGraph::build(obs::parse_chrome_trace(obs::chrome_trace_json(events)));
  EXPECT_GT(graph.blame().get(obs::causal::kBlameDecode), 0.0)
      << "the DES must attribute decode time under the same category as the engine";

  sim::TestbedExperiment raw = packed;
  raw.codec_ratio = 1.0;
  obs::TraceSession::instance().start();
  (void)sim::run_testbed(raw, squeeze);
  const std::vector<obs::Event> raw_events = obs::TraceSession::instance().stop();
  const obs::causal::CausalGraph raw_graph =
      obs::causal::CausalGraph::build(obs::parse_chrome_trace(obs::chrome_trace_json(raw_events)));
  EXPECT_EQ(raw_graph.blame().get(obs::causal::kBlameDecode), 0.0)
      << "raw stored blocks must not emit virtual decode spans";
}

}  // namespace
}  // namespace dooc
