// Tests for the .agc compiled-artifact layer (src/artifact + the
// core/artifact_io glue): CRC32C correctness against an independent
// bitwise reference (covers the hardware SSE4.2 path when the host has
// it), the corruption-detection ladder (truncation, byte flips in every
// section, bad magic, future format version), the zero-copy load
// contract, and the round-trip property — a loaded artifact must run
// bit-identically to the in-process staged original across both
// execution engines, pool on/off, and 8-way concurrent Run().
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/crc32c.h"
#include "core/api.h"
#include "core/artifact_io.h"
#include "exec/value.h"
#include "obs/run_metadata.h"
#include "serve/server.h"
#include "support/error.h"
#include "tensor/allocator.h"
#include "tensor/tensor.h"
#include "workloads/rnn.h"

namespace ag {
namespace {

using core::AutoGraph;
using core::StagedFunction;
using workloads::MakeRnnInputs;
using workloads::RnnConfig;
using workloads::RnnInputs;

// ---------------------------------------------------------------------
// CRC32C

// Independent bitwise reference: one bit at a time, reflected
// Castagnoli polynomial. Deliberately shares no code with src/artifact.
uint32_t ReferenceCrc32c(const uint8_t* data, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownVector) {
  // The standard CRC32C check value.
  EXPECT_EQ(artifact::Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, MatchesBitwiseReferenceAcrossSizes) {
  // Sizes straddle the 3x2048-byte threshold where the hardware path
  // switches to three interleaved streams merged with a precomputed
  // shift operator — a combine bug would only show at >= 6144 bytes.
  const size_t sizes[] = {0, 1, 7, 8, 63, 64, 2047, 2048,
                          6143, 6144, 6145, 20000, 100000};
  std::vector<uint8_t> buf(100000);
  uint32_t lcg = 0x12345678u;
  for (auto& b : buf) {
    lcg = lcg * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(lcg >> 24);
  }
  for (const size_t n : sizes) {
    EXPECT_EQ(artifact::Crc32c(buf.data(), n),
              ReferenceCrc32c(buf.data(), n, 0))
        << "size " << n;
  }
}

TEST(Crc32cTest, SeedChainsPartialComputations) {
  std::vector<uint8_t> buf(10000);
  uint32_t lcg = 0xCAFEF00Du;
  for (auto& b : buf) {
    lcg = lcg * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(lcg >> 16);
  }
  const uint32_t whole = artifact::Crc32c(buf.data(), buf.size());
  for (const size_t k : {size_t{1}, size_t{63}, size_t{4096}, size_t{9999}}) {
    const uint32_t part = artifact::Crc32c(buf.data(), k);
    EXPECT_EQ(artifact::Crc32c(buf.data() + k, buf.size() - k, part), whole)
        << "split at " << k;
  }
}

// ---------------------------------------------------------------------
// Shared fixtures

RnnConfig SmallConfig() {
  RnnConfig config;
  config.batch = 2;
  config.seq_len = 3;
  config.input_size = 8;
  config.hidden = 16;
  return config;
}

std::vector<exec::RuntimeValue> FeedsFor(const RnnInputs& inputs) {
  return {inputs.input_data, inputs.initial_state, inputs.sequence_len};
}

// Stages both top-level functions of the RNN module, like a serving
// process would; returns dynamic_rnn and (optionally) rnn_cell.
StagedFunction StageModule(AutoGraph& agc, const RnnInputs& inputs,
                           StagedFunction* cell_out) {
  workloads::InstallRnn(agc, inputs);
  StagedFunction cell = agc.Stage(
      "rnn_cell", {core::StageArg::Placeholder("x"),
                   core::StageArg::Placeholder("h")});
  StagedFunction rnn = agc.Stage(
      "dynamic_rnn",
      {core::StageArg::Placeholder("input_data"),
       core::StageArg::Placeholder("initial_state"),
       core::StageArg::Placeholder("sequence_len", DType::kInt32)});
  if (cell_out != nullptr) *cell_out = std::move(cell);
  return rnn;
}

std::string TempArtifactPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("artifact_test_" + tag))
             .string() +
         ".agc";
}

// Writes the 2-function RNN module artifact and returns the path.
std::string WriteModuleArtifact(const RnnInputs& inputs,
                                const std::string& tag) {
  const std::string path = TempArtifactPath(tag);
  AutoGraph agc;
  StagedFunction cell;
  const StagedFunction rnn = StageModule(agc, inputs, &cell);
  core::SaveArtifact(path, {{"rnn_cell", &cell}, {"dynamic_rnn", &rnn}});
  return path;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.dtype(), b.dtype()) << what;
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.num_elements())),
            0)
      << what;
}

// ---------------------------------------------------------------------
// Round-trip property

// Runs `original` and `loaded` on `feeds` across both executors
// (sequential at inter_op 0, parallel drain at 4) and pool on/off, and
// requires bit-identical outputs. The load path installed every
// serialized plan, so `loaded` must never compile one.
void ExpectRoundTripBitIdentical(StagedFunction& original,
                                 StagedFunction& loaded,
                                 const std::vector<exec::RuntimeValue>& feeds) {
  ASSERT_EQ(loaded.feed_names, original.feed_names);
  for (const int inter_op : {0, 4}) {
    for (const bool pool : {true, false}) {
      obs::RunOptions options;
      options.inter_op_threads = inter_op;
      options.buffer_pool = pool;
      const auto want = original.Run(feeds, &options);
      const auto got = loaded.Run(feeds, &options);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ExpectBitIdentical(
            exec::AsTensor(got[i]), exec::AsTensor(want[i]),
            "output " + std::to_string(i) + " inter_op=" +
                std::to_string(inter_op) + " pool=" + std::to_string(pool));
      }
    }
  }
  EXPECT_EQ(loaded.session->stats().plans_compiled.load(), 0);
}

TEST(ArtifactRoundTrip, BitIdenticalAcrossEnginesAndPool) {
  const RnnInputs inputs = MakeRnnInputs(SmallConfig());
  const std::vector<exec::RuntimeValue> feeds = FeedsFor(inputs);

  AutoGraph agc;
  StagedFunction original = StageModule(agc, inputs, nullptr);
  const std::string path = WriteModuleArtifact(inputs, "roundtrip");
  auto fns = core::StageFromArtifact(path);
  ASSERT_EQ(fns.size(), 2u);
  ASSERT_TRUE(fns.count("rnn_cell"));
  ASSERT_TRUE(fns.count("dynamic_rnn"));
  ExpectRoundTripBitIdentical(original, fns.at("dynamic_rnn"), feeds);
  std::remove(path.c_str());
}

TEST(ArtifactRoundTrip, CondInsideWhileBitIdentical) {
  // A Cond nested in a While body, both capturing from the enclosing
  // graph: subgraph attrs, capture lists and the nested sub-plans all
  // survive the container — the paper's deploy-without-Python property.
  AutoGraph agc;
  agc.LoadSource(R"(
def f(x, n):
  i = tf.constant(0)
  while i < n:
    if x > 100.0:
      x = x / 2.0
    else:
      x = x * 3.0
    i = i + 1
  return x
)");
  StagedFunction original = agc.Stage(
      "f", {core::StageArg::Placeholder("x"),
            core::StageArg::Placeholder("n", DType::kInt32)});
  const std::string path = TempArtifactPath("cond_in_while");
  core::SaveArtifact(path, {{"f", &original}});
  auto fns = core::StageFromArtifact(path);
  ASSERT_EQ(fns.size(), 1u);
  ASSERT_TRUE(fns.count("f"));
  ExpectRoundTripBitIdentical(
      original, fns.at("f"), {Tensor::Scalar(7.0f), Tensor::ScalarInt(5)});
  std::remove(path.c_str());
}

TEST(ArtifactRoundTrip, EightThreadParallelRunsBitIdentical) {
  const RnnInputs inputs = MakeRnnInputs(SmallConfig());
  const std::vector<exec::RuntimeValue> feeds = FeedsFor(inputs);

  AutoGraph agc;
  StagedFunction original = StageModule(agc, inputs, nullptr);
  const auto want = original.Run(feeds);

  const std::string path = WriteModuleArtifact(inputs, "parallel");
  auto fns = core::StageFromArtifact(path);
  StagedFunction& loaded = fns.at("dynamic_rnn");

  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 4;
  std::vector<std::vector<exec::RuntimeValue>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        results[t] = loaded.Run(feeds);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), want.size()) << "thread " << t;
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectBitIdentical(exec::AsTensor(results[t][i]),
                         exec::AsTensor(want[i]),
                         "thread " + std::to_string(t) + " output " +
                             std::to_string(i));
    }
  }
  EXPECT_EQ(loaded.session->stats().plans_compiled.load(), 0);
  std::remove(path.c_str());
}

TEST(ArtifactRoundTrip, LoadIsZeroCopyForWeights) {
  const RnnInputs inputs = MakeRnnInputs(SmallConfig());
  const std::string path = WriteModuleArtifact(inputs, "zerocopy");

  const int64_t alloc0 = tensor::ThreadAllocCount();
  auto fns = core::StageFromArtifact(path);
  const int64_t load_allocs = tensor::ThreadAllocCount() - alloc0;
  // Every weight tensor wraps the read-only file mapping; the load path
  // allocates no fresh tensor buffers at all.
  EXPECT_EQ(load_allocs, 0);

  // map_tensors=false is the copying fallback — same results, heap
  // weights, mapping released at return.
  artifact::ReadOptions copy_options;
  copy_options.map_tensors = false;
  auto copied = core::StageFromArtifact(path, copy_options);
  const std::vector<exec::RuntimeValue> feeds = FeedsFor(inputs);
  const auto a = fns.at("dynamic_rnn").Run(feeds);
  const auto b = copied.at("dynamic_rnn").Run(feeds);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectBitIdentical(exec::AsTensor(a[i]), exec::AsTensor(b[i]),
                       "mapped vs copied output " + std::to_string(i));
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Corruption ladder

TEST(ArtifactCorruption, TruncatedFileFailsStructured) {
  const RnnInputs inputs = MakeRnnInputs(SmallConfig());
  const std::string path = WriteModuleArtifact(inputs, "truncate");
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  for (const size_t keep :
       {size_t{0}, size_t{16}, size_t{40}, bytes.size() / 2,
        bytes.size() - 1}) {
    WriteFileBytes(path, std::vector<uint8_t>(bytes.begin(),
                                              bytes.begin() + keep));
    try {
      (void)core::StageFromArtifact(path);
      FAIL() << "truncation to " << keep << " bytes was not detected";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kValue) << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(ArtifactCorruption, FlippedByteInEverySectionFailsChecksum) {
  const RnnInputs inputs = MakeRnnInputs(SmallConfig());
  const std::string path = WriteModuleArtifact(inputs, "flip");
  const std::vector<uint8_t> bytes = ReadFileBytes(path);

  // A clean read yields the section directory to aim the flips at.
  artifact::InspectInfo info;
  (void)core::StageFromArtifact(path, artifact::ReadOptions{}, &info);
  ASSERT_EQ(info.sections.size(), 5u);

  for (const auto& section : info.sections) {
    ASSERT_GT(section.size, 0u) << section.name;
    std::vector<uint8_t> corrupt = bytes;
    corrupt[section.offset + section.size / 2] ^= 0x40;
    WriteFileBytes(path, corrupt);
    try {
      (void)core::StageFromArtifact(path);
      FAIL() << "byte flip in section '" << section.name
             << "' was not detected";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kValue) << e.what();
      EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                std::string::npos)
          << e.what();
    }
  }

  // A flip inside the section table itself trips the header's table CRC.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[artifact::kHeaderBytes + 4] ^= 0x01;
  WriteFileBytes(path, corrupt);
  EXPECT_THROW((void)core::StageFromArtifact(path), Error);
  std::remove(path.c_str());
}

TEST(ArtifactCorruption, WrongMagicRefused) {
  const RnnInputs inputs = MakeRnnInputs(SmallConfig());
  const std::string path = WriteModuleArtifact(inputs, "magic");
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes[0] = 'E';
  bytes[1] = 'L';
  bytes[2] = 'F';
  bytes[3] = '!';
  WriteFileBytes(path, bytes);
  try {
    (void)core::StageFromArtifact(path);
    FAIL() << "bad magic was not detected";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kValue);
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ArtifactCorruption, FutureFormatVersionRefused) {
  const RnnInputs inputs = MakeRnnInputs(SmallConfig());
  const std::string path = WriteModuleArtifact(inputs, "version");
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  // format_version is the little-endian u32 at header offset 4.
  bytes[4] = 99;
  bytes[5] = 0;
  bytes[6] = 0;
  bytes[7] = 0;
  WriteFileBytes(path, bytes);
  try {
    (void)core::StageFromArtifact(path);
    FAIL() << "future format version was not detected";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kValue);
    EXPECT_NE(std::string(e.what()).find("format version 99"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Serving from an artifact

TEST(ArtifactServe, ServerCoreLoadsAndServesArtifact) {
  const RnnInputs inputs = MakeRnnInputs(SmallConfig());
  const std::string path = WriteModuleArtifact(inputs, "serve");

  AutoGraph agc;
  StagedFunction original = StageModule(agc, inputs, nullptr);
  const auto want = original.Run(FeedsFor(inputs));

  serve::ServerOptions options;
  options.workers = 2;
  serve::ServerCore core(options);
  core.LoadArtifact(path);
  EXPECT_TRUE(core.staging_errors().empty());
  const auto fns = core.functions();
  EXPECT_EQ(fns.size(), 2u);
  core.Start();

  serve::Request request;
  request.fn = "dynamic_rnn";
  request.feeds = {inputs.input_data, inputs.initial_state,
                   inputs.sequence_len};
  const serve::Reply reply = core.Call(std::move(request));
  ASSERT_TRUE(reply.ok) << reply.error_message;
  ASSERT_EQ(reply.outputs.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectBitIdentical(reply.outputs[i], exec::AsTensor(want[i]),
                       "served output " + std::to_string(i));
  }
  core.Stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ag
