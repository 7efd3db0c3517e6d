// SwitchDevice::execute, and the whole device step SwitchDevice::process,
// make no heap allocation per packet once warm.
//
// A binary of its own: its counting operator new replaces the global one
// for every test in the executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "kernel_traffic.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace netcl::sim {
namespace {

using testing::traffic_header;
using testing::traffic_payload;

class ExecAllocations : public ::testing::TestWithParam<const char*> {};

constexpr int kPackets = 2000;

apps::AppSource app_named(const std::string& name) {
  if (name == "CALC") return apps::calc_source();
  if (name == "AGG") return apps::agg_source(4, 64, 32);
  return apps::cache_source(128, 16);
}

/// The app's device, with lookup entries so CACHE has something to hit
/// (small keys map to cache lines).
std::unique_ptr<SwitchDevice> app_device(const apps::AppSource& app, KernelSpec& spec) {
  driver::CompileOptions options;
  options.defines = app.defines;
  driver::CompileResult compiled = driver::compile_netcl(app.source, options);
  EXPECT_TRUE(compiled.ok) << compiled.errors;
  spec = compiled.specs.at(app.computation);
  std::unique_ptr<SwitchDevice> device = driver::make_device(std::move(compiled), 1);
  for (std::uint64_t key = 0; key < 8; ++key) {
    (void)device->lookup_insert("KeyIndex", key, key, key);
    (void)device->lookup_insert("WordMask", key, key, 0xFFFF);
  }
  return device;
}

TEST_P(ExecAllocations, NoneOncePerPacketStateIsWarm) {
  const apps::AppSource app = app_named(GetParam());
  KernelSpec spec;
  const std::unique_ptr<SwitchDevice> device = app_device(app, spec);
  ASSERT_NE(device, nullptr);

  SplitMix64 rng(0xA110C);
  std::vector<ArgValues> requests;
  std::vector<NetclHeader> headers;
  for (int i = 0; i < kPackets; ++i) {
    requests.push_back(decode_args(spec, traffic_payload(spec, rng)));
    headers.push_back(traffic_header(app.computation, rng));
  }
  std::vector<ArgValues> work = requests;
  for (int i = 0; i < kPackets; ++i) device->execute(app.computation, work[i], headers[i]);

  work = requests;
  const std::uint64_t before = g_allocations.load();
  std::uint64_t executed = 0;
  for (int i = 0; i < kPackets; ++i) {
    executed += device->execute(app.computation, work[i], headers[i]).executed ? 1 : 0;
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(allocations, 0u) << GetParam() << ": " << allocations << " allocations in "
                             << kPackets << " packets";
}

TEST_P(ExecAllocations, ProcessNoneOncePayloadsAreWarm) {
  const apps::AppSource app = app_named(GetParam());
  KernelSpec spec;
  const std::unique_ptr<SwitchDevice> device = app_device(app, spec);
  ASSERT_NE(device, nullptr);

  SplitMix64 rng(0xA110C);
  std::vector<Packet> requests(kPackets);
  for (Packet& packet : requests) {
    packet.has_netcl = true;
    packet.payload = traffic_payload(spec, rng);
    packet.netcl = traffic_header(app.computation, rng);
    packet.netcl.to = 1;
    packet.netcl.len = static_cast<std::uint16_t>(packet.payload.size());
  }
  // The first pass grows each payload to the encoded length (a short one
  // re-encodes in full); restoring the requests keeps that capacity.
  std::vector<Packet> work = requests;
  for (Packet& packet : work) device->process(packet);
  work = requests;

  const std::uint64_t before = g_allocations.load();
  std::uint64_t executed = 0;
  for (Packet& packet : work) executed += device->process(packet).executed ? 1 : 0;
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(allocations, 0u) << GetParam() << ": " << allocations << " allocations in "
                             << kPackets << " packets";
}

INSTANTIATE_TEST_SUITE_P(Apps, ExecAllocations, ::testing::Values("CALC", "AGG", "CACHE"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace netcl::sim
