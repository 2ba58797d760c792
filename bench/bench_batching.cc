// Batched, coalescing propagation — throughput vs max_batch_size.
//
// Every update propagates as part of a wave, which pays the emulated
// processing delay of the update sequence
// (UpdateManagerConfig::artificial_processing_delay_micros, the same
// 200µs axis bench_parallel_um uses) once, and one device-session RTT
// (devices::LatencyEmulator) per repository. At max_batch_size=1 a
// wave holds one update, so both costs are paid once PER UPDATE.
// Larger pops drain a whole run of the queue per wakeup, coalesce
// redundant same-entity work and partition the rest into
// entity-disjoint waves, sharing both costs across the wave (DESIGN.md
// "Batching & coalescing").
//
// The workload is a two-device administrator storm: a PBX admin
// changing rooms on one half of the population while an MP admin
// changes pins on the other half. Submissions return at enqueue, so
// the queue stays deep and PopBatch returns real multi-item batches.
// max_batch_size=1 is the exact paper shape and the baseline; the
// acceptance bar is >= 3x items/sec at max_batch_size=16.

#include <benchmark/benchmark.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_main.h"
#include "bench/workload.h"
#include "common/clock.h"

namespace metacomm::bench {
namespace {

constexpr size_t kPopulation = 96;
constexpr size_t kPbxEntries = 48;  // population[0 .. 47]: room changes.

int64_t NowMicros() { return RealClock::Get()->NowMicros(); }

/// Waits until the directory shows every expected value AND the
/// update manager has pushed `want_applies` total updates to the
/// devices (the device-side wave tail lags the directory write).
/// Polls the directory and the stats mutex only — never the devices,
/// whose emulated RTT would bill 200µs per probe.
bool AwaitSettled(core::MetaCommSystem& system,
                  std::map<std::string, std::string> expected_rooms,
                  uint64_t want_applies, int64_t timeout_micros) {
  ldap::Client client = system.NewClient();
  int64_t start = NowMicros();
  while (NowMicros() - start < timeout_micros) {
    for (auto it = expected_rooms.begin(); it != expected_rooms.end();) {
      auto entry = client.Get(it->first);
      if (entry.ok() && entry->GetFirst("roomNumber") == it->second) {
        it = expected_rooms.erase(it);
      } else {
        ++it;
      }
    }
    if (expected_rooms.empty() &&
        system.update_manager().stats().device_applies >= want_applies) {
      return true;
    }
    RealClock::Get()->SleepMicros(100);
  }
  return false;
}

/// args: [0] max_batch_size, [1] emulated per-conversation cost µs
/// (both the UM processing delay and the device-link RTT).
void BM_AdminStormThroughput(benchmark::State& state) {
  core::SystemConfig config;
  config.um.threaded = true;
  config.um.worker_threads = 1;  // The paper's single coordinator.
  config.um.max_batch_size = static_cast<int>(state.range(0));
  config.um.artificial_processing_delay_micros = state.range(1);
  config.device_command_rtt_micros = state.range(1);
  WorkloadGenerator gen(7);
  std::vector<Person> population = gen.People(kPopulation);
  auto system = BuildPopulatedSystem(population, config);
  devices::DefinityPbx* pbx = system->pbx("pbx1");
  devices::MessagingPlatform* mp = system->mp("mp1");

  int seq = 0;
  for (auto _ : state) {
    ++seq;
    uint64_t applies_before = system->update_manager().stats().device_applies;
    std::atomic<bool> failed{false};
    // PBX administrator: rooms on the first half of the population.
    std::thread pbx_admin([&] {
      for (size_t i = 0; i < kPbxEntries; ++i) {
        auto reply = pbx->ExecuteCommand(
            "change station " + population[i].extension + " Room D" +
            std::to_string(seq));
        if (!reply.ok()) failed.store(true);
      }
    });
    // MP administrator: pins on the second half.
    std::thread mp_admin([&] {
      for (size_t i = kPbxEntries; i < kPopulation; ++i) {
        auto reply = mp->ExecuteCommand(
            "MODIFY MAILBOX " + population[i].extension + " Pin=" +
            std::to_string(7000 + seq));
        if (!reply.ok()) failed.store(true);
      }
    });
    pbx_admin.join();
    mp_admin.join();
    if (failed.load()) {
      state.SkipWithError("device command failed");
      return;
    }
    std::map<std::string, std::string> expected_rooms;
    for (size_t i = 0; i < kPbxEntries; ++i) {
      expected_rooms[population[i].dn] = "D" + std::to_string(seq);
    }
    // Every update fans to both devices (reapply-to-originator plus
    // the other repository): 2 device applies per item.
    if (!AwaitSettled(*system, std::move(expected_rooms),
                      applies_before + 2 * kPopulation, 30'000'000)) {
      state.SkipWithError("did not settle within 30s");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kPopulation));

  core::UpdateManager::Stats stats = system->update_manager().stats();
  uint64_t popped = 0;
  for (const core::UpdateManager::ShardStats& shard : stats.shards) {
    popped += shard.dequeued;
  }
  state.counters["avg_batch"] =
      stats.batches > 0 ? static_cast<double>(popped) /
                              static_cast<double>(stats.batches)
                        : 0.0;
  state.counters["coalesced"] = static_cast<double>(stats.coalesced);
  state.counters["rtts_saved"] = static_cast<double>(stats.rtts_saved);
  state.counters["device_rtts"] = static_cast<double>(
      pbx->latency().round_trips() + mp->latency().round_trips());
  state.counters["errors"] = static_cast<double>(stats.errors);
  system->update_manager().Stop();

  // Spot-check device-side convergence once, after timing: the last
  // round's rooms must have reached the PBX itself.
  auto station = pbx->GetRecord(population[0].extension);
  if (!station.ok() ||
      station->GetFirst("Room") != "D" + std::to_string(seq)) {
    state.SkipWithError("PBX did not converge to the last room");
  }
}
BENCHMARK(BM_AdminStormThroughput)
    ->ArgNames({"batch", "rtt_us"})
    ->Args({1, 200})
    ->Args({4, 200})
    ->Args({16, 200})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace metacomm::bench

int main(int argc, char** argv) {
  return metacomm::bench::RunBenchMain("batching", argc, argv);
}
