#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/metacomm.h"

namespace metacomm::core {
namespace {

/// Golden pins of the Update Manager's observable behaviour: after a
/// scripted workload, the directory, both device dumps, the error log
/// (errorTime stripped) and the propagation counters are rendered to
/// text and compared byte for byte with tests/golden/um/<case>.txt.
///
/// The cases cover the synchronous UM on every ConsistencyPropertyTest
/// and FaultRecoveryPropertyTest seed, and the threaded UM at several
/// batch sizes, each with saga_undo off and on. Every case ends with
/// lost device notifications repaired by Synchronize, so resync is
/// pinned too. A mismatch (or a missing golden) writes the rendering
/// to um_golden_<case>.actual.txt in the test temp directory and names
/// it in the failure; after a deliberate behaviour change, review the
/// diff and copy it over the golden.

#ifndef METACOMM_GOLDEN_DIR
#error "METACOMM_GOLDEN_DIR must name the golden directory"
#endif

/// Wall-clock breaker timing would make outcomes depend on how fast
/// the host runs, so every case uses a backoff no case outlives: a
/// tripped circuit stays open until the case force-closes it.
constexpr int64_t kHourMicros = 3'600'000'000;

std::string Join(const std::vector<std::string>& values) {
  std::string out;
  for (const std::string& value : values) {
    if (!out.empty()) out += ",";
    out += value;
  }
  return out;
}

std::string RenderEntry(const ldap::Entry& entry) {
  std::string line = entry.dn().ToString();
  for (const auto& [name, attr] : entry.attributes()) {
    if (name == "errorTime") continue;  // Wall clock.
    line += " | " + name + "=" + Join(attr.values());
  }
  return line;
}

std::string RenderRecord(const lexpress::Record& record) {
  std::string line;
  for (const auto& [name, value] : record.attrs()) {
    if (!line.empty()) line += " | ";
    line += name + "=" + Join(value);
  }
  return line;
}

/// The whole observable state of a deployment, as stable text.
std::string Render(MetaCommSystem& system,
                   const std::vector<std::string>& transcript) {
  std::ostringstream out;
  UpdateManager::Stats stats = system.update_manager().stats();
  out << "[counters]\n"
      << "device_applies=" << stats.device_applies << "\n"
      << "reapplications=" << stats.reapplications << "\n"
      << "generated_info=" << stats.generated_info << "\n"
      << "errors=" << stats.errors << "\n"
      << "undos=" << stats.undos << "\n";
  out << "[transcript]\n";
  for (const std::string& line : transcript) out << line << "\n";

  ldap::Client client = system.NewClient();
  out << "[directory]\n";
  auto people = client.Search("ou=People,o=Lucent", "(objectClass=*)");
  if (people.ok()) {
    std::vector<std::string> lines;
    for (const ldap::Entry& entry : *people) {
      lines.push_back(RenderEntry(entry));
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& line : lines) out << line << "\n";
  } else {
    out << "search failed: " << people.status().ToString() << "\n";
  }

  out << "[errors]\n";
  auto errors = client.Search("cn=errors,o=Lucent",
                              "(objectClass=metacommError)",
                              ldap::Scope::kOneLevel);
  if (errors.ok()) {
    // In errorSeq order: shorter decimal strings first, then lexically.
    std::vector<std::tuple<size_t, std::string, std::string>> lines;
    for (const ldap::Entry& entry : *errors) {
      std::string seq = entry.GetFirst("errorSeq");
      lines.emplace_back(seq.size(), seq, RenderEntry(entry));
    }
    std::sort(lines.begin(), lines.end());
    for (const auto& [width, seq, line] : lines) out << line << "\n";
  } else {
    out << "search failed: " << errors.status().ToString() << "\n";
  }

  for (const char* device : {"pbx1", "mp1"}) {
    out << "[" << device << "]\n";
    DeviceFilter* filter = system.filter(device);
    auto dump = filter->DumpAll();
    if (!dump.ok()) {
      out << "dump failed: " << dump.status().ToString() << "\n";
      continue;
    }
    std::vector<std::string> lines;
    for (const lexpress::Record& record : *dump) {
      lines.push_back(RenderRecord(record));
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& line : lines) out << line << "\n";
  }
  return out.str();
}

void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path =
      std::string(METACOMM_GOLDEN_DIR) + "/" + name + ".txt";
  std::ifstream in(path, std::ios::binary);
  std::stringstream expected;
  if (in) expected << in.rdbuf();
  if (in && expected.str() == actual) return;
  const std::string actual_path =
      ::testing::TempDir() + "um_golden_" + name + ".actual.txt";
  std::ofstream(actual_path, std::ios::binary) << actual;
  ADD_FAILURE() << (in ? "golden mismatch: " : "golden missing: ") << path
                << "\n  rendering written to " << actual_path;
}

/// Records a failed step of a workload in the transcript (successful
/// steps leave no line).
void Note(std::vector<std::string>* transcript, const std::string& step,
          const Status& status) {
  if (!status.ok()) transcript->push_back(step + ": " + status.ToString());
}

template <typename T>
void Note(std::vector<std::string>* transcript, const std::string& step,
          const StatusOr<T>& result) {
  if (!result.ok()) Note(transcript, step, result.status());
}

std::optional<std::string> PersonDn(MetaCommSystem& system,
                                    const std::string& extension) {
  auto found =
      system.ldap_filter().FindByAttr("DefinityExtension", extension);
  if (!found.ok() || !found->has_value()) return std::nullopt;
  return (*found)->dn().ToString();
}

/// ConsistencyPropertyTest's random workload, step for step.
void ConsistencyWorkload(MetaCommSystem& system, uint64_t seed,
                         int operations, double ddu_fraction,
                         std::vector<std::string>* transcript) {
  Random rng(seed);
  ldap::Client client = system.NewClient();
  std::vector<std::string> population;
  const std::vector<std::string> rooms = {"1A-1", "2B-2", "3C-3", "4D-4"};
  const std::vector<std::string> names = {"Ada Lovelace", "Grace Hopper",
                                          "Edsger Dijkstra",
                                          "Barbara Liskov", "Donald Knuth"};
  for (int op = 0; op < operations; ++op) {
    const std::string step = "op " + std::to_string(op);
    bool via_device = !population.empty() && rng.Bernoulli(ddu_fraction);
    double action = rng.NextDouble();
    if (population.empty() || action < 0.4) {
      std::string extension = "4" + rng.DigitString(3);
      if (std::find(population.begin(), population.end(), extension) !=
          population.end()) {
        continue;
      }
      std::string name = rng.Choice(names) + " " + extension;
      Note(transcript, step,
           system.AddPerson(name,
                            {{"telephoneNumber", "+1 908 582 " + extension}}));
      population.push_back(extension);
    } else if (action < 0.85) {
      const std::string& extension = rng.Choice(population);
      std::string room = rng.Choice(rooms);
      if (via_device) {
        Note(transcript, step,
             system.pbx("pbx1")->ExecuteCommand("change station " +
                                                extension + " Room " + room));
      } else if (std::optional<std::string> dn = PersonDn(system, extension)) {
        Note(transcript, step, client.Replace(*dn, "roomNumber", room));
      } else {
        transcript->push_back(step + ": no entry for " + extension);
      }
    } else {
      size_t index = rng.Uniform(population.size());
      if (std::optional<std::string> dn =
              PersonDn(system, population[index])) {
        Note(transcript, step, client.Delete(*dn));
      }
      population.erase(population.begin() + static_cast<long>(index));
    }
  }
}

/// FaultRecoveryPropertyTest's faulty workload and repair, step for
/// step (breaker backoff aside, see kHourMicros).
void FaultWorkload(MetaCommSystem& system, uint64_t seed, int operations,
                   double fault_probability,
                   std::vector<std::string>* transcript) {
  devices::FaultInjector& faults = system.mp("mp1")->faults();
  faults.set_seed(seed);
  faults.set_error_probability(fault_probability);
  Random rng(seed);
  ldap::Client client = system.NewClient();
  std::vector<std::string> population;
  const std::vector<std::string> rooms = {"1A-1", "2B-2", "3C-3"};
  for (int op = 0; op < operations; ++op) {
    const std::string step = "op " + std::to_string(op);
    double action = rng.NextDouble();
    if (population.empty() || action < 0.45) {
      std::string extension = "4" + rng.DigitString(3);
      if (std::find(population.begin(), population.end(), extension) !=
          population.end()) {
        continue;
      }
      Note(transcript, step,
           system.AddPerson("Person " + extension,
                            {{"telephoneNumber", "+1 908 582 " + extension}}));
      population.push_back(extension);
    } else if (action < 0.8) {
      const std::string& extension = rng.Choice(population);
      std::optional<std::string> dn = PersonDn(system, extension);
      std::string room = rng.Choice(rooms);
      if (dn.has_value()) {
        Note(transcript, step, client.Replace(*dn, "roomNumber", room));
      } else {
        transcript->push_back(step + ": no entry for " + extension);
      }
    } else if (action < 0.92) {
      const std::string& extension = rng.Choice(population);
      Note(transcript, step,
           system.pbx("pbx1")->ExecuteCommand("change station " + extension +
                                              " Room DDU-" +
                                              rng.DigitString(2)));
    } else {
      size_t index = rng.Uniform(population.size());
      if (std::optional<std::string> dn =
              PersonDn(system, population[index])) {
        Note(transcript, step, client.Delete(*dn));
      }
      population.erase(population.begin() + static_cast<long>(index));
    }
  }
  faults.set_error_probability(0.0);
  system.update_manager().breaker("mp1")->ForceClose();
  Note(transcript, "repair", system.update_manager().RunRepairPass());
}

/// Loses two PBX notifications, then resynchronizes both devices.
void ResyncPhase(MetaCommSystem& system,
                 std::vector<std::string>* transcript) {
  devices::DefinityPbx* pbx = system.pbx("pbx1");
  auto stations = pbx->DumpAll();
  Note(transcript, "resync dump", stations);
  if (stations.ok()) {
    std::vector<std::string> extensions;
    for (const lexpress::Record& station : *stations) {
      extensions.push_back(station.GetFirst("Extension"));
    }
    std::sort(extensions.begin(), extensions.end());
    pbx->faults().set_drop_notifications(true);
    for (size_t i = 0; i < extensions.size() && i < 2; ++i) {
      Note(transcript, "lost change " + extensions[i],
           pbx->ExecuteCommand("change station " + extensions[i] +
                               " Room LOST-" + std::to_string(i)));
    }
    pbx->faults().set_drop_notifications(false);
  }
  Note(transcript, "sync pbx1",
       system.update_manager().Synchronize("pbx1"));
  Note(transcript, "sync mp1", system.update_manager().Synchronize("mp1"));
}

std::unique_ptr<MetaCommSystem> Build(SystemConfig config) {
  config.um.breaker_open_backoff_micros = kHourMicros;
  config.um.breaker_max_backoff_micros = kHourMicros;
  auto system = MetaCommSystem::Create(std::move(config));
  EXPECT_TRUE(system.ok()) << system.status();
  return system.ok() ? std::move(*system) : nullptr;
}

// ---------------------------------------------------------------------
// Synchronous UM.
// ---------------------------------------------------------------------

struct ConsistencyCase {
  uint64_t seed;
  int operations;
  double ddu_fraction;
  bool saga;
};

class ConsistencyGoldenTest
    : public ::testing::TestWithParam<ConsistencyCase> {};

TEST_P(ConsistencyGoldenTest, MatchesGolden) {
  const ConsistencyCase& c = GetParam();
  SystemConfig config;
  config.um.saga_undo = c.saga;
  std::unique_ptr<MetaCommSystem> system = Build(config);
  ASSERT_NE(system, nullptr);
  std::vector<std::string> transcript;
  ConsistencyWorkload(*system, c.seed, c.operations, c.ddu_fraction,
                      &transcript);
  ResyncPhase(*system, &transcript);
  ExpectMatchesGolden("sync_consistency_seed" + std::to_string(c.seed) +
                          (c.saga ? "_saga" : ""),
                      Render(*system, transcript));
}

std::vector<ConsistencyCase> ConsistencyCases() {
  std::vector<ConsistencyCase> cases;
  for (bool saga : {false, true}) {
    cases.push_back({1, 60, 0.0, saga});
    cases.push_back({2, 60, 0.5, saga});
    cases.push_back({3, 60, 1.0, saga});
    cases.push_back({4, 120, 0.3, saga});
    cases.push_back({5, 120, 0.7, saga});
    cases.push_back({20260705, 200, 0.5, saga});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyGoldenTest,
                         ::testing::ValuesIn(ConsistencyCases()));

struct FaultCase {
  uint64_t seed;
  int operations;
  double fault_probability;
  bool saga;
};

class FaultGoldenTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultGoldenTest, MatchesGolden) {
  const FaultCase& c = GetParam();
  SystemConfig config;
  config.um.saga_undo = c.saga;
  config.um.breaker_failure_threshold = 2;
  std::unique_ptr<MetaCommSystem> system = Build(config);
  ASSERT_NE(system, nullptr);
  std::vector<std::string> transcript;
  FaultWorkload(*system, c.seed, c.operations, c.fault_probability,
                &transcript);
  ResyncPhase(*system, &transcript);
  ExpectMatchesGolden("sync_fault_seed" + std::to_string(c.seed) +
                          (c.saga ? "_saga" : ""),
                      Render(*system, transcript));
}

std::vector<FaultCase> FaultCases() {
  std::vector<FaultCase> cases;
  for (bool saga : {false, true}) {
    cases.push_back({7, 60, 0.15, saga});
    cases.push_back({11, 60, 0.35, saga});
    cases.push_back({13, 100, 0.25, saga});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, FaultGoldenTest,
                         ::testing::ValuesIn(FaultCases()));

// ---------------------------------------------------------------------
// Threaded UM: one worker, batches of known content.
// ---------------------------------------------------------------------

/// Holds the worker inside the admin callback of an armed failure, so
/// the test can queue a batch whose content does not depend on timing.
struct WorkerGate {
  std::atomic<bool> armed{false};
  std::atomic<bool> entered{false};
  std::atomic<bool> released{false};
};

template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 20'000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return pred();
}

struct ThreadedCase {
  int batch;
  bool saga;
};

class ThreadedGoldenTest : public ::testing::TestWithParam<ThreadedCase> {
 protected:
  void TearDown() override {
    // A failed assertion may leave the worker parked at the gate.
    gate_.armed = false;
    gate_.released = true;
    if (system_ != nullptr) system_->update_manager().Stop();
  }

  /// One round: park the worker on a blocker update, queue `commands`
  /// behind it, arm `faults`, let the worker drain them in
  /// max_batch_size pops, then wait on a client write that queues after
  /// the last of them. The blocker renames station 4199 onto an existing
  /// directory entry ("Spare 419<round>"), so its directory write fails
  /// whatever state the devices and their breakers are in.
  void Round(int round, const std::vector<std::string>& commands,
             const std::function<void()>& faults) {
    const std::string tag = "round " + std::to_string(round);
    gate_.entered = false;
    gate_.released = false;
    gate_.armed = true;
    Note(&transcript_, tag + " blocker",
         system_->pbx("pbx1")->ExecuteCommand(
             "change station 4199 Name \"Spare 419" + std::to_string(round) +
             "\""));
    ASSERT_TRUE(Eventually([this] { return gate_.entered.load(); }))
        << tag << ": worker never reached the gate";
    for (const std::string& command : commands) {
      const bool pbx = command.rfind("MAILBOX") == std::string::npos;
      auto reply = pbx ? system_->pbx("pbx1")->ExecuteCommand(command)
                       : system_->mp("mp1")->ExecuteCommand(command);
      Note(&transcript_, tag + " " + command, reply);
    }
    faults();
    gate_.released = true;
    UpdateManager& um = system_->update_manager();
    ASSERT_TRUE(Eventually([&um] { return um.QueueDepth() == 0; }));
    ldap::Client client = system_->NewClient();
    Note(&transcript_, tag + " barrier",
         client.Replace("cn=Blocker 4199,ou=People,o=Lucent", "description",
                        "barrier " + std::to_string(round)));
  }

  WorkerGate gate_;
  std::unique_ptr<MetaCommSystem> system_;
  std::vector<std::string> transcript_;
};

TEST_P(ThreadedGoldenTest, MatchesGolden) {
  const ThreadedCase& c = GetParam();
  SystemConfig config;
  config.um.threaded = true;
  config.um.worker_threads = 1;
  config.um.max_batch_size = c.batch;
  config.um.saga_undo = c.saga;
  config.um.repair_enabled = false;
  system_ = Build(config);
  ASSERT_NE(system_, nullptr);
  system_->update_manager().set_admin_callback(
      [this](const Status&, const lexpress::UpdateDescriptor&) {
        if (!gate_.armed.exchange(false)) return;
        gate_.entered = true;
        while (!gate_.released.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });

  for (int i = 0; i < 18; ++i) {
    std::string extension = std::to_string(4100 + i);
    Note(&transcript_, "provision " + extension,
         system_->AddPerson("Person " + extension,
                            {{"telephoneNumber", "+1 908 582 " + extension}}));
  }
  Note(&transcript_, "provision 4199",
       system_->AddPerson("Blocker 4199",
                          {{"telephoneNumber", "+1 908 582 4199"}}));
  for (int round = 1; round <= 3; ++round) {
    std::string extension = "419" + std::to_string(round);
    Note(&transcript_, "provision " + extension,
         system_->AddPerson("Spare " + extension,
                            {{"telephoneNumber", "+1 908 582 " + extension}}));
  }

  devices::FaultInjector& pbx_faults = system_->pbx("pbx1")->faults();
  devices::FaultInjector& mp_faults = system_->mp("mp1")->faults();
  // Clean round: modifies, renames, adds and deletes from both devices.
  Round(1,
        {"change station 4100 Room R1A", "change station 4101 Room R1B",
         "change station 4102 Name \"Renamed 4102\"", "remove station 4103",
         "add station 4150 Name \"Device Added 4150\"",
         "MODIFY MAILBOX 4104 Greeting=hello", "MODIFY MAILBOX 4105 Pin=1234",
         "ADD MAILBOX 4151 SubscriberName=\"Mp Added 4151\"",
         "DELETE MAILBOX 4106", "change station 4107 Room R1C"},
        [] {});
  // Retryable MP failures short of the breaker threshold, plus one
  // permanent PBX rejection.
  Round(2,
        {"change station 4100 Room R2A", "change station 4108 Room R2B",
         "change station 4109 Name \"Renamed 4109\"",
         "change station 4110 Room R2C", "MODIFY MAILBOX 4111 Greeting=g2",
         "MODIFY MAILBOX 4112 Greeting=g3",
         "add station 4152 Name \"Device Added 4152\"", "remove station 4113",
         "MODIFY MAILBOX 4101 Greeting=g4", "change station 4114 Room R2D"},
        [&] {
          mp_faults.FailNext(2, StatusCode::kUnavailable);
          pbx_faults.FailNext(1, StatusCode::kInvalidArgument);
        });
  // Enough MP failures in a row to trip its breaker mid-round.
  Round(3,
        {"change station 4115 Room R3A", "change station 4116 Room R3B",
         "change station 4117 Room R3C", "change station 4100 Room R3D",
         "change station 4101 Room R3E", "change station 4108 Room R3F",
         "MODIFY MAILBOX 4110 Greeting=g5",
         "add station 4153 Name \"Device Added 4153\"", "remove station 4114",
         "MODIFY MAILBOX 4102 Greeting=g6"},
        [&] { mp_faults.FailNext(3, StatusCode::kUnavailable); });

  system_->update_manager().breaker("mp1")->ForceClose();
  Note(&transcript_, "repair", system_->update_manager().RunRepairPass());
  ResyncPhase(*system_, &transcript_);
  ExpectMatchesGolden("threaded_batch" + std::to_string(c.batch) +
                          (c.saga ? "_saga" : ""),
                      Render(*system_, transcript_));
}

INSTANTIATE_TEST_SUITE_P(
    Batches, ThreadedGoldenTest,
    ::testing::Values(ThreadedCase{1, false}, ThreadedCase{4, false},
                      ThreadedCase{16, false}, ThreadedCase{1, true},
                      ThreadedCase{4, true}, ThreadedCase{16, true}));

}  // namespace
}  // namespace metacomm::core
