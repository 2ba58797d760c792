// servebench: the served MetaComm deployment under three workloads.
//
//   servebench --workload admin_writes|device_updates|directory_reads
//              --seed N --seconds S --trace 0|1 [--workdir DIR]
//              [--selftest 0|1]
//
// Builds the deployment metacomm_serve runs (deployment.h), provisions
// a seeded population through LDAP over loopback TCP, drives the
// workload for S seconds, checks every output against a model the
// benchmark keeps apart from the program, and prints the metrics. The
// last line of standard output is the JSON result. README.md describes
// the workloads, metrics and trace format.

#include <linux/magic.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/integrated_schema.h"
#include "deployment.h"
#include "ldap/client.h"
#include "ldap/text_protocol.h"
#include "net/tcp_client.h"
#include "trace.h"

namespace servebench {
namespace {

using metacomm::Status;
using metacomm::StatusOr;
namespace ldap = metacomm::ldap;
namespace core = metacomm::core;
namespace lexpress = metacomm::lexpress;

const int64_t kProcessStartNs = NowNs();

constexpr char kPeopleBase[] = "ou=People,o=Lucent";
constexpr char kPhonePrefix[] = "+1 908 582 ";
// The benchmark's own copy of the PBX Cos <-> employeeType table.
const char* const kClasses[] = {"basic", "standard", "gold", "executive"};
const char* const kFirst[] = {"Ada",   "Alan",  "Grace", "Edsger",
                              "Barbara", "Donald", "Frances", "John",
                              "Ken",   "Dennis", "Radia", "Leslie",
                              "Niklaus", "Tony", "Margaret", "Butler"};
const char* const kLast[] = {"Lovelace", "Turing", "Hopper",  "Dijkstra",
                             "Liskov",   "Knuth",  "Allen",   "Backus",
                             "Thompson", "Ritchie", "Perlman", "Lamport",
                             "Wirth",    "Hoare",  "Hamilton", "Lampson"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string workdir = ".bench_build/servebench-run";
};

int CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (metacomm::StartsWith(line, "VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string Digits(uint64_t value, int width) {
  std::string text = std::to_string(value);
  if (static_cast<int>(text.size()) < width) {
    text.insert(0, static_cast<size_t>(width) - text.size(), '0');
  }
  return text;
}

std::string PersonDn(const std::string& cn) {
  return "cn=" + cn + "," + kPeopleBase;
}

int ClassIndex(const std::string& type) {
  for (int i = 0; i < 4; ++i) {
    if (type == kClasses[i]) return i;
  }
  return -1;
}

// ---------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------

/// What the directory and both devices must hold for one person.
struct Person {
  std::string cn;
  std::string ext;
  std::string room;
  std::string type;  // employeeType; the PBX Cos is its table index.
  std::string pin;
  std::string desc;
  std::string port;      // DefinityPort (device_updates only).
  std::string greeting;  // MpGreeting (device_updates only).
  bool cos_from_device = false;  // DefinityCos written back by a DDU.
  bool pbx_cos_stale = false;    // A failed employeeType replace.
  bool present = true;
};

struct Population {
  std::vector<Person> people;
  /// Extensions no person holds at the end (the moved-away ones).
  std::vector<std::string> free_exts;
};

Population MakePopulation(size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 17);
  Population population;
  population.people.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Person person;
    person.cn = std::string(kFirst[rng() % 16]) + " " + kLast[rng() % 16] +
                " " + Digits(i, 4);
    person.ext = Digits(2000 + i, 4);
    person.room = std::to_string(1 + rng() % 9) + "C-" + Digits(rng() % 1000, 3);
    person.type = kClasses[rng() % 4];
    person.pin = Digits(rng() % 10000, 4);
    person.desc = "employee " + Digits(i, 4);
    population.people.push_back(std::move(person));
  }
  return population;
}

ldap::Entry PersonEntry(const Person& person) {
  ldap::Entry entry(*ldap::Dn::Parse(PersonDn(person.cn)));
  entry.SetOne("cn", person.cn);
  size_t space = person.cn.find_last_of(' ');
  entry.SetOne("sn", person.cn.substr(space + 1));
  entry.SetOne("telephoneNumber", kPhonePrefix + person.ext);
  entry.SetOne("roomNumber", person.room);
  entry.SetOne("employeeType", person.type);
  entry.SetOne("MpPin", person.pin);
  entry.SetOne("description", person.desc);
  core::ApplyObjectClasses(&entry);
  return entry;
}

// ---------------------------------------------------------------------
// Wire clients
// ---------------------------------------------------------------------

/// One persistent connection speaking the text protocol. In traced
/// runs the transport binds each request to the calling thread's
/// operation and records the client round trip.
class WireClient {
 public:
  Status Connect(uint16_t port) { return tcp_.Connect("127.0.0.1", port); }
  ldap::Client& ldap() { return client_; }
  ldap::LdapService& service() { return proto_; }

 private:
  std::string Call(const std::string& request) {
    Tracer* tracer = Tracer::Get();
    if (tracer == nullptr) return tcp_.Call(request);
    uint64_t trace = Tracer::Current();
    tracer->Bind(HashKey(request), trace);
    ScopedSpan span(Layer::kClient, trace);
    return tcp_.Call(request);
  }

  metacomm::net::TcpClient tcp_;
  ldap::TextProtocolClient proto_{
      [this](const std::string& request) { return Call(request); }};
  ldap::Client client_{&proto_};
};

StatusOr<std::vector<std::unique_ptr<WireClient>>> ConnectClients(
    uint16_t port, int count) {
  std::vector<std::unique_ptr<WireClient>> clients;
  for (int i = 0; i < count; ++i) {
    auto client = std::make_unique<WireClient>();
    METACOMM_RETURN_IF_ERROR(client->Connect(port));
    clients.push_back(std::move(client));
  }
  return clients;
}

/// Trace identifiers: the client thread in the high bits, a sequence
/// number below.
uint64_t TraceId(int thread, uint64_t seq) {
  return (static_cast<uint64_t>(thread) + 1) << 32 | (seq & 0xffffffffu);
}

/// Binds the entries an operation touches to it (traced runs only).
void BindOp(uint64_t trace, std::initializer_list<uint64_t> keys) {
  Tracer* tracer = Tracer::Get();
  if (tracer == nullptr) return;
  for (uint64_t key : keys) tracer->Bind(key, trace);
}

/// Runs `body(thread)` on `count` threads and joins them.
void RunThreads(int count, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) threads.emplace_back(body, i);
  for (std::thread& thread : threads) thread.join();
}

Status Provision(Deployment& deployment, const Population& population,
                 int clients) {
  METACOMM_ASSIGN_OR_RETURN(auto wire,
                            ConnectClients(deployment.port(), clients));
  std::atomic<bool> failed{false};
  std::string first_error;
  metacomm::Mutex mu{metacomm::LockRank::kLeaf, "servebench.provision"};
  RunThreads(clients, [&](int c) {
    for (size_t i = static_cast<size_t>(c); i < population.people.size();
         i += static_cast<size_t>(clients)) {
      Status status = wire[c]->ldap().Add(PersonEntry(population.people[i]));
      if (!status.ok()) {
        metacomm::MutexLock lock(&mu);
        if (!failed.exchange(true)) first_error = status.ToString();
        return;
      }
    }
  });
  if (failed) return Status::Internal("provisioning: " + first_error);
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// One completed operation: when it ended and how long it took.
struct Sample {
  int64_t end_ns;
  double us;
};

std::vector<double> Micros(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.us);
  return out;
}

/// Per-thread tallies, merged after the run.
struct Tally {
  std::vector<Sample> latency;  // The workload's primary operations.
  std::vector<Sample> aux;      // Its secondary operations.
  std::vector<Sample> trickle;  // Writes of the read workload's trickle.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // Failed-operation and check messages.
  uint64_t mismatches = 0;
  /// CPU time the benchmark's own client-side code used (wire clients,
  /// visibility reads), excluded from cpu_us_per_op.
  int64_t client_cpu_ns = 0;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Mismatch(const std::string& what) {
    ++mismatches;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Merge(const Tally& other) {
    latency.insert(latency.end(), other.latency.begin(), other.latency.end());
    aux.insert(aux.end(), other.aux.begin(), other.aux.end());
    trickle.insert(trickle.end(), other.trickle.begin(), other.trickle.end());
    attempted += other.attempted;
    failed += other.failed;
    mismatches += other.mismatches;
    client_cpu_ns += other.client_cpu_ns;
    for (const std::string& e : other.errors) {
      if (errors.size() < 10) errors.push_back(e);
    }
  }
};

int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double MicrosSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1000.0;
}

// ---------------------------------------------------------------------
// Checks against the model
// ---------------------------------------------------------------------

void Expect(Tally* tally, const std::string& what, const std::string& got,
            const std::string& want) {
  if (got != want) {
    tally->Mismatch(what + ": got '" + got + "', want '" + want + "'");
  }
}

/// The directory entry of `person`, found by telephone number (a PBX
/// Name change renames the entry, so the DN is not a stable handle).
StatusOr<std::vector<ldap::Entry>> FindByPhone(ldap::LdapServer& server,
                                               const std::string& ext) {
  ldap::Client reader(&server);
  return reader.Search(kPeopleBase,
                       "(telephoneNumber=" + std::string(kPhonePrefix) +
                           ext + ")");
}

/// Directory attributes of one present person.
void CheckEntry(const Person& p, const ldap::Entry& entry, Tally* tally) {
  const std::string who = p.cn;
  Expect(tally, who + " cn", entry.GetFirst("cn"), p.cn);
  Expect(tally, who + " telephoneNumber", entry.GetFirst("telephoneNumber"),
         kPhonePrefix + p.ext);
  Expect(tally, who + " roomNumber", entry.GetFirst("roomNumber"), p.room);
  Expect(tally, who + " employeeType", entry.GetFirst("employeeType"),
         p.type);
  Expect(tally, who + " MpPin", entry.GetFirst("MpPin"), p.pin);
  Expect(tally, who + " description", entry.GetFirst("description"), p.desc);
  Expect(tally, who + " DefinityPort", entry.GetFirst("DefinityPort"),
         p.port);
  Expect(tally, who + " MpGreeting", entry.GetFirst("MpGreeting"),
         p.greeting);
  if (p.cos_from_device) {
    Expect(tally, who + " DefinityCos", entry.GetFirst("DefinityCos"),
           std::to_string(ClassIndex(p.type)));
  }
}

/// The whole model against the directory (and, when `devices`, both
/// devices). `server` is read directly: the lock-free read path.
void CheckModel(Deployment& deployment, const Population& population,
                bool devices, Tally* tally) {
  ldap::LdapServer& server = deployment.server();
  ldap::Client reader(&server);
  for (const Person& p : population.people) {
    StatusOr<std::vector<ldap::Entry>> found = FindByPhone(server, p.ext);
    if (!found.ok()) {
      tally->Mismatch(p.cn + ": search failed: " + found.status().ToString());
      continue;
    }
    if (!p.present) {
      if (!found->empty()) tally->Mismatch(p.cn + ": deleted but present");
      StatusOr<ldap::Entry> by_dn = reader.Get(PersonDn(p.cn));
      if (by_dn.ok()) tally->Mismatch(p.cn + ": deleted but present");
    } else if (found->size() != 1) {
      tally->Mismatch(p.cn + ": " + std::to_string(found->size()) +
                      " entries hold extension " + p.ext);
      continue;
    } else {
      CheckEntry(p, found->front(), tally);
    }
    if (!devices) continue;
    StatusOr<lexpress::Record> station = deployment.pbx().GetRecord(p.ext);
    StatusOr<lexpress::Record> mailbox = deployment.mp().GetRecord(p.ext);
    if (!p.present) {
      if (station.ok()) tally->Mismatch(p.cn + ": deleted, station left");
      if (mailbox.ok()) tally->Mismatch(p.cn + ": deleted, mailbox left");
      continue;
    }
    if (!station.ok() || !mailbox.ok()) {
      tally->Mismatch(p.cn + ": station or mailbox " + p.ext + " missing");
      continue;
    }
    Expect(tally, p.cn + " pbx Name", station->GetFirst("Name"), p.cn);
    Expect(tally, p.cn + " pbx Room", station->GetFirst("Room"), p.room);
    if (!p.pbx_cos_stale) {
      Expect(tally, p.cn + " pbx Cos", station->GetFirst("Cos"),
             std::to_string(ClassIndex(p.type)));
    }
    Expect(tally, p.cn + " pbx Port", station->GetFirst("Port"), p.port);
    Expect(tally, p.cn + " mp SubscriberName",
           mailbox->GetFirst("SubscriberName"), p.cn);
    Expect(tally, p.cn + " mp Pin", mailbox->GetFirst("Pin"), p.pin);
    Expect(tally, p.cn + " mp Greeting", mailbox->GetFirst("Greeting"),
           p.greeting);
    // §5.5: the platform-generated id reached the directory.
    Expect(tally, p.cn + " MpSubscriberId",
           found->front().GetFirst("MpSubscriberId"),
           mailbox->GetFirst("SubscriberId"));
  }
  if (devices) {
    for (const std::string& ext : population.free_exts) {
      if (deployment.pbx().GetRecord(ext).ok()) {
        tally->Mismatch("extension " + ext + " left on pbx1");
      }
      if (deployment.mp().GetRecord(ext).ok()) {
        tally->Mismatch("extension " + ext + " left on mp1");
      }
    }
  }
  ldap::SearchRequest errors;
  errors.base = *ldap::Dn::Parse("cn=errors,o=Lucent");
  errors.scope = ldap::Scope::kOneLevel;
  StatusOr<ldap::SearchResult> logged = server.Search({}, errors);
  if (!logged.ok()) {
    tally->Mismatch("cn=errors unreadable: " + logged.status().ToString());
  } else if (!logged->entries.empty()) {
    tally->Mismatch(std::to_string(logged->entries.size()) +
                    " entries under cn=errors, first: " +
                    logged->entries.front().ToString());
  }
}

/// Changes a few PBX stations with notifications dropped, so MetaComm
/// never hears of it; the device check must then fail.
void TamperBehindMetacomm(Deployment& deployment,
                          const Population& population) {
  metacomm::devices::FaultInjector& faults = deployment.pbx().faults();
  faults.set_drop_notifications(true);
  int changed = 0;
  for (const Person& p : population.people) {
    if (!p.present) continue;
    deployment.pbx().ExecuteCommand("change station " + p.ext +
                                    " Room TAMPERED");
    if (++changed == 3) break;
  }
  faults.set_drop_notifications(false);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// CPU time the hypervisor gave other guests while this one wanted
/// it (the `steal` column of /proc/stat), in clock ticks.
int64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {};
  stat >> cpu;
  for (int64_t& field : fields) stat >> field;
  return fields[7];
}

int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The timed part of a run: wall clock and the CPU time the whole
/// process (server threads and in-process clients) used in it.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_start_ns = 0;
  int64_t cpu_end_ns = 0;
  int64_t steal_ticks = 0;
  void Start() {
    start_ns = NowNs();
    cpu_start_ns = ProcessCpuNs();
    steal_ticks = StealTicks();
  }
  void End() {
    end_ns = NowNs();
    cpu_end_ns = ProcessCpuNs();
    steal_ticks = StealTicks() - steal_ticks;
  }
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

constexpr int kParts = 5;

/// `metric(part, part_seconds)` on each fifth of the timed window,
/// by completion time; the median of the five (parts without samples
/// are skipped).
double WindowedMedian(
    const std::vector<Sample>& samples, const Window& window,
    const std::function<double(const std::vector<Sample>&, double)>& metric) {
  const int64_t part_ns = (window.end_ns - window.start_ns) / kParts;
  if (part_ns <= 0) return 0;
  std::vector<std::vector<Sample>> parts(kParts);
  for (const Sample& s : samples) {
    int64_t index = (s.end_ns - window.start_ns) / part_ns;
    parts[static_cast<size_t>(std::clamp<int64_t>(index, 0, kParts - 1))]
        .push_back(s);
  }
  std::vector<double> values;
  for (const std::vector<Sample>& part : parts) {
    if (!part.empty()) {
      values.push_back(metric(part, static_cast<double>(part_ns) / 1e9));
    }
  }
  return Percentile(values, 0.5);
}

/// The admin mix, per connection and round: every round runs these
/// operations once each, in a seeded order, so every run attempts
/// whole rounds of the same operations.
enum class AdminOp { kRoom, kType, kPin, kDesc, kMove, kRename, kDeleteAdd };
const AdminOp kAdminRound[] = {
    AdminOp::kRoom,   AdminOp::kRoom,   AdminOp::kRoom,   AdminOp::kRoom,
    AdminOp::kType,   AdminOp::kType,   AdminOp::kType,   AdminOp::kPin,
    AdminOp::kPin,    AdminOp::kPin,    AdminOp::kDesc,   AdminOp::kDesc,
    AdminOp::kDesc,   AdminOp::kMove,   AdminOp::kMove,   AdminOp::kMove,
    AdminOp::kRename, AdminOp::kRename, AdminOp::kDeleteAdd};

/// Replacing employeeType leaves the PBX Cos at the entry's stale
/// DefinityCos (the LdapTo<pbx> mapping's first alternate rule wins),
/// so those replaces go to one canary person per connection whose
/// inputs do not depend on the seed: provisioned "standard" (Cos 1),
/// then toggled between "basic" and "gold". Each such replace is
/// counted failed while the PBX does not follow it.
Person CanaryPerson(int index) {
  Person person;
  person.cn = "Cos Canary " + Digits(static_cast<uint64_t>(index), 4);
  person.ext = Digits(2000 + static_cast<uint64_t>(index), 4);
  person.room = "1C-000";
  person.type = "standard";
  person.pin = "0000";
  person.desc = "canary";
  return person;
}

/// admin_writes: the WBA mix over loopback TCP, one connection per
/// thread, each owning a disjoint slice of people and free extensions.
/// Person c of the population is connection c's canary.
Tally RunAdminWrites(Deployment& deployment, Population& population,
                     const Options& options, int clients, Window* window) {
  std::vector<std::vector<std::string>> pools(static_cast<size_t>(clients));
  for (int ext = 6000; ext < 10000; ++ext) {
    pools[static_cast<size_t>(ext % clients)].push_back(Digits(ext, 4));
  }
  std::vector<Tally> tallies(static_cast<size_t>(clients));
  auto wire = ConnectClients(deployment.port(), clients);
  if (!wire.ok()) {
    Tally tally;
    tally.Fail("connect: " + wire.status().ToString());
    return tally;
  }
  window->Start();
  const int64_t deadline =
      window->start_ns + static_cast<int64_t>(options.seconds * 1e9);
  RunThreads(clients, [&](int c) {
    std::mt19937_64 rng(options.seed * 1000003 + static_cast<uint64_t>(c));
    Tally& tally = tallies[static_cast<size_t>(c)];
    ldap::Client& client = (*wire)[static_cast<size_t>(c)]->ldap();
    std::vector<std::string>& pool = pools[static_cast<size_t>(c)];
    Person& canary = population.people[static_cast<size_t>(c)];
    std::vector<Person*> mine;
    for (size_t i = static_cast<size_t>(c + clients);
         i < population.people.size(); i += static_cast<size_t>(clients)) {
      mine.push_back(&population.people[i]);
    }
    std::vector<AdminOp> round(std::begin(kAdminRound), std::end(kAdminRound));
    const int64_t cpu_start = ThreadCpuNs();
    uint64_t seq = 0;
    while (NowNs() < deadline) {
      std::shuffle(round.begin(), round.end(), rng);
      for (AdminOp op : round) {
        Person& p = op == AdminOp::kType ? canary : *mine[rng() % mine.size()];
        uint64_t trace = TraceId(c, ++seq);
        TraceContext context(Tracer::Get() != nullptr ? trace : 0);
        BindOp(trace, {CnKey(p.cn), ExtKey(p.ext)});
        std::string dn = PersonDn(p.cn);
        auto timed = [&](const std::function<Status()>& write,
                         std::vector<Sample>* sink) {
          ++tally.attempted;
          int64_t start = NowNs();
          Status status = write();
          double micros = MicrosSince(start);
          if (!status.ok()) {
            tally.Fail(dn + ": " + status.ToString());
            return false;
          }
          tally.latency.push_back({NowNs(), micros});
          if (sink != nullptr) sink->push_back({NowNs(), micros});
          return true;
        };
        switch (op) {
          case AdminOp::kRoom: {
            std::string room;
            do {
              room = std::to_string(1 + rng() % 9) + "C-" +
                     Digits(rng() % 1000, 3);
            } while (room == p.room);
            if (timed([&] { return client.Replace(dn, "roomNumber", room); },
                      nullptr)) {
              p.room = room;
            }
            break;
          }
          case AdminOp::kType: {
            std::string type = p.type == "basic" ? "gold" : "basic";
            ++tally.attempted;
            int64_t start = NowNs();
            Status status = client.Replace(dn, "employeeType", type);
            double micros = MicrosSince(start);
            if (!status.ok()) {
              tally.Fail(dn + ": " + status.ToString());
              break;
            }
            p.type = type;
            StatusOr<lexpress::Record> station =
                deployment.pbx().GetRecord(p.ext);
            std::string cos = std::to_string(ClassIndex(type));
            if (station.ok() && station->GetFirst("Cos") == cos) {
              tally.latency.push_back({NowNs(), micros});
              p.pbx_cos_stale = false;
            } else {
              tally.Fail(dn + ": employeeType " + type +
                         " did not reach the PBX Cos");
              p.pbx_cos_stale = true;
            }
            break;
          }
          case AdminOp::kPin: {
            std::string pin;
            do {
              pin = Digits(rng() % 10000, 4);
            } while (pin == p.pin);
            if (timed([&] { return client.Replace(dn, "MpPin", pin); },
                      nullptr)) {
              p.pin = pin;
            }
            break;
          }
          case AdminOp::kDesc: {
            std::string desc = "note " + std::to_string(seq);
            if (timed([&] { return client.Replace(dn, "description", desc); },
                      nullptr)) {
              p.desc = desc;
            }
            break;
          }
          case AdminOp::kMove: {
            size_t slot = rng() % pool.size();
            std::string ext = pool[slot];
            BindOp(trace, {ExtKey(ext)});
            if (timed(
                    [&] {
                      return client.Replace(dn, "telephoneNumber",
                                            kPhonePrefix + ext);
                    },
                    nullptr)) {
              pool[slot] = p.ext;
              p.ext = ext;
            }
            break;
          }
          case AdminOp::kRename: {
            size_t last = p.cn.find_last_of(' ');
            std::string cn = p.cn.substr(0, last) + " " +
                             p.cn.substr(last + 1, 4) + "r" +
                             std::to_string(seq);
            BindOp(trace, {CnKey(cn)});
            if (timed([&] { return client.ModifyRdn(dn, "cn=" + cn, true); },
                      nullptr)) {
              p.cn = cn;
            }
            break;
          }
          case AdminOp::kDeleteAdd: {
            if (!timed([&] { return client.Delete(dn); }, nullptr)) break;
            p.present = false;
            uint64_t add_trace = TraceId(c, ++seq);
            TraceContext add_context(Tracer::Get() != nullptr ? add_trace : 0);
            BindOp(add_trace, {CnKey(p.cn), ExtKey(p.ext)});
            if (timed([&] { return client.Add(PersonEntry(p)); },
                      &tally.aux)) {
              p.present = true;
            }
            break;
          }
        }
      }
    }
    tally.client_cpu_ns = ThreadCpuNs() - cpu_start;
  });
  window->End();
  Tally total;
  for (const Tally& tally : tallies) total.Merge(tally);
  for (const auto& pool : pools) {
    population.free_exts.insert(population.free_exts.end(), pool.begin(),
                                pool.end());
  }
  return total;
}

/// Wakes a console thread when the directory commits a change to the
/// extension it waits on. It is a post-commit listener on the backend:
/// it runs right after the new snapshot is published, so the lock-free
/// read path already shows the change. (An LTAP after-trigger would
/// not do: the UM writes DDUs back as internal gateway operations,
/// which fire no triggers.)
class CommitWaiters {
 public:
  explicit CommitWaiters(int threads) {
    for (int t = 0; t < threads; ++t) slots_.push_back(std::make_unique<Slot>());
  }

  /// Thread `t` waits on extension `ext` from now on.
  void Watch(int t, const std::string& ext) {
    Slot& slot = *slots_[static_cast<size_t>(t)];
    metacomm::MutexLock lock(&slot.mu);
    slot.ext = ext;
  }

  /// Commits seen on thread `t`'s extension so far.
  uint64_t Commits(int t) {
    Slot& slot = *slots_[static_cast<size_t>(t)];
    metacomm::MutexLock lock(&slot.mu);
    return slot.commits;
  }

  /// Blocks until a commit on thread `t`'s extension follows the
  /// `seen`-th, or until `deadline_ns`.
  void WaitPast(int t, uint64_t seen, int64_t deadline_ns) {
    Slot& slot = *slots_[static_cast<size_t>(t)];
    const auto deadline = std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline_ns));
    metacomm::MutexLock lock(&slot.mu);
    while (slot.commits == seen) {
      if (!slot.changed.WaitUntil(lock, deadline)) return;
    }
  }

  void OnCommit(const ldap::ChangeRecord& record) {
    const std::optional<ldap::Entry>& image =
        record.new_entry ? record.new_entry : record.old_entry;
    if (!image) return;
    std::string phone = image->GetFirst("telephoneNumber");
    if (!metacomm::StartsWith(phone, kPhonePrefix)) return;
    std::string ext = phone.substr(sizeof(kPhonePrefix) - 1);
    for (const std::unique_ptr<Slot>& slot : slots_) {
      metacomm::MutexLock lock(&slot->mu);
      if (slot->ext != ext) continue;
      ++slot->commits;
      slot->changed.NotifyAll();
    }
  }

 private:
  struct Slot {
    metacomm::Mutex mu{metacomm::LockRank::kLeaf, "servebench.waiter"};
    metacomm::CondVar changed;
    std::string ext GUARDED_BY(mu);
    uint64_t commits GUARDED_BY(mu) = 0;
  };
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// device_updates: administrators at the device consoles. Each thread
/// owns a slice of people, sends one command, and waits until the
/// directory shows the change: it sleeps until the backend commits a
/// change to that person's entry, then reads the lock-free read path.
Tally RunDeviceUpdates(Deployment& deployment, Population& population,
                       const Options& options, int threads, Window* window) {
  std::vector<Tally> tallies(static_cast<size_t>(threads));
  // Shared with the listener, which stays registered after the run.
  auto waiters = std::make_shared<CommitWaiters>(threads);
  deployment.server().backend().AddListener(
      [waiters](const ldap::ChangeRecord& record) {
        waiters->OnCommit(record);
      });
  window->Start();
  const int64_t deadline =
      window->start_ns + static_cast<int64_t>(options.seconds * 1e9);
  RunThreads(threads, [&](int t) {
    std::mt19937_64 rng(options.seed * 7919 + static_cast<uint64_t>(t));
    Tally& tally = tallies[static_cast<size_t>(t)];
    std::vector<Person*> mine;
    for (size_t i = static_cast<size_t>(t); i < population.people.size();
         i += static_cast<size_t>(threads)) {
      mine.push_back(&population.people[i]);
    }
    // Each thread visits its people in seeded rounds, so a person's
    // next command comes long after the fan-out of its previous one:
    // a DDU sent while the previous DDU on the same entry is still
    // propagating can be lost (see CHANGES.md).
    std::shuffle(mine.begin(), mine.end(), rng);
    size_t next_person = 0;
    uint64_t seq = 0;
    // Weights (percent): PBX Room 20, Cos 15, Port 15, Name 10;
    // MP Pin 25, Greeting 15.
    while (NowNs() < deadline) {
      if (next_person == mine.size()) {
        Person* last = mine.back();
        std::shuffle(mine.begin(), mine.end(), rng);
        if (mine.front() == last) std::swap(mine.front(), mine.back());
        next_person = 0;
      }
      Person& p = *mine[next_person++];
      int pick = static_cast<int>(rng() % 100);
      uint64_t trace = TraceId(t, ++seq);
      TraceContext context(Tracer::Get() != nullptr ? trace : 0);
      BindOp(trace, {CnKey(p.cn), ExtKey(p.ext)});
      std::string command;
      std::string attr;
      std::string want;
      bool on_pbx = pick < 60;
      Person next = p;
      if (pick < 20) {
        do {
          next.room = std::to_string(1 + rng() % 9) + "C-" +
                      Digits(rng() % 1000, 3);
        } while (next.room == p.room);
        command = "change station " + p.ext + " Room " + next.room;
        attr = "roomNumber";
        want = next.room;
      } else if (pick < 35) {
        int cos = (ClassIndex(p.type) + 1 + static_cast<int>(rng() % 3)) % 4;
        next.type = kClasses[cos];
        next.cos_from_device = true;
        command = "change station " + p.ext + " Cos " + std::to_string(cos);
        attr = "DefinityCos";
        want = std::to_string(cos);
      } else if (pick < 50) {
        do {
          next.port = "01A" + Digits(rng() % 10000, 4);
        } while (next.port == p.port);
        command = "change station " + p.ext + " Port " + next.port;
        attr = "DefinityPort";
        want = next.port;
      } else if (pick < 60) {
        size_t last = p.cn.find_last_of(' ');
        next.cn = p.cn.substr(0, last) + " " + p.cn.substr(last + 1, 4) +
                  "d" + std::to_string(seq);
        BindOp(trace, {CnKey(next.cn)});
        command = "change station " + p.ext + " Name \"" + next.cn + "\"";
        attr = "cn";
        want = next.cn;
      } else if (pick < 85) {
        do {
          next.pin = Digits(rng() % 10000, 4);
        } while (next.pin == p.pin);
        command = "MODIFY MAILBOX " + p.ext + " Pin=" + next.pin;
        attr = "MpPin";
        want = next.pin;
      } else {
        next.greeting = "greeting " + std::to_string(seq);
        command = "MODIFY MAILBOX " + p.ext + " Greeting=\"" +
                  next.greeting + "\"";
        attr = "MpGreeting";
        want = next.greeting;
      }
      waiters->Watch(t, p.ext);
      ++tally.attempted;
      int64_t start = NowNs();
      StatusOr<std::string> reply =
          on_pbx ? deployment.pbx().ExecuteCommand(command)
                 : deployment.mp().ExecuteCommand(command);
      double command_us = MicrosSince(start);
      if (!reply.ok()) {
        tally.Fail(command + ": " + reply.status().ToString());
        continue;
      }
      // The administrator's command is done; the device holds the new
      // value from here on whatever the directory does.
      p = next;
      const int64_t give_up = NowNs() + 5'000'000'000;
      const int64_t wait_cpu_start = ThreadCpuNs();
      bool visible = false;
      while (NowNs() < give_up) {
        // Taken before the read, so a commit after it ends the wait.
        const uint64_t seen = waiters->Commits(t);
        StatusOr<std::vector<ldap::Entry>> found =
            FindByPhone(deployment.server(), p.ext);
        if (found.ok() && found->size() == 1 &&
            found->front().GetFirst(attr) == want) {
          visible = true;
          break;
        }
        waiters->WaitPast(t, seen, give_up);
      }
      tally.client_cpu_ns += ThreadCpuNs() - wait_cpu_start;
      if (!visible) {
        tally.Fail(command + ": not visible in the directory after 5s");
        continue;
      }
      tally.latency.push_back({NowNs(), MicrosSince(start)});
      tally.aux.push_back({NowNs(), command_us});
    }
  });
  window->End();
  Tally total;
  for (const Tally& tally : tallies) total.Merge(tally);
  return total;
}

std::string CnPrefix(const std::string& cn) {
  return metacomm::ToLower(cn.substr(0, cn.find_last_of(' ')));
}

/// directory_reads: closed-loop readers plus one connection sending
/// admin modifies on an open-loop schedule.
Tally RunDirectoryReads(Deployment& deployment, Population& population,
                        const Options& options, int threads,
                        Window* window) {
  constexpr double kTrickleRate = 50;  // Writes per second.
  const int readers = std::max(1, threads - 1);
  // Expected prefix-search results: cn values are never renamed here.
  std::map<std::string, std::set<std::string>> by_prefix;
  for (const Person& p : population.people) {
    by_prefix[CnPrefix(p.cn)].insert(metacomm::ToLower(p.cn));
  }
  std::vector<Tally> tallies(static_cast<size_t>(readers) + 1);
  auto wire = ConnectClients(deployment.port(), readers + 1);
  if (!wire.ok()) {
    Tally tally;
    tally.Fail("connect: " + wire.status().ToString());
    return tally;
  }
  std::atomic<int64_t> max_late_ns{0};
  window->Start();
  const int64_t deadline =
      window->start_ns + static_cast<int64_t>(options.seconds * 1e9);
  RunThreads(readers + 1, [&](int r) {
    Tally& tally = tallies[static_cast<size_t>(r)];
    const int64_t cpu_start = ThreadCpuNs();
    ldap::LdapService& service = (*wire)[static_cast<size_t>(r)]->service();
    std::mt19937_64 rng(options.seed * 104729 + static_cast<uint64_t>(r));
    uint64_t seq = 0;
    const std::vector<Person>& people = population.people;
    if (r == readers) {
      // The trickle writer: owns every write, so it may touch anyone.
      prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
      ldap::Client& client = (*wire)[static_cast<size_t>(r)]->ldap();
      const int64_t period_ns = static_cast<int64_t>(1e9 / kTrickleRate);
      for (int64_t due = window->start_ns; due < deadline; due += period_ns) {
        int64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        } else {
          int64_t late = now - due;
          if (late > max_late_ns.load()) max_late_ns.store(late);
        }
        Person& p = population.people[rng() % people.size()];
        uint64_t trace = TraceId(r, ++seq);
        TraceContext context(Tracer::Get() != nullptr ? trace : 0);
        BindOp(trace, {CnKey(p.cn), ExtKey(p.ext)});
        int pick = static_cast<int>(rng() % 3);
        std::string value;
        std::string attr;
        if (pick == 0) {
          attr = "roomNumber";
          value = std::to_string(1 + rng() % 9) + "C-" +
                  Digits(rng() % 1000, 3);
        } else if (pick == 1) {
          attr = "MpPin";
          do {
            value = Digits(rng() % 10000, 4);
          } while (value == p.pin);
        } else {
          attr = "description";
          value = "trickle " + std::to_string(seq);
        }
        ++tally.attempted;
        Status status = client.Replace(PersonDn(p.cn), attr, value);
        if (!status.ok()) {
          tally.Fail(p.cn + ": " + status.ToString());
          continue;
        }
        tally.trickle.push_back(
            {NowNs(), static_cast<double>(NowNs() - due) / 1000});
        if (pick == 0) p.room = value;
        if (pick == 1) p.pin = value;
        if (pick == 2) p.desc = value;
      }
      tally.client_cpu_ns = ThreadCpuNs() - cpu_start;
      return;
    }
    const ldap::Dn people_base = *ldap::Dn::Parse(kPeopleBase);
    // Weights (percent): telephoneNumber equality 40, base read by DN
    // 30, cn prefix 30 (limit above the match count).
    while (NowNs() < deadline) {
      const Person& p = people[rng() % people.size()];
      int pick = static_cast<int>(rng() % 100);
      uint64_t trace = TraceId(r, ++seq);
      TraceContext context(Tracer::Get() != nullptr ? trace : 0);
      ldap::SearchRequest request;
      std::set<std::string> want;
      bool aux = false;
      if (pick < 40) {
        request.base = people_base;
        request.filter = *ldap::Filter::Parse(
            "(telephoneNumber=" + std::string(kPhonePrefix) + p.ext + ")");
        want.insert(metacomm::ToLower(p.cn));
      } else if (pick < 70) {
        request.base = *ldap::Dn::Parse(PersonDn(p.cn));
        request.scope = ldap::Scope::kBase;
        want.insert(metacomm::ToLower(p.cn));
      } else {
        std::string prefix = p.cn.substr(0, p.cn.find_last_of(' '));
        request.base = people_base;
        request.filter = *ldap::Filter::Parse("(cn=" + prefix + "*)");
        request.size_limit = 1000;
        want = by_prefix.at(metacomm::ToLower(prefix));
        aux = true;
      }
      ++tally.attempted;
      int64_t start = NowNs();
      StatusOr<ldap::SearchResult> result = service.Search({}, request);
      double micros = MicrosSince(start);
      if (!result.ok()) {
        tally.Fail(p.cn + ": " + result.status().ToString());
        continue;
      }
      tally.latency.push_back({NowNs(), micros});
      if (aux) tally.aux.push_back({NowNs(), micros});
      std::set<std::string> got;
      for (const ldap::Entry& entry : result->entries) {
        got.insert(metacomm::ToLower(entry.GetFirst("cn")));
      }
      if (got != want) {
        tally.Mismatch(p.cn + ": search returned " +
                       std::to_string(got.size()) + " entries, want " +
                       std::to_string(want.size()));
      }
    }
    tally.client_cpu_ns = ThreadCpuNs() - cpu_start;
  });
  window->End();
  Tally total;
  for (const Tally& tally : tallies) total.Merge(tally);
  std::printf("trickle: %.0f writes/s scheduled, generator at most %.1f us "
              "late\n",
              kTrickleRate, static_cast<double>(max_late_ns.load()) / 1000);
  return total;
}

// ---------------------------------------------------------------------
// Per-layer counters (traced runs)
// ---------------------------------------------------------------------

struct Counters {
  core::UpdateManager::Stats um;
  metacomm::net::TcpServer::Stats net;
  ldap::Backend::ReadStats reads;
  uint64_t round_trips = 0;
  uint64_t commands = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_segment = 0;
};

Counters SampleCounters(Deployment& deployment) {
  Counters c;
  c.um = deployment.um().stats();
  c.net = deployment.net_stats();
  c.reads = deployment.server().backend().read_stats();
  c.round_trips = deployment.pbx().latency().round_trips() +
                  deployment.mp().latency().round_trips();
  for (const auto& repo : c.um.repositories) c.commands += repo.health.commands;
  if (deployment.durability() != nullptr) {
    c.wal_bytes = deployment.durability()->wal()->SizeBytes();
    c.wal_segment = deployment.durability()->wal()->current_segment();
  }
  return c;
}

uint64_t Dequeued(const core::UpdateManager::Stats& stats) {
  uint64_t total = 0;
  for (const auto& shard : stats.shards) total += shard.dequeued;
  return total;
}

uint64_t QueueWaitMicros(const core::UpdateManager::Stats& stats) {
  uint64_t total = 0;
  for (const auto& shard : stats.shards) total += shard.queue_wait_micros;
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// PlanUpdate timed on the descriptors of the traced updates, built the
/// way UpdateManager::DescriptorFromNotification builds them.
std::vector<double> TimePlans(
    Deployment& deployment,
    const std::vector<metacomm::ltap::UpdateNotification>& notifications) {
  std::vector<double> micros;
  for (const auto& n : notifications) {
    lexpress::UpdateDescriptor desc;
    desc.schema = "ldap";
    desc.source = "ldap";
    switch (n.op) {
      case ldap::UpdateOp::kAdd:
        desc.op = lexpress::DescriptorOp::kAdd;
        break;
      case ldap::UpdateOp::kDelete:
        desc.op = lexpress::DescriptorOp::kDelete;
        break;
      case ldap::UpdateOp::kModify:
      case ldap::UpdateOp::kModifyRdn:
        desc.op = lexpress::DescriptorOp::kModify;
        break;
    }
    if (n.old_entry) desc.old_record = deployment.ldap_filter().ToRecord(*n.old_entry);
    if (n.new_entry) desc.new_record = deployment.ldap_filter().ToRecord(*n.new_entry);
    desc.old_record.set_schema("ldap");
    desc.new_record.set_schema("ldap");
    if (desc.op == lexpress::DescriptorOp::kAdd) {
      for (const auto& [attr, value] : desc.new_record.attrs()) {
        desc.explicit_attrs.insert(attr);
      }
    } else if (desc.op == lexpress::DescriptorOp::kModify) {
      if (n.op == ldap::UpdateOp::kModifyRdn) {
        desc.explicit_attrs.insert(deployment.ldap_filter().key_attr());
      }
      for (const ldap::Modification& mod : n.mods) {
        desc.explicit_attrs.insert(mod.attribute);
      }
    }
    if (desc.op != lexpress::DescriptorOp::kDelete) {
      desc.new_record.SetOne(core::kLastUpdaterAttr, "ldap");
      desc.explicit_attrs.erase(core::kLastUpdaterAttr);
    }
    int64_t start = NowNs();
    StatusOr<core::UpdatePlan> plan =
        deployment.um().PlanUpdate(desc, /*ldap_current=*/true);
    double took = MicrosSince(start);
    if (plan.ok()) micros.push_back(took);
  }
  return micros;
}

/// Per-layer metrics from the spans of the timed window and the
/// counter deltas across it. `updates` is the number of client writes
/// or device commands the window completed.
std::vector<Metric> LayerMetrics(const std::vector<Span>& all,
                                 const Window& window, const Counters& before,
                                 const Counters& after, double updates,
                                 const std::vector<double>& plan_us) {
  std::vector<Span> spans;
  for (const Span& s : all) {
    if (s.start_ns >= window.start_ns && s.end_ns <= window.end_ns) {
      spans.push_back(s);
    }
  }
  auto us = [](int64_t ns) { return static_cast<double>(ns) / 1000.0; };
  std::vector<double> by_layer[static_cast<int>(Layer::kCount)];
  std::vector<double> self_by_layer[static_cast<int>(Layer::kCount)];
  double search_entries = 0;
  for (const Span& s : spans) {
    if (!s.call) continue;
    int layer = static_cast<int>(s.layer);
    by_layer[layer].push_back(us(s.end_ns - s.start_ns));
    self_by_layer[layer].push_back(us(s.self_ns));
    if (s.layer == Layer::kBackendRead) search_entries += s.count;
  }
  auto of = [&](Layer layer) { return by_layer[static_cast<int>(layer)]; };
  auto self_of = [&](Layer layer) {
    return self_by_layer[static_cast<int>(layer)];
  };

  // Net overhead: client round trip minus the server handler time of
  // the same request.
  std::map<uint64_t, std::vector<const Span*>> by_trace;
  for (const Span& s : spans) {
    if (s.trace != 0) by_trace[s.trace].push_back(&s);
  }
  std::vector<double> net_overhead;
  std::vector<double> um_self;
  for (const auto& [trace, group] : by_trace) {
    for (const Span* client : group) {
      if (client->layer != Layer::kClient) continue;
      for (const Span* handler : group) {
        if (handler->layer == Layer::kNetHandler &&
            handler->start_ns >= client->start_ns &&
            handler->end_ns <= client->end_ns) {
          net_overhead.push_back(
              us((client->end_ns - client->start_ns) -
                 (handler->end_ns - handler->start_ns)));
          break;
        }
      }
    }
    // UM self time: OnUpdate minus the device applies and directory
    // writes it caused on the workers.
    for (const Span* trigger : group) {
      if (trigger->layer != Layer::kTrigger) continue;
      int64_t caused = 0;
      for (const Span* s : group) {
        if ((s->layer == Layer::kDeviceApply ||
             s->layer == Layer::kBackendWrite) &&
            s->thread != trigger->thread &&
            s->start_ns >= trigger->start_ns &&
            s->end_ns <= trigger->end_ns) {
          caused += s->end_ns - s->start_ns;
        }
      }
      um_self.push_back(
          us(trigger->end_ns - trigger->start_ns - caused));
    }
  }

  uint64_t requests = after.net.requests - before.net.requests;
  uint64_t dequeued = Dequeued(after.um) - Dequeued(before.um);
  uint64_t batches = after.um.batches - before.um.batches;
  uint64_t ddus = after.um.device_updates - before.um.device_updates;
  double backend_writes = static_cast<double>(of(Layer::kBackendWrite).size());
  std::vector<Metric> m;
  m.push_back({"net.overhead_p50_us", Percentile(net_overhead, 0.5), "us"});
  m.push_back({"net.reply_bytes_per_read",
               Ratio(static_cast<double>(after.net.bytes_out -
                                         before.net.bytes_out),
                     static_cast<double>(requests)),
               "bytes"});
  m.push_back({"ldap.protocol_p50_us",
               Percentile(self_of(Layer::kNetHandler), 0.5), "us"});
  m.push_back({"ldap.search_p50_us", Percentile(of(Layer::kBackendRead), 0.5),
               "us"});
  m.push_back({"ldap.candidates_per_entry",
               Ratio(static_cast<double>(after.reads.candidates_examined -
                                         before.reads.candidates_examined),
                     search_entries),
               "count"});
  m.push_back({"ldap.write_p50_us", Percentile(of(Layer::kBackendWrite), 0.5),
               "us"});
  m.push_back({"ldap.writes_per_update", Ratio(backend_writes, updates),
               "count"});
  m.push_back({"ltap.gateway_self_p50_us",
               Percentile(self_of(Layer::kService), 0.5), "us"});
  m.push_back({"ltap.ddu_lock_retries",
               Ratio(static_cast<double>(after.um.lock_retries -
                                         before.um.lock_retries),
                     static_cast<double>(ddus)),
               "count"});
  m.push_back({"um.trigger_p50_us", Percentile(of(Layer::kTrigger), 0.5),
               "us"});
  m.push_back({"um.self_p50_us", Percentile(um_self, 0.5), "us"});
  m.push_back({"um.queue_wait_mean_us",
               Ratio(static_cast<double>(QueueWaitMicros(after.um) -
                                         QueueWaitMicros(before.um)),
                     static_cast<double>(dequeued)),
               "us"});
  m.push_back({"um.ddu_submit_p50_us", Percentile(of(Layer::kDduSubmit), 0.5),
               "us"});
  m.push_back({"um.device_applies_per_update",
               Ratio(static_cast<double>(after.um.device_applies -
                                         before.um.device_applies),
                     updates),
               "count"});
  m.push_back({"um.batch_mean",
               Ratio(static_cast<double>(dequeued),
                     static_cast<double>(batches)),
               "count"});
  m.push_back({"um.coalesced_share",
               Ratio(static_cast<double>(after.um.coalesced -
                                         before.um.coalesced),
                     static_cast<double>(dequeued)),
               "share"});
  m.push_back({"lexpress.plan_p50_us", Percentile(plan_us, 0.5), "us"});
  m.push_back({"devices.apply_p50_us", Percentile(of(Layer::kDeviceApply), 0.5),
               "us"});
  m.push_back({"devices.round_trips_per_update",
               Ratio(static_cast<double>(after.round_trips -
                                         before.round_trips),
                     updates),
               "count"});
  m.push_back({"devices.commands_per_update",
               Ratio(static_cast<double>(after.commands - before.commands),
                     updates),
               "count"});
  // The WAL's size counts live segments only, and a checkpoint deletes
  // old ones, so growth is measured only when none ran in the window.
  // The first is due 30 s after the deployment starts: a run of the
  // benchmark's 15 s holds none.
  double wal_bytes_per_write = 0;
  if (after.wal_segment == before.wal_segment) {
    wal_bytes_per_write = Ratio(
        static_cast<double>(after.wal_bytes - before.wal_bytes),
        backend_writes);
  } else {
    std::printf("storage.wal_bytes_per_write: not measured, a checkpoint "
                "rolled the WAL inside the timed part\n");
  }
  m.push_back({"storage.wal_bytes_per_write", wal_bytes_per_write, "bytes"});
  return m;
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "trace\tlayer\tthread\tstart_ns\tend_ns\tself_ns\tcount"
                    "\tcall\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%" PRIx64 "\t%s\t%u\t%" PRId64 "\t%" PRId64
                      "\t%" PRId64 "\t%u\t%d\n",
                 s.trace, LayerName(s.layer), s.thread, s.start_ns,
                 s.end_ns, s.self_ns, s.count, s.call ? 1 : 0);
  }
  std::fclose(out);
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--selftest") {
      options->selftest = value == "1";
    } else if (flag == "--workdir") {
      options->workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  return options->workload == "admin_writes" ||
         options->workload == "device_updates" ||
         options->workload == "directory_reads";
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options) || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: servebench --workload "
                 "admin_writes|device_updates|directory_reads --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR] [--selftest 0|1]\n");
    return 2;
  }
  const std::string& workload = options.workload;
  const int nproc = CpuCount();
  // Emulated device admin-link RTT: 200us for the console workload (as
  // bench_batching), 0 where the admin path itself is measured.
  const int64_t rtt = workload == "device_updates" ? 200 : 0;
  const size_t population_size = workload == "directory_reads" ? 4000 : 2000;

  std::filesystem::create_directories(options.workdir);
  const std::string data_dir = options.workdir + "/data-" +
                               std::to_string(::getpid());
  std::filesystem::remove_all(data_dir);

  // The data dir stays inside the checkout, so WAL fsync `batch` times
  // whatever filesystem that is; the run header names it.
  struct statfs fs;
  const bool on_tmpfs = ::statfs(options.workdir.c_str(), &fs) == 0 &&
                        fs.f_type == TMPFS_MAGIC;

  std::unique_ptr<Tracer> tracer;
  if (options.trace) {
    tracer = std::make_unique<Tracer>();
    Tracer::Install(tracer.get());
  }

  DeploymentOptions deployment_options;
  deployment_options.data_dir = data_dir;
  deployment_options.traced = options.trace;
  StatusOr<std::unique_ptr<Deployment>> created =
      Deployment::Create(deployment_options);
  if (!created.ok()) {
    std::fprintf(stderr, "deployment: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Deployment> deployment = std::move(*created);
  Population population = MakePopulation(population_size, options.seed);
  if (workload == "admin_writes") {
    for (int c = 0; c < nproc; ++c) {
      population.people[static_cast<size_t>(c)] = CanaryPerson(c);
    }
  }
  Status provisioned = Provision(*deployment, population, nproc);
  if (!provisioned.ok()) {
    std::fprintf(stderr, "%s\n", provisioned.ToString().c_str());
    return 1;
  }
  const double setup_s =
      static_cast<double>(NowNs() - kProcessStartNs) / 1e9;
  std::printf("servebench: workload=%s seed=%" PRIu64
              " seconds=%g trace=%d nproc=%d population=%zu rtt_us=%" PRId64
              " data_dir=%s (%s, wal fsync batch)\n",
              workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0, nproc, population_size, rtt,
              data_dir.c_str(), on_tmpfs ? "tmpfs" : "not tmpfs");

  // Provisioning ran at the devices' default RTT of 0, so set-up time
  // does not depend on the emulated link.
  deployment->pbx().latency().set_rtt_micros(rtt);
  deployment->mp().latency().set_rtt_micros(rtt);
  Counters before;
  if (options.trace) before = SampleCounters(*deployment);
  Window window;
  Tally tally;
  if (workload == "admin_writes") {
    tally = RunAdminWrites(*deployment, population, options, nproc, &window);
  } else if (workload == "device_updates") {
    tally = RunDeviceUpdates(*deployment, population, options, nproc,
                             &window);
  } else {
    tally = RunDirectoryReads(*deployment, population, options, nproc,
                              &window);
  }
  const double peak_rss_mb = PeakRssMb();
  Counters after;
  std::vector<double> plan_us;
  if (options.trace) {
    after = SampleCounters(*deployment);
    plan_us = TimePlans(*deployment, deployment->TakeNotifications());
  }

  // Checks on the live deployment, reading the devices at RTT 0.
  deployment->pbx().latency().set_rtt_micros(0);
  deployment->mp().latency().set_rtt_micros(0);
  if (options.selftest) TamperBehindMetacomm(*deployment, population);
  CheckModel(*deployment, population, /*devices=*/true, &tally);
  deployment.reset();

  // Restart check: every acknowledged admin write survived.
  if (workload == "admin_writes") {
    int64_t start = NowNs();
    deployment_options.traced = false;
    StatusOr<std::unique_ptr<Deployment>> recovered =
        Deployment::Create(deployment_options);
    if (!recovered.ok()) {
      tally.Mismatch("restart: " + recovered.status().ToString());
    } else {
      std::printf("restart: recovered in %.3f s\n", MicrosSince(start) / 1e6);
      CheckModel(**recovered, population, /*devices=*/false, &tally);
    }
  }
  std::filesystem::remove_all(data_dir);

  const double seconds = window.seconds();
  // Rates and medians are taken per fifth of the run and reported as
  // the median of the five, so a stall of the host in one part of a
  // run does not move the figure.
  const std::vector<Sample>& aux =
      workload == "directory_reads" ? tally.trickle : tally.aux;
  const double ops_per_s = WindowedMedian(tally.latency, window, [&](
      const std::vector<Sample>& part, double part_seconds) {
    return static_cast<double>(part.size()) / part_seconds;
  });
  auto p50_of = [](const std::vector<Sample>& part, double) {
    return Percentile(Micros(part), 0.5);
  };
  const double p50 = WindowedMedian(tally.latency, window, p50_of);
  const double aux_p50 = WindowedMedian(aux, window, p50_of);
  // The p99 is printed but kept out of the result: on a shared host it
  // moves with the neighbours' load far more than with the program.
  const std::vector<double> latency_us = Micros(tally.latency);
  const double p99 = Percentile(latency_us, 0.99);
  const double cpu_us_per_op =
      Ratio(static_cast<double>(window.cpu_end_ns - window.cpu_start_ns -
                                tally.client_cpu_ns) /
                1000.0,
            static_cast<double>(tally.latency.size() +
                                tally.trickle.size()));
  const std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},         {"peak_rss_mb", peak_rss_mb, "MB"},
      {"ops_per_s", ops_per_s, "ops/s"}, {"p50_us", p50, "us"},
      {"aux_p50_us", aux_p50, "us"},     {"cpu_us_per_op", cpu_us_per_op, "us"}};

  std::printf("samples: %zu primary, %zu secondary; mean latency %.2f us\n",
              tally.latency.size(), aux.size(), Mean(latency_us));
  // Stolen CPU makes every timing of the run slower; printed so that
  // an outlier run can be told from a regression.
  std::printf("steal: %.2f of %d cpus taken by the host during the run\n",
              static_cast<double>(window.steal_ticks) /
                  static_cast<double>(sysconf(_SC_CLK_TCK)) / seconds,
              nproc);
  if (workload == "device_updates") {
    std::printf("waiting: console threads used %.3f cpus checking "
                "visibility\n",
                static_cast<double>(tally.client_cpu_ns) / 1e9 / seconds);
  }
  // The same figures under their per-workload names.
  auto named = [](const char* name, double value, const char* unit) {
    std::printf("metric %s = %.3f %s\n", name, value, unit);
  };
  named("setup_s", setup_s, "s");
  named("peak_rss_mb", peak_rss_mb, "MB");
  const bool p99_ok = tally.latency.size() >= 1000;
  if (workload == "admin_writes") {
    named("write_per_s", ops_per_s, "ops/s");
    named("write_p50_us", p50, "us");
    if (p99_ok) named("write_p99_us", p99, "us");
    named("add_p50_us", aux_p50, "us");
  } else if (workload == "device_updates") {
    named("ddu_per_s", ops_per_s, "ops/s");
    named("ddu_visible_p50_us", p50, "us");
    if (p99_ok) named("ddu_visible_p99_us", p99, "us");
    named("ddu_command_p50_us", aux_p50, "us");
  } else {
    named("read_per_s", ops_per_s, "ops/s");
    named("read_p50_us", p50, "us");
    if (p99_ok) named("read_p99_us", p99, "us");
    named("write_p50_us", aux_p50, "us");
  }
  named("cpu_us_per_op", cpu_us_per_op, "us");
  if (!p99_ok) {
    std::printf("p99 not significant: fewer than 1000 samples\n");
  }
  for (const std::string& error : tally.errors) {
    std::printf("error: %s\n", error.c_str());
  }
  bool correct = tally.mismatches == 0;
  std::printf("check: %s (%" PRIu64 " mismatches)\n",
              correct ? "passed" : "FAILED", tally.mismatches);

  std::vector<Metric> result = e2e;
  if (options.trace) {
    std::vector<Span> spans = tracer->Collect();
    double updates = workload == "directory_reads"
                         ? static_cast<double>(tally.trickle.size())
                         : static_cast<double>(tally.latency.size());
    result = LayerMetrics(spans, window, before, after, updates, plan_us);
    for (const Metric& m : result) {
      std::printf("layer %s = %.3f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string path = options.workdir + "/trace-" + workload + ".tsv";
    WriteTrace(path, spans);
    std::printf("trace: %zu spans written to %s\n", spans.size(),
                path.c_str());
    Tracer::Install(nullptr);
  }
  std::fflush(stdout);
  PrintResult(correct, tally.attempted, tally.failed, result);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
