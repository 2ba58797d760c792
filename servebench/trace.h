#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

// In-memory span tracing for the traced benchmark mode.
//
// A span is recorded at each module boundary the benchmark decorates
// (see deployment.cc). Every span carries the identifier of the client
// operation (or device command) that caused it. Spans on the calling
// thread inherit it from a thread-local; spans on Update Manager
// workers find it through a registry keyed by the entry the work is
// about (its cn, or its extension), which is unambiguous because every
// client thread owns a disjoint set of entries. Spans are kept in
// per-thread buffers and read only after every traced thread has
// stopped.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"

namespace servebench {

enum class Layer : uint8_t {
  kClient,        // Client transport round trip (request out, reply in).
  kNetHandler,    // TcpServer handler: TextProtocolHandler::Handle.
  kService,       // LdapService under TextProtocolHandler (the gateway).
  kBackendRead,   // LdapService between LtapGateway and LdapServer: reads.
  kBackendWrite,  // ... and writes.
  kTrigger,       // The UM's TriggerActionServer::OnUpdate.
  kDeviceApply,   // RepositoryFilter::Apply / ApplyBatch.
  kDduSubmit,     // DDU handler -> UpdateManager::SubmitDeviceUpdate.
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  uint64_t trace = 0;  // Causing operation; 0 when unknown.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Duration minus the spans nested inside it on the same thread.
  int64_t self_ns = 0;
  uint32_t thread = 0;
  /// Entries returned (backend searches) or updates carried (applies).
  uint32_t count = 0;
  Layer layer = Layer::kClient;
  /// False for the per-update copies of a batched apply: the call
  /// itself is counted once.
  bool call = true;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer; nullptr when tracing is off.
  static Tracer* Get() { return instance_; }
  static void Install(Tracer* tracer) { instance_ = tracer; }

  /// Maps an entry key ("cn:<lower cn>", "ext:<digits>", a request
  /// hash) to the operation currently working on it.
  void Bind(uint64_t key_hash, uint64_t trace);
  uint64_t Lookup(uint64_t key_hash) const;

  /// The operation the calling thread is working for.
  static uint64_t Current();

  void Record(const Span& span);

  /// Every span recorded so far. Call only after every traced thread
  /// has stopped.
  std::vector<Span> Collect();

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  static Tracer* instance_;
  static constexpr size_t kSlots = size_t{1} << 20;
  std::unique_ptr<std::atomic<uint64_t>[]> slots_;
  metacomm::Mutex mu_{metacomm::LockRank::kLeaf, "servebench.tracer"};
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mu_);
};

uint64_t HashKey(std::string_view text);
/// Registry key of a person entry: its lower-cased cn.
uint64_t CnKey(std::string_view cn);
/// Registry key of a device record: its extension / mailbox number.
uint64_t ExtKey(std::string_view extension);

/// Sets the calling thread's current operation for its lifetime.
class TraceContext {
 public:
  explicit TraceContext(uint64_t trace);
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  uint64_t saved_;
};

/// Times one call as a span. Spans opened inside it on the same thread
/// are subtracted from its self time. Does nothing without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, uint64_t trace);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(uint32_t count) { span_.count = count; }
  /// Also records a copy of this span for each of `traces` (the other
  /// updates a batched call carried).
  void set_batch_traces(std::vector<uint64_t> traces) {
    batch_traces_ = std::move(traces);
  }

 private:
  Tracer* tracer_;
  Span span_;
  int64_t children_ns_ = 0;
  int64_t* parent_children_ns_ = nullptr;
  std::vector<uint64_t> batch_traces_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
