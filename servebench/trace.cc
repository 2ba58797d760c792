#include "trace.h"

#include <functional>

#include "common/strings.h"

namespace servebench {
namespace {

thread_local uint64_t tls_trace = 0;
// Children accumulator of the innermost open span on this thread.
thread_local int64_t* tls_children_ns = nullptr;

constexpr int kTagShift = 40;
constexpr uint64_t kTraceMask = (uint64_t{1} << kTagShift) - 1;

}  // namespace

Tracer* Tracer::instance_ = nullptr;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient:
      return "client";
    case Layer::kNetHandler:
      return "net.handler";
    case Layer::kService:
      return "ltap.gateway";
    case Layer::kBackendRead:
      return "ldap.read";
    case Layer::kBackendWrite:
      return "ldap.write";
    case Layer::kTrigger:
      return "um.trigger";
    case Layer::kDeviceApply:
      return "devices.apply";
    case Layer::kDduSubmit:
      return "um.ddu_submit";
    case Layer::kCount:
      break;
  }
  return "?";
}

Tracer::Tracer() : slots_(new std::atomic<uint64_t>[kSlots]) {
  for (size_t i = 0; i < kSlots; ++i) slots_[i].store(0);
}

void Tracer::Bind(uint64_t key_hash, uint64_t trace) {
  uint64_t tag = key_hash >> kTagShift;
  slots_[key_hash & (kSlots - 1)].store((tag << kTagShift) |
                                            (trace & kTraceMask),
                                        std::memory_order_release);
}

uint64_t Tracer::Lookup(uint64_t key_hash) const {
  uint64_t slot =
      slots_[key_hash & (kSlots - 1)].load(std::memory_order_acquire);
  if ((slot >> kTagShift) != (key_hash >> kTagShift)) return 0;
  return slot & kTraceMask;
}

uint64_t Tracer::Current() { return tls_trace; }

Tracer::Buffer* Tracer::LocalBuffer() {
  thread_local Buffer* buffer = nullptr;
  thread_local Tracer* owner = nullptr;
  if (buffer == nullptr || owner != this) {
    metacomm::MutexLock lock(&mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 16);
    owner = this;
  }
  return buffer;
}

void Tracer::Record(const Span& span) {
  Buffer* buffer = LocalBuffer();
  buffer->spans.push_back(span);
  buffer->spans.back().thread = buffer->thread;
}

std::vector<Span> Tracer::Collect() {
  metacomm::MutexLock lock(&mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

uint64_t HashKey(std::string_view text) {
  // FNV-1a: stable across runs, cheap on short keys.
  uint64_t hash = 1469598103934665603ull;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t CnKey(std::string_view cn) {
  return HashKey("cn:" + metacomm::ToLower(cn));
}

uint64_t ExtKey(std::string_view extension) {
  return HashKey("ext:" + std::string(extension));
}

TraceContext::TraceContext(uint64_t trace) : saved_(tls_trace) {
  tls_trace = trace;
}

TraceContext::~TraceContext() { tls_trace = saved_; }

ScopedSpan::ScopedSpan(Layer layer, uint64_t trace)
    : tracer_(Tracer::Get()) {
  if (tracer_ == nullptr) return;
  span_.layer = layer;
  span_.trace = trace;
  parent_children_ns_ = tls_children_ns;
  tls_children_ns = &children_ns_;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  int64_t duration = span_.end_ns - span_.start_ns;
  span_.self_ns = duration - children_ns_;
  tls_children_ns = parent_children_ns_;
  if (parent_children_ns_ != nullptr) *parent_children_ns_ += duration;
  tracer_->Record(span_);
  Span copy = span_;
  copy.call = false;
  for (uint64_t trace : batch_traces_) {
    copy.trace = trace;
    tracer_->Record(copy);
  }
}

}  // namespace servebench
