// In-memory span recorder for the traced benchmark run. A span is (id,
// parent, name, start, end) on the steady clock; spans are appended to a
// per-thread buffer while tracing is enabled and collected once the
// workload has quiesced. Client request spans use the request id the
// client sends in the X-Request-Id header as their span id, and the
// server-side handler wrapper records its span with that id as parent, so
// one request's client and handler spans link across threads.
//
// Nothing here is on the measured path when tracing is disabled: callers
// check enabled() first and skip both the clock reads and the record.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

using SpanId = std::uint64_t;

struct Span {
  SpanId id = 0;
  SpanId parent = 0;  ///< 0 = root
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Fresh span / request id (never 0).
  [[nodiscard]] SpanId next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }

  void record(const Span& span) {
    Buffer& buffer = local_buffer();
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.spans.push_back(span);
  }

  /// Every span recorded so far, from every thread; clears the buffers.
  [[nodiscard]] std::vector<Span> collect() {
    std::vector<Span> out;
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& buffer : buffers_) {
      const std::lock_guard<std::mutex> guard(buffer->mutex);
      out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
      buffer->spans.clear();
    }
    return out;
  }

  /// The process-wide tracer (one benchmark per process).
  static Tracer& global() {
    static Tracer tracer;
    return tracer;
  }

 private:
  struct Buffer {
    std::mutex mutex;  ///< uncontended except against collect()
    std::vector<Span> spans;
  };

  Buffer& local_buffer() {
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
      auto owned = std::make_unique<Buffer>();
      buffer = owned.get();
      const std::lock_guard<std::mutex> lock(registry_mutex_);
      buffers_.push_back(std::move(owned));
    }
    return *buffer;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<SpanId> ids_{0};
  std::mutex registry_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records [construction, destruction) as a span when tracing is enabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, SpanId parent) {
    Tracer& tracer = Tracer::global();
    if (!tracer.enabled()) return;
    span_.id = tracer.next_id();
    span_.parent = parent;
    span_.name = name;
    span_.start_ns = now_ns();
    active_ = true;
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = now_ns();
    Tracer::global().record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  /// This span's id, or 0 when tracing is off.
  [[nodiscard]] SpanId id() const { return active_ ? span_.id : 0; }

 private:
  Span span_;
  bool active_ = false;
};

}  // namespace perfbench
