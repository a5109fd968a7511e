#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

struct Buffer {
  std::uint32_t thread = 0;
  std::uint64_t next_seq = 0;
  bool exited = false;  ///< its thread has ended; the next drain() frees it
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
const std::chrono::steady_clock::time_point g_epoch = std::chrono::steady_clock::now();

// Buffers outlive their threads: campaign workers exit before drain(),
// which collects their spans and then frees them.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;
std::uint32_t g_next_thread = 0;

/// This thread's buffer; marks it exited when the thread ends.
struct BufferHandle {
  Buffer* buffer = nullptr;
  ~BufferHandle() {
    if (buffer == nullptr) return;
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    buffer->exited = true;
  }
};

thread_local BufferHandle t_buffer;
thread_local Scope* t_innermost = nullptr;

Buffer& this_thread_buffer() {
  if (t_buffer.buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    auto buffer = std::make_unique<Buffer>();
    buffer->thread = g_next_thread++;
    buffer->spans.reserve(1 << 14);
    t_buffer.buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  return *t_buffer.buffer;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - g_epoch)
                                        .count());
}

void set_enabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name) {
  if (!enabled()) return;
  open(name, t_innermost != nullptr ? t_innermost->span_.id : kNoSpan);
}

Scope::Scope(const char* name, SpanId parent) {
  if (!enabled()) return;
  open(name, parent);
}

void Scope::open(const char* name, SpanId parent) {
  Buffer& buffer = this_thread_buffer();
  span_.name = name;
  span_.parent = parent;
  span_.thread = buffer.thread;
  span_.id = (static_cast<SpanId>(buffer.thread) + 1) << 40 | ++buffer.next_seq;
  outer_ = t_innermost;
  t_innermost = this;
  open_ = true;
  span_.start_ns = now_ns();
}

void Scope::end() {
  if (!open_) return;
  span_.end_ns = now_ns();
  open_ = false;
  if (t_innermost == this) t_innermost = outer_;
  this_thread_buffer().spans.push_back(span_);
}

std::vector<Span> drain() {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const std::unique_ptr<Buffer>& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    std::vector<Span>().swap(buffer->spans);  // release the storage, not just the spans
  }
  std::erase_if(g_buffers, [](const std::unique_ptr<Buffer>& buffer) { return buffer->exited; });
  return all;
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<SpanId, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of.emplace(spans[i].id, i);

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const Span& span : spans) {
    const auto parent = index_of.find(span.parent);
    if (span.parent == kNoSpan || parent == index_of.end()) continue;
    const Span& outer = spans[parent->second];
    const std::uint64_t begin = std::max(span.start_ns, outer.start_ns);
    const std::uint64_t end = std::min(span.end_ns, outer.end_ns);
    if (begin < end) children[parent->second].emplace_back(begin, end);
  }

  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = 0;  // end of the union built so far
    for (const auto& [begin, end] : intervals) {
      const std::uint64_t from = std::max(begin, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    self[i] = duration - static_cast<double>(covered);
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ns(spans);
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& entry = totals[spans[i].name];
    ++entry.count;
    entry.total_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    entry.self_ns += self[i];
  }
  return totals;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = self_times_ns(spans);
  std::fputs("id\tparent\tthread\tname\tstart_ns\tend_ns\tself_ns\n", out);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out, "%llx\t%llx\t%u\t%s\t%llu\t%llu\t%.0f\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent), span.thread, span.name,
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns), self[i]);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench::trace
