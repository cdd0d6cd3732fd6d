#include "scan/obs/trace.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "scan/obs/export_writer.hpp"
#include "scan/obs/span.hpp"

namespace scan::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kJobArrival:
      return "job-arrival";
    case EventKind::kShardSplit:
      return "shard-split";
    case EventKind::kQueueEnqueue:
      return "queue-enqueue";
    case EventKind::kQueueDequeue:
      return "queue-dequeue";
    case EventKind::kWorkerHire:
      return "worker-hire";
    case EventKind::kWorkerRelease:
      return "worker-release";
    case EventKind::kWorkerFailure:
      return "worker-failure";
    case EventKind::kTaskRetry:
      return "task-retry";
    case EventKind::kStageExec:
      return "stage-exec";
    case EventKind::kStageSlice:
      return "stage-slice";
    case EventKind::kTicketDelivery:
      return "ticket-delivery";
    case EventKind::kJobComplete:
      return "job-complete";
    case EventKind::kDecision:
      return "decision";
    case EventKind::kStraggle:
      return "straggle";
    case EventKind::kWorkerFlap:
      return "worker-flap";
    case EventKind::kBreakerOpen:
      return "breaker-open";
    case EventKind::kCheckpoint:
      return "checkpoint";
    case EventKind::kRetryBackoff:
      return "retry-backoff";
    case EventKind::kSpeculativeLaunch:
      return "speculative-launch";
    case EventKind::kSpeculativeWasted:
      return "speculative-wasted";
    case EventKind::kJobAbandoned:
      return "job-abandoned";
  }
  return "?";
}

/// One thread's ring. Grows lazily (no up-front reservation: short runs
/// and dead executor threads cost only what they recorded), then
/// overwrites its oldest entry once `capacity` events are held.
struct TraceRecorder::Lane {
  std::vector<TraceEvent> ring;
  std::size_t next = 0;  ///< overwrite cursor, meaningful once full
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint32_t id = 0;
};

struct TraceRecorder::Impl {
  mutable std::mutex mutex;
  std::vector<std::unique_ptr<Lane>> lanes;
  /// Bumped on Clear so every thread's cached lane pointer re-attaches.
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::size_t> capacity{kDefaultCapacity};

  /// Every held event in export order: lane by lane (oldest surviving
  /// event first in a wrapped ring), stable-sorted by time so ties keep
  /// lane-registration and emission order. The one ordering mechanism
  /// behind Collect and both exporters; points into the lanes, so the
  /// caller holds `mutex` while it reads through them.
  [[nodiscard]] std::vector<const TraceEvent*> Ordered() const;
};

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder recorder;
  return recorder;
}

TraceRecorder::Impl& TraceRecorder::impl() const {
  static Impl the_impl;
  return the_impl;
}

TraceRecorder::Lane& TraceRecorder::Local() {
  struct Cache {
    Lane* lane = nullptr;
    std::uint64_t epoch = 0;
  };
  thread_local Cache cache;
  Impl& im = impl();
  const std::uint64_t epoch = im.epoch.load(std::memory_order_acquire);
  if (cache.lane == nullptr || cache.epoch != epoch) {
    const std::scoped_lock lock(im.mutex);
    im.lanes.push_back(std::make_unique<Lane>());
    cache.lane = im.lanes.back().get();
    cache.lane->id = static_cast<std::uint32_t>(im.lanes.size() - 1);
    cache.epoch = epoch;
  }
  return *cache.lane;
}

void TraceRecorder::Enable(std::size_t capacity_per_thread) {
  Impl& im = impl();
  im.capacity.store(capacity_per_thread == 0 ? kDefaultCapacity
                                             : capacity_per_thread,
                    std::memory_order_relaxed);
  internal::g_trace_enabled.store(true, std::memory_order_release);
}

void TraceRecorder::Disable() {
  internal::g_trace_enabled.store(false, std::memory_order_release);
}

void TraceRecorder::Clear() {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  im.lanes.clear();
  im.epoch.fetch_add(1, std::memory_order_release);
}

void TraceRecorder::Emit(const TraceEvent& event) {
  if (!TraceEnabled()) return;
  const std::size_t capacity = impl().capacity.load(std::memory_order_relaxed);
  Lane& lane = Local();
  ++lane.recorded;
  if (lane.ring.size() < capacity) {
    lane.ring.push_back(event);
    return;
  }
  lane.ring[lane.next] = event;
  lane.next = (lane.next + 1) % capacity;
  ++lane.dropped;
}

std::uint32_t TraceRecorder::CurrentLane() { return Local().id; }

std::vector<const TraceEvent*> TraceRecorder::Impl::Ordered() const {
  std::size_t total = 0;
  for (const auto& lane : lanes) total += lane->ring.size();
  std::vector<const TraceEvent*> order;
  order.reserve(total);
  for (const auto& lane : lanes) {
    // Ring wrapped: oldest surviving event sits at the overwrite cursor.
    const std::size_t start = lane->dropped == 0 ? 0 : lane->next;
    const std::size_t n = lane->ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      order.push_back(&lane->ring[(start + i) % n]);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->time_tu < b->time_tu;
                   });
  return order;
}

std::vector<TraceEvent> TraceRecorder::Collect() const {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  std::vector<TraceEvent> merged;
  const std::vector<const TraceEvent*> order = im.Ordered();
  merged.reserve(order.size());
  for (const TraceEvent* ev : order) merged.push_back(*ev);
  return merged;
}

TraceRecorder::Stats TraceRecorder::stats() const {
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  Stats s;
  s.lanes = im.lanes.size();
  for (const auto& lane : im.lanes) {
    s.events_recorded += lane->recorded;
    s.events_dropped += lane->dropped;
  }
  return s;
}

std::size_t TraceRecorder::capacity_per_thread() const {
  return impl().capacity.load(std::memory_order_relaxed);
}

namespace {

/// 1 modeled TU = 1000 trace microseconds, so a 200 TU run renders as a
/// 200 ms timeline — comfortable zoom range in Perfetto.
constexpr double kMicrosPerTu = 1000.0;

/// True for the event that *defines* a span node: the one whose (ts,
/// track) a flow arrow should depart from when the span is someone's
/// parent. Job spans are defined by arrival, stage spans by their exec
/// slice, slice spans by the slice itself.
bool DefinesSpan(const TraceEvent& ev) {
  switch (TagOf(ev.span)) {
    case SpanTag::kJob:
      return ev.kind == EventKind::kJobArrival;
    case SpanTag::kStage:
      return ev.kind == EventKind::kStageExec;
    case SpanTag::kSlice:
      return ev.kind == EventKind::kStageSlice;
    case SpanTag::kNone:
      return false;
  }
  return false;
}

/// True for events that should receive an inbound Perfetto flow arrow:
/// the causal skeleton (exec spans, slices, completions) rather than
/// every instant — keeps the rendered graph readable.
bool ReceivesFlow(const TraceEvent& ev) {
  return IsSpan(ev.kind) || ev.kind == EventKind::kJobComplete;
}

}  // namespace

bool TraceRecorder::ExportChromeJson(const std::string& path) const {
  ExportWriter out(path);
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  const std::vector<const TraceEvent*> events = im.Ordered();
  // Anchor of each span id: where flow arrows out of that span start.
  std::unordered_map<std::uint64_t, const TraceEvent*> anchors;
  for (const TraceEvent* ev : events) {
    if (ev->span != kSpanNone && DefinesSpan(*ev)) {
      anchors.emplace(ev->span, ev);  // first (earliest) definition wins
    }
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&first, &out]() {
    if (!first) out << ",\n";
    first = false;
  };
  std::uint64_t flow_id = 0;
  for (const TraceEvent* evp : events) {
    const TraceEvent& ev = *evp;
    sep();
    out << "{\"name\":\"" << EventKindName(ev.kind)
        << "\",\"cat\":\"scan\",\"ph\":\"" << (IsSpan(ev.kind) ? "X" : "i")
        << "\"";
    if (!IsSpan(ev.kind)) out << ",\"s\":\"t\"";
    out << ",\"ts\":" << Exact{ev.time_tu * kMicrosPerTu};
    if (IsSpan(ev.kind)) {
      out << ",\"dur\":" << Exact{ev.duration_tu * kMicrosPerTu};
    }
    out << ",\"pid\":1,\"tid\":" << ev.track << ",\"args\":{\"a\":" << ev.a
        << ",\"b\":" << ev.b << ",\"v\":" << Exact{ev.value}
        << ",\"span\":" << ev.span << ",\"parent\":" << ev.parent << "}}";
    // Causal arrow parent -> this event, as a Perfetto flow pair. "bp":"e"
    // binds the finish to the enclosing slice rather than the next one.
    if (ev.parent != kSpanNone && ReceivesFlow(ev)) {
      const auto it = anchors.find(ev.parent);
      if (it != anchors.end()) {
        const TraceEvent& from = *it->second;
        const std::uint64_t id = ++flow_id;
        sep();
        out << "{\"name\":\"causal\",\"cat\":\"scan-flow\",\"ph\":\"s\",\"id\":"
            << id << ",\"ts\":" << Exact{from.time_tu * kMicrosPerTu}
            << ",\"pid\":1,\"tid\":" << from.track << "}";
        sep();
        out << "{\"name\":\"causal\",\"cat\":\"scan-flow\",\"ph\":\"f\",\"bp\":"
            << "\"e\",\"id\":" << id
            << ",\"ts\":" << Exact{ev.time_tu * kMicrosPerTu}
            << ",\"pid\":1,\"tid\":" << ev.track << "}";
      }
    }
  }
  out << (first ? "" : "\n") << "]}\n";
  return out.Close();
}

bool TraceRecorder::ExportJsonl(const std::string& path) const {
  ExportWriter out(path);
  Impl& im = impl();
  const std::scoped_lock lock(im.mutex);
  for (const TraceEvent* ev : im.Ordered()) {
    out << "{\"t\":" << Exact{ev->time_tu}
        << ",\"dur\":" << Exact{ev->duration_tu}
        << ",\"kind\":\"" << EventKindName(ev->kind)
        << "\",\"track\":" << ev->track << ",\"a\":" << ev->a
        << ",\"b\":" << ev->b << ",\"v\":" << Exact{ev->value}
        << ",\"span\":" << ev->span << ",\"parent\":" << ev->parent << "}\n";
  }
  return out.Close();
}

}  // namespace scan::obs
