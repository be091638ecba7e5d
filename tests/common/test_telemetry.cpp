// Telemetry layer: registry semantics, histogram bucketing, deterministic
// counters under every supported thread count, chrome-trace export
// round-trip, concurrent span recording vs export (a race for tsan), the
// kill-switch macros and the shared JSON parser.
//
// The file compiles in both build flavors: with CONVOLVE_TELEMETRY=OFF only
// the macro no-op and JSON parser tests remain, which is itself the test --
// the macros must vanish without dragging any telemetry symbol into the
// binary (pinned by the nm check in telemetry_off_smoke).
#include "convolve/common/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "convolve/common/json.hpp"
#include "convolve/common/parallel.hpp"
#include "convolve/tee/machine.hpp"
#include "convolve/tee/rv32.hpp"

namespace convolve {
namespace {

// --- Kill-switch macros (both build flavors) ---------------------------
// In OFF builds the operands are never evaluated, so referencing an
// undefined entity inside CONVOLVE_TELEMETRY_ONLY must compile.
TEST(TelemetryMacros, CompileToNoOpsWhenDisabled) {
  int evaluated = 0;
  CONVOLVE_TELEMETRY_ONLY(evaluated += 1;)
  {
    CONVOLVE_TRACE_SPAN("test.macro_span");
  }
#if CONVOLVE_TELEMETRY_ENABLED
  EXPECT_EQ(evaluated, 1);
#else
  EXPECT_EQ(evaluated, 0);
#endif
}

// The event and span-arg macros follow the same discipline: in OFF
// builds both expand to ((void)0) and their operands are never
// evaluated (the side effect below must not fire).
TEST(TelemetryMacros, EventMacrosCompileBothFlavors) {
  RequestContext ctx;
  ctx.tenant = 3;
  ctx.seq = 41;
  int evaluated = 0;
  CONVOLVE_RECORD_EVENT(kCowBurst, ctx, 0, (evaluated += 1, 7));
  {
    CONVOLVE_TRACE_SPAN_ARG("test.macro_span_arg", "seq", ctx.seq);
  }
#if CONVOLVE_TELEMETRY_ENABLED
  EXPECT_EQ(evaluated, 1);
  telemetry::reset_events();
  telemetry::reset_trace();
#else
  EXPECT_EQ(evaluated, 0);
#endif
}

// --- JSON parser (both build flavors) ---------------------------------
// The parser recurses per nesting level; a hostile document must get a
// typed error at the cap instead of overflowing the stack.
TEST(JsonParse, NestingDepthIsCapped) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(json::parse(nested(json::kMaxDepth)));
  EXPECT_THROW(json::parse(nested(json::kMaxDepth + 1)),
               json::JsonParseError);
  EXPECT_THROW(json::parse(nested(200000)), json::JsonParseError);
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"a\":";
  objects += "1" + std::string(200000, '}');
  EXPECT_THROW(json::parse(objects), json::JsonParseError);
}

#if CONVOLVE_TELEMETRY_ENABLED

telemetry::Counter t_test_counter{"test.counter"};
telemetry::Gauge t_test_gauge{"test.gauge"};
telemetry::Histogram t_test_hist{"test.histogram"};

TEST(TelemetryRegistry, CounterAddAndSnapshot) {
  const std::uint64_t before =
      telemetry::snapshot().counter_value("test.counter");
  t_test_counter.add();
  t_test_counter.add(41);
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counter_value("test.counter"), before + 42);
  const auto* entry = snap.find("test.counter");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, telemetry::MetricKind::kCounter);
}

TEST(TelemetryRegistry, GaugeHoldsLastValue) {
  t_test_gauge.set(-7);
  t_test_gauge.set(1234);
  const auto snap = telemetry::snapshot();
  const auto* entry = snap.find("test.gauge");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, telemetry::MetricKind::kGauge);
  EXPECT_EQ(entry->gauge, 1234);
}

TEST(TelemetryRegistry, SnapshotIsSortedByName) {
  const auto snap = telemetry::snapshot();
  ASSERT_GE(snap.entries.size(), 2u);
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
  }
}

TEST(TelemetryHistogram, BucketBoundaries) {
  using H = telemetry::Histogram;
  // Bucket 0 is exactly {0}; bucket b >= 1 covers [2^(b-1), 2^b).
  EXPECT_EQ(H::bucket_index(0), 0);
  EXPECT_EQ(H::bucket_index(1), 1);
  EXPECT_EQ(H::bucket_index(2), 2);
  EXPECT_EQ(H::bucket_index(3), 2);
  EXPECT_EQ(H::bucket_index(4), 3);
  EXPECT_EQ(H::bucket_index(1023), 10);
  EXPECT_EQ(H::bucket_index(1024), 11);
  EXPECT_EQ(H::bucket_index(~0ull), 64);
  for (int b = 0; b < H::kBuckets; ++b) {
    EXPECT_EQ(H::bucket_index(H::bucket_lo(b)), b) << "lo of bucket " << b;
    EXPECT_EQ(H::bucket_index(H::bucket_hi(b)), b) << "hi of bucket " << b;
  }
  EXPECT_EQ(H::bucket_lo(1), 1u);
  EXPECT_EQ(H::bucket_hi(1), 1u);
  EXPECT_EQ(H::bucket_lo(11), 1024u);
  EXPECT_EQ(H::bucket_hi(11), 2047u);
}

TEST(TelemetryHistogram, RecordAccumulatesCountSumBuckets) {
  t_test_hist.reset();
  for (std::uint64_t v : {0ull, 1ull, 5ull, 5ull, 1024ull}) {
    t_test_hist.record(v);
  }
  EXPECT_EQ(t_test_hist.count(), 5u);
  EXPECT_EQ(t_test_hist.sum(), 1035u);
  EXPECT_EQ(t_test_hist.bucket(0), 1u);   // {0}
  EXPECT_EQ(t_test_hist.bucket(1), 1u);   // {1}
  EXPECT_EQ(t_test_hist.bucket(3), 2u);   // [4,8)
  EXPECT_EQ(t_test_hist.bucket(11), 1u);  // [1024,2048)

  const auto snap = telemetry::snapshot();
  const auto* entry = snap.find("test.histogram");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 5u);
  EXPECT_EQ(entry->sum, 1035u);
  // Snapshot keeps only nonzero buckets, each tagged with its range.
  ASSERT_EQ(entry->buckets.size(), 4u);
  EXPECT_EQ(entry->buckets[2].lo, 4u);
  EXPECT_EQ(entry->buckets[2].hi, 7u);
  EXPECT_EQ(entry->buckets[2].count, 2u);
}

TEST(TelemetrySnapshot, JsonParsesWithExpectedSections) {
  t_test_counter.add(1);
  const std::string text = telemetry::snapshot().to_json();
  const auto root = json::parse(text);
  ASSERT_TRUE(root.is_object());
  for (const char* key : {"counters", "gauges", "histograms"}) {
    const auto* section = root.find(key);
    ASSERT_NE(section, nullptr) << key;
    EXPECT_TRUE(section->is_object()) << key;
  }
  const auto* c = root.find("counters")->find("test.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->is_number());
  const auto* h = root.find("histograms")->find("test.histogram");
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->is_object());
  EXPECT_NE(h->find("count"), nullptr);
  EXPECT_NE(h->find("buckets"), nullptr);
}

// The pool counts one pool.tasks per executed chunk, on both the serial
// and the work-stealing path, so the delta for a fixed workload must be
// identical at every thread count (steal balance may differ; totals not).
TEST(TelemetryPool, TaskCountDeterministicAcrossThreadCounts) {
  constexpr std::uint64_t kItems = 300;
  constexpr std::uint64_t kGrain = 4;
  std::vector<std::uint64_t> deltas;
  for (int threads : {1, 2, 4, 7}) {
    par::ScopedThreadCount scope(threads);
    const std::uint64_t before =
        telemetry::snapshot().counter_value("pool.tasks");
    std::atomic<std::uint64_t> sink{0};
    par::parallel_for(
        kItems,
        [&](std::uint64_t i) {
          sink.fetch_add(i, std::memory_order_relaxed);
        },
        kGrain);
    deltas.push_back(telemetry::snapshot().counter_value("pool.tasks") -
                     before);
  }
  ASSERT_EQ(deltas.size(), 4u);
  EXPECT_GT(deltas[0], 0u);
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    EXPECT_EQ(deltas[i], deltas[0]) << "thread count variant " << i;
  }
}

TEST(TelemetryTrace, ChromeTraceRoundTrip) {
  telemetry::reset_trace();
  {
    CONVOLVE_TRACE_SPAN("test.roundtrip_span");
  }
  telemetry::record_span("test.explicit_span", telemetry::trace_now_ns(), 250);

  const auto root = json::parse(telemetry::chrome_trace_json());
  ASSERT_TRUE(root.is_object());
  const auto* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool saw_thread_name = false;
  bool saw_roundtrip = false;
  bool saw_explicit = false;
  for (const auto& ev : events->arr) {
    ASSERT_TRUE(ev.is_object());
    const auto* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    const auto* name = ev.find("name");
    ASSERT_NE(name, nullptr);
    if (ph->str == "M" && name->str == "thread_name") saw_thread_name = true;
    if (ph->str == "X") {
      EXPECT_NE(ev.find("ts"), nullptr);
      EXPECT_NE(ev.find("dur"), nullptr);
      EXPECT_NE(ev.find("tid"), nullptr);
      if (name->str == "test.roundtrip_span") saw_roundtrip = true;
      if (name->str == "test.explicit_span") saw_explicit = true;
    }
  }
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(saw_roundtrip);
  EXPECT_TRUE(saw_explicit);
}

// Workers recording pool.task spans while another thread exports the trace:
// the append (release count store) / export (acquire load) pair is the
// race a ThreadSanitizer build would report.
TEST(TelemetryTrace, ExportConcurrentWithSpanRecording) {
  telemetry::reset_trace();
  par::ScopedThreadCount scope(4);
  std::atomic<bool> stop{false};
  std::thread exporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string text = telemetry::chrome_trace_json();
      EXPECT_FALSE(text.empty());
    }
  });
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::uint64_t> sink{0};
    par::parallel_for(
        200,
        [&](std::uint64_t i) {
          CONVOLVE_TRACE_SPAN("test.concurrent_span");
          sink.fetch_add(i, std::memory_order_relaxed);
        },
        2);
  }
  stop.store(true, std::memory_order_release);
  exporter.join();
  // The final export parses and contains at least one recorded span.
  const auto root = json::parse(telemetry::chrome_trace_json());
  ASSERT_TRUE(root.find("traceEvents") != nullptr);
  EXPECT_GT(root.find("traceEvents")->arr.size(), 0u);
}

TEST(TelemetryTrace, FullRingBufferDropsAndCounts) {
  const std::uint64_t dropped_before = telemetry::dropped_span_count();
  // A fresh thread gets a fresh ring buffer; overflow it by 100 spans.
  std::thread victim([] {
    constexpr int kOverflow = 16384 + 100;
    for (int i = 0; i < kOverflow; ++i) {
      telemetry::record_span("test.overflow", 0, 1);
    }
  });
  victim.join();
  EXPECT_GE(telemetry::dropped_span_count(), dropped_before + 100);
  telemetry::reset_trace();
}

// Rv32Cpu batches retired-instruction counts locally and publishes on
// flush/destruction -- the counter delta must equal the executed steps.
TEST(TelemetryRv32, RetiredCounterFlushedOnDestruction) {
  const std::uint64_t before =
      telemetry::snapshot().counter_value("rv32.instructions_retired");
  std::uint64_t steps = 0;
  {
    namespace rv = tee::rv32asm;
    tee::Machine machine{1 << 16};
    // addi x1,x1,1; jal x0,-4 -- a 2-instruction infinite loop.
    machine.store(0x1000, rv::assemble({rv::addi(1, 1, 1), rv::jal(0, -4)}),
                  tee::PrivMode::kMachine);
    tee::Rv32Cpu cpu(machine, 0x1000, tee::PrivMode::kMachine);
    steps = cpu.run(5000).steps;
  }
  EXPECT_EQ(steps, 5000u);
  const std::uint64_t after =
      telemetry::snapshot().counter_value("rv32.instructions_retired");
  EXPECT_GE(after - before, steps);
}

// --- Histogram percentiles ---------------------------------------------

telemetry::Histogram t_pct_hist{"test.percentile.histogram"};

TEST(TelemetryHistogram, PercentileMatchesStatsContract) {
  t_pct_hist.reset();
  // Live-handle and snapshot percentiles must agree with the shared
  // log2_buckets_percentile contract (nearest rank, upper bucket bound):
  // same fixture as the stats unit test -- values 1..10.
  Log2Histogram reference;
  for (std::uint64_t v = 1; v <= 10; ++v) {
    t_pct_hist.record(v);
    reference.record(v);
  }
  for (double p : {0.0, 10.0, 11.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(t_pct_hist.percentile(p), reference.percentile(p)) << "p" << p;
  }
  EXPECT_EQ(t_pct_hist.percentile(50), 7u);
  EXPECT_EQ(t_pct_hist.percentile(99), 15u);

  const auto snap = telemetry::snapshot();
  for (double p : {10.0, 50.0, 99.0}) {
    EXPECT_EQ(snap.histogram_percentile("test.percentile.histogram", p),
              reference.percentile(p))
        << "p" << p;
  }
  // Absent or non-histogram names answer 0.
  EXPECT_EQ(snap.histogram_percentile("no.such.metric", 50), 0u);
  EXPECT_EQ(snap.histogram_percentile("rv32.instructions_retired", 50), 0u);
}

// --- Flight-recorder event log -----------------------------------------

TEST(TelemetryEvents, RecordCollectRoundTrip) {
  telemetry::reset_events();
  RequestContext ctx;
  ctx.tenant = 2;
  ctx.seq = 77;
  ctx.fork_id = 78;
  ctx.enclave = 1;
  telemetry::record_event(telemetry::EventKind::kPmpFault, ctx, 1,
                          0xdeadbeefull);
  CONVOLVE_RECORD_EVENT(kRequestDone, ctx, 0x02, 1234);

  const auto events = telemetry::collect_events();
  ASSERT_EQ(events.size(), 2u);
  // Same thread -> insertion order is preserved by the export.
  EXPECT_EQ(events[0].kind,
            static_cast<std::uint8_t>(telemetry::EventKind::kPmpFault));
  EXPECT_EQ(events[0].tenant, 2);
  EXPECT_EQ(events[0].seq, 77u);
  EXPECT_EQ(events[0].fork_id, 78u);
  EXPECT_EQ(events[0].enclave, 1);
  EXPECT_EQ(events[0].code, 1);
  EXPECT_EQ(events[0].value, 0xdeadbeefull);
  EXPECT_EQ(events[1].kind,
            static_cast<std::uint8_t>(telemetry::EventKind::kRequestDone));
  EXPECT_EQ(events[1].code, 0x02);
  EXPECT_EQ(events[1].value, 1234u);

  const auto stats = telemetry::event_log_stats();
  EXPECT_EQ(stats.recorded, 2u);
  EXPECT_EQ(stats.by_kind[static_cast<int>(telemetry::EventKind::kPmpFault)],
            1u);
  EXPECT_EQ(
      stats.by_kind[static_cast<int>(telemetry::EventKind::kRequestDone)],
      1u);
  telemetry::reset_events();
}

TEST(TelemetryEvents, JsonlLinesParse) {
  telemetry::reset_events();
  RequestContext ctx;
  ctx.tenant = 5;
  ctx.seq = 9;
  telemetry::record_event(telemetry::EventKind::kTdmShed, ctx, 0, 3);
  telemetry::record_event(telemetry::EventKind::kSealReject, ctx, 1, 64);

  const std::string text = telemetry::events_jsonl();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++lines;
    const auto root = json::parse(line);
    ASSERT_TRUE(root.is_object());
    for (const char* key :
         {"t_ns", "tenant", "seq", "fork", "enclave", "code", "value"}) {
      const auto* v = root.find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_TRUE(v->is_number()) << key;
    }
    const auto* kind = root.find("kind");
    ASSERT_NE(kind, nullptr);
    ASSERT_TRUE(kind->is_string());
    EXPECT_TRUE(kind->str == "tdm_shed" || kind->str == "seal_reject");
  }
  EXPECT_EQ(lines, 2u);
  telemetry::reset_events();
}

// Satellite gate: a ring that overflows must surface both the total and
// the per-thread drop counter in the metrics snapshot (events here,
// spans in the mirror test below).
TEST(TelemetryEvents, FullRingDropsCountedInSnapshot) {
  const std::uint64_t dropped_before = telemetry::dropped_event_count();
  std::thread victim([] {
    RequestContext ctx;
    constexpr int kOverflow = 16384 + 100;
    for (int i = 0; i < kOverflow; ++i) {
      telemetry::record_event(telemetry::EventKind::kCowBurst, ctx, 0,
                              static_cast<std::uint64_t>(i));
    }
  });
  victim.join();
  EXPECT_GE(telemetry::dropped_event_count(), dropped_before + 100);

  const auto snap = telemetry::snapshot();
  EXPECT_GE(snap.counter_value("telemetry.events.dropped"),
            dropped_before + 100);
  bool saw_ring = false;
  for (const auto& entry : snap.entries) {
    if (entry.name.rfind("telemetry.events.dropped.", 0) == 0 &&
        entry.counter >= 100) {
      saw_ring = true;
    }
  }
  EXPECT_TRUE(saw_ring) << "no per-ring telemetry.events.dropped.<thread>";
  telemetry::reset_events();
}

TEST(TelemetryTrace, FullSpanRingDropsCountedInSnapshot) {
  const std::uint64_t dropped_before = telemetry::dropped_span_count();
  std::thread victim([] {
    constexpr int kOverflow = 16384 + 100;
    for (int i = 0; i < kOverflow; ++i) {
      telemetry::record_span("test.snapshot_overflow", 0, 1);
    }
  });
  victim.join();
  const auto snap = telemetry::snapshot();
  EXPECT_GE(snap.counter_value("telemetry.spans.dropped"),
            dropped_before + 100);
  bool saw_ring = false;
  for (const auto& entry : snap.entries) {
    if (entry.name.rfind("telemetry.spans.dropped.", 0) == 0 &&
        entry.counter >= 100) {
      saw_ring = true;
    }
  }
  EXPECT_TRUE(saw_ring) << "no per-ring telemetry.spans.dropped.<thread>";
  telemetry::reset_trace();
}

TEST(TelemetryTrace, SpanArgExportedToChromeTrace) {
  telemetry::reset_trace();
  {
    CONVOLVE_TRACE_SPAN_ARG("test.arg_span", "seq", 4242);
  }
  const auto root = json::parse(telemetry::chrome_trace_json());
  const auto* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw = false;
  for (const auto& ev : events->arr) {
    const auto* name = ev.find("name");
    if (name == nullptr || name->str != "test.arg_span") continue;
    const auto* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_TRUE(args->is_object());
    const auto* seq = args->find("seq");
    ASSERT_NE(seq, nullptr);
    ASSERT_TRUE(seq->is_number());
    EXPECT_EQ(static_cast<std::uint64_t>(seq->number), 4242u);
    saw = true;
  }
  EXPECT_TRUE(saw);
  telemetry::reset_trace();
}

// --- Labeled metric families -------------------------------------------

telemetry::CounterFamily t_fam_counter{"test.family.counter"};
telemetry::HistogramFamily t_fam_hist{"test.family.hist"};

TEST(TelemetryFamily, SlotsAndOverflowClamp) {
  t_fam_counter.add(0);
  t_fam_counter.add(3, 5);
  t_fam_counter.add(12);   // past kSlots -> overflow member
  t_fam_counter.add(-1);   // negative -> overflow member
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counter_value("test.family.counter.0"), 1u);
  EXPECT_EQ(snap.counter_value("test.family.counter.3"), 5u);
  EXPECT_EQ(snap.counter_value("test.family.counter.overflow"), 2u);

  t_fam_hist.record(1, 100);
  t_fam_hist.record(telemetry::HistogramFamily::kSlots + 3, 50);
  const auto snap2 = telemetry::snapshot();
  const auto* member = snap2.find("test.family.hist.1");
  ASSERT_NE(member, nullptr);
  EXPECT_EQ(member->count, 1u);
  EXPECT_EQ(member->sum, 100u);
  const auto* overflow = snap2.find("test.family.hist.overflow");
  ASSERT_NE(overflow, nullptr);
  EXPECT_EQ(overflow->count, 1u);
  EXPECT_EQ(overflow->sum, 50u);
}

#endif  // CONVOLVE_TELEMETRY_ENABLED

}  // namespace
}  // namespace convolve
