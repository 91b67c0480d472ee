// Telemetry subsystem (src/telemetry/):
//
//   * multi-threaded writer stress: N threads x M nested spans through the
//     per-thread rings, zero lost or duplicated events, correct nesting;
//   * the hot path allocates nothing (global operator new/delete counters
//     around an emit window that stays inside one ring);
//   * fixed-seed pin: each FairBfl round record's live harvest
//     (BflRoundRecord::stats) equals the decoded trace dump's statistics
//     *exactly* (bit-identical doubles), so perf JSON derived live and
//     offline agree;
//   * JSON schema pin for the decoder export;
//   * Dump binary round-trip (encode/decode and save/load);
//   * FAIRBFL_TELEMETRY off emits nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/fairbfl.hpp"
#include "ml/partition.hpp"
#include "ml/synthetic_mnist.hpp"
#include "telemetry/decode.hpp"
#include "telemetry/telemetry.hpp"

// --- Global allocation counter ---------------------------------------------
// Replaces the binary's global new/delete with counting versions.  The
// allocation-free test snapshots the counter around an emit window on a
// quiescent thread; any Span/counter_add allocation shows up as a delta.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* ptr = std::malloc(size ? size : 1)) return ptr;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace {

namespace core = fairbfl::core;
namespace fl = fairbfl::fl;
namespace ml = fairbfl::ml;
namespace tel = fairbfl::telemetry;

// --- Stress ----------------------------------------------------------------

TEST(TelemetryStress, ManyThreadsLoseNothing) {
    tel::set_enabled(true);
    const tel::Label outer = tel::intern("stress.outer");
    const tel::Label inner = tel::intern("stress.inner");
    const tel::Label count = tel::intern("stress.count");

    // 8 threads x 1500 nested span pairs = 48k records: each ring (4096
    // slots) overflows several times, exercising the buffer-full
    // self-flush; thread exit exercises the retire flush.
    constexpr unsigned kThreads = 8;
    constexpr unsigned kSpans = 1500;
    tel::Session session;
    {
        std::vector<std::thread> workers;
        workers.reserve(kThreads);
        for (unsigned t = 0; t < kThreads; ++t) {
            workers.emplace_back([&session] {
                const tel::ContextScope scope(session.context(3));
                for (unsigned i = 0; i < kSpans; ++i) {
                    tel::Span span_outer(tel::intern("stress.outer"));
                    {
                        tel::Span span_inner(tel::intern("stress.inner"));
                        tel::counter_add(tel::intern("stress.count"), 1);
                    }
                }
            });
        }
        for (auto& worker : workers) worker.join();
    }

    const tel::RoundStats stats = session.harvest(3);
    // Zero lost events: every span's begin AND end arrived (a lost end
    // leaves an open span; a lost begin leaves an unmatched end that never
    // counts as a span), and every counter increment arrived.
    EXPECT_EQ(stats.open_spans, 0U);
    EXPECT_EQ(stats.labels.at(std::string(tel::label_name(outer))).spans,
              std::uint64_t{kThreads} * kSpans);
    EXPECT_EQ(stats.labels.at(std::string(tel::label_name(inner))).spans,
              std::uint64_t{kThreads} * kSpans);
    EXPECT_EQ(stats.sum_of(tel::label_name(count)),
              std::uint64_t{kThreads} * kSpans);
    // Zero duplicated events: records = 2 begin/end pairs + 1 counter per
    // iteration, exactly.
    EXPECT_EQ(stats.records, std::uint64_t{kThreads} * kSpans * 5);
    // Span time flows inward: outer covers inner on every thread.
    EXPECT_GE(stats.seconds_of(tel::label_name(outer)),
              stats.seconds_of(tel::label_name(inner)));
}

TEST(TelemetryStress, NestingAndCrossThreadParentage) {
    tel::set_enabled(true);
    const tel::Label outer = tel::intern("nest.outer");
    const tel::Label inner = tel::intern("nest.inner");

    tel::capture_begin();
    std::uint64_t outer_id = 0;
    {
        tel::Span span_outer(outer);
        const tel::Context ctx = tel::current_context();
        outer_id = ctx.parent;  // current open span = the outer span
        // A worker thread inherits the fan-out context: its span must
        // parent under the outer span even though it runs elsewhere.
        std::thread worker([&ctx] {
            const tel::ContextScope scope(ctx.with_item(7));
            tel::Span span_inner(tel::intern("nest.inner"));
        });
        worker.join();
    }
    const tel::Dump dump = tel::capture_end();

    ASSERT_NE(outer_id, 0U);
    bool saw_outer = false;
    bool saw_inner = false;
    for (const tel::Record& record : dump.records) {
        if (record.kind != tel::RecordKind::kSpanBegin) continue;
        if (record.label == outer) {
            saw_outer = true;
            EXPECT_EQ(record.value, outer_id);
            EXPECT_EQ(record.depth, 0);
            EXPECT_EQ(record.item, tel::kNoItem);
        } else if (record.label == inner) {
            saw_inner = true;
            EXPECT_EQ(record.parent, outer_id);  // cross-thread link
            EXPECT_EQ(record.item, 7U);
        }
    }
    EXPECT_TRUE(saw_outer);
    EXPECT_TRUE(saw_inner);
}

// --- Allocation-free hot path ----------------------------------------------

TEST(TelemetryHotPath, EmitsWithoutAllocating) {
    tel::set_enabled(true);
    // Intern outside the window (interning allocates, by design) and emit
    // once so this thread's ring is adopted.
    const tel::Label label = tel::intern("hot.span");
    const tel::Label counter = tel::intern("hot.counter");
    { tel::Span warmup(label); }
    tel::counter_add(counter, 1);
    tel::flush_all();  // empty the ring: the window below cannot overflow

    // 1000 spans + 1000 counters = 3000 records < 4096 ring slots, so no
    // self-flush and -- with no session and no capture -- no consumer
    // runs.  Every event is a plain slot store: zero allocations.
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        tel::Span span(label);
        tel::counter_add(counter, static_cast<std::uint64_t>(i));
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0U);
}

// --- Fixed-seed pin: live record.stats == decoded dump ---------------------

struct World {
    ml::Dataset data;
    std::unique_ptr<ml::Model> model;
    std::vector<ml::DatasetView> shards;
    ml::DatasetView test;

    // 32 clients: enough for the shard tree to keep 4 shards of >= 8
    // after the min_shard_clients clamp.
    explicit World(std::size_t clients = 32, std::uint64_t seed = 61)
        : data(ml::make_synthetic_mnist({.samples = 600,
                                         .feature_dim = 8,
                                         .num_classes = 4,
                                         .noise_sigma = 0.25,
                                         .seed = seed})) {
        model = ml::make_logistic_regression(8, 4);
        const auto split = ml::train_test_split(data, 0.2, seed);
        test = split.test;
        ml::PartitionParams params;
        params.scheme = ml::PartitionScheme::kIid;
        params.num_clients = clients;
        params.seed = seed;
        shards = ml::partition(split.train, params);
    }

    [[nodiscard]] std::vector<fl::Client> clients() const {
        return fl::make_clients(*model, shards);
    }
};

core::FairBflConfig pin_config() {
    core::FairBflConfig config;
    config.fl.client_ratio = 1.0;
    config.fl.rounds = 3;
    config.fl.sgd.learning_rate = 0.1;
    config.fl.sgd.epochs = 2;
    config.fl.sgd.batch_size = 10;
    config.fl.seed = 42;
    config.miners = 2;
    return config;
}

TEST(TelemetryPin, LiveStatsMatchDecodedDumpExactly) {
    tel::set_enabled(true);
    World world;
    core::FairBfl system(*world.model, world.clients(), world.test,
                         pin_config());
    const std::uint32_t sid = system.telemetry_session().id();

    tel::capture_begin();
    const auto history = system.run();
    const tel::Dump live = tel::capture_end();
    ASSERT_EQ(history.size(), 3U);
    ASSERT_FALSE(live.records.empty());

    // Round-trip through the binary format: the offline path is the
    // decoded file, not the in-memory capture.
    const tel::Dump dump = tel::Dump::decode(live.encode());

    for (std::size_t r = 0; r < history.size(); ++r) {
        const tel::RoundStats& live_stats = history[r].stats;
        const tel::RoundStats dump_stats =
            tel::dump_round_stats(dump, sid, static_cast<std::uint32_t>(r));
        // Exactly equal, not approximately: the capture and the session
        // harvest route the same records in the same order, and
        // round_stats sums deterministically, so live and offline must be
        // bit-identical -- every label, every field.
        EXPECT_EQ(live_stats.session, dump_stats.session) << "round " << r;
        EXPECT_EQ(live_stats.round, dump_stats.round) << "round " << r;
        EXPECT_EQ(live_stats.records, dump_stats.records) << "round " << r;
        EXPECT_EQ(live_stats.open_spans, dump_stats.open_spans)
            << "round " << r;
        ASSERT_EQ(live_stats.labels.size(), dump_stats.labels.size())
            << "round " << r;
        for (const auto& [name, live] : live_stats.labels) {
            const auto found = dump_stats.labels.find(name);
            ASSERT_NE(found, dump_stats.labels.end())
                << "round " << r << " label " << name;
            const tel::LabelStats& offline = found->second;
            EXPECT_EQ(live.span_seconds, offline.span_seconds)
                << "round " << r << " label " << name;
            EXPECT_EQ(live.spans, offline.spans)
                << "round " << r << " label " << name;
            EXPECT_EQ(live.counter_sum, offline.counter_sum)
                << "round " << r << " label " << name;
            EXPECT_EQ(live.counter_max, offline.counter_max)
                << "round " << r << " label " << name;
            EXPECT_EQ(live.events, offline.events)
                << "round " << r << " label " << name;
        }
        // And the stages really ran: every watched stage is positive.
        EXPECT_GT(live_stats.seconds_of("round.local"), 0.0) << "round " << r;
        EXPECT_GT(live_stats.seconds_of("round.cluster"), 0.0)
            << "round " << r;
        EXPECT_GT(live_stats.seconds_of("cluster.index_build"), 0.0)
            << "round " << r;
        EXPECT_GT(live_stats.max_of("cluster.index_bytes"), 0U)
            << "round " << r;
    }

    // Simulated delay components ride along as counters.
    const tel::RoundStats r0 = tel::dump_round_stats(dump, sid, 0);
    EXPECT_GT(r0.sum_of("delay.local_ns"), 0U);
    EXPECT_GT(r0.sum_of("delay.bl_ns"), 0U);
    // Per-client training spans carry the client ordinal.
    EXPECT_EQ(r0.labels.at("local.client").spans, 32U);
}

TEST(TelemetryPin, UploadPhaseSpansEveryClient) {
    // Procedure II's sign/verify/encrypt/open work sits under one
    // round.uploads span per round, with one upload.client span per
    // update on whichever worker ran it.
    tel::set_enabled(true);
    World world;
    auto config = pin_config();
    config.key_bits = 384;
    config.encrypt_gradients = true;
    core::FairBfl system(*world.model, world.clients(), world.test, config);
    const std::uint32_t sid = system.telemetry_session().id();
    tel::capture_begin();
    (void)system.run(2);
    const tel::Dump dump = tel::capture_end();
    for (std::uint32_t r = 0; r < 2; ++r) {
        const tel::RoundStats stats = tel::dump_round_stats(dump, sid, r);
        EXPECT_EQ(stats.labels.at("round.uploads").spans, 1U) << r;
        EXPECT_EQ(stats.labels.at("upload.client").spans, 32U) << r;
        EXPECT_GT(stats.seconds_of("round.uploads"), 0.0) << r;
        EXPECT_GT(stats.seconds_of("upload.client"), 0.0) << r;
    }
}

// --- JSON schema pin --------------------------------------------------------

TEST(TelemetryDecode, JsonSchemaIsPinned) {
    tel::set_enabled(true);
    tel::capture_begin();
    {
        const tel::ContextScope scope(
            tel::Context{.session = 0, .round = 5});
        tel::Span span(tel::labels::round_local());
        tel::counter_max(tel::labels::index_bytes(), 4096);
    }
    const tel::Dump dump = tel::capture_end();
    const std::string json = tel::to_json(dump);

    // The export is the bench_perf_round shape: schema_version plus the
    // per-round `seconds.*` stage keys -- renaming any of these breaks
    // scripts/compare_perf.py, so the strings are pinned here.
    for (const char* needle :
         {"\"trace\": \"fairbfl_telemetry\"", "\"schema_version\": 3",
          "\"rounds\": [", "\"seconds\": {", "\"local\":", "\"cluster\":",
          "\"index_build\":", "\"aggregate\":", "\"mine\":",
          "\"wait_quorum\":", "\"total\":",
          "\"index_peak_bytes\": 4096", "\"round\": 5"}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing JSON key: " << needle;
    }

    const std::string text = tel::to_text(dump);
    EXPECT_NE(text.find("round.local"), std::string::npos);
    EXPECT_NE(text.find("cluster.index_bytes"), std::string::npos);
}

// --- Dump round-trip --------------------------------------------------------

TEST(TelemetryDump, BinaryRoundTripAndFile) {
    tel::set_enabled(true);
    tel::capture_begin();
    {
        tel::Span span(tel::intern("dump.span"));
        tel::counter_add(tel::intern("dump.counter"), 99);
    }
    const tel::Dump dump = tel::capture_end();
    ASSERT_GE(dump.records.size(), 3U);

    const tel::Dump back = tel::Dump::decode(dump.encode());
    ASSERT_EQ(back.records.size(), dump.records.size());
    ASSERT_EQ(back.labels.size(), dump.labels.size());
    for (std::size_t i = 0; i < dump.records.size(); ++i) {
        EXPECT_EQ(back.records[i].time_ns, dump.records[i].time_ns);
        EXPECT_EQ(back.records[i].value, dump.records[i].value);
        EXPECT_EQ(back.records[i].label, dump.records[i].label);
        EXPECT_EQ(back.records[i].kind, dump.records[i].kind);
    }
    EXPECT_EQ(back.name_of(tel::intern("dump.span")), "dump.span");

    const std::string path = ::testing::TempDir() + "telemetry_dump.fbtl";
    ASSERT_TRUE(dump.save(path));
    const auto loaded = tel::Dump::load(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->records.size(), dump.records.size());
    std::remove(path.c_str());

    // Corrupt stream: load refuses instead of throwing across main.
    EXPECT_THROW((void)tel::Dump::decode({}), std::invalid_argument);
}

// --- Disabled switch --------------------------------------------------------

TEST(TelemetrySwitch, DisabledEmitsNothing) {
    tel::set_enabled(false);
    tel::Session session;
    {
        const tel::ContextScope scope(session.context(1));
        tel::Span span(tel::intern("off.span"));
        tel::counter_add(tel::intern("off.counter"), 1);
    }
    const tel::RoundStats stats = session.harvest(1);
    EXPECT_EQ(stats.records, 0U);
    tel::set_enabled(true);

    // Re-enabled: the same code path emits again.
    tel::Session session2;
    {
        const tel::ContextScope scope(session2.context(1));
        tel::Span span(tel::intern("off.span"));
    }
    EXPECT_EQ(session2.harvest(1).labels.at("off.span").spans, 1U);
}

}  // namespace
