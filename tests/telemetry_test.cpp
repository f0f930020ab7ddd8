// Tests for the telemetry plane's observability half: the SLO time-series
// sampler (counter differencing, window aggregation),
// the health model, and the TelemetryServer endpoints over a real socket.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/net.hpp"
#include "net/server.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace kairos::obs {
namespace {

/// Lets the differencing interval accumulate measurable wall time.
void let_time_pass() {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(TimeSeriesSamplerTest, DifferencesCountersIntoRates) {
  Registry registry;
  const Counter admissions = registry.counter("service.admissions");
  const Counter rejections = registry.counter("service.rejections");
  const Gauge depth = registry.gauge("service.queue_depth");

  TimeSeriesSampler sampler(registry, {/*interval_ms=*/250, /*capacity=*/16});
  sampler.sample_now();  // primes the baseline, no point emitted
  EXPECT_TRUE(sampler.series().empty());

  admissions.add(10);
  rejections.add(2);
  depth.set(5.0);
  let_time_pass();
  sampler.sample_now();

  const auto series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  const TimeSeriesPoint& point = series.front();
  EXPECT_GT(point.dt_ms, 0.0);
  EXPECT_GT(point.admissions_per_sec, 0.0);
  EXPECT_GT(point.rejections_per_sec, 0.0);
  // 10 admissions to 2 rejections: the rate ratio survives differencing.
  EXPECT_NEAR(point.admissions_per_sec / point.rejections_per_sec, 5.0, 0.01);
  EXPECT_DOUBLE_EQ(point.queue_depth, 5.0);

  // No new deltas: the next point's rates return to zero.
  let_time_pass();
  sampler.sample_now();
  EXPECT_DOUBLE_EQ(sampler.series().back().admissions_per_sec, 0.0);
}

TEST(TimeSeriesSamplerTest, RingIsBoundedAndWindowAggregates) {
  Registry registry;
  const Counter admissions = registry.counter("service.admissions");
  TimeSeriesSampler sampler(registry, {250, /*capacity=*/4});
  sampler.sample_now();
  for (int i = 0; i < 8; ++i) {
    admissions.add(1);
    let_time_pass();
    sampler.sample_now();
  }
  EXPECT_EQ(sampler.series().size(), 4u);

  // Window rate = total delta over total time of the covered span.
  const TimeSeriesPoint window = sampler.window(4);
  EXPECT_GT(window.admissions_per_sec, 0.0);
  EXPECT_GT(window.dt_ms, sampler.series().back().dt_ms * 2);

  // Asking for more points than exist clamps instead of failing.
  EXPECT_GT(sampler.window(100).dt_ms, 0.0);
  // An empty sampler reports zeros.
  TimeSeriesSampler empty(registry);
  EXPECT_DOUBLE_EQ(empty.window(10).dt_ms, 0.0);
}

TEST(TimeSeriesSamplerTest, P99CoversTheIntervalNotTheProcessLifetime) {
  Registry registry;
  const Histogram latency = registry.histogram("service.latency_ms");
  TimeSeriesSampler sampler(registry, {250, /*capacity=*/16});
  sampler.sample_now();

  for (int i = 0; i < 2000; ++i) latency.record(1.0);
  sampler.sample_now();
  EXPECT_NEAR(sampler.series().back().p99_latency_ms, 1.0, 0.02);

  // Late degradation: ten slow requests are the whole of the next interval,
  // though only 0.5% of all requests since the start.
  for (int i = 0; i < 10; ++i) latency.record(100.0);
  sampler.sample_now();
  EXPECT_GE(sampler.series().back().p99_latency_ms, 99.0);
  EXPECT_NEAR(latency.stats().p99, 1.0, 0.02);
  EXPECT_GE(sampler.window(2).p99_latency_ms, 99.0);

  // An interval without requests has no p99 to breach with.
  sampler.sample_now();
  EXPECT_DOUBLE_EQ(sampler.series().back().p99_latency_ms, 0.0);

  // A registry reset between ticks starts the next interval from zero.
  registry.reset();
  latency.record(5.0);
  sampler.sample_now();
  EXPECT_NEAR(sampler.series().back().p99_latency_ms, 5.0, 0.1);
}

TEST(TimeSeriesSamplerTest, BackgroundThreadSamplesOnItsOwn) {
  Registry registry;
  const Counter admissions = registry.counter("service.admissions");
  TimeSeriesSampler sampler(registry, {/*interval_ms=*/10, /*capacity=*/64});
  sampler.start();
  EXPECT_TRUE(sampler.running());
  admissions.add(3);
  for (int i = 0; i < 100 && sampler.series().empty(); ++i) let_time_pass();
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_FALSE(sampler.series().empty());

  std::ostringstream out;
  sampler.write_json(out);
  EXPECT_NE(out.str().find("\"interval_ms\":10"), std::string::npos);
  EXPECT_NE(out.str().find("\"points\":["), std::string::npos);
  EXPECT_NE(out.str().find("\"admissions_per_sec\""), std::string::npos);
}

TEST(TimeSeriesSamplerTest, WorkRightAfterStartLandsInTheFirstInterval) {
  Registry registry;
  const Histogram latency = registry.histogram("service.latency_ms");
  // The thread's own ticks are a minute apart, so the only tick that can
  // follow the request is sample_now(); no scheduling delay moves it.
  TimeSeriesSampler sampler(registry, {/*interval_ms=*/60000, /*capacity=*/64});
  sampler.start();
  // Recorded before the sampling thread may even have run: start() has
  // already taken the baseline, so the request is not swallowed by it.
  latency.record(100.0);
  sampler.sample_now();
  sampler.stop();
  const std::vector<TimeSeriesPoint> series = sampler.series();
  EXPECT_TRUE(std::any_of(series.begin(), series.end(),
                          [](const TimeSeriesPoint& point) {
                            return point.p99_latency_ms >= 99.0;
                          }));
}

TEST(HealthModelTest, NoDataIsOk) {
  SloConfig slo;
  slo.max_queue_depth = 1.0;
  const HealthReport report = evaluate_health({}, /*have_data=*/false, slo);
  EXPECT_EQ(report.status, HealthStatus::kOk);
  EXPECT_EQ(report.note, "no data");
}

TEST(HealthModelTest, DisabledThresholdsNeverBreach) {
  TimeSeriesPoint window;
  window.p99_latency_ms = 1e9;
  window.queue_depth = 1e9;
  const HealthReport report = evaluate_health(window, true, SloConfig{});
  EXPECT_EQ(report.status, HealthStatus::kOk);
  for (const HealthCheck& check : report.checks) {
    EXPECT_FALSE(check.breached) << check.name;
  }
}

TEST(HealthModelTest, SingleMildBreachDegrades) {
  SloConfig slo;
  slo.max_queue_depth = 10.0;
  TimeSeriesPoint window;
  window.queue_depth = 15.0;  // above threshold, below 2x
  const HealthReport report = evaluate_health(window, true, slo);
  EXPECT_EQ(report.status, HealthStatus::kDegraded);
}

TEST(HealthModelTest, SevereOrRepeatedBreachFails) {
  SloConfig slo;
  slo.max_queue_depth = 10.0;
  slo.max_p99_latency_ms = 100.0;

  TimeSeriesPoint severe;
  severe.queue_depth = 20.0;  // exactly 2x: failing
  EXPECT_EQ(evaluate_health(severe, true, slo).status, HealthStatus::kFailing);

  TimeSeriesPoint repeated;
  repeated.queue_depth = 11.0;        // mild breach
  repeated.p99_latency_ms = 101.0;  // second mild breach
  EXPECT_EQ(evaluate_health(repeated, true, slo).status,
            HealthStatus::kFailing);
}

TEST(HealthModelTest, JsonCarriesPerCheckDetail) {
  SloConfig slo;
  slo.max_p99_latency_ms = 2.0;
  TimeSeriesPoint window;
  window.p99_latency_ms = 3.0;
  std::ostringstream out;
  write_health_json(evaluate_health(window, true, slo), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"p99_latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"breached\":true"), std::string::npos);
}

/// Everything a TelemetryServer serves, privately owned by one test.
struct Plane {
  Registry registry;
  Tracer tracer;
  EventLog event_log;
  TimeSeriesSampler sampler;
  TelemetryServer telemetry;
  net::Server server;
  net::Address address;

  explicit Plane(TelemetryServer::Options options = {})
      : sampler(registry, {250, 64}),
        telemetry(registry, tracer, event_log, sampler, options),
        server(telemetry) {
    EXPECT_TRUE(server.listen(net::parse_address("127.0.0.1:0").value()).ok());
    server.start();
    address.port = server.bound_port();
  }
  ~Plane() { server.stop(); }
};

TEST(TelemetryServerTest, ServesOpenMetricsAndIndex) {
  Plane plane;
  plane.registry.counter("service.admissions").add(7);
  plane.registry.counter("service.rejections").add(2);
  plane.registry.gauge("service.queue_depth").set(3);

  auto metrics = net::http_get(plane.address, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.error();
  EXPECT_EQ(metrics.value().status, 200);
  const std::string& body = metrics.value().body;
  EXPECT_NE(body.find("kairos_service_admissions_total 7"), std::string::npos);
  // Every registry cell is its own unlabelled family.
  EXPECT_NE(body.find("# TYPE kairos_service_rejections counter\n"
                      "kairos_service_rejections_total 2\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE kairos_service_queue_depth gauge\n"
                      "kairos_service_queue_depth 3\n"),
            std::string::npos);
  EXPECT_NE(body.find("# EOF"), std::string::npos);

  auto index = net::http_get(plane.address, "/");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().status, 200);
  EXPECT_NE(index.value().body.find("/metrics"), std::string::npos);

  auto missing = net::http_get(plane.address, "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
}

TEST(TelemetryServerTest, HealthzReflectsSloBreach) {
  TelemetryServer::Options options;
  options.slo.max_queue_depth = 1.0;
  options.health_window = 8;
  Plane plane(options);

  // No samples yet: ok / no data, HTTP 200.
  auto before = net::http_get(plane.address, "/healthz");
  ASSERT_TRUE(before.ok()) << before.error();
  EXPECT_EQ(before.value().status, 200);
  EXPECT_NE(before.value().body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(before.value().body.find("no data"), std::string::npos);

  // Inject a severe breach (2x the depth SLO) and sample it.
  plane.registry.gauge("service.queue_depth").set(4.0);
  plane.sampler.sample_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  plane.sampler.sample_now();

  EXPECT_EQ(plane.telemetry.health().status, HealthStatus::kFailing);
  auto after = net::http_get(plane.address, "/healthz");
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_EQ(after.value().status, 503);
  EXPECT_NE(after.value().body.find("\"status\":\"failing\""),
            std::string::npos);
  EXPECT_NE(after.value().body.find("queue_depth"), std::string::npos);
}

TEST(TelemetryServerTest, ServesStatsTraceLogsSeriesAndSummary) {
  Plane plane;
  plane.telemetry.set_stats_source([] { return std::string("{\"live\":3}"); });
  plane.tracer.start();
  plane.event_log.log(LogLevel::kInfo, "test", "hello /logs");
  plane.registry.counter("service.admissions").add(1);
  plane.sampler.sample_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  plane.sampler.sample_now();

  auto stats = net::http_get(plane.address, "/stats.json");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().body, "{\"live\":3}");

  auto trace = net::http_get(plane.address, "/trace");
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace.value().body.find("\"traceEvents\""), std::string::npos);

  auto logs = net::http_get(plane.address, "/logs");
  ASSERT_TRUE(logs.ok());
  EXPECT_NE(logs.value().body.find("hello /logs"), std::string::npos);

  auto series = net::http_get(plane.address, "/series");
  ASSERT_TRUE(series.ok());
  EXPECT_NE(series.value().body.find("\"points\":["), std::string::npos);

  auto summary = net::http_get(plane.address, "/summary");
  ASSERT_TRUE(summary.ok());
  EXPECT_NE(summary.value().body.find("status ok"), std::string::npos);
  EXPECT_NE(summary.value().body.find("admissions_per_sec"),
            std::string::npos);
}

TEST(TelemetryServerTest, WithoutLineHandlerTheLineProtocolSaysSo) {
  Plane plane;
  net::LineClient client;
  ASSERT_TRUE(client.connect(plane.address).ok());
  ASSERT_TRUE(client.send_line("admit x").ok());
  auto reply = client.read_line();
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(reply.value().find("error"), std::string::npos);
}

}  // namespace
}  // namespace kairos::obs
