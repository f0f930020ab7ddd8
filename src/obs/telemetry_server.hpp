// The telemetry plane's front door: a net::Server::Handler that serves the
// observability subsystem over HTTP-lite while delegating the line protocol
// (admit/remove/stats/...) to whatever command handler the embedder wires
// in — one listener, two framings, so a deployment monitors the same
// socket it drives.
//
// Endpoints:
//   /metrics     OpenMetrics text exposition of the Registry (exposition.hpp)
//   /healthz     SLO evaluation over the sampler's recent window — HTTP 200
//                for ok/degraded, 503 for failing (probe semantics), JSON
//                body with per-check detail
//   /stats.json  embedder-provided service stats document
//   /trace       drains the Tracer ring (spans since the previous scrape)
//   /logs        the EventLog ring + drop counters
//   /series      the SLO time-series ring (timeseries.hpp)
//   /summary     one-line-per-quantity plain text — the `--watch` payload
//   /            endpoint index
//
// Health model (evaluate_health): a check breaches when its windowed value
// exceeds its threshold (thresholds <= 0 are disabled). One breach =>
// degraded; any value at >= 2x its threshold, or two breaching checks,
// => failing. No samples yet => ok ("no data"). Process-level mapping for
// `kairos_cli --health`: ok -> exit 0, degraded -> 1, failing -> 2.
//
// The class compiles identically with and without KAIROS_NO_OBS — under
// NO_OBS the obs components it reads are inert, so /metrics is an empty
// (but valid) document and /healthz reports ok/no-data, while the line
// protocol keeps working: transport is product, telemetry content is not.
#pragma once

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace kairos::obs {

/// SLO thresholds; a value <= 0 disables that check.
struct SloConfig {
  double max_p99_latency_ms = 0.0;  ///< admission latency p99 ceiling
  double max_queue_depth = 0.0;     ///< queued admissions ceiling
};

struct HealthCheck {
  std::string name;
  double value = 0.0;
  double threshold = 0.0;
  bool breached = false;
};

enum class HealthStatus { kOk = 0, kDegraded = 1, kFailing = 2 };

const char* to_string(HealthStatus status);

struct HealthReport {
  HealthStatus status = HealthStatus::kOk;
  std::vector<HealthCheck> checks;
  std::string note;  ///< e.g. "no data" before the first sample
};

/// Applies the health model to one aggregated window.
HealthReport evaluate_health(const TimeSeriesPoint& window, bool have_data,
                             const SloConfig& slo);

/// {"status":"ok","checks":[{"name":..,"value":..,"threshold":..,
///  "breached":..},...],"note":..} — the /healthz payload.
void write_health_json(const HealthReport& report, std::ostream& out);

class TelemetryServer : public net::Server::Handler {
 public:
  struct Options {
    SloConfig slo;
    /// Sampler points aggregated per /healthz evaluation (20 x 250 ms = 5 s).
    std::size_t health_window = 20;
  };

  /// Produces the /stats.json body (the service's stats document).
  using StatsSource = std::function<std::string()>;
  using LineHandler = std::function<void(net::Conn&, const std::string&)>;
  using ConnHandler = std::function<void(net::Conn&)>;

  TelemetryServer(Registry& registry, Tracer& tracer, EventLog& event_log,
                  TimeSeriesSampler& sampler);
  TelemetryServer(Registry& registry, Tracer& tracer, EventLog& event_log,
                  TimeSeriesSampler& sampler, Options options);

  void set_stats_source(StatsSource source);
  /// Wires the line-protocol side (command session dispatch); `tick` and
  /// `close` forward the server's busy-tick / teardown callbacks.
  void set_line_handler(LineHandler on_line, ConnHandler on_tick = {},
                        ConnHandler on_close = {});

  /// Evaluates /healthz right now (shared by the endpoint and tests).
  HealthReport health() const;

  const Options& options() const { return options_; }

  // net::Server::Handler
  net::HttpResponse on_http(const net::HttpRequest& request) override;
  void on_line(net::Conn& conn, const std::string& line) override;
  void on_tick(net::Conn& conn) override;
  void on_close(net::Conn& conn) override;

 private:
  std::string render_summary() const;

  Registry& registry_;
  Tracer& tracer_;
  EventLog& event_log_;
  TimeSeriesSampler& sampler_;
  Options options_;
  StatsSource stats_source_;
  LineHandler line_handler_;
  ConnHandler tick_handler_;
  ConnHandler close_handler_;
};

}  // namespace kairos::obs
