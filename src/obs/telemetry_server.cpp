#include "obs/telemetry_server.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/exposition.hpp"
#include "obs/json.hpp"

namespace kairos::obs {

namespace {

std::string format_fixed(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

}  // namespace

const char* to_string(HealthStatus status) {
  switch (status) {
    case HealthStatus::kOk: return "ok";
    case HealthStatus::kDegraded: return "degraded";
    case HealthStatus::kFailing: return "failing";
  }
  return "ok";
}

HealthReport evaluate_health(const TimeSeriesPoint& window, bool have_data,
                             const SloConfig& slo) {
  HealthReport report;
  if (!have_data) {
    report.note = "no data";
    return report;
  }

  auto check = [&report](const char* name, double value, double threshold) {
    HealthCheck c;
    c.name = name;
    c.value = value;
    c.threshold = threshold;
    c.breached = threshold > 0.0 && value > threshold;
    report.checks.push_back(std::move(c));
  };
  check("p99_latency_ms", window.p99_latency_ms, slo.max_p99_latency_ms);
  check("queue_depth", window.queue_depth, slo.max_queue_depth);

  int breaches = 0;
  bool severe = false;
  for (const HealthCheck& c : report.checks) {
    if (!c.breached) continue;
    ++breaches;
    if (c.value >= 2.0 * c.threshold) severe = true;
  }
  if (breaches == 0) {
    report.status = HealthStatus::kOk;
  } else if (severe || breaches >= 2) {
    report.status = HealthStatus::kFailing;
  } else {
    report.status = HealthStatus::kDegraded;
  }
  return report;
}

void write_health_json(const HealthReport& report, std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.kv("status", std::string(to_string(report.status)));
  json.key("checks");
  json.begin_array();
  for (const HealthCheck& c : report.checks) {
    json.begin_object();
    json.kv("name", c.name);
    json.kv("value", c.value);
    json.kv("threshold", c.threshold);
    json.kv("breached", c.breached);
    json.end_object();
  }
  json.end_array();
  if (!report.note.empty()) json.kv("note", report.note);
  json.end_object();
}

TelemetryServer::TelemetryServer(Registry& registry, Tracer& tracer,
                                 EventLog& event_log, TimeSeriesSampler& sampler)
    : TelemetryServer(registry, tracer, event_log, sampler, Options()) {}

TelemetryServer::TelemetryServer(Registry& registry, Tracer& tracer,
                                 EventLog& event_log,
                                 TimeSeriesSampler& sampler, Options options)
    : registry_(registry),
      tracer_(tracer),
      event_log_(event_log),
      sampler_(sampler),
      options_(options) {}

void TelemetryServer::set_stats_source(StatsSource source) {
  stats_source_ = std::move(source);
}

void TelemetryServer::set_line_handler(LineHandler on_line,
                                       ConnHandler on_tick,
                                       ConnHandler on_close) {
  line_handler_ = std::move(on_line);
  tick_handler_ = std::move(on_tick);
  close_handler_ = std::move(on_close);
}

HealthReport TelemetryServer::health() const {
  const bool have_data = !sampler_.series().empty();
  const TimeSeriesPoint window = sampler_.window(options_.health_window);
  return evaluate_health(window, have_data, options_.slo);
}

net::HttpResponse TelemetryServer::on_http(const net::HttpRequest& request) {
  net::HttpResponse response;
  // Probes may append query strings; route on the path only.
  std::string path = request.target;
  const auto query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (path == "/metrics") {
    response.content_type = openmetrics_content_type();
    response.body = render_openmetrics(registry_.snapshot());
  } else if (path == "/healthz") {
    const HealthReport report = health();
    response.status = report.status == HealthStatus::kFailing ? 503 : 200;
    response.content_type = "application/json";
    std::ostringstream out;
    write_health_json(report, out);
    response.body = out.str();
  } else if (path == "/stats.json") {
    response.content_type = "application/json";
    response.body = stats_source_ ? stats_source_() : "{}";
  } else if (path == "/trace") {
    response.content_type = "application/json";
    std::ostringstream out;
    Tracer::write_json(tracer_.drain(), out);
    response.body = out.str();
  } else if (path == "/logs") {
    response.content_type = "application/json";
    std::ostringstream out;
    event_log_.write_json(out);
    response.body = out.str();
  } else if (path == "/series") {
    response.content_type = "application/json";
    std::ostringstream out;
    sampler_.write_json(out);
    response.body = out.str();
  } else if (path == "/summary") {
    response.content_type = "text/plain; charset=utf-8";
    response.body = render_summary();
  } else if (path == "/") {
    response.content_type = "text/plain; charset=utf-8";
    response.body =
        "kairos telemetry\n"
        "/metrics /healthz /stats.json /trace /logs /series /summary\n";
  } else {
    response.status = 404;
    response.content_type = "text/plain; charset=utf-8";
    response.body = "not found\n";
  }
  return response;
}

void TelemetryServer::on_line(net::Conn& conn, const std::string& line) {
  if (line_handler_) {
    line_handler_(conn, line);
    return;
  }
  conn.send_line("error no line protocol handler on this listener");
}

void TelemetryServer::on_tick(net::Conn& conn) {
  if (tick_handler_) tick_handler_(conn);
}

void TelemetryServer::on_close(net::Conn& conn) {
  if (close_handler_) close_handler_(conn);
}

std::string TelemetryServer::render_summary() const {
  const HealthReport report = health();
  const TimeSeriesPoint window = sampler_.window(options_.health_window);

  std::ostringstream out;
  out << "status " << to_string(report.status);
  if (!report.note.empty()) out << " (" << report.note << ")";
  out << "\n";
  out << "window_ms " << format_fixed(window.dt_ms) << "\n";
  out << "admissions_per_sec " << format_fixed(window.admissions_per_sec)
      << "\n";
  out << "rejections_per_sec " << format_fixed(window.rejections_per_sec)
      << "\n";
  out << "queue_depth " << format_fixed(window.queue_depth) << "\n";
  out << "p99_latency_ms " << format_fixed(window.p99_latency_ms) << "\n";
  for (const HealthCheck& c : report.checks) {
    if (!c.breached) continue;
    out << "breach " << c.name << " " << format_fixed(c.value) << " > "
        << format_fixed(c.threshold) << "\n";
  }
  return out.str();
}

}  // namespace kairos::obs
