#include "obs/exposition.hpp"

#include <cctype>
#include <sstream>

namespace kairos::obs {

namespace {

/// "service.latency_ms" -> "kairos_service_latency_ms".
std::string sanitize(const std::string& name) {
  std::string out = "kairos_";
  out.reserve(name.size() + 7);
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void write_number(std::ostringstream& out, double value) {
  // OpenMetrics numbers must be finite decimals; the registry can only hold
  // finite values (JsonWriter clamps too), but clamp defensively.
  if (value != value || value > 1e308 || value < -1e308) value = 0.0;
  out << value;
}

}  // namespace

const char* openmetrics_content_type() {
  return "application/openmetrics-text; version=1.0.0; charset=utf-8";
}

std::string render_openmetrics(const MetricsSnapshot& snapshot) {
  std::ostringstream out;

  for (const auto& [name, value] : snapshot.counters) {
    const std::string family = sanitize(name);
    out << "# TYPE " << family << " counter\n";
    out << family << "_total ";
    write_number(out, static_cast<double>(value));
    out << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string family = sanitize(name);
    out << "# TYPE " << family << " gauge\n";
    out << family << " ";
    write_number(out, value);
    out << "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string family = sanitize(name);
    out << "# TYPE " << family << " summary\n";
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", h.p50}, {"0.95", h.p95}, {"0.99", h.p99}};
    for (const auto& [q, value] : quantiles) {
      out << family << "{quantile=\"" << q << "\"} ";
      write_number(out, value);
      out << "\n";
    }
    out << family << "_count " << h.count << "\n";
    out << family << "_sum ";
    write_number(out, h.mean * static_cast<double>(h.count));
    out << "\n";
  }

  out << "# EOF\n";
  return out.str();
}

}  // namespace kairos::obs
