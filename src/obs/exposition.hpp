// OpenMetrics / Prometheus text exposition of a MetricsSnapshot — what the
// telemetry server's /metrics endpoint serves to a scraper.
//
// Mapping from the registry's dotted names to exposition families:
//   * names are prefixed "kairos_" and every character outside
//     [a-zA-Z0-9_:] becomes '_' ("service.latency_ms" ->
//     "kairos_service_latency_ms");
//   * counters gain the OpenMetrics-mandated "_total" sample suffix,
//     gauges expose as-is, histograms render as summaries (quantile 0.5 /
//     0.95 / 0.99 samples plus _count and _sum).
//
// The document ends with "# EOF" (the OpenMetrics terminator); CI's
// checker script validates the full syntax on a live scrape.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace kairos::obs {

/// Renders one snapshot as an OpenMetrics text document.
std::string render_openmetrics(const MetricsSnapshot& snapshot);

/// The Content-Type a /metrics response carries.
const char* openmetrics_content_type();

}  // namespace kairos::obs
