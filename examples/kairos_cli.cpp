// kairos_cli — file-driven resource allocation.
//
// The paper's prototype ships applications as binaries handled by a Linux
// binfmt hook; this tool is the host-side equivalent for the textual
// formats: it loads a platform description and one or more application
// specifications, admits them in order, and prints the execution layouts.
//
//   usage: kairos_cli [--wc <w>] [--wf <w>] [--mapper <name>]
//                     [--seed <n>] [--sa-full] [--cancel-bound <c>]
//                     [--objectives <o,o,...>] [--front-csv <file>]
//                     [--platform <file>] <app-file>...
//          kairos_cli --workload <poisson|mmpp|mmpp:util=<u>> | --trace <file>
//                     [--rate <r>] [--lifetime <t>] [--horizon <t>]
//                     [--fault-rate <r>] [--fault-model <domain|mix:...>]
//                     [--repair <t>] [--defrag <t>] [--record-trace <file>]
//                     [--mapper <name>] [--seed <n>] [--platform <file>]
//                     [<app-file>...]
//          kairos_cli --sweep [--fault-rate <r>] [--fault-rates <r,r,...>]
//                     [--defrag-periods <t,t,...>] [--fault-model <spec>]
//                     [--repair <t>] [--seed <n>] [--mo] [--p95]
//          kairos_cli --serve [--listen <addr>] [--slo p99=<ms>,queue=<d>]
//                     [--mapper <name>] [--platform <file>] [<app-file>...]
//          kairos_cli --watch <addr> [--watch-iterations <n>]
//          kairos_cli --health <addr>
//          kairos_cli --version   (any mode: --trace-json <f>, --log-file <f>)
//
// Without --platform, the built-in CRISP model is used; without --mapper,
// the paper's incremental mapper. --sa-full switches SA trial moves back to
// full re-evaluation (same result, slower — for comparisons); --cancel-bound
// lets the portfolio cancel losing strategies once a feasible winner costs
// at most <c>. With --mapper=nsga2, --objectives picks the optimised
// objective set by name and --front-csv dumps each admission's full Pareto
// front (one row per non-dominated solution). Exit code is the number of
// rejected applications.
//
// The second form drives the event-driven scenario engine instead of
// admitting files once: applications (the given files, or a generated pool)
// arrive per the chosen workload model, depart, and — with --fault-rate —
// survive faults through the circumvention flow. --workload mmpp:util=0.7
// first *calibrates* the MMPP burst/idle factors against the actual
// platform + pool (pilot runs + bisection, sim::calibrate_mmpp) so the run
// measures ~70% mean compute utilisation. --fault-model picks what one
// fault takes down (element|package|row|link) or a per-event domain mix
// ("mix:element=0.9,package=0.1"); --record-trace saves the realised
// arrival sequence as a CSV that --trace replays to identical statistics.
// The third form runs the strategy × platform × arrival-rate (× fault-rate
// × defrag-period, when the list flags are given) sweep driver in parallel
// and writes kairos_sweep.csv; --mo appends per-cell Pareto front size and
// hypervolume columns, --p95 per-cell time-weighted 95th-percentile
// live/fragmentation/utilisation columns. The fourth form is the admission
// daemon: a service::AdmissionService, which admits each request on the
// thread that submits it, serving a newline-delimited command protocol
// (service::CommandSession) over stdin/stdout
// and — with --listen <port|host:port|unix:path> — over a socket that also
// answers the telemetry endpoints (/metrics, /healthz, /stats.json, /trace,
// /logs, /series, /summary; obs::TelemetryServer). --slo sets the /healthz
// thresholds. --watch polls a daemon's /summary as a terminal dashboard;
// --health probes /healthz once and exits 0/1/2 for ok/degraded/failing.
//
// Observability: --version prints the embedded build stamp (git SHA,
// compiler, build type) and exits; --trace-json <file> records every
// instrumented span of the run — admission phases, engine events, sweep
// cells — and writes Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing. Both work with every mode.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/datasets.hpp"
#include "graph/app_io.hpp"
#include "mappers/registry.hpp"
#include "mo/objective.hpp"
#include "net/net.hpp"
#include "net/server.hpp"
#include "obs/build_info.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "service/admission_service.hpp"
#include "service/command_session.hpp"
#include "platform/crisp.hpp"
#include "platform/fragmentation.hpp"
#include "platform/platform_io.hpp"
#include "sim/calibrate.hpp"
#include "sim/fault_model.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/workload.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

std::string mapper_list() {
  std::string out;
  for (const auto& name : kairos::mappers::available()) {
    if (!out.empty()) out += "|";
    out += name;
  }
  return out;
}

/// Reads and parses one application file into `out`, printing any failure.
/// Returns 0 on success, 66 (unreadable) or 65 (unparsable) otherwise —
/// scenario mode aborts with that code, the one-shot path counts and
/// continues.
int load_application(const std::string& path,
                     std::optional<kairos::graph::Application>& out) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "cannot read application file '%s'\n", path.c_str());
    return 66;
  }
  auto parsed = kairos::graph::parse_application(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), parsed.error().c_str());
    return 65;
  }
  out = std::move(parsed).value();
  return 0;
}

/// Prints a scenario-engine run's outcome; returns the process exit code.
int report_scenario(const kairos::sim::ScenarioStats& stats,
                    const std::string& workload_name) {
  if (!stats.mapper_error.empty()) {
    std::fprintf(stderr, "%s\n", stats.mapper_error.c_str());
    return 64;
  }
  std::printf("scenario (%s workload): %ld arrivals, %ld admitted (%.1f%%), "
              "%ld departures\n",
              workload_name.c_str(), stats.arrivals, stats.admitted,
              100.0 * stats.admission_rate(), stats.departures);
  std::printf("  time-weighted mean live %.2f, mean fragmentation %.1f%%, "
              "mean mapping %.3f ms\n",
              stats.live_applications.mean(),
              100.0 * stats.fragmentation.mean(), stats.mapping_ms.mean());
  std::printf("  p95 live %.2f (stddev %.2f), p95 fragmentation %.1f%%, "
              "p95 utilisation %.1f%%\n",
              stats.live_applications.percentile(95.0),
              stats.live_applications.stddev(),
              100.0 * stats.fragmentation.percentile(95.0),
              100.0 * stats.compute_utilisation.percentile(95.0));
  if (stats.faults > 0 || stats.repairs > 0 || stats.link_repairs > 0) {
    std::printf("  faults: %ld events (%ld elements, %ld links), %ld+%ld "
                "repairs; victims %ld = %ld recovered + %ld lost\n",
                stats.faults, stats.faulted_elements, stats.link_faults,
                stats.repairs, stats.link_repairs, stats.fault_victims,
                stats.fault_recovered, stats.fault_lost);
  }
  if (stats.failed_removes > 0) {
    std::fprintf(stderr,
                 "BUG: %ld departures failed to release resources (%s)\n",
                 stats.failed_removes, stats.remove_error.c_str());
    return 70;  // EX_SOFTWARE: internal bookkeeping error
  }
  return 0;
}

/// Parses "--slo p99=<ms>,queue=<depth>" (either or both;
/// omitted checks stay disabled). False on an unknown key or non-numeric
/// value.
bool parse_slo(const std::string& text, kairos::obs::SloConfig& out) {
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    char* end = nullptr;
    const double number = std::strtod(value.c_str(), &end);
    if (value.empty() || end == value.c_str() || *end != '\0') return false;
    if (key == "p99") {
      out.max_p99_latency_ms = number;
    } else if (key == "queue") {
      out.max_queue_depth = number;
    } else {
      return false;
    }
  }
  return true;
}

/// --serve: a long-running admission daemon, backed by the
/// service::AdmissionService. The newline-delimited command protocol
/// (service::CommandSession — admit/gen/remove/stats/metrics/quit, replies
/// echo the minted request id) is served over stdin/stdout and, with
/// --listen, over the same socket that answers the telemetry endpoints
/// (/metrics, /healthz, /stats.json, /trace, /logs, /series, /summary).
int run_serve(kairos::platform::Platform& platform,
              kairos::core::KairosConfig config,
              const std::vector<std::string>& preload,
              const std::string& listen_spec,
              const kairos::obs::SloConfig& slo) {
  using namespace kairos;
  core::ResourceManager manager(platform, std::move(config));
  service::AdmissionService service(manager);
  service::CommandSession stdin_session(manager, service);

  // The telemetry plane: sampler feeding /healthz + /series, server
  // handling both framings. Constructed unconditionally (it is inert
  // without a listener).
  obs::TimeSeriesSampler sampler;
  obs::TelemetryServer::Options telemetry_options;
  telemetry_options.slo = slo;
  obs::TelemetryServer telemetry(obs::Registry::global(),
                                 obs::Tracer::global(),
                                 obs::EventLog::global(), sampler,
                                 telemetry_options);
  telemetry.set_stats_source(
      [&] { return service::service_stats_json(manager, service); });
  // Socket line protocol: one CommandSession per connection, parked on
  // Conn::user. Pending admission batches follow the server's slow-work
  // contract — admitted on the session's batch thread, never on the poll
  // thread; the connection is marked busy and the tick collects the replies.
  const auto session_of = [&](net::Conn& conn) {
    if (!conn.user) {
      conn.user = std::make_shared<service::CommandSession>(
          manager, service,
          service::CommandSession::Admission::kOnBatchThread);
    }
    return static_cast<service::CommandSession*>(conn.user.get());
  };
  telemetry.set_line_handler(
      [&](net::Conn& conn, const std::string& line) {
        service::CommandSession* session = session_of(conn);
        std::vector<std::string> replies;
        const auto status = session->handle_line(line, replies);
        for (const std::string& reply : replies) conn.send_line(reply);
        if (status == service::CommandSession::Status::kPending) {
          conn.set_busy(true);
        } else if (status == service::CommandSession::Status::kQuit) {
          conn.close_after_write();
        }
      },
      [&](net::Conn& conn) {
        service::CommandSession* session = session_of(conn);
        std::vector<std::string> replies;
        const bool done = session->poll(replies);
        for (const std::string& reply : replies) conn.send_line(reply);
        if (done) conn.set_busy(false);
      });

  net::Server server(telemetry);
  if (!listen_spec.empty()) {
    auto address = net::parse_address(listen_spec);
    if (!address.ok()) {
      std::fprintf(stderr, "--listen: %s\n", address.error().c_str());
      return 64;
    }
    const auto bound = server.listen(address.value());
    if (!bound.ok()) {
      std::fprintf(stderr, "--listen: %s\n", bound.error().c_str());
      return 69;  // EX_UNAVAILABLE: address in use / permission
    }
    // Arm span collection: a live daemon's /trace endpoint should have the
    // admission spans of everything served (the ring bounds memory).
    obs::Tracer::global().start();
    server.start();
    net::Address actual = address.value();
    if (actual.kind == net::Address::Kind::kTcp) {
      actual.port = server.bound_port();
    }
    std::printf("listening on %s\n", net::to_string(actual).c_str());
  }
  sampler.start();

  std::printf("%s\n", stdin_session.greeting().c_str());
  std::fflush(stdout);

  const auto run_line = [&](const std::string& line) {
    std::vector<std::string> replies;
    const auto status = stdin_session.handle_line(line, replies);
    if (status == service::CommandSession::Status::kPending) {
      stdin_session.finish(replies);  // stdin is synchronous: block here
    }
    for (const std::string& reply : replies) {
      std::fputs(reply.c_str(), stdout);
      std::fputc('\n', stdout);
    }
    std::fflush(stdout);
    return status != service::CommandSession::Status::kQuit;
  };

  if (!preload.empty()) {
    std::string admit_line = "admit";
    for (const std::string& path : preload) admit_line += " " + path;
    run_line(admit_line);
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (!run_line(line)) break;
  }

  server.stop();
  sampler.stop();
  service.stop();
  std::printf("served: %zu applications live at shutdown\n",
              manager.live_count());
  return 0;
}

/// --health <addr>: one /healthz probe. Exit 0 ok, 1 degraded, 2 failing,
/// 69 unreachable — the scriptable twin of the HTTP status (200/503).
int run_health(const std::string& address_spec) {
  using namespace kairos;
  auto address = net::parse_address(address_spec);
  if (!address.ok()) {
    std::fprintf(stderr, "--health: %s\n", address.error().c_str());
    return 64;
  }
  auto result = net::http_get(address.value(), "/healthz");
  if (!result.ok()) {
    std::fprintf(stderr, "--health: %s\n", result.error().c_str());
    return 69;
  }
  const std::string& body = result.value().body;
  std::printf("%s\n", body.c_str());
  if (body.find("\"status\":\"ok\"") != std::string::npos) return 0;
  if (body.find("\"status\":\"degraded\"") != std::string::npos) return 1;
  return 2;
}

/// --watch <addr>: polls /summary once a second and reprints it — a
/// minimal terminal dashboard for a live daemon. Exits (code 69) when the
/// daemon stops answering; --watch-iterations bounds the loop for scripts.
int run_watch(const std::string& address_spec, long iterations) {
  using namespace kairos;
  auto address = net::parse_address(address_spec);
  if (!address.ok()) {
    std::fprintf(stderr, "--watch: %s\n", address.error().c_str());
    return 64;
  }
  for (long i = 0; iterations <= 0 || i < iterations; ++i) {
    auto result = net::http_get(address.value(), "/summary");
    if (!result.ok()) {
      std::fprintf(stderr, "--watch: %s\n", result.error().c_str());
      return 69;
    }
    std::printf("--- %s ---\n%s", net::to_string(address.value()).c_str(),
                result.value().body.c_str());
    std::fflush(stdout);
    if (iterations > 0 && i + 1 >= iterations) break;
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  return 0;
}

/// Parses a comma-separated list of doubles ("0,0.02,0.05"); false on an
/// empty list, empty item, or non-numeric item (atof would silently turn a
/// typo into 0.0 — which means "process disabled" on the sweep axes).
bool parse_double_list(const std::string& text, std::vector<double>& out) {
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    char* end = nullptr;
    const double value = std::strtod(item.c_str(), &end);
    if (item.empty() || end == item.c_str() || *end != '\0') return false;
    out.push_back(value);
  }
  return !out.empty();
}

/// Writes the tracer's collected spans as Chrome trace-event JSON when
/// main() returns, whatever the exit path — a failed run's partial trace is
/// exactly what one wants to look at.
struct TraceJsonDump {
  std::string path;  ///< empty: tracing was not requested

  ~TraceJsonDump() {
    if (path.empty()) return;
    kairos::obs::Tracer::global().stop();
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write trace file '%s'\n", path.c_str());
      return;
    }
    kairos::obs::Tracer::global().write_json(out);
    std::printf("wrote span trace to %s (open in Perfetto or "
                "chrome://tracing)\n",
                path.c_str());
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace kairos;

  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  std::string platform_path;
  std::string mapper_name;
  std::uint64_t seed = 0x5EEDULL;
  bool sa_full = false;
  double cancel_bound = -1.0;
  std::string workload_name;
  std::string trace_path;
  bool sweep = false;
  double arrival_rate = 0.2;
  bool rate_given = false;
  double mean_lifetime = 40.0;
  double horizon = 1000.0;
  double fault_rate = 0.0;
  double mean_repair = 0.0;
  double defrag_period = 0.0;
  std::string fault_model_name;
  std::string record_trace_path;
  std::vector<double> fault_rates;
  std::vector<double> defrag_periods;
  std::vector<std::string> objective_names;
  std::string front_csv_path;
  bool mo_columns = false;
  bool percentile_columns = false;
  std::string trace_json_path;
  bool serve = false;
  std::string listen_spec;
  std::string watch_spec;
  double watch_iterations = 0.0;  // 0 = until the daemon goes away
  std::string health_spec;
  std::string slo_spec;
  std::string log_file_path;
  std::vector<std::string> app_paths;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--flag value" and "--flag=value".
    bool has_inline_value = false;
    std::string inline_value;
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      has_inline_value = true;  // "--flag=" stays an (empty) value
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    auto next_string = [&](std::string& out) {
      if (has_inline_value) {
        out = inline_value;
        return !inline_value.empty();
      }
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    auto next_value = [&](double& out) {
      std::string text;
      if (!next_string(text)) return false;
      // Strict parse (whole token must be numeric): atof would silently turn
      // a typo like "--rate fast" into 0.0, and 0.0 is a *valid-looking*
      // configuration for most of these knobs (process disabled / idle run).
      char* end = nullptr;
      out = std::strtod(text.c_str(), &end);
      return end != text.c_str() && *end == '\0';
    };
    if (arg == "--wc") {
      if (!next_value(config.weights.communication)) {
        std::fprintf(stderr, "--wc requires a value\n");
        return 64;
      }
    } else if (arg == "--wf") {
      if (!next_value(config.weights.fragmentation)) {
        std::fprintf(stderr, "--wf requires a value\n");
        return 64;
      }
    } else if (arg == "--mapper") {
      if (!next_string(mapper_name)) {
        std::fprintf(stderr, "--mapper requires a strategy name (%s)\n",
                     mapper_list().c_str());
        return 64;
      }
    } else if (arg == "--seed") {
      std::string text;
      if (!next_string(text)) {
        std::fprintf(stderr, "--seed requires a value\n");
        return 64;
      }
      // Strict parse: strtoull alone would read "abc" as 0, "12x" as 12
      // and "-1" as 2^64-1.
      if (!util::parse_unsigned(text, seed)) {
        std::fprintf(stderr,
                     "--seed must be a whole unsigned decimal, got '%s'\n",
                     text.c_str());
        return 64;
      }
    } else if (arg == "--sa-full") {
      sa_full = true;
    } else if (arg == "--cancel-bound") {
      if (!next_value(cancel_bound)) {
        std::fprintf(stderr, "--cancel-bound requires a value\n");
        return 64;
      }
    } else if (arg == "--platform") {
      if (!next_string(platform_path)) {
        std::fprintf(stderr, "--platform requires a file\n");
        return 64;
      }
    } else if (arg == "--workload") {
      if (!next_string(workload_name)) {
        std::fprintf(stderr, "--workload requires a model (mmpp|poisson)\n");
        return 64;
      }
    } else if (arg == "--trace") {
      if (!next_string(trace_path)) {
        std::fprintf(stderr, "--trace requires a CSV file\n");
        return 64;
      }
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--listen") {
      if (!next_string(listen_spec)) {
        std::fprintf(stderr,
                     "--listen requires an address (<port>, <host>:<port> "
                     "or unix:<path>)\n");
        return 64;
      }
    } else if (arg == "--watch") {
      if (!next_string(watch_spec)) {
        std::fprintf(stderr,
                     "--watch requires a daemon address (<host>:<port> or "
                     "unix:<path>)\n");
        return 64;
      }
    } else if (arg == "--watch-iterations") {
      if (!next_value(watch_iterations) || watch_iterations < 0.0) {
        std::fprintf(stderr, "--watch-iterations requires a count >= 0\n");
        return 64;
      }
    } else if (arg == "--health") {
      if (!next_string(health_spec)) {
        std::fprintf(stderr,
                     "--health requires a daemon address (<host>:<port> or "
                     "unix:<path>)\n");
        return 64;
      }
    } else if (arg == "--slo") {
      if (!next_string(slo_spec)) {
        std::fprintf(stderr,
                     "--slo requires thresholds, e.g. "
                     "p99=5,queue=64\n");
        return 64;
      }
    } else if (arg == "--log-file") {
      if (!next_string(log_file_path)) {
        std::fprintf(stderr, "--log-file requires a file\n");
        return 64;
      }
    } else if (arg == "--rate") {
      if (!next_value(arrival_rate)) {
        std::fprintf(stderr, "--rate requires a value\n");
        return 64;
      }
      rate_given = true;
    } else if (arg == "--lifetime") {
      if (!next_value(mean_lifetime)) {
        std::fprintf(stderr, "--lifetime requires a value\n");
        return 64;
      }
    } else if (arg == "--horizon") {
      if (!next_value(horizon)) {
        std::fprintf(stderr, "--horizon requires a value\n");
        return 64;
      }
    } else if (arg == "--fault-rate") {
      if (!next_value(fault_rate)) {
        std::fprintf(stderr, "--fault-rate requires a value\n");
        return 64;
      }
    } else if (arg == "--repair") {
      if (!next_value(mean_repair)) {
        std::fprintf(stderr, "--repair requires a value\n");
        return 64;
      }
    } else if (arg == "--defrag") {
      if (!next_value(defrag_period)) {
        std::fprintf(stderr, "--defrag requires a period\n");
        return 64;
      }
    } else if (arg == "--fault-model") {
      if (!next_string(fault_model_name)) {
        std::fprintf(stderr,
                     "--fault-model requires a domain "
                     "(element|package|row|link)\n");
        return 64;
      }
    } else if (arg == "--record-trace") {
      if (!next_string(record_trace_path)) {
        std::fprintf(stderr, "--record-trace requires a file\n");
        return 64;
      }
    } else if (arg == "--fault-rates") {
      std::string text;
      if (!next_string(text) || !parse_double_list(text, fault_rates)) {
        std::fprintf(stderr,
                     "--fault-rates requires a comma-separated list\n");
        return 64;
      }
    } else if (arg == "--defrag-periods") {
      std::string text;
      if (!next_string(text) || !parse_double_list(text, defrag_periods)) {
        std::fprintf(stderr,
                     "--defrag-periods requires a comma-separated list\n");
        return 64;
      }
    } else if (arg == "--objectives") {
      std::string text;
      if (!next_string(text)) {
        std::fprintf(stderr,
                     "--objectives requires a comma-separated list "
                     "(communication|fragmentation|external_fragmentation)\n");
        return 64;
      }
      // Validate here (and normalise aliases like "comm") so a typo fails
      // before any admission instead of inside the first map() call.
      auto parsed = kairos::mo::parse_objectives(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.error().c_str());
        return 64;
      }
      objective_names = kairos::mo::objective_names(parsed.value());
    } else if (arg == "--front-csv") {
      if (!next_string(front_csv_path)) {
        std::fprintf(stderr, "--front-csv requires a file\n");
        return 64;
      }
    } else if (arg == "--mo") {
      mo_columns = true;
    } else if (arg == "--p95") {
      percentile_columns = true;
    } else if (arg == "--trace-json") {
      if (!next_string(trace_json_path)) {
        std::fprintf(stderr, "--trace-json requires an output file\n");
        return 64;
      }
    } else if (arg == "--version") {
      std::printf("%s\n", obs::build_info_line().c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: kairos_cli [--wc w] [--wf w] "
                  "[--mapper <%s>] [--seed n] [--sa-full] [--cancel-bound c] "
                  "[--objectives o,o,...] [--front-csv file] "
                  "[--platform file] <app-file>...\n"
                  "       kairos_cli --workload <mmpp|mmpp:util=u|poisson> | "
                  "--trace file "
                  "[--rate r] [--lifetime t] [--horizon t] [--fault-rate r] "
                  "[--fault-model element|package|row|link|mix:d=w,...] "
                  "[--repair t] "
                  "[--defrag t] [--record-trace file] [--mapper name] "
                  "[--seed n] [<app-file>...]\n"
                  "       kairos_cli --sweep [--mapper name] [--rate r] "
                  "[--lifetime t] [--horizon t] [--fault-rate r] "
                  "[--fault-rates r,r,...] [--defrag-periods t,t,...] "
                  "[--fault-model spec] [--repair t] [--seed n] [--mo] "
                  "[--p95]\n"
                  "       kairos_cli --serve [--listen addr] "
                  "[--slo p99=ms,queue=d] "
                  "[--mapper name] [--platform file] [<app-file>...]\n"
                  "       kairos_cli --watch addr [--watch-iterations n] | "
                  "--health addr\n"
                  "       common: [--version] [--trace-json file] "
                  "[--log-file file]\n",
                  mapper_list().c_str());
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s' (see --help)\n", arg.c_str());
      return 64;
    } else {
      app_paths.push_back(arg);
    }
  }

  // Range-check every numeric knob before it reaches a distribution or an
  // event schedule. A negative rate handed to std::exponential_distribution
  // is undefined behaviour, a non-positive period is an event storm — and
  // all of them would otherwise produce a plausible-looking (wrong) run.
  // The `!(x > 0)` spelling is negated so NaN fails the check too.
  {
    struct Knob {
      const char* flag;
      double value;
      bool strictly_positive;  ///< false: zero is valid (process disabled)
    };
    const Knob knobs[] = {
        {"--rate", arrival_rate, true},
        {"--lifetime", mean_lifetime, true},
        {"--horizon", horizon, true},
        {"--fault-rate", fault_rate, false},
        {"--repair", mean_repair, false},
        {"--defrag", defrag_period, false},
    };
    for (const Knob& knob : knobs) {
      const bool ok = knob.strictly_positive ? knob.value > 0.0
                                             : knob.value >= 0.0;
      if (!ok) {
        std::fprintf(stderr, "%s must be %s, got %g\n", knob.flag,
                     knob.strictly_positive ? "> 0" : ">= 0", knob.value);
        return 64;
      }
    }
    for (const double rate : fault_rates) {
      if (!(rate >= 0.0)) {
        std::fprintf(stderr,
                     "--fault-rates entries must be >= 0, got %g\n", rate);
        return 64;
      }
    }
    for (const double period : defrag_periods) {
      if (!(period > 0.0)) {
        std::fprintf(stderr,
                     "--defrag-periods entries must be > 0 (omit the flag "
                     "for a no-defrag run), got %g\n",
                     period);
        return 64;
      }
    }
  }

  sim::FaultModelConfig fault_model;
  if (!fault_model_name.empty()) {
    auto parsed = sim::parse_fault_model(fault_model_name);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.error().c_str());
      return 64;
    }
    fault_model = parsed.value();
  }

  // "--workload mmpp:util=0.7" asks for calibration against the measured
  // platform utilisation before the real run.
  double calibrate_util = -1.0;
  if (const auto colon = workload_name.find(':');
      colon != std::string::npos) {
    const std::string suffix = workload_name.substr(colon + 1);
    workload_name = workload_name.substr(0, colon);
    char* end = nullptr;
    const char* value = suffix.c_str() + 5;
    if (workload_name != "mmpp" || suffix.rfind("util=", 0) != 0 ||
        (calibrate_util = std::strtod(value, &end), end == value) ||
        *end != '\0') {
      std::fprintf(stderr,
                   "calibrated workloads are spelled mmpp:util=<target>, "
                   "e.g. --workload mmpp:util=0.7\n");
      return 64;
    }
    // The full range check lives here, not only in calibrate_mmpp: a
    // non-positive target would otherwise skip the calibration gate below
    // and silently run uncalibrated.
    if (!(calibrate_util > 0.0) || !(calibrate_util < 1.0)) {
      std::fprintf(stderr,
                   "mmpp:util target must be in (0, 1), got '%s'\n",
                   value);
      return 64;
    }
  }

  // Reject flag/mode mismatches loudly: a silently dropped flag produces a
  // plausible-looking run with the wrong configuration.
  if (!sweep && (!fault_rates.empty() || !defrag_periods.empty())) {
    std::fprintf(stderr,
                 "--fault-rates/--defrag-periods are sweep axes; use them "
                 "with --sweep (or --fault-rate/--defrag for one run)\n");
    return 64;
  }
  if (serve && (sweep || !workload_name.empty() || !trace_path.empty())) {
    std::fprintf(stderr,
                 "--serve is its own mode; it cannot be combined with "
                 "--sweep/--workload/--trace\n");
    return 64;
  }
  if (!watch_spec.empty() || !health_spec.empty()) {
    if (serve || sweep || !workload_name.empty() || !trace_path.empty() ||
        !app_paths.empty()) {
      std::fprintf(stderr,
                   "--watch/--health are client modes: they talk to a "
                   "running daemon and combine with nothing else\n");
      return 64;
    }
  }
  if (!listen_spec.empty() && !serve) {
    std::fprintf(stderr, "--listen opens the daemon's socket; use it with "
                         "--serve\n");
    return 64;
  }
  if (!slo_spec.empty() && !serve) {
    std::fprintf(stderr,
                 "--slo sets the daemon's /healthz thresholds; use it with "
                 "--serve\n");
    return 64;
  }
  obs::SloConfig slo;
  if (!slo_spec.empty() && !parse_slo(slo_spec, slo)) {
    std::fprintf(stderr,
                 "--slo: cannot parse '%s' (expected "
                 "p99=<ms>,queue=<depth>, either or both)\n",
                 slo_spec.c_str());
    return 64;
  }

  // Structured JSONL event log to a file (rate-limited per sink; see
  // obs/event_log.hpp). Useful in any mode, essential for daemons.
  if (!log_file_path.empty()) {
    auto sink = std::make_shared<std::ofstream>(log_file_path);
    if (!*sink) {
      std::fprintf(stderr, "cannot write log file '%s'\n",
                   log_file_path.c_str());
      return 66;
    }
    obs::EventLog::global().add_sink(sink);
  }

  // Client modes: one probe / a polling dashboard against a live daemon.
  if (!health_spec.empty()) return run_health(health_spec);
  if (!watch_spec.empty()) {
    return run_watch(watch_spec, static_cast<long>(watch_iterations));
  }
  if (sweep && !record_trace_path.empty()) {
    std::fprintf(stderr,
                 "--record-trace records a single scenario run, not a "
                 "sweep; use it with --workload or --trace\n");
    return 64;
  }
  if ((!objective_names.empty() || !front_csv_path.empty()) &&
      mapper_name != "nsga2") {
    std::fprintf(stderr,
                 "--objectives/--front-csv configure the multi-objective "
                 "search; use them with --mapper=nsga2\n");
    return 64;
  }
  if (!front_csv_path.empty() && (sweep || !workload_name.empty() ||
                                  !trace_path.empty())) {
    std::fprintf(stderr,
                 "--front-csv dumps per-admission fronts of the one-shot "
                 "form; for sweeps use --sweep --mo\n");
    return 64;
  }
  if (mo_columns && !sweep) {
    std::fprintf(stderr, "--mo adds sweep columns; use it with --sweep\n");
    return 64;
  }
  if (percentile_columns && !sweep) {
    std::fprintf(stderr, "--p95 adds sweep columns; use it with --sweep\n");
    return 64;
  }

  // Arm span collection before any admission runs; the dump object writes
  // the JSON on every main() exit path from here on.
  TraceJsonDump trace_dump;
  if (!trace_json_path.empty()) {
    trace_dump.path = trace_json_path;
    obs::Tracer::global().start();
  }

  if (sweep) {
    // The strategy × platform × arrival-rate (× fault-rate × defrag-period)
    // grid, in parallel, to CSV. --mapper narrows the strategy axis to one;
    // --lifetime carries over.
    sim::SweepSpec spec;
    if (mapper_name.empty()) {
      spec.strategies = mappers::available();
    } else if (mappers::is_registered(mapper_name)) {
      spec.strategies = {mapper_name};
    } else {
      std::fprintf(stderr, "unknown mapper '%s' (known: %s)\n",
                   mapper_name.c_str(), mapper_list().c_str());
      return 64;
    }
    spec.platforms = sim::default_sweep_platforms();
    // --rate narrows the rate axis to the given value; default is a grid.
    spec.arrival_rates =
        rate_given ? std::vector<double>{arrival_rate}
                   : std::vector<double>{0.1, 0.3, 0.6};
    spec.mean_lifetime = mean_lifetime;
    spec.fault_rates = fault_rates;
    spec.defrag_periods = defrag_periods;
    spec.kairos = config;
    spec.engine.horizon = horizon;
    spec.engine.seed = seed;
    spec.engine.fault_rate = fault_rate;
    spec.engine.mean_repair = mean_repair;
    spec.engine.fault_model = fault_model;
    spec.engine.defrag_period = defrag_period;
    spec.engine.sa_incremental = !sa_full;
    spec.engine.portfolio_cancel_bound = cancel_bound;
    spec.engine.objectives = objective_names;
    spec.multi_objective = mo_columns;
    spec.percentiles = percentile_columns;
    const sim::SweepResult result = sim::run_sweep(spec);
    if (!result.error.empty()) {
      std::fprintf(stderr, "%s\n", result.error.c_str());
      return 64;
    }
    util::Table table({"Strategy", "Platform", "Rate", "Fault rate",
                       "Defrag", "Arrivals", "Admitted", "Lost", "Wall ms"});
    for (const auto& cell : result.cells) {
      table.add_row({cell.strategy, cell.platform,
                     util::fmt(cell.arrival_rate, 1),
                     util::fmt(cell.fault_rate, 2),
                     util::fmt(cell.defrag_period, 0),
                     std::to_string(cell.stats.arrivals),
                     util::fmt_pct(cell.stats.admission_rate(), 1),
                     std::to_string(cell.stats.fault_lost),
                     util::fmt(cell.wall_ms, 1)});
    }
    std::printf("%s\n", table.render().c_str());
    util::CsvWriter csv("kairos_sweep.csv");
    sim::write_sweep_csv(result, csv);
    std::printf("%zu cells in %.1f ms; full resolution in kairos_sweep.csv\n",
                result.cells.size(), result.wall_ms);
    return 0;
  }

  std::shared_ptr<mo::ParetoFront> front_sink;
  if (!mapper_name.empty()) {
    mappers::MapperOptions options;
    options.weights = config.weights;
    options.bonuses = config.bonuses;
    options.extra_rings = config.extra_rings;
    options.exact_knapsack = config.exact_knapsack;
    options.seed = seed;
    options.sa_incremental = !sa_full;
    options.portfolio_cancel_bound = cancel_bound;
    options.objectives = objective_names;
    if (!front_csv_path.empty()) {
      front_sink = std::make_shared<mo::ParetoFront>();
      options.pareto_front = front_sink;
    }
    auto made = mappers::make(mapper_name, options);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.error().c_str());
      return 64;
    }
    config.mapper = std::move(made).value();
  }

  platform::Platform platform = platform::make_crisp_platform();
  if (!platform_path.empty()) {
    std::string text;
    if (!read_file(platform_path, text)) {
      std::fprintf(stderr, "cannot read platform file '%s'\n",
                   platform_path.c_str());
      return 66;
    }
    auto parsed = platform::parse_platform(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "platform error: %s\n", parsed.error().c_str());
      return 65;
    }
    platform = std::move(parsed).value();
  }
  std::printf("platform '%s': %zu elements, %zu links\n",
              platform.name().c_str(), platform.element_count(),
              platform.link_count());

  if (serve) {
    return run_serve(platform, std::move(config), app_paths, listen_spec, slo);
  }

  if (!workload_name.empty() || !trace_path.empty()) {
    // Scenario-engine mode: the application files (or a generated pool)
    // arrive and depart per the chosen workload model.
    std::vector<graph::Application> pool;
    for (const std::string& path : app_paths) {
      std::optional<graph::Application> app;
      if (const int failure = load_application(path, app)) return failure;
      pool.push_back(std::move(*app));
    }
    if (pool.empty()) {
      pool = gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 20, 71);
      std::printf("no application files given; using a generated pool of "
                  "%zu applications\n",
                  pool.size());
    }

    sim::EngineConfig engine_config;
    engine_config.horizon = horizon;
    engine_config.seed = seed;
    engine_config.fault_rate = fault_rate;
    engine_config.mean_repair = mean_repair;
    engine_config.fault_model = fault_model;
    engine_config.defrag_period = defrag_period;
    engine_config.record_trace = !record_trace_path.empty();

    std::unique_ptr<sim::WorkloadModel> workload;
    if (!trace_path.empty()) {
      std::string text;
      if (!read_file(trace_path, text)) {
        std::fprintf(stderr, "cannot read trace file '%s'\n",
                     trace_path.c_str());
        return 66;
      }
      auto rows = sim::parse_trace(text);
      if (!rows.ok()) {
        std::fprintf(stderr, "%s: %s\n", trace_path.c_str(),
                     rows.error().c_str());
        return 65;
      }
      workload =
          std::make_unique<sim::TraceWorkload>(std::move(rows).value());
    } else {
      sim::WorkloadParams params;
      params.arrival_rate = arrival_rate;
      params.mean_lifetime = mean_lifetime;
      if (calibrate_util > 0.0) {
        // Fit the MMPP burst/idle factors to the requested mean compute
        // utilisation against this very platform + pool — and this very
        // engine configuration, so the pilots see the same fault/defrag
        // processes as the run they calibrate (minus trace recording).
        const platform::Platform base = platform;
        sim::CalibrationConfig calibration;
        const double pilot_horizon = calibration.engine.horizon;
        calibration.engine = engine_config;
        calibration.engine.record_trace = false;
        // Pilots keep the calibration-sized horizon (unless the real run is
        // even shorter) — a dozen pilots must stay a fraction of the run,
        // not a multiple of it.
        calibration.engine.horizon = std::min(horizon, pilot_horizon);
        auto calibrated = sim::calibrate_mmpp(
            calibrate_util, [&base] { return base; }, config, pool, params,
            calibration);
        if (!calibrated.ok()) {
          std::fprintf(stderr, "%s\n", calibrated.error().c_str());
          return 64;
        }
        const sim::CalibrationResult& fit = calibrated.value();
        std::printf("mmpp calibration: target %.1f%% utilisation -> rate "
                    "scale %.3f (achieved %.1f%%, %d pilot runs)\n",
                    100.0 * calibrate_util, fit.scale,
                    100.0 * fit.achieved_utilisation, fit.pilots);
        params = fit.params;
      }
      auto made = sim::make_workload(workload_name, params);
      if (!made.ok()) {
        std::fprintf(stderr, "%s\n", made.error().c_str());
        return 64;
      }
      workload = std::move(made).value();
    }

    core::ResourceManager kairos(platform, config);
    std::printf("mapper strategy: %s\n", kairos.mapper().name().c_str());
    sim::Engine engine(kairos, pool, engine_config);
    const sim::ScenarioStats stats = engine.run(*workload);
    if (engine_config.record_trace && stats.mapper_error.empty()) {
      std::ofstream out(record_trace_path);
      if (!out) {
        std::fprintf(stderr, "cannot write trace file '%s'\n",
                     record_trace_path.c_str());
        return 66;
      }
      out << sim::write_trace_csv(stats.trace);
      std::printf("recorded %zu arrivals to %s (replay with --trace)\n",
                  stats.trace.size(), record_trace_path.c_str());
    }
    return report_scenario(stats, workload->name());
  }

  if (app_paths.empty()) {
    std::printf("no application files given; nothing to do\n");
    return 0;
  }

  core::ResourceManager kairos(platform, config);
  std::printf("mapper strategy: %s\n", kairos.mapper().name().c_str());

  std::optional<util::CsvWriter> front_csv;
  long front_rows = 0;
  if (front_sink) {
    front_csv.emplace(front_csv_path);
    if (!front_csv->ok()) {
      std::fprintf(stderr, "cannot write front file '%s'\n",
                   front_csv_path.c_str());
      return 66;
    }
    // Provenance stamp: fronts get compared across builds, so each file
    // records which build produced it.
    front_csv->write_comment(obs::build_info_line());
    std::vector<std::string> header{"application"};
    for (const std::string& name :
         objective_names.empty()
             ? mo::objective_names(mo::default_objectives())
             : objective_names) {
      header.push_back(name);
    }
    header.push_back("scalar_cost");
    front_csv->write_row(header);
  }

  int rejected = 0;
  for (const std::string& path : app_paths) {
    std::optional<graph::Application> loaded;
    if (load_application(path, loaded) != 0) {
      ++rejected;
      continue;
    }
    const graph::Application& app = *loaded;
    const auto report = kairos.admit(app);
    if (!report.admitted) {
      std::printf("%s: REJECTED in %s (%s)\n", app.name().c_str(),
                  core::to_string(report.failed_phase).c_str(),
                  report.reason.c_str());
      ++rejected;
      continue;
    }
    std::printf("%s: admitted in %.3f ms (bind %.3f, map %.3f, route %.3f, "
                "validate %.3f)\n",
                app.name().c_str(), report.times.total_ms(),
                report.times.binding_ms, report.times.mapping_ms,
                report.times.routing_ms, report.times.validation_ms);
    for (const auto& task : app.tasks()) {
      const auto& placement = report.layout.placement(task.id());
      std::printf("  %-16s -> %s\n", task.name().c_str(),
                  platform.element(placement.element).name().c_str());
    }
    if (front_sink && front_csv) {
      // One row per non-dominated solution of this admission's front (the
      // committed layout is the knee point of exactly this set).
      for (const auto& entry : front_sink->entries) {
        std::vector<std::string> row{app.name()};
        for (const double value : entry.objectives) {
          row.push_back(util::fmt(value, 6));
        }
        row.push_back(util::fmt(entry.scalar_cost, 4));
        front_csv->write_row(row);
        ++front_rows;
      }
      std::printf("  pareto front: %zu solutions (dumped to %s)\n",
                  front_sink->entries.size(), front_csv_path.c_str());
    }
  }
  if (front_sink) {
    std::printf("wrote %ld front rows to %s\n", front_rows,
                front_csv_path.c_str());
  }
  std::printf("final fragmentation: %.1f%%, live applications: %zu\n",
              100.0 * platform::external_fragmentation(platform),
              kairos.live_count());
  return rejected;
}
