// Tests for the daemon's command protocol, transport-independent by
// construction: the same service::CommandSession is driven directly (the
// stdin transport) and over a net::Server with the session-per-connection
// wiring `kairos_cli --serve --listen` uses. Request ids are product data
// (minted by the admission service, echoed in replies); the assertions are
// about the protocol — reply shapes, ordering, id echo — never counter
// values.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/resource_manager.hpp"
#include "mappers/incremental_mapper.hpp"
#include "net/net.hpp"
#include "net/server.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"
#include "service/command_session.hpp"

namespace kairos::service {
namespace {

bool starts_with(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

/// "queued req=7 app=x" / "admitted req=7 ..." -> 7; 0 when absent.
std::uint64_t parse_request_id(const std::string& line) {
  const auto pos = line.find("req=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + 4, nullptr, 10);
}

struct Fixture {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager;
  AdmissionService service;

  explicit Fixture(core::KairosConfig config = {})
      : manager(crisp, std::move(config)), service(manager) {}
};

TEST(CommandSessionTest, GreetingNamesTheCommands) {
  Fixture fixture;
  CommandSession session(fixture.manager, fixture.service);
  const std::string greeting = session.greeting();
  EXPECT_NE(greeting.find("serving"), std::string::npos);
  EXPECT_NE(greeting.find("admit"), std::string::npos);
  EXPECT_NE(greeting.find("stats"), std::string::npos);
  EXPECT_NE(greeting.find("quit"), std::string::npos);
}

TEST(CommandSessionTest, GenQueuesThenSettlesInSubmissionOrder) {
  Fixture fixture;
  CommandSession session(fixture.manager, fixture.service);

  std::vector<std::string> out;
  const auto status = session.handle_line("gen 3 7", out);
  EXPECT_EQ(status, CommandSession::Status::kPending);
  EXPECT_TRUE(session.pending());
  ASSERT_EQ(out.size(), 3u);

  std::vector<std::uint64_t> queued_ids;
  for (const std::string& line : out) {
    EXPECT_TRUE(starts_with(line, "queued req=")) << line;
    const std::uint64_t id = parse_request_id(line);
    EXPECT_GT(id, 0u);
    queued_ids.push_back(id);
  }
  EXPECT_EQ(std::set<std::uint64_t>(queued_ids.begin(), queued_ids.end())
                .size(),
            3u)
      << "request ids must be distinct";

  out.clear();
  session.finish(out);
  EXPECT_FALSE(session.pending());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.back(), "done");
  // Settled replies echo the queued ids, in submission order.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(starts_with(out[i], "admitted req=") ||
                starts_with(out[i], "rejected req="))
        << out[i];
    EXPECT_EQ(parse_request_id(out[i]), queued_ids[i]) << out[i];
  }
}

TEST(CommandSessionTest, StatsIsOneLineAndRemoveValidates) {
  Fixture fixture;
  CommandSession session(fixture.manager, fixture.service);

  std::vector<std::string> out;
  EXPECT_EQ(session.handle_line("stats", out), CommandSession::Status::kReady);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(starts_with(out[0], "stats live=0")) << out[0];

  out.clear();
  EXPECT_EQ(session.handle_line("remove 12345", out),
            CommandSession::Status::kReady);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(starts_with(out[0], "error")) << out[0];

  out.clear();
  EXPECT_EQ(session.handle_line("remove", out),
            CommandSession::Status::kReady);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(starts_with(out[0], "error")) << out[0];
}

TEST(CommandSessionTest, ErrorsAndQuit) {
  Fixture fixture;
  CommandSession session(fixture.manager, fixture.service);

  std::vector<std::string> out;
  EXPECT_EQ(session.handle_line("frobnicate", out),
            CommandSession::Status::kReady);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(starts_with(out[0], "error unknown command")) << out[0];

  out.clear();
  EXPECT_EQ(session.handle_line("admit /no/such/file.app", out),
            CommandSession::Status::kReady);
  ASSERT_GE(out.size(), 2u);
  EXPECT_TRUE(starts_with(out[0], "error")) << out[0];
  EXPECT_EQ(out.back(), "done");

  out.clear();
  EXPECT_EQ(session.handle_line("gen", out), CommandSession::Status::kReady);
  EXPECT_TRUE(starts_with(out[0], "error")) << out[0];

  out.clear();
  EXPECT_EQ(session.handle_line("", out), CommandSession::Status::kReady);
  EXPECT_TRUE(out.empty());

  out.clear();
  EXPECT_EQ(session.handle_line("quit", out), CommandSession::Status::kQuit);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "bye");
}

TEST(CommandSessionTest, StatsJsonDocumentHasTheServiceShape) {
  Fixture fixture;
  const std::string json =
      service_stats_json(fixture.manager, fixture.service);
  EXPECT_TRUE(starts_with(json, "{"));
  EXPECT_NE(json.find("\"live\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pending\":0"), std::string::npos);
  EXPECT_NE(json.find("\"fragmentation\":"), std::string::npos);
  EXPECT_NE(json.find("\"admitted\":"), std::string::npos);
}

/// The socket transport, wired exactly as `kairos_cli --serve --listen`
/// does it: TelemetryServer handles HTTP, one CommandSession per connection
/// parked on Conn::user handles lines, the busy tick pumps poll().
struct ServedFixture : Fixture {
  obs::TimeSeriesSampler sampler;
  obs::TelemetryServer telemetry;
  net::Server server{telemetry};
  net::Address address;

  explicit ServedFixture(core::KairosConfig config = {})
      : Fixture(std::move(config)),
        sampler(obs::Registry::global()),
        telemetry(obs::Registry::global(), obs::Tracer::global(),
                  obs::EventLog::global(), sampler) {
    telemetry.set_stats_source(
        [this] { return service_stats_json(manager, service); });
    telemetry.set_line_handler(
        [this](net::Conn& conn, const std::string& line) {
          auto& session = session_of(conn);
          std::vector<std::string> replies;
          const auto status = session.handle_line(line, replies);
          for (const std::string& reply : replies) conn.send_line(reply);
          if (status == CommandSession::Status::kPending) {
            conn.set_busy(true);
          } else if (status == CommandSession::Status::kQuit) {
            conn.close_after_write();
          }
        },
        [this](net::Conn& conn) {
          auto& session = session_of(conn);
          std::vector<std::string> replies;
          const bool drained = session.poll(replies);
          for (const std::string& reply : replies) conn.send_line(reply);
          if (drained) conn.set_busy(false);
        });
    EXPECT_TRUE(
        server.listen(net::parse_address("127.0.0.1:0").value()).ok());
    server.start();
    address.port = server.bound_port();
  }

  ~ServedFixture() { server.stop(); }

  CommandSession& session_of(net::Conn& conn) {
    if (!conn.user) {
      conn.user = std::make_shared<CommandSession>(
          manager, service, CommandSession::Admission::kOnBatchThread);
    }
    return *static_cast<CommandSession*>(conn.user.get());
  }
};

TEST(ServeProtocolTest, LineProtocolOverTheSocketEchoesRequestIds) {
  ServedFixture fixture;
  net::LineClient client;
  ASSERT_TRUE(client.connect(fixture.address).ok());

  ASSERT_TRUE(client.send_line("gen 2 11").ok());
  std::vector<std::uint64_t> queued_ids;
  for (int i = 0; i < 2; ++i) {
    auto line = client.read_line();
    ASSERT_TRUE(line.ok()) << line.error();
    EXPECT_TRUE(starts_with(line.value(), "queued req=")) << line.value();
    queued_ids.push_back(parse_request_id(line.value()));
    EXPECT_GT(queued_ids.back(), 0u);
  }
  // The settle replies arrive from the busy tick, ids echoed in order.
  for (int i = 0; i < 2; ++i) {
    auto line = client.read_line(10000);
    ASSERT_TRUE(line.ok()) << line.error();
    EXPECT_TRUE(starts_with(line.value(), "admitted req=") ||
                starts_with(line.value(), "rejected req="))
        << line.value();
    EXPECT_EQ(parse_request_id(line.value()),
              queued_ids[static_cast<std::size_t>(i)]);
  }
  auto done = client.read_line(10000);
  ASSERT_TRUE(done.ok()) << done.error();
  EXPECT_EQ(done.value(), "done");

  // The session keeps serving after a batch.
  ASSERT_TRUE(client.send_line("stats").ok());
  auto stats = client.read_line();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_TRUE(starts_with(stats.value(), "stats live=")) << stats.value();

  ASSERT_TRUE(client.send_line("quit").ok());
  auto bye = client.read_line();
  ASSERT_TRUE(bye.ok()) << bye.error();
  EXPECT_EQ(bye.value(), "bye");
}

TEST(ServeProtocolTest, HttpEndpointsAnswerOnTheSameSocket) {
  ServedFixture fixture;

  // /stats.json is the machine-readable twin of the "stats" line.
  auto stats = net::http_get(fixture.address, "/stats.json");
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats.value().status, 200);
  EXPECT_NE(stats.value().body.find("\"live\":0"), std::string::npos);

  // /metrics serves a terminated OpenMetrics document.
  auto metrics = net::http_get(fixture.address, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.error();
  EXPECT_EQ(metrics.value().status, 200);
  EXPECT_NE(metrics.value().body.find("# EOF"), std::string::npos);

  // /healthz with no SLOs configured answers 200 in both modes.
  auto health = net::http_get(fixture.address, "/healthz");
  ASSERT_TRUE(health.ok()) << health.error();
  EXPECT_EQ(health.value().status, 200);
  EXPECT_NE(health.value().body.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ServeProtocolTest, TwoConnectionsGetIndependentSessions) {
  ServedFixture fixture;
  net::LineClient first;
  net::LineClient second;
  ASSERT_TRUE(first.connect(fixture.address).ok());
  ASSERT_TRUE(second.connect(fixture.address).ok());

  ASSERT_TRUE(first.send_line("gen 1 3").ok());
  auto queued = first.read_line();
  ASSERT_TRUE(queued.ok()) << queued.error();
  EXPECT_TRUE(starts_with(queued.value(), "queued req="));

  // The second connection is not blocked by the first one's batch.
  ASSERT_TRUE(second.send_line("stats").ok());
  auto stats = second.read_line();
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_TRUE(starts_with(stats.value(), "stats live="));

  // Drain the first connection so teardown is orderly.
  for (;;) {
    auto line = first.read_line(10000);
    ASSERT_TRUE(line.ok()) << line.error();
    if (line.value() == "done") break;
  }
}

/// The paper's incremental mapper behind a gate: map() records that it was
/// entered, then waits until the test opens the gate — an admission held in
/// flight for as long as the test needs.
class GatedMapper final : public mappers::Mapper {
 public:
  std::string name() const override { return "gated"; }

  using Mapper::map;
  core::MappingResult map(const graph::Application& app,
                          const std::vector<int>& impl_of,
                          const core::PinTable& pins,
                          platform::Platform& platform,
                          const mappers::StopToken& stop) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return inner_.map(app, impl_of, pins, platform, stop);
  }

  bool wait_entered() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return entered_; });
  }

  void open() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  mutable bool open_ = false;
  mappers::IncrementalStrategy inner_;
};

TEST(ServeProtocolTest, ScrapesAnswerWhileASocketBatchIsAdmitted) {
  const auto gate = std::make_shared<GatedMapper>();
  core::KairosConfig config;
  config.mapper = gate;
  ServedFixture fixture(config);
  net::LineClient client;
  ASSERT_TRUE(client.connect(fixture.address).ok());
  ASSERT_TRUE(client.send_line("gen 2 5").ok());

  // The batch's first admission is inside the mapper and stays there: the
  // server's poll thread must still answer a probe and a scrape.
  const bool entered = gate->wait_entered();
  const auto health = net::http_get(fixture.address, "/healthz", 3000);
  const auto metrics = net::http_get(fixture.address, "/metrics", 3000);
  gate->open();
  ASSERT_TRUE(entered) << "the batch never reached the mapper";
  ASSERT_TRUE(health.ok()) << health.error();
  EXPECT_EQ(health.value().status, 200);
  ASSERT_TRUE(metrics.ok()) << metrics.error();
  EXPECT_NE(metrics.value().body.find("# EOF"), std::string::npos);

  // Then the batch's reply arrives whole, in protocol order.
  std::vector<std::uint64_t> queued_ids;
  for (int i = 0; i < 2; ++i) {
    auto line = client.read_line(10000);
    ASSERT_TRUE(line.ok()) << line.error();
    EXPECT_TRUE(starts_with(line.value(), "queued req=")) << line.value();
    queued_ids.push_back(parse_request_id(line.value()));
  }
  for (int i = 0; i < 2; ++i) {
    auto line = client.read_line(10000);
    ASSERT_TRUE(line.ok()) << line.error();
    EXPECT_TRUE(starts_with(line.value(), "admitted req=") ||
                starts_with(line.value(), "rejected req="))
        << line.value();
    EXPECT_EQ(parse_request_id(line.value()),
              queued_ids[static_cast<std::size_t>(i)]);
  }
  auto done = client.read_line(10000);
  ASSERT_TRUE(done.ok()) << done.error();
  EXPECT_EQ(done.value(), "done");
}

}  // namespace
}  // namespace kairos::service
