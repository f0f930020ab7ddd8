// Tests for the net layer: address parsing, the poll-driven server's dual
// framing (HTTP-lite and line protocol on one listener), the busy/on_tick
// slow-work contract, and Unix-domain listeners.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>

#include "net/net.hpp"
#include "net/server.hpp"

namespace kairos::net {
namespace {

TEST(AddressTest, ParsesEveryDocumentedSpelling) {
  auto bare = parse_address("7070");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().kind, Address::Kind::kTcp);
  EXPECT_EQ(bare.value().host, "127.0.0.1");
  EXPECT_EQ(bare.value().port, 7070);

  auto colon = parse_address(":7070");
  ASSERT_TRUE(colon.ok());
  EXPECT_EQ(colon.value().port, 7070);
  EXPECT_EQ(colon.value().host, "127.0.0.1");

  auto full = parse_address("0.0.0.0:9090");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().host, "0.0.0.0");
  EXPECT_EQ(full.value().port, 9090);

  auto ephemeral = parse_address("127.0.0.1:0");
  ASSERT_TRUE(ephemeral.ok());
  EXPECT_EQ(ephemeral.value().port, 0);

  auto unix_addr = parse_address("unix:/tmp/kairos-test.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_EQ(unix_addr.value().kind, Address::Kind::kUnix);
  EXPECT_EQ(unix_addr.value().path, "/tmp/kairos-test.sock");
}

TEST(AddressTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(parse_address("").ok());
  EXPECT_FALSE(parse_address("not-a-port").ok());
  EXPECT_FALSE(parse_address("127.0.0.1:notaport").ok());
  EXPECT_FALSE(parse_address("127.0.0.1:99999").ok());
  EXPECT_FALSE(parse_address("unix:").ok());
}

TEST(AddressTest, ToStringRoundTrips) {
  EXPECT_EQ(to_string(parse_address("127.0.0.1:7070").value()),
            "127.0.0.1:7070");
  EXPECT_EQ(to_string(parse_address("unix:/tmp/k.sock").value()),
            "unix:/tmp/k.sock");
}

/// Echo handler exercising both framings plus the busy/tick contract:
/// "defer" marks the connection busy and replies only after two ticks.
class EchoHandler : public Server::Handler {
 public:
  HttpResponse on_http(const HttpRequest& request) override {
    HttpResponse response;
    if (request.method != "GET") {
      response.status = 405;
      return response;
    }
    if (request.target == "/hello") {
      response.body = "hello\n";
    } else if (request.target == "/healthz") {
      response.body = "ok\n";
    } else {
      response.status = 404;
      response.body = "not found\n";
    }
    return response;
  }

  void on_line(Conn& conn, const std::string& line) override {
    if (line == "defer") {
      ticks_seen_ = 0;
      conn.set_busy(true);
      return;
    }
    conn.send_line("echo " + line);
    if (line == "quit") conn.close_after_write();
  }

  void on_tick(Conn& conn) override {
    if (++ticks_seen_ >= 2) {
      conn.send_line("deferred done");
      conn.set_busy(false);
    }
  }

 private:
  int ticks_seen_ = 0;
};

TEST(ServerTest, HttpAndLineProtocolShareOneListener) {
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  ASSERT_GT(server.bound_port(), 0);
  server.start();

  Address address;
  address.port = server.bound_port();

  // HTTP framing: request line decides, headers consumed, one response.
  auto hello = http_get(address, "/hello");
  ASSERT_TRUE(hello.ok()) << hello.error();
  EXPECT_EQ(hello.value().status, 200);
  EXPECT_EQ(hello.value().body, "hello\n");

  auto missing = http_get(address, "/definitely-not-here");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  // Line framing on the very same port.
  LineClient client;
  ASSERT_TRUE(client.connect(address).ok());
  ASSERT_TRUE(client.send_line("ping").ok());
  auto reply = client.read_line();
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply.value(), "echo ping");

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ServerTest, AnswersHeaderlessHttpRequests) {
  // A minimal probe sends "GET /x HTTP/1.0\r\n\r\n" with no headers at all;
  // the framing replay must still find the end of the (empty) header block.
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();

  Address address;
  address.port = server.bound_port();
  LineClient raw;
  ASSERT_TRUE(raw.connect(address).ok());
  ASSERT_TRUE(raw.send_line("GET /hello HTTP/1.0\r").ok());
  ASSERT_TRUE(raw.send_line("\r").ok());
  auto status_line = raw.read_line(5000);
  ASSERT_TRUE(status_line.ok()) << status_line.error();
  EXPECT_EQ(status_line.value(), "HTTP/1.0 200 OK");

  server.stop();
}

TEST(ServerTest, BusyConnectionDefersInputAndPreservesOrder) {
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();

  Address address;
  address.port = server.bound_port();
  LineClient client;
  ASSERT_TRUE(client.connect(address).ok());

  // Both lines land at once; "after" must wait behind the busy flag and
  // still be answered after the deferred reply — order preserved.
  ASSERT_TRUE(client.send_line("defer").ok());
  ASSERT_TRUE(client.send_line("after").ok());

  auto first = client.read_line();
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first.value(), "deferred done");
  auto second = client.read_line();
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second.value(), "echo after");

  server.stop();
}

TEST(ServerTest, UnixDomainListenerServesAndUnlinksOnStop) {
  const std::string path =
      testing::TempDir() + "kairos_net_test_" +
      std::to_string(::getpid()) + ".sock";
  std::remove(path.c_str());

  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("unix:" + path).value()).ok());
  server.start();

  Address address;
  address.kind = Address::Kind::kUnix;
  address.path = path;

  LineClient client;
  ASSERT_TRUE(client.connect(address).ok());
  ASSERT_TRUE(client.send_line("over unix").ok());
  auto reply = client.read_line();
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply.value(), "echo over unix");

  auto scrape = http_get(address, "/hello");
  ASSERT_TRUE(scrape.ok()) << scrape.error();
  EXPECT_EQ(scrape.value().body, "hello\n");

  client.close();
  server.stop();
  // The socket path is unlinked on stop — a fresh bind must succeed.
  Server second(handler);
  EXPECT_TRUE(second.listen(address).ok());
  second.stop();
  std::remove(path.c_str());
}

TEST(ServerTest, QuitClosesAfterReplyIsWritten) {
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();

  Address address;
  address.port = server.bound_port();
  LineClient client;
  ASSERT_TRUE(client.connect(address).ok());
  ASSERT_TRUE(client.send_line("quit").ok());
  auto reply = client.read_line();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value(), "echo quit");
  // Peer closes after the reply: the next read reports closed, not a hang.
  EXPECT_FALSE(client.read_line(2000).ok());

  server.stop();
}

/// What a raw client saw after sending `bytes` to a TCP port: the reply
/// bytes, and whether the server closed the connection (EOF or reset)
/// rather than leaving it open until the 3 s receive timeout.
struct RawOutcome {
  std::string reply;
  bool closed = false;
};

RawOutcome send_raw(int port, const std::string& bytes) {
  RawOutcome outcome;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval timeout{3, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &sin.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)), 0);

  // Stops at the first failed send: a server that closed on us resets.
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  for (;;) {
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      outcome.reply.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    outcome.closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    break;
  }
  ::close(fd);
  return outcome;
}

TEST(ServerTest, EndlessLineIsCutOffAndOthersStillServed) {
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();

  // 1 MiB without a newline: the server stops buffering at its cap and
  // closes the connection, replying first if the reply outruns the reset.
  const RawOutcome flood =
      send_raw(server.bound_port(), std::string(1 << 20, 'x'));
  EXPECT_TRUE(flood.closed);
  if (!flood.reply.empty()) {
    EXPECT_EQ(flood.reply, "error line too long\n");
  }

  Address address;
  address.port = server.bound_port();
  auto health = http_get(address, "/healthz");
  ASSERT_TRUE(health.ok()) << health.error();
  EXPECT_EQ(health.value().status, 200);
  EXPECT_EQ(health.value().body, "ok\n");

  server.stop();
}

TEST(ServerTest, EndlessHttpHeadIsAnswered431) {
  EchoHandler handler;
  Server server(handler);
  ASSERT_TRUE(server.listen(parse_address("127.0.0.1:0").value()).ok());
  server.start();

  const RawOutcome outcome = send_raw(
      server.bound_port(),
      "GET /hello HTTP/1.1\r\nX-Pad: " +
          std::string(Server::kMaxInputBytes, 'a'));
  EXPECT_TRUE(outcome.closed);
  EXPECT_EQ(outcome.reply.rfind("HTTP/1.0 431 ", 0), 0u) << outcome.reply;

  server.stop();
}

}  // namespace
}  // namespace kairos::net
