// The transport half of the telemetry plane: listen-address parsing, the
// HTTP-lite framing types shared by server and clients, and two small
// *blocking* clients (an HTTP GET and a line-protocol client) used by
// `kairos_cli --watch` / `--health`, the end-to-end tests, and any external
// producer that wants to feed a `--serve --listen` daemon.
//
// Everything here is plain POSIX sockets — no third-party dependency, no
// event library. The framing is deliberately "HTTP-lite": enough of
// HTTP/1.0 for curl, Prometheus scrapers and health probes (request line +
// headers in, status line + Content-Length out, connection closed after the
// response), nothing more. The same listener also carries the daemon's
// newline-delimited admit/remove/stats protocol: the first line of a
// connection decides which framing the connection speaks (see server.hpp).
#pragma once

#include <string>

#include "util/result.hpp"

namespace kairos::net {

/// Where to listen or connect: a TCP endpoint or a Unix-domain socket path.
///
/// Spellings accepted by parse_address():
///   "7070"            TCP 127.0.0.1:7070
///   ":7070"           TCP 127.0.0.1:7070
///   "0.0.0.0:7070"    TCP on all interfaces
///   "127.0.0.1:0"     TCP, ephemeral port (Server::bound_port() tells)
///   "unix:/tmp/k.sock" Unix-domain socket at that path
struct Address {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host = "127.0.0.1";  ///< numeric IPv4 only (no resolver)
  int port = 0;                    ///< 0 = ephemeral (listen side only)
  std::string path;                ///< Unix-domain socket path
};

util::Result<Address> parse_address(const std::string& spec);
std::string to_string(const Address& address);

/// One parsed HTTP-lite request: method + target, headers dropped (none of
/// the served endpoints are header-sensitive).
struct HttpRequest {
  std::string method;
  std::string target;  ///< path + optional query, e.g. "/metrics"
};

/// The response the handler fills in; the server adds the status line,
/// Content-Type / Content-Length headers and Connection: close.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// What an HTTP GET brought back: the status code and the body.
struct HttpResult {
  int status = 0;
  std::string body;
};

/// Blocking one-shot GET against a daemon's telemetry endpoint. Connect,
/// send, read to EOF (the server closes after each response), with one
/// overall deadline.
util::Result<HttpResult> http_get(const Address& address,
                                  const std::string& target,
                                  int timeout_ms = 2000);

/// Blocking newline-delimited client for the admit/remove/stats protocol
/// over the daemon socket — what a remote producer (or a test) uses.
class LineClient {
 public:
  LineClient() = default;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient();

  util::VoidResult connect(const Address& address, int timeout_ms = 2000);
  util::VoidResult send_line(const std::string& line);
  /// Next '\n'-terminated line (terminator stripped, trailing '\r' too).
  /// Errors on timeout or when the peer closes mid-line.
  util::Result<std::string> read_line(int timeout_ms = 5000);
  bool connected() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last returned line
};

}  // namespace kairos::net
