// A small poll(2)-driven socket server: one background thread multiplexing
// every listener (TCP and/or Unix-domain) and every accepted connection,
// non-blocking I/O throughout, no thread per connection.
//
// Two framings share one listener, decided by the *first line* a connection
// sends:
//
//   "GET /metrics HTTP/1.1"  -> HTTP-lite: headers are consumed up to the
//                               blank line, Handler::on_http() produces the
//                               response, the server writes status line +
//                               Content-Length and closes (HTTP/1.0 style —
//                               exactly what curl / Prometheus / kubelet
//                               probes expect from a scrape endpoint).
//   anything else            -> newline-delimited line protocol: each line
//                               is handed to Handler::on_line(), which
//                               writes replies through the Conn.
//
// Slow-work contract: handlers run on the poll thread, so they must not
// block (a blocked handler stalls every other connection's scrape). A
// handler whose reply depends on asynchronous work (admission futures)
// marks the connection *busy* instead: the server stops dispatching further
// lines from that connection (input stays buffered, preserving command
// order) and calls Handler::on_tick() for it every poll iteration (~20 ms)
// until the handler clears the flag. This is how `--serve --listen` keeps
// answering /metrics while a batch of admissions is in flight.
//
// Input is bounded: a connection buffers at most Server::kMaxInputBytes.
// Reads pause while its buffer is full of complete lines (a busy
// connection), and a line or HTTP head that alone reaches the cap is
// answered with "error line too long" (HTTP: 431) and the connection closed.
//
// Shutdown: stop() (or destruction) joins the poll thread and closes every
// socket; Unix-domain socket paths are unlinked.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/net.hpp"
#include "util/result.hpp"

namespace kairos::net {

class Server;

/// One accepted connection, as seen by the Handler. Only valid inside
/// handler callbacks (the poll thread owns it).
class Conn {
 public:
  /// Queues bytes for writing (flushed by the poll loop).
  void send(const std::string& text) { outbuf_ += text; }
  void send_line(const std::string& line) {
    outbuf_ += line;
    outbuf_ += '\n';
  }
  /// Close once the queued output has drained.
  void close_after_write() { closing_ = true; }

  /// While busy, no further input lines are dispatched from this connection
  /// and on_tick() fires every poll iteration. See the slow-work contract.
  void set_busy(bool busy) { busy_ = busy; }
  bool busy() const { return busy_; }

  /// Handler-owned per-connection state (e.g. a command session).
  std::shared_ptr<void> user;

  /// Dense id, unique over the server's lifetime (log correlation).
  std::uint64_t id() const { return id_; }

 private:
  friend class Server;
  int fd_ = -1;
  std::uint64_t id_ = 0;
  std::string inbuf_;
  std::string outbuf_;
  bool busy_ = false;
  bool closing_ = false;
  bool http_ = false;          ///< first line looked like an HTTP request
  bool http_dispatched_ = false;
  bool saw_line_ = false;      ///< a protocol line was already dispatched
};

class Server {
 public:
  struct Handler {
    virtual ~Handler() = default;
    virtual HttpResponse on_http(const HttpRequest& request) = 0;
    virtual void on_line(Conn& conn, const std::string& line) = 0;
    /// Called for every *busy* connection each poll iteration.
    virtual void on_tick(Conn& conn) { (void)conn; }
    /// Connection is going away (peer closed or server stopping).
    virtual void on_close(Conn& conn) { (void)conn; }
  };

  /// The most input one connection buffers (64 KiB).
  static constexpr std::size_t kMaxInputBytes = 64 * 1024;

  explicit Server(Handler& handler) : handler_(handler) {}
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Binds a listener; call before start(). Port 0 picks an ephemeral port
  /// (read it back with bound_port()). Both may be called — one TCP and one
  /// Unix listener can serve side by side.
  util::VoidResult listen(const Address& address);

  /// The TCP listener's actual port (after listen()); 0 when none.
  int bound_port() const { return bound_port_; }

  /// Spawns the poll thread. No-op when already running.
  void start();
  /// Joins the poll thread, closes all sockets, unlinks Unix paths.
  /// Idempotent; the destructor calls it.
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

 private:
  void loop();
  void handle_input(Conn& conn);
  void dispatch_http(Conn& conn);

  Handler& handler_;
  std::vector<int> listen_fds_;
  std::vector<std::string> unix_paths_;  ///< unlinked on stop()
  int bound_port_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace kairos::net
