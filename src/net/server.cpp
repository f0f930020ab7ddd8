#include "net/server.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>

namespace kairos::net {

namespace {

using util::Error;

constexpr int kPollTimeoutMs = 20;

void set_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

/// True when a first line announces HTTP framing ("GET /x HTTP/1.1").
bool looks_like_http(const std::string& line) {
  static const char* kMethods[] = {"GET ", "HEAD ", "POST ", "PUT ",
                                   "DELETE "};
  for (const char* method : kMethods) {
    if (line.rfind(method, 0) == 0) {
      return line.find(" HTTP/") != std::string::npos;
    }
  }
  return false;
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

/// Writes the status line, headers and (unless HEAD) body, then closes.
void send_response(Conn& conn, const std::string& method,
                   const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (method != "HEAD") out += response.body;
  conn.send(out);
  conn.close_after_write();
}

}  // namespace

Server::~Server() { stop(); }

util::VoidResult Server::listen(const Address& address) {
  if (running_.load(std::memory_order_relaxed)) {
    return Error("listen() must be called before start()");
  }
  int fd = -1;
  if (address.kind == Address::Kind::kUnix) {
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    if (address.path.size() >= sizeof(sun.sun_path)) {
      return Error("unix socket path too long: " + address.path);
    }
    std::strncpy(sun.sun_path, address.path.c_str(), sizeof(sun.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Error(std::string("socket: ") + std::strerror(errno));
    ::unlink(address.path.c_str());  // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) != 0) {
      const std::string message =
          "bind " + address.path + ": " + std::strerror(errno);
      ::close(fd);
      return Error(message);
    }
    unix_paths_.push_back(address.path);
  } else {
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<std::uint16_t>(address.port));
    if (::inet_pton(AF_INET, address.host.c_str(), &sin.sin_addr) != 1) {
      return Error("not a numeric IPv4 address: " + address.host);
    }
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Error(std::string("socket: ") + std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
      const std::string message =
          "bind " + to_string(address) + ": " + std::strerror(errno);
      ::close(fd);
      return Error(message);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(fd, 64) != 0) {
    const std::string message =
        std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return Error(message);
  }
  set_nonblocking(fd);
  listen_fds_.push_back(fd);
  return {};
}

void Server::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  thread_ = std::thread([this] { loop(); });
}

void Server::stop() {
  if (running_.load(std::memory_order_relaxed)) {
    stopping_.store(true);
    if (thread_.joinable()) thread_.join();
    running_.store(false);
  }
  for (auto& conn : conns_) {
    handler_.on_close(*conn);
    if (conn->fd_ >= 0) ::close(conn->fd_);
  }
  conns_.clear();
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  for (const std::string& path : unix_paths_) ::unlink(path.c_str());
  unix_paths_.clear();
  bound_port_ = 0;
}

void Server::dispatch_http(Conn& conn) {
  // Request line + headers end at the first blank line. The mixed "\n\r\n"
  // form occurs on header-less requests: handle_input strips the request
  // line's "\r" before replaying it, leaving "<line>\n" + "\r\n".
  auto end = conn.inbuf_.find("\r\n\r\n");
  std::size_t skip = 4;
  if (end == std::string::npos) {
    end = conn.inbuf_.find("\n\r\n");
    skip = 3;
  }
  if (end == std::string::npos) {
    end = conn.inbuf_.find("\n\n");
    skip = 2;
  }
  if (end == std::string::npos) {
    if (conn.inbuf_.size() < kMaxInputBytes) return;  // keep reading
    conn.inbuf_.clear();
    conn.http_dispatched_ = true;
    HttpResponse too_long;
    too_long.status = 431;
    too_long.body = "request head too long\n";
    send_response(conn, "GET", too_long);
    return;
  }

  const std::string head = conn.inbuf_.substr(0, end);
  conn.inbuf_.erase(0, end + skip);
  conn.http_dispatched_ = true;

  HttpRequest request;
  const auto line_end = head.find('\n');
  std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  if (!request_line.empty() && request_line.back() == '\r') {
    request_line.pop_back();
  }
  const auto first_space = request_line.find(' ');
  const auto second_space = request_line.find(' ', first_space + 1);
  if (first_space != std::string::npos && second_space != std::string::npos) {
    request.method = request_line.substr(0, first_space);
    request.target =
        request_line.substr(first_space + 1, second_space - first_space - 1);
  }

  send_response(conn, request.method, handler_.on_http(request));
}

void Server::handle_input(Conn& conn) {
  if (conn.http_) {
    if (!conn.http_dispatched_) dispatch_http(conn);
    return;
  }
  // Dispatch buffered complete lines in order; pause while the handler has
  // a reply in flight (busy) so command order is preserved.
  while (!conn.busy_ && !conn.closing_) {
    const auto newline = conn.inbuf_.find('\n');
    if (newline == std::string::npos) {
      if (conn.inbuf_.size() >= kMaxInputBytes) {
        conn.inbuf_.clear();
        conn.send_line("error line too long");
        conn.close_after_write();
      }
      return;
    }
    std::string line = conn.inbuf_.substr(0, newline);
    conn.inbuf_.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // The first line decides the framing for the whole connection.
    if (!conn.saw_line_ && looks_like_http(line)) {
      conn.http_ = true;
      conn.inbuf_ = line + "\n" + conn.inbuf_;  // replay for the HTTP parser
      if (!conn.http_dispatched_) dispatch_http(conn);
      return;
    }
    conn.saw_line_ = true;
    handler_.on_line(conn, line);
  }
}

void Server::loop() {
  std::vector<pollfd> pfds;
  while (!stopping_.load(std::memory_order_relaxed)) {
    pfds.clear();
    for (const int fd : listen_fds_) pfds.push_back({fd, POLLIN, 0});
    for (const auto& conn : conns_) {
      // A full input buffer waits for its lines to be dispatched.
      short events = conn->inbuf_.size() < kMaxInputBytes ? POLLIN : 0;
      if (!conn->outbuf_.empty()) events |= POLLOUT;
      pfds.push_back({conn->fd_, events, 0});
    }

    ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);

    // Accept new connections.
    for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
      if (!(pfds[i].revents & POLLIN)) continue;
      for (;;) {
        const int fd = ::accept(listen_fds_[i], nullptr, nullptr);
        if (fd < 0) break;
        set_nonblocking(fd);
        auto conn = std::make_unique<Conn>();
        conn->fd_ = fd;
        conn->id_ = next_conn_id_++;
        conns_.push_back(std::move(conn));
      }
    }

    // Read, dispatch, write, tick — per connection.
    const std::size_t listeners = listen_fds_.size();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = *conns_[i];
      bool dead = false;
      // New connections accepted this iteration have no pollfd yet.
      const bool polled = listeners + i < pfds.size();
      if (polled && (pfds[listeners + i].revents & (POLLIN | POLLHUP))) {
        while (conn.inbuf_.size() < kMaxInputBytes) {
          char chunk[4096];
          const std::size_t room =
              std::min(sizeof(chunk), kMaxInputBytes - conn.inbuf_.size());
          const ssize_t n = ::recv(conn.fd_, chunk, room, 0);
          if (n > 0) {
            conn.inbuf_.append(chunk, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) {
            dead = true;  // peer closed; flush what we owe, then drop
          }
          break;  // EAGAIN or error
        }
        handle_input(conn);
      }
      if (conn.busy_) {
        handler_.on_tick(conn);
        if (!conn.busy_) handle_input(conn);  // resume buffered commands
      }
      if (!conn.outbuf_.empty()) {
        const ssize_t n = ::send(conn.fd_, conn.outbuf_.data(),
                                 conn.outbuf_.size(), MSG_NOSIGNAL);
        if (n > 0) {
          conn.outbuf_.erase(0, static_cast<std::size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          dead = true;
        }
      }
      // Close once the reason to stay is gone: nothing left to write and no
      // reply in flight. A dead peer therefore still receives queued output
      // this iteration, and a busy connection's parked replies are never
      // dropped mid-batch.
      if ((conn.closing_ || dead) && conn.outbuf_.empty() && !conn.busy_) {
        handler_.on_close(conn);
        ::close(conn.fd_);
        conn.fd_ = -1;
      }
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->fd_ < 0;
                                }),
                 conns_.end());
  }
}

}  // namespace kairos::net
