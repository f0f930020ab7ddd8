// One client's view of the admission daemon's line protocol, shared by
// every transport: `kairos_cli --serve` runs one session over stdin/stdout
// and the socket listener (net::Server) runs one per connection — same
// commands, same replies, one implementation.
//
// Protocol (newline-delimited; commands with a variable number of reply
// lines terminate with "done"):
//
//   admit <file>...    load + submit each file. Per app, immediately
//                      "queued req=<id> app=<name>", then in submission
//                      order "admitted req=<id> handle=<h> app=<name>
//                      ms=<t>" or "rejected req=<id> phase=<p> app=<name>
//                      reason=<r>", then "done". The id is the admission
//                      service's request id — the same value tagged on
//                      that request's spans and log events.
//   gen <n> [seed]     submit <n> generated applications (default seed 71)
//   remove <handle>    "removed handle=<h>" or "error <reason>"
//   stats              one line: live / fragmentation / pending / counters
//   metrics            the obs registry in text exposition, then "done"
//   quit | exit        "bye"; the transport decides what closing means
//                      (stdin: daemon shutdown, socket: connection close)
//
// Threading/blocking contract: a session admits each batch (one admit or
// gen line) in one of two places, fixed when it is made:
//
//   kOnCaller       handle_line() admits the batch itself, echoes the
//                   "queued" lines and returns kPending; finish() (or
//                   poll()) emits the settled replies and "done". The stdin
//                   loop uses this: it is synchronous anyway.
//   kOnBatchThread  handle_line() hands the batch to a thread of its own
//                   and returns kPending at once, with no reply lines yet;
//                   poll() is non-blocking and emits the batch's whole reply
//                   (queued lines, settled replies, "done") once that thread
//                   has finished. Socket transports use this, so the server's
//                   poll thread never runs an admission and keeps answering
//                   scrapes while a batch is admitted (net/server.hpp's
//                   slow-work contract).
//
// Either way the replies keep the order above. While a batch is pending the
// session rejects no input — transports simply defer further lines
// (net::Conn keeps them buffered in order).
#pragma once

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "core/resource_manager.hpp"
#include "service/admission_service.hpp"

namespace kairos::service {

/// The /stats.json document: live/fragmentation/pending plus the service's
/// admitted/rejected counters — the machine-readable twin of the "stats"
/// protocol line.
std::string service_stats_json(const core::ResourceManager& manager,
                               const AdmissionService& service);

class CommandSession {
 public:
  /// The most applications one `gen` line may generate: the whole batch is
  /// built in memory before its first admission.
  static constexpr std::uint64_t kMaxGenCount = 10000;

  enum class Status {
    kReady,    ///< all replies for the line were emitted
    kPending,  ///< futures parked; pump poll()/finish() for the rest
    kQuit      ///< client asked to end the session
  };

  /// Where a batch is admitted; see the threading contract above.
  enum class Admission { kOnCaller, kOnBatchThread };

  CommandSession(core::ResourceManager& manager, AdmissionService& service,
                 Admission admission = Admission::kOnCaller);
  // A batch thread holds `this`.
  CommandSession(const CommandSession&) = delete;
  CommandSession& operator=(const CommandSession&) = delete;

  /// The banner a transport sends when a session opens.
  std::string greeting() const;

  /// Handles one command line, appending reply lines to `out`.
  Status handle_line(const std::string& line, std::vector<std::string>& out);

  /// True while a submitted batch has replies not yet emitted.
  bool pending() const { return batch_.valid() || !pending_.empty(); }

  /// Non-blocking: once the pending batch has settled, appends its remaining
  /// replies and the terminating "done" and returns true; false while a
  /// batch thread is still admitting.
  bool poll(std::vector<std::string>& out);

  /// Blocks until the pending batch settles, appending all its replies.
  void finish(std::vector<std::string>& out);

 private:
  struct PendingReply {
    std::string name;
    std::uint64_t request_id = 0;
    std::future<core::AdmissionReport> future;
  };

  /// Submits the batch on the session's admission side; returns kPending.
  Status start_batch(std::vector<graph::Application> apps,
                     std::vector<std::string>& out);
  void submit_all(std::vector<graph::Application> apps,
                  std::vector<std::string>& out);
  std::string settle_line(PendingReply& reply) const;

  core::ResourceManager& manager_;
  AdmissionService& service_;
  Admission admission_;
  /// The batch's submitted requests. While batch_ is valid only the batch
  /// thread touches it.
  std::vector<PendingReply> pending_;
  /// kOnBatchThread: the batch thread's whole reply. Declared last, so the
  /// destructor waits for the thread before the state it writes goes away.
  std::future<std::vector<std::string>> batch_;
};

}  // namespace kairos::service
