// TKO_Session: the junction between protocol architecture and session
// architecture (Section 4.2.1).
//
// A Session encapsulates per-connection context (local/remote addresses)
// and the operations for sending and receiving TKO_Message objects.
// Concrete sessions — the ADAPTIVE TransportSession, the baseline TCP/UDP/
// TP4 sessions — derive from this interface, so applications and the
// protocol graph treat every transport uniformly ("plug-compatible").
#pragma once

#include "net/packet.hpp"
#include "tko/message.hpp"

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace adaptive::unites {
class TraceRecorder;
}

namespace adaptive::tko {

enum class SessionState {
  kIdle,
  kConnecting,
  kEstablished,
  kClosing,
  kClosed,
  kAborted,
};

[[nodiscard]] const char* to_string(SessionState s);

class Session {
public:
  virtual ~Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Queue application data for transmission. Returns false if the session
  /// cannot accept data (closed/aborted). Accepts whatever it is given
  /// otherwise: a producer that wants bounded buffering consults
  /// writable().
  virtual bool send(Message&& m) = 0;

  /// False while the session's send buffer already holds a full window of
  /// queued data; true again once the transport drains it, and whenever
  /// send() would refuse (so a waiting producer learns of a close from
  /// that refusal).
  [[nodiscard]] virtual bool writable() const = 0;

  /// One-shot upcall fired when a non-writable session becomes writable,
  /// or when it closes or aborts while armed. It runs inside protocol
  /// processing (an ack draining the queue), so it must not call send()
  /// synchronously: schedule the next send instead. Pass nullptr to
  /// disarm.
  using WritableFn = std::function<void()>;
  void set_on_writable(WritableFn fn) { on_writable_ = std::move(fn); }

  /// Begin connection establishment (no-op for connectionless sessions).
  virtual void connect() = 0;

  /// Close; `graceful` drains buffered data first.
  virtual void close(bool graceful = true) = 0;

  [[nodiscard]] virtual SessionState state() const = 0;

  /// Upcall invoked for each in-profile application data unit received.
  using DeliverFn = std::function<void(Message&&)>;
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Observation tap fired alongside every delivery upcall with the
  /// delivered size — the conformance plane's kernel-level byte feed
  /// (window throughput), independent of how the app parses the bytes.
  using DeliveryTapFn = std::function<void(std::size_t bytes)>;
  void set_delivery_tap(DeliveryTapFn fn) { delivery_tap_ = std::move(fn); }

  /// Upcall invoked when the session becomes established / closes.
  using StateFn = std::function<void(SessionState)>;
  void set_on_state(StateFn fn) { on_state_ = std::move(fn); }

  /// Generic control interface ("dispatching system calls that store
  /// and/or retrieve session control information"). Known ops include
  /// "peer", "mtu", "state"; unknown ops return nullopt.
  [[nodiscard]] virtual std::optional<std::string> control(std::string_view op) const;

  /// Buffer pool application code should build outgoing Messages from, so
  /// payload segments are allocated (and copy-accounted) against the
  /// session's host from the first byte. Null when the session has no
  /// host-attached pool (e.g. loopback test doubles).
  [[nodiscard]] virtual os::BufferPool* buffer_pool() { return nullptr; }

  /// The World's UNITES trace ring this session records into. The
  /// applications that send on or listen to the session record there too.
  [[nodiscard]] virtual unites::TraceRecorder& trace_ring() = 0;

  [[nodiscard]] const net::Address& local() const { return local_; }
  [[nodiscard]] const std::vector<net::Address>& remotes() const { return remotes_; }
  [[nodiscard]] bool is_multicast_session() const {
    return remotes_.size() > 1 ||
           (!remotes_.empty() && net::is_multicast(remotes_.front().node));
  }

protected:
  Session(net::Address local, std::vector<net::Address> remotes)
      : local_(local), remotes_(std::move(remotes)) {}

  void deliver_up(Message&& m) {
    if (delivery_tap_) delivery_tap_(m.size());
    if (deliver_) deliver_(std::move(m));
  }
  void notify_state(SessionState s) {
    if (on_state_) on_state_(s);
  }
  /// Fire and disarm the writable upcall, if one is armed.
  void release_writable() {
    if (!on_writable_) return;
    WritableFn fn = std::move(on_writable_);
    on_writable_ = nullptr;
    fn();
  }

  net::Address local_;
  std::vector<net::Address> remotes_;

private:
  DeliverFn deliver_;
  DeliveryTapFn delivery_tap_;
  StateFn on_state_;
  WritableFn on_writable_;
};

}  // namespace adaptive::tko
