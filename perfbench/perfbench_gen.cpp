// Load generator: one process, one epoll thread, at most four connections
// per workload (the box's core count), driving the workload's clients
// against the server process and checking what they receive.
//
//   perfbench_gen --workload NAME --seed N --seconds S --origin PORT
//                 [--relay PORT] [--trace 0|1]
//
// Prints "window_start" and "window_end" (so the caller can sample server
// counters at the window's edges), then one JSON line of raw samples and
// check counts; run.py turns those into the benchmark's metrics.
//
// Clients connect in a seed-chosen order, join at the live head
// (GET /api/state), warm up for one second, then measure for S seconds.
// Steers and camera moves run on open-loop schedules. On a dedicated
// control connection a steer is timed from when it was due, so a server
// slow to answer the previous POST shows. Where the steers ride a watcher
// (wire, relay_dashboard) a POST waits for that watcher's outstanding poll,
// which is the generator's interleaving, not the server's: the steer is
// timed from when it was sent, the wait is reported on its own, and the
// watcher's poll issued right after a POST is checked but not timed. POST
// bytes are steering traffic and are not counted as delivery bytes. A
// delivery is stamped when the read completing its body returns; bodies
// are parsed after every ready socket of the epoll batch was read, so
// parsing one body never delays the stamp of another.
//
// Tracing (--trace 1) alternates untraced and traced seconds of the window;
// the traced ones record client-side spans (first byte, last byte, parse)
// per delivery, and the difference of the two sets' delivery medians is
// the tracing overhead.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <ctime>
#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/base64.hpp"
#include "util/json.hpp"
#include "viz/image.hpp"
#include "viz/tiles.hpp"
#include "workloads.hpp"

using ricsa::util::Json;

namespace {

double clock_ms(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}
double mono_ms() { return clock_ms(CLOCK_MONOTONIC); }
double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }

/// Offset from the monotonic clock to the server's publish-stamp clock
/// (system_clock), fixed once so every stamp shares one timeline.
double g_unix_offset_ms = 0.0;
double unix_ms(double mono) { return mono + g_unix_offset_ms; }

enum class Role {
  kWatchSse,   // SSE stream, delta=1
  kWatchPoll,  // long-poll loop, delta=1
  kReference,  // origin SSE stream of full frames (delta=0)
  kControl     // POSTs only
};

struct ClientSpec {
  std::string label;
  Role role = Role::kWatchSse;
  bool relay = false;     // connect to the relay instead of the origin
  std::string view;       // empty = main
  std::string client_id;  // pacing session id (empty = unpaced)
  double think_s = 0.0;   // long-poll think time between polls
  /// Counted in the end-to-end delivery, byte and steer-display figures.
  bool audience = true;
  /// Carries the steer (and camera) POSTs between its own requests.
  bool carries_posts = false;
  /// Keeps every body so delta-composited frames can be compared with the
  /// reference client's full frames.
  bool composite = false;
};

std::vector<ClientSpec> clients_for(const perfbench::Workload& w) {
  const auto spec = [](const char* label, Role role) {
    ClientSpec s;
    s.label = label;
    s.role = role;
    return s;
  };
  std::vector<ClientSpec> c;
  if (w.name == "steer_render") {
    // The steering client is a control connection plus its own watch
    // stream.
    c = {spec("sse", Role::kWatchSse), spec("poll", Role::kWatchPoll),
         spec("steer_watch", Role::kWatchSse),
         spec("steer_control", Role::kControl)};
    c[3].audience = false;
    c[3].carries_posts = true;
  } else if (w.name == "wire") {
    c = {spec("sse_a", Role::kWatchSse), spec("sse_b", Role::kWatchSse),
         spec("poll", Role::kWatchPoll), spec("slow", Role::kWatchPoll)};
    // Steers ride the prompt poll connection: the slow client's pacing
    // parks would hold them for up to a second.
    c[2].carries_posts = true;
    c[3].client_id = "slow";
    c[3].think_s = 0.2;
    c[3].audience = false;
  } else {
    c = {spec("origin_ref", Role::kReference),
         spec("relay_sse", Role::kWatchSse),
         spec("relay_iso", Role::kWatchSse),
         spec("relay_poll", Role::kWatchPoll)};
    c[0].audience = false;
    for (std::size_t i = 1; i < 4; ++i) c[i].relay = true;
    c[1].composite = true;
    c[2].view = "density/iso";
    c[3].composite = true;
    c[3].carries_posts = true;
  }
  return c;
}

struct Tile {
  int x = 0, y = 0, w = 0, h = 0;
  std::string b64;
};

/// A delivered body as kept for the composite check.
struct KeptFrame {
  double cycle = -1;
  std::string image_b64;
  std::vector<Tile> tiles;
};

struct Post {
  std::string path, body;
  int steer = -1;  // index into the steer log, -1 for camera moves
};

struct SteerRec {
  perfbench::Steer steer;
  double due_ms = 0.0;  // monotonic
  double sent_ms = -1.0, ack_ms = -1.0, shown_ms = -1.0;
  std::vector<std::uint64_t> cursor_at_ack;  // per client
  double lag_frames = -1.0;
};

struct Errors {
  std::uint64_t io = 0, http = 0, parse = 0, order = 0, gap = 0,
                delta_break = 0, steer_missing = 0, image_check = 0,
                composite = 0, saturated = 0;
  std::uint64_t total() const {
    return io + http + parse + order + gap + delta_break + steer_missing +
           image_check + composite + saturated;
  }
};

struct Client {
  ClientSpec spec;
  int port = 0;
  int fd = -1;
  bool connected = false;
  bool busy = false;
  enum class Req { kJoin, kPoll, kStream, kPost } req = Req::kJoin;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  // Response parsing.
  bool head_done = false;
  int status = 0;
  std::size_t content_length = 0;
  std::string events;      // de-chunked SSE payload
  double first_ms = -1.0;  // first byte of the response / event in flight
  // Protocol state.
  bool joined = false;
  bool want_full = false;  // next request asks full=1
  std::uint64_t since = 0;
  Json state = ricsa::util::JsonObject{};  // merged monitoring state
  std::deque<Post> posts;
  Post current;
  double post_sent_ms = 0.0;
  bool after_post = false;   // a POST went out since the last poll
  bool poll_timed = true;    // the poll in flight was not held by a POST
  bool think_pending = false;
  // Window accounting.
  std::uint64_t wire_bytes = 0, body_bytes = 0, deliveries = 0;
  std::uint64_t skips = 0;
  std::map<std::string, std::uint64_t> tiers;
  std::vector<double> delivery_ms;
  std::vector<KeptFrame> kept;
  std::vector<std::string> sample_images;
  std::vector<Tile> sample_tiles;
  std::uint64_t total_deliveries = 0;
};

/// A completed body waiting for the end of the epoll batch.
struct Arrival {
  std::size_t client = 0;
  std::string body;
  double first_ms = 0.0, last_ms = 0.0;
  bool timed = true;  // counts in the delivery-latency samples
};

class Generator {
 public:
  Generator(perfbench::Workload w, std::uint64_t seed, double seconds,
            int origin, int relay, bool trace)
      : w_(std::move(w)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        script_(seed) {
    for (const ClientSpec& spec : clients_for(w_)) {
      Client c;
      c.spec = spec;
      c.port = spec.relay ? relay : origin;
      c.want_full = spec.composite;
      clients_.push_back(std::move(c));
    }
  }

  int run();

 private:
  // --- event loop -------------------------------------------------------
  void add_timer(double due_ms, std::function<void()> fn) {
    timers_.push({due_ms, next_timer_id_++, std::move(fn)});
    arm_timerfd();
  }
  void arm_timerfd() {
    if (timers_.empty()) return;
    const double due = timers_.top().due;
    itimerspec its{};
    its.it_value.tv_sec = static_cast<time_t>(due / 1e3);
    its.it_value.tv_nsec = static_cast<long>(
        (due - static_cast<double>(its.it_value.tv_sec) * 1e3) * 1e6);
    if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) {
      its.it_value.tv_nsec = 1;
    }
    timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
  }
  void fire_timers() {
    std::uint64_t expirations = 0;
    (void)!read(timer_fd_, &expirations, sizeof(expirations));
    const double now = mono_ms();
    while (!timers_.empty() && timers_.top().due <= now) {
      Timer t = timers_.top();
      timers_.pop();
      if (in_window(now)) lateness_ms_.push_back(now - t.due);
      t.fn();
    }
    arm_timerfd();
  }

  bool in_window(double t) const { return t >= t0_ && t < t1_; }
  /// Traced runs alternate untraced and traced seconds, so both halves
  /// sample the whole window's content.
  bool traced_at(double t) const {
    return trace_ && static_cast<long>((t - t0_) / 1000.0) % 2 == 1;
  }

  // --- connections ------------------------------------------------------
  void connect_client(std::size_t i);
  void reconnect(std::size_t i);
  void fail_io(std::size_t i) {
    ++errors_.io;
    reconnect(i);
  }
  void send(std::size_t i, std::string request);
  void flush(std::size_t i);
  void on_event(std::size_t i, std::uint32_t events);
  void on_readable(std::size_t i);
  void consume_stream(std::size_t i, double now);
  void complete_response(std::size_t i, std::string body, double now);
  void pump(std::size_t i);
  std::string watch_query(const Client& c) const;

  // --- workload ---------------------------------------------------------
  void schedule_steer(std::uint64_t k);
  void schedule_orbit(std::uint64_t k);
  std::size_t post_carrier() const {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i].spec.carries_posts) return i;
    }
    return 0;
  }
  bool posts_ride_watcher() const {
    return clients_[post_carrier()].spec.role != Role::kControl;
  }

  // --- body processing --------------------------------------------------
  void process_arrivals();
  void process_body(const Arrival& a);
  void post_checks();
  Json report();

  struct Timer {
    double due;
    std::uint64_t id;
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return due != o.due ? due > o.due : id > o.id;
    }
  };

  perfbench::Workload w_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  perfbench::SteerScript script_;
  std::vector<Client> clients_;
  int epoll_fd_ = -1, timer_fd_ = -1;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::uint64_t next_timer_id_ = 0;
  std::vector<Arrival> arrivals_;
  bool done_ = false;
  double t0_ = 1e300, t1_ = 1e300;  // measurement window (monotonic ms)
  double orbit_start_ = 0.0;
  double cpu_at_t0_ = 0.0;

  Errors errors_;
  std::uint64_t attempted_ = 0;
  std::vector<SteerRec> steers_;
  std::vector<double> lateness_ms_, post_ms_, steer_queue_ms_;
  std::vector<double> untraced_delivery_ms_, traced_delivery_ms_;
  std::vector<double> dispatch_ms_, transfer_ms_, parse_ms_;
  std::map<double, std::string> reference_;  // cycle -> full image
  std::uint64_t image_checks_ = 0, composite_checks_ = 0;
  double cpu_share_ = 0.0;
};

void Generator::connect_client(std::size_t i) {
  Client& c = clients_[i];
  c.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (c.fd < 0) {
    ++errors_.io;
    add_timer(mono_ms() + 50, [this, i] { connect_client(i); });
    return;
  }
  const int one = 1;
  setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(c.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    close(c.fd);
    c.fd = -1;
    ++errors_.io;
    add_timer(mono_ms() + 50, [this, i] { connect_client(i); });
    return;
  }
  c.connected = false;
  c.busy = false;
  c.in.clear();
  epoll_event ev{};
  ev.events = EPOLLOUT;
  ev.data.u64 = i;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
}

void Generator::reconnect(std::size_t i) {
  Client& c = clients_[i];
  if (c.fd >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    close(c.fd);
    c.fd = -1;
  }
  // An interrupted POST is retried on the new connection.
  if (c.busy && c.req == Client::Req::kPost) c.posts.push_front(c.current);
  c.busy = false;
  if (done_) return;
  add_timer(mono_ms() + 50, [this, i] { connect_client(i); });
}

void Generator::send(std::size_t i, std::string request) {
  Client& c = clients_[i];
  c.out = std::move(request);
  c.out_pos = 0;
  c.busy = true;
  c.head_done = false;
  c.first_ms = -1.0;
  flush(i);
}

void Generator::flush(std::size_t i) {
  Client& c = clients_[i];
  while (c.out_pos < c.out.size()) {
    const ssize_t n =
        ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail_io(i);
      return;
    }
    c.out_pos += static_cast<std::size_t>(n);
    if (in_window(mono_ms()) && c.req != Client::Req::kPost) {
      c.wire_bytes += static_cast<std::size_t>(n);
    }
  }
  epoll_event ev{};
  ev.events = c.out_pos < c.out.size() ? EPOLLOUT : EPOLLIN;
  ev.data.u64 = i;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

std::string view_param(const ClientSpec& spec) {
  std::string v = spec.view;
  const std::size_t slash = v.find('/');
  if (slash != std::string::npos) v.replace(slash, 1, "%2F");
  return "view=" + v;
}

std::string Generator::watch_query(const Client& c) const {
  std::string q = "since=" + std::to_string(c.since) + "&timeout=2";
  if (c.spec.role != Role::kReference) q += "&delta=1";
  if (c.want_full) q += "&full=1";
  if (!c.spec.client_id.empty()) q += "&client=" + c.spec.client_id;
  if (!c.spec.view.empty()) q += "&" + view_param(c.spec);
  return q;
}

/// Issue the connection's next request: a queued POST first, else (for a
/// watcher) the join, stream subscribe or next poll.
void Generator::pump(std::size_t i) {
  Client& c = clients_[i];
  if (c.fd < 0 || !c.connected || c.busy || done_) return;
  if (!c.posts.empty()) {
    c.current = c.posts.front();
    c.posts.pop_front();
    c.req = Client::Req::kPost;
    c.post_sent_ms = mono_ms();
    c.after_post = true;
    if (c.current.steer >= 0) {
      SteerRec& s = steers_[c.current.steer];
      s.sent_ms = c.post_sent_ms;
      if (in_window(s.due_ms)) steer_queue_ms_.push_back(s.sent_ms - s.due_ms);
    }
    send(i, "POST " + c.current.path +
                " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json"
                "\r\nContent-Length: " +
                std::to_string(c.current.body.size()) + "\r\n\r\n" +
                c.current.body);
    return;
  }
  if (c.spec.role == Role::kControl || c.think_pending) return;
  if (!c.joined) {
    c.req = Client::Req::kJoin;
    std::string path = "/api/state";
    if (!c.spec.view.empty()) path += "?" + view_param(c.spec);
    send(i, "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n");
    return;
  }
  const bool stream = c.spec.role != Role::kWatchPoll;
  c.req = stream ? Client::Req::kStream : Client::Req::kPoll;
  c.poll_timed = !c.after_post;
  c.after_post = false;
  c.events.clear();
  send(i, std::string("GET ") + (stream ? "/api/stream?" : "/api/poll?") +
              watch_query(c) + " HTTP/1.1\r\nHost: bench\r\n\r\n");
}

void Generator::on_event(std::size_t i, std::uint32_t events) {
  Client& c = clients_[i];
  if (c.fd < 0) return;
  if (!c.connected) {
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0 || (events & (EPOLLERR | EPOLLHUP)) != 0) {
      fail_io(i);
      return;
    }
    c.connected = true;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
    pump(i);
    return;
  }
  if ((events & EPOLLOUT) != 0 && c.out_pos < c.out.size()) flush(i);
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    // A response's first byte counts from when the socket turned readable,
    // so the read that copies the body out is part of its transfer.
    if (c.first_ms < 0.0) c.first_ms = mono_ms();
    on_readable(i);
  }
}

void Generator::on_readable(std::size_t i) {
  Client& c = clients_[i];
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      // The server closes only on shutdown; anything else is an I/O error.
      if (!done_) fail_io(i);
      return;
    }
    const double now = mono_ms();
    if (in_window(now) && c.req != Client::Req::kPost) {
      c.wire_bytes += static_cast<std::size_t>(n);
    }
    c.in.append(buf, static_cast<std::size_t>(n));
    if (!c.head_done) {
      const std::size_t end = c.in.find("\r\n\r\n");
      if (end == std::string::npos) continue;
      const std::string head = c.in.substr(0, end);
      c.in.erase(0, end + 4);
      c.status = head.size() > 12 ? std::atoi(head.c_str() + 9) : 0;
      std::string lower = head;
      for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
      const std::size_t cl = lower.find("content-length:");
      c.content_length = cl == std::string::npos
                             ? std::string::npos
                             : std::strtoull(lower.c_str() + cl + 15,
                                             nullptr, 10);
      c.head_done = true;
      if (c.status != 200) {
        ++errors_.http;
        reconnect(i);
        return;
      }
    }
    if (c.req == Client::Req::kStream) {
      consume_stream(i, now);
      if (c.fd < 0) return;
      continue;
    }
    if (c.content_length == std::string::npos) {
      ++errors_.parse;
      reconnect(i);
      return;
    }
    if (c.in.size() >= c.content_length) {
      std::string body = c.in.substr(0, c.content_length);
      c.in.erase(0, c.content_length);
      complete_response(i, std::move(body), now);
      return;
    }
  }
}

void Generator::consume_stream(std::size_t i, double now) {
  Client& c = clients_[i];
  for (;;) {
    const std::size_t line_end = c.in.find("\r\n");
    if (line_end == std::string::npos) break;
    char* end = nullptr;
    const unsigned long long size = std::strtoull(c.in.c_str(), &end, 16);
    if (end == c.in.c_str()) {
      ++errors_.parse;
      reconnect(i);
      return;
    }
    if (c.in.size() < line_end + 2 + size + 2) break;
    if (size == 0) {
      if (!done_) fail_io(i);
      return;
    }
    c.events.append(c.in, line_end + 2, size);
    c.in.erase(0, line_end + 2 + size + 2);
  }
  std::size_t pos;
  while ((pos = c.events.find("\n\n")) != std::string::npos) {
    const std::string block = c.events.substr(0, pos);
    c.events.erase(0, pos + 2);
    if (!block.empty() && block[0] == ':') continue;  // keepalive
    const std::size_t data = block.find("data: ");
    if (data == std::string::npos) {
      ++errors_.parse;
      continue;
    }
    arrivals_.push_back({i, block.substr(data + 6), c.first_ms, now});
  }
  // The next event's first byte is whatever arrives after this read, unless
  // part of it is already buffered.
  if (c.in.empty() && c.events.empty()) c.first_ms = -1.0;
}

void Generator::complete_response(std::size_t i, std::string body,
                                  double now) {
  Client& c = clients_[i];
  c.busy = false;
  switch (c.req) {
    case Client::Req::kJoin: {
      try {
        c.since = static_cast<std::uint64_t>(
            Json::parse(body).at("seq").as_int());
      } catch (const std::exception&) {
        ++errors_.parse;
      }
      c.joined = true;
      break;
    }
    case Client::Req::kPost: {
      ++attempted_;
      if (c.current.steer >= 0) {
        if (in_window(now)) post_ms_.push_back(now - c.post_sent_ms);
        SteerRec& s = steers_[c.current.steer];
        s.ack_ms = now;
        for (const Client& other : clients_) {
          s.cursor_at_ack.push_back(other.since);
        }
      }
      break;
    }
    case Client::Req::kPoll: {
      // The next poll needs this body's seq: process_arrivals re-pumps.
      arrivals_.push_back({i, std::move(body), c.first_ms, now, c.poll_timed});
      c.first_ms = -1.0;
      return;
    }
    case Client::Req::kStream:
      break;
  }
  c.first_ms = -1.0;
  pump(i);
}

void Generator::schedule_steer(std::uint64_t k) {
  const double due =
      t0_ + static_cast<double>(k) * perfbench::kSteerPeriodS * 1e3;
  if (due >= t1_ - 500.0) return;  // the last half second only settles
  add_timer(due, [this, k, due] {
    SteerRec rec;
    rec.steer = script_.next();
    rec.due_ms = due;
    steers_.push_back(rec);
    char body[96];
    std::snprintf(body, sizeof(body), "{\"%s\":%.3f}", rec.steer.name.c_str(),
                  rec.steer.value);
    const std::size_t carrier = post_carrier();
    clients_[carrier].posts.push_back(
        {"/api/steer", body, static_cast<int>(steers_.size() - 1)});
    pump(carrier);
    schedule_steer(k + 1);
  });
}

void Generator::schedule_orbit(std::uint64_t k) {
  const double due =
      orbit_start_ + static_cast<double>(k) * perfbench::kOrbitPeriodS * 1e3;
  add_timer(due, [this, k] {
    char body[64];
    std::snprintf(body, sizeof(body), "{\"azimuth\":%.4f}",
                  perfbench::orbit_azimuth(seed_, k));
    const std::size_t carrier = post_carrier();
    clients_[carrier].posts.push_back({"/api/view", body, -1});
    pump(carrier);
    if (!done_) schedule_orbit(k + 1);
  });
}

void Generator::process_arrivals() {
  std::sort(arrivals_.begin(), arrivals_.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.last_ms < b.last_ms;
            });
  for (const Arrival& a : arrivals_) {
    try {
      process_body(a);
    } catch (const std::exception&) {
      ++errors_.parse;  // a body missing a field the protocol promises
    }
    Client& c = clients_[a.client];
    if (c.spec.role != Role::kWatchPoll) continue;
    if (c.spec.think_s > 0.0) {
      c.think_pending = true;
      add_timer(mono_ms() + c.spec.think_s * 1e3, [this, i = a.client] {
        clients_[i].think_pending = false;
        pump(i);
      });
    }
    pump(a.client);
  }
  arrivals_.clear();
}

void Generator::process_body(const Arrival& a) {
  Client& c = clients_[a.client];
  const double parse0 = mono_ms();
  Json body;
  try {
    body = Json::parse(a.body);
  } catch (const std::exception&) {
    ++attempted_;
    ++errors_.parse;
    return;
  }
  const double parse_ms = mono_ms() - parse0;
  if (body.contains("timeout")) return;  // an empty long-poll, not a frame
  ++attempted_;
  if (!body.contains("seq") || !body.contains("state") ||
      !body.at("state").is_object()) {
    ++errors_.parse;
    return;
  }
  const auto seq = static_cast<std::uint64_t>(body.at("seq").as_int());
  if (seq <= c.since) {
    ++errors_.order;
    return;
  }
  // A full=1 request resyncs to the next complete frame, which may skip.
  const bool resync = c.want_full;
  c.want_full = false;
  if (c.since != 0 && seq != c.since + 1 && !resync) {
    if (c.spec.client_id.empty()) {
      ++errors_.gap;
    } else {
      c.skips += seq - c.since - 1;
    }
  }
  // Tiles patch the frame the client already holds.
  const bool tiled = body.contains("tiles");
  if (tiled && (!body.contains("base_seq") ||
                static_cast<std::uint64_t>(body.at("base_seq").as_int()) !=
                    c.since)) {
    ++errors_.delta_break;
  }
  // Delta bodies carry only the keys that changed; full bodies carry all.
  for (const auto& [key, value] : body.at("state").as_object()) {
    c.state[key] = value;
  }
  const double published = c.state.contains("published_ms")
                               ? c.state.at("published_ms").as_number()
                               : 0.0;
  const double cycle =
      c.state.contains("cycle") ? c.state.at("cycle").as_number() : -1.0;
  const std::string tier = body.contains("tier")
                               ? body.at("tier").as_string()
                               : std::string("full");
  const bool has_image = body.contains("image_b64");

  if (in_window(a.last_ms)) {
    ++c.deliveries;
    c.body_bytes += a.body.size();
    ++c.tiers[tier];
    const double delivery = unix_ms(a.last_ms) - published;
    if (a.timed) c.delivery_ms.push_back(delivery);
    if (c.spec.audience && a.timed) {
      (traced_at(a.last_ms) ? traced_delivery_ms_ : untraced_delivery_ms_)
          .push_back(delivery);
      if (traced_at(a.last_ms)) {
        dispatch_ms_.push_back(unix_ms(a.first_ms) - published);
        transfer_ms_.push_back(a.last_ms - a.first_ms);
        parse_ms_.push_back(parse_ms);
      }
    }
  }

  // Steer display: the first frame to an audience client whose parameters
  // show a steered value.
  if (c.spec.audience && c.state.contains("parameters") &&
      c.state.at("parameters").is_object()) {
    const Json& params = c.state.at("parameters");
    for (SteerRec& s : steers_) {
      if (s.shown_ms >= 0.0 || s.sent_ms < 0.0) continue;
      if (!params.contains(s.steer.name) ||
          params.at(s.steer.name).as_number() != s.steer.value) {
        continue;
      }
      s.shown_ms = a.last_ms;
      s.lag_frames =
          s.ack_ms >= 0.0
              ? static_cast<double>(seq - s.cursor_at_ack[a.client])
              : 0.0;
    }
  }

  if (c.spec.role == Role::kReference && has_image && cycle >= 0.0) {
    reference_[cycle] = body.at("image_b64").as_string();
  }
  if (c.spec.composite) {
    KeptFrame k;
    k.cycle = cycle;
    if (has_image) k.image_b64 = body.at("image_b64").as_string();
    if (tiled) {
      for (const Json& t : body.at("tiles").as_array()) {
        k.tiles.push_back({static_cast<int>(t.at("x").as_int()),
                           static_cast<int>(t.at("y").as_int()),
                           static_cast<int>(t.at("w").as_int()),
                           static_cast<int>(t.at("h").as_int()),
                           t.at("png_b64").as_string()});
      }
    }
    c.kept.push_back(std::move(k));
  }
  // A few images and tiles per client for the decode round trip.
  if (++c.total_deliveries % 25 == 0) {
    if (has_image && tier == "full" && c.sample_images.size() < 2) {
      c.sample_images.push_back(body.at("image_b64").as_string());
    }
    if (tiled && c.sample_tiles.size() < 3 &&
        !body.at("tiles").as_array().empty()) {
      const Json& t = body.at("tiles").as_array().front();
      c.sample_tiles.push_back({static_cast<int>(t.at("x").as_int()),
                                static_cast<int>(t.at("y").as_int()),
                                static_cast<int>(t.at("w").as_int()),
                                static_cast<int>(t.at("h").as_int()),
                                t.at("png_b64").as_string()});
    }
  }
  c.since = seq;
}

namespace {

/// Decode a base64 PNG; throws on malformed input.
ricsa::viz::Image decode_b64(const std::string& b64) {
  return ricsa::viz::Image::decode_png(ricsa::util::base64_decode(b64));
}

/// decode -> encode -> decode must reproduce the first decode exactly.
bool round_trips(const std::string& b64, int want_w, int want_h) {
  try {
    const ricsa::viz::Image image = decode_b64(b64);
    if (image.width() != want_w || image.height() != want_h) return false;
    const ricsa::viz::Image again =
        ricsa::viz::Image::decode_png(image.encode_png());
    return again.pixels() == image.pixels();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

void Generator::post_checks() {
  const int full_w = w_.frontend.session.viz.image_width;
  const int full_h = w_.frontend.session.viz.image_height;
  for (const Client& c : clients_) {
    for (const std::string& b64 : c.sample_images) {
      ++attempted_;
      ++image_checks_;
      if (!round_trips(b64, full_w, full_h)) ++errors_.image_check;
    }
    for (const Tile& t : c.sample_tiles) {
      ++attempted_;
      ++image_checks_;
      if (!round_trips(t.b64, t.w, t.h)) ++errors_.image_check;
    }
  }
  // Delta-composited relay frames must equal the origin reference client's
  // full frame of the same simulation cycle.
  for (const Client& c : clients_) {
    if (!c.spec.composite) continue;
    ricsa::viz::Image canvas;
    for (const KeptFrame& k : c.kept) {
      try {
        if (!k.image_b64.empty()) {
          canvas = decode_b64(k.image_b64);
        } else if (!k.tiles.empty()) {
          if (canvas.width() == 0) throw std::runtime_error("no base frame");
          for (const Tile& t : k.tiles) {
            ricsa::viz::TileGrid::composite(canvas, decode_b64(t.b64), t.x,
                                            t.y);
          }
        }
        const auto ref = reference_.find(k.cycle);
        if (ref == reference_.end()) continue;
        ++attempted_;
        ++composite_checks_;
        if (decode_b64(ref->second).pixels() != canvas.pixels()) {
          ++errors_.composite;
        }
      } catch (const std::exception&) {
        ++attempted_;
        ++errors_.composite;
      }
    }
  }
  for (const SteerRec& s : steers_) {
    ++attempted_;
    if (s.shown_ms < 0.0) ++errors_.steer_missing;
  }
  attempted_ += errors_.io + errors_.http;
  // A generator thread this busy measured itself, not the server.
  ++attempted_;
  if (cpu_share_ > 0.9) {
    ++errors_.saturated;
    std::fprintf(stderr, "perfbench_gen: generator saturated (cpu %.2f)\n",
                 cpu_share_);
  }
}

Json Generator::report() {
  const auto arr = [](const std::vector<double>& v) {
    ricsa::util::JsonArray out;
    out.reserve(v.size());
    for (double x : v) out.emplace_back(x);
    return Json(std::move(out));
  };
  Json out;
  out["attempted"] = static_cast<double>(attempted_);
  out["failed"] = static_cast<double>(errors_.total());
  Json e;
  e["io"] = static_cast<double>(errors_.io);
  e["http"] = static_cast<double>(errors_.http);
  e["parse"] = static_cast<double>(errors_.parse);
  e["order"] = static_cast<double>(errors_.order);
  e["gap"] = static_cast<double>(errors_.gap);
  e["delta_break"] = static_cast<double>(errors_.delta_break);
  e["steer_missing"] = static_cast<double>(errors_.steer_missing);
  e["image_check"] = static_cast<double>(errors_.image_check);
  e["composite"] = static_cast<double>(errors_.composite);
  e["saturated"] = static_cast<double>(errors_.saturated);
  out["errors"] = e;
  out["image_checks"] = static_cast<double>(image_checks_);
  out["composite_checks"] = static_cast<double>(composite_checks_);
  out["delivery_ms"] = arr(untraced_delivery_ms_);
  out["delivery_ms_traced"] = arr(traced_delivery_ms_);
  out["dispatch_ms"] = arr(dispatch_ms_);
  out["transfer_ms"] = arr(transfer_ms_);
  out["parse_ms"] = arr(parse_ms_);
  out["lateness_ms"] = arr(lateness_ms_);
  out["steer_post_ms"] = arr(post_ms_);
  out["cpu_share"] = cpu_share_;
  out["steer_queue_ms"] = arr(steer_queue_ms_);
  out["steer_period_ms"] = perfbench::kSteerPeriodS * 1e3;
  std::vector<double> display, lag;
  for (const SteerRec& s : steers_) {
    if (s.shown_ms < 0.0) continue;
    display.push_back(s.shown_ms -
                      (posts_ride_watcher() ? s.sent_ms : s.due_ms));
    lag.push_back(s.lag_frames);
  }
  out["steer_to_display_ms"] = arr(display);
  out["steer_lag_frames"] = arr(lag);
  Json clients = ricsa::util::JsonObject{};
  for (const Client& c : clients_) {
    Json j;
    j["relay"] = c.spec.relay;
    j["audience"] = c.spec.audience;
    j["paced"] = !c.spec.client_id.empty();
    j["sse"] = c.spec.role != Role::kWatchPoll &&
               c.spec.role != Role::kControl;
    j["deliveries"] = static_cast<double>(c.deliveries);
    j["wire_bytes"] = static_cast<double>(c.wire_bytes);
    j["body_bytes"] = static_cast<double>(c.body_bytes);
    j["skips"] = static_cast<double>(c.skips);
    Json tiers = ricsa::util::JsonObject{};
    for (const auto& [tier, n] : c.tiers) tiers[tier] = static_cast<double>(n);
    j["tiers"] = tiers;
    j["delivery_ms"] = arr(c.delivery_ms);
    clients[c.spec.label] = j;
  }
  out["clients"] = clients;
  return out;
}

int Generator::run() {
  g_unix_offset_ms = clock_ms(CLOCK_REALTIME) - mono_ms();
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) return 1;
  constexpr std::uint64_t kTimerTag = ~0ULL;
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = kTimerTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &tev);

  const double start = mono_ms();
  // Seed-chosen start order, 20 ms apart.
  std::vector<std::size_t> order(clients_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  ricsa::util::Xoshiro256 rng(seed_ ^ 0x0de5ULL);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    add_timer(start + 20.0 * static_cast<double>(k),
              [this, i = order[k]] { connect_client(i); });
  }
  orbit_start_ = start;
  if (w_.orbit) schedule_orbit(0);

  t0_ = start + 1000.0 + 20.0 * static_cast<double>(order.size());
  t1_ = t0_ + seconds_ * 1e3;
  add_timer(t0_, [this] {
    std::printf("window_start\n");
    std::fflush(stdout);
    cpu_at_t0_ = thread_cpu_ms();
    schedule_steer(0);
  });
  add_timer(t1_, [this] {
    std::printf("window_end\n");
    std::fflush(stdout);
    cpu_share_ = (thread_cpu_ms() - cpu_at_t0_) / (t1_ - t0_);
  });
  // Settle: run on until every steer of the window was displayed, for at
  // most three seconds.
  std::function<void()> settle = [this, &settle] {
    const bool all_shown =
        std::all_of(steers_.begin(), steers_.end(),
                    [](const SteerRec& s) { return s.shown_ms >= 0.0; });
    if (all_shown || mono_ms() > t1_ + 3000.0) {
      done_ = true;
      return;
    }
    add_timer(mono_ms() + 50.0, settle);
  };
  add_timer(t1_ + 1.0, settle);

  epoll_event events[64];
  while (!done_) {
    const int n = epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return 1;
    }
    for (int k = 0; k < n; ++k) {
      if (events[k].data.u64 == kTimerTag) {
        fire_timers();
      } else {
        on_event(static_cast<std::size_t>(events[k].data.u64),
                 events[k].events);
      }
    }
    process_arrivals();
  }
  for (Client& c : clients_) {
    if (c.fd >= 0) close(c.fd);
    c.fd = -1;
  }
  close(timer_fd_);
  close(epoll_fd_);
  post_checks();
  std::printf("%s\n", report().dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int origin = 0, relay = 0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") name = value;
    if (flag == "--seed") seed = std::stoull(value);
    if (flag == "--seconds") seconds = std::stod(value);
    if (flag == "--origin") origin = std::stoi(value);
    if (flag == "--relay") relay = std::stoi(value);
    if (flag == "--trace") trace = value == "1";
  }
  perfbench::Workload w;
  try {
    w = perfbench::make_workload(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 2;
  }
  if (origin <= 0 || (w.relay && relay <= 0)) {
    std::fprintf(stderr, "perfbench_gen: missing --origin/--relay port\n");
    return 2;
  }
  Generator gen(std::move(w), seed, seconds, origin, relay, trace);
  return gen.run();
}
