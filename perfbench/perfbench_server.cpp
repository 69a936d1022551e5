// Server under test, in its own process so its CPU and RSS exclude the load
// generator.
//
//   perfbench_server --workload NAME
//
// Starts web::AjaxFrontEnd (and, for relay workloads, a relay::RelayNode
// subscribed to it over SSE), prints "ready <origin_port> <relay_port>"
// (relay_port 0 when there is none), then answers commands on stdin, one
// JSON line each on stdout:
//   stats  process CPU, peak RSS, per-view hub counters, pacing sessions,
//          relay subscriber counters
//   quit   (or end of input) stops everything and exits
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "relay/relay.hpp"
#include "util/json.hpp"
#include "web/frontend.hpp"
#include "workloads.hpp"

using namespace ricsa;

namespace {

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// This process's peak RSS. Not getrusage's ru_maxrss: that keeps the
/// spawning process's peak across exec, so it would report the parent's
/// size whenever the parent is the larger.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}

util::Json hub_json(const web::FrameHub& hub) {
  const web::FrameHub::Stats s = hub.stats();
  util::Json out;
  out["seq"] = static_cast<double>(hub.seq());
  out["published"] = static_cast<double>(s.published);
  out["served"] = static_cast<double>(s.served);
  out["image_encodes"] = static_cast<double>(s.image_encodes);
  out["image_bytes_in"] = static_cast<double>(s.image_bytes_in);
  out["image_bytes_out"] = static_cast<double>(s.image_bytes_out);
  return out;
}

util::Json registry_json(const web::HubRegistry& registry) {
  util::Json out = util::JsonObject{};
  for (const std::string& view : registry.view_names()) {
    if (const auto hub = registry.find(view)) out[view] = hub_json(*hub);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--workload") name = argv[i + 1];
  }
  perfbench::Workload workload;
  try {
    workload = perfbench::make_workload(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_server: %s\n", e.what());
    return 2;
  }

  web::AjaxFrontEnd origin(workload.frontend);
  const int origin_port = origin.start();
  std::unique_ptr<relay::RelayNode> relay_node;
  int relay_port = 0;
  if (workload.relay) {
    relay::RelayNodeConfig rc;
    rc.subscriber.upstream_port = origin_port;
    rc.subscriber.views = {"main"};
    for (const auto& view : workload.frontend.views) {
      rc.subscriber.views.push_back(view.name);
    }
    rc.subscriber.transport = "sse";
    relay_node = std::make_unique<relay::RelayNode>(rc);
    relay_port = relay_node->start();
  }
  std::printf("ready %d %d\n", origin_port, relay_port);
  std::fflush(stdout);

  const auto t0 = std::chrono::steady_clock::now();
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") break;
    if (line != "stats") continue;
    util::Json out;
    out["t_s"] = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    out["cpu_ms"] = cpu_ms();
    out["peak_rss_kb"] = peak_rss_kb();
    out["origin"] = registry_json(origin.registry());
    out["pacing"] = origin.sessions().stats_json(web::mono_now_s());
    if (relay_node) {
      out["relay"] = registry_json(relay_node->registry());
      util::Json sub = util::JsonObject{};
      for (const auto& [view, s] : relay_node->subscriber().stats()) {
        util::Json v;
        v["frames"] = static_cast<double>(s.frames);
        v["resyncs"] = static_cast<double>(s.resyncs);
        v["reconnects"] = static_cast<double>(s.reconnects);
        v["failed"] = s.failed;
        sub[view] = v;
      }
      out["relay_subscriber"] = sub;
    }
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
  }
  if (relay_node) relay_node->stop();
  origin.stop();
  return 0;
}
