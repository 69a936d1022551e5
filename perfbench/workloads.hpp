// The benchmark's three workloads, shared by the server process, the load
// generator and the stage replay so all three run one definition.
//
// steer_render    40^3 bowshock, 512^2 isosurface, orbiting camera: the
//                 monitor loop (hydro, render, tile diff, PNG encode) is
//                 the cost; fan-out to three watchers is negligible.
// wire            16^3 sim, 64^2 isosurface at ~100+ fps: encode and render
//                 are ~1 ms, so hub publish, fan-out, framing, writev and
//                 pacing carry the cost; one slow paced client beside three
//                 prompt ones exercises pacing skips and tier moves.
// relay_dashboard the web_dashboard example's views (192^2 raycast main +
//                 density/iso, tile 24, raw_window 32, fixed camera) behind
//                 one relay: the only workload through src/relay, and the
//                 best case for tile deltas.
//
// The seed picks steer values, the orbit phase and the client start order;
// the server receives only what the generator sends it.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/prng.hpp"
#include "web/frontend.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  ricsa::web::FrontEndConfig frontend;
  /// A relay::RelayNode subscribes to the origin over SSE and serves the
  /// relay-side clients.
  bool relay = false;
  /// The camera orbits: the generator POSTs /api/view with the next
  /// azimuth every kOrbitPeriodS (otherwise the camera stays fixed).
  bool orbit = false;
};

/// Open-loop steer cadence (seconds between due times), on every workload.
inline constexpr double kSteerPeriodS = 0.12;
/// Camera orbit cadence and the azimuth it advances each time.
inline constexpr double kOrbitPeriodS = 0.1;
inline constexpr double kOrbitStepRad = 0.05;

inline Workload make_workload(const std::string& name) {
  using ricsa::cost::VizRequest;
  Workload w;
  w.name = name;
  auto& fe = w.frontend;
  fe.session.simulation = ricsa::hydro::HydroSimulation::Kind::kBowshock;
  fe.session.viz.technique = VizRequest::Technique::kIsosurface;
  if (name == "steer_render") {
    fe.session.resolution = 40;
    fe.session.viz.image_width = 512;
    fe.session.viz.image_height = 512;
    // The shell around the replenished dense source: steering and the
    // flow's evolution never empty it (the default 0.5 cuts a wake that
    // washes out within seconds, leaving blank frames).
    fe.session.viz.isovalue = 4.0f;
    fe.frame_interval_s = 0.001;
    w.orbit = true;
  } else if (name == "wire") {
    fe.session.resolution = 16;
    fe.session.viz.image_width = 64;
    fe.session.viz.image_height = 64;
    // The bow-shock shell: the default isovalue cuts nothing at 16^3.
    fe.session.viz.isovalue = 1.5f;
    fe.session.cycles_per_frame = 1;
    fe.frame_interval_s = 0.005;
  } else if (name == "relay_dashboard") {
    // examples/web_dashboard.cpp's configuration, except the monitor loop
    // runs nearly free so a run collects enough deliveries for a p99.
    fe.session.resolution = 40;
    fe.session.viz.technique = VizRequest::Technique::kRayCast;
    fe.session.viz.image_width = 192;
    fe.session.viz.image_height = 192;
    fe.session.cycles_per_frame = 1;
    fe.frame_interval_s = 0.001;
    fe.tile_size = 24;
    fe.raw_window = 32;
    ricsa::web::ViewSpec iso;
    iso.name = "density/iso";
    iso.viz = fe.session.viz;
    iso.viz.technique = VizRequest::Technique::kIsosurface;
    iso.viz.isovalue = 1.1f;
    iso.camera.azimuth = 2.2f;
    iso.camera.elevation = 0.5f;
    fe.views.push_back(iso);
    w.relay = true;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// One steering command: a parameter and the value to set.
struct Steer {
  std::string name;
  double value = 0.0;
};

/// Seeded open-loop steering script. Parameters rotate so that two steers
/// landing in one frame never overwrite each other, and a parameter never
/// takes a value it held in its previous two steers, so the first frame
/// showing a value is unambiguous.
class SteerScript {
 public:
  explicit SteerScript(std::uint64_t seed) : rng_(seed ^ 0x5eedULL) {}

  Steer next() {
    struct Range {
      const char* name;
      double lo, hi;
    };
    // Narrow bands around the bowshock defaults: every steer is visible,
    // but the flow, and with it the frame cost, stays the same whatever
    // the seed.
    static constexpr Range kRanges[] = {{"source_density", 9.5, 10.5},
                                        {"source_pressure", 2.4, 2.6},
                                        {"mach", 2.4, 2.6}};
    const std::size_t p = count_++ % 3;
    const Range& r = kRanges[p];
    double value = 0.0;
    do {
      value = std::round(rng_.uniform(r.lo, r.hi) * 1000.0) / 1000.0;
    } while (value == recent_[p][0] || value == recent_[p][1]);
    recent_[p][1] = recent_[p][0];
    recent_[p][0] = value;
    return {r.name, value};
  }

 private:
  ricsa::util::Xoshiro256 rng_;
  std::size_t count_ = 0;
  double recent_[3][2] = {{0, 0}, {0, 0}, {0, 0}};
};

/// Azimuth of the k-th orbit step for this seed.
inline double orbit_azimuth(std::uint64_t seed, std::uint64_t k) {
  ricsa::util::Xoshiro256 rng(seed ^ 0x0b17ULL);
  const double phase = rng.uniform(0.0, 6.283185307179586);
  return std::fmod(phase + static_cast<double>(k) * kOrbitStepRad,
                   6.283185307179586);
}

}  // namespace perfbench
