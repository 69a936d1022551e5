// Stage replay for the traced run: drives the monitor loop's stages on the
// workload's own configuration and seed — real rendered frames, never noise
// images — and times each call from here, so no span lives in the program.
//
//   perfbench_stages --workload NAME --seed N --seconds S
//
// One iteration mirrors AjaxFrontEnd::frame_loop: apply due steers and
// camera moves, SteeringSession::next_frame, render_view per extra view,
// and FrameHub::publish per view. Around them it replays, on the same
// frames, Image::encode_png and TileGrid::diff + coalesce (and the dirty
// rect encodes the hub performs), so publish's self time can be reported
// net of its encodes. Every figure is a per-iteration sum over views; the
// last line is a JSON object of medians.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "steering/session.hpp"
#include "util/json.hpp"
#include "viz/tiles.hpp"
#include "web/hub.hpp"
#include "workloads.hpp"

using namespace ricsa;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double now_unix_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

struct Iteration {
  double simulate_ms = 0, render_ms = 0, encode_ms = 0, diff_ms = 0;
  double publish_ms = 0, body_ms = 0, dirty_fraction = 0;
};

/// Per-view replay state: the hub the frames publish into (configured as
/// the front end configures its shards) and the previous frame for the
/// tile diff.
struct ViewReplay {
  std::unique_ptr<web::FrameHub> hub;
  viz::Image previous;
};

/// Encode, diff and publish one view's frame; adds the spans to `it`.
void replay_view(ViewReplay& view, const web::FrontEndConfig& fe,
                 const web::FrameHub::Config& hub_config, util::Json state,
                 const viz::Image& image, Iteration& it, bool main_view) {
  auto t = Clock::now();
  (void)image.encode_png();
  const double encode_ms = ms_since(t);

  double rects_ms = 0.0;
  if (view.previous.width() == image.width() &&
      view.previous.height() == image.height()) {
    t = Clock::now();
    const viz::TileGrid grid(image.width(), image.height(), fe.tile_size);
    const viz::TileSet dirty = grid.diff(view.previous, image);
    const std::vector<viz::TileRect> rects = grid.coalesce(dirty);
    it.diff_ms += ms_since(t);
    const double fraction = grid.dirty_fraction(dirty);
    if (main_view) it.dirty_fraction = fraction;
    // The hub encodes every coalesced rect unless the frame falls back to
    // a full image; those encodes are children of publish too.
    if (fraction < hub_config.full_tile_fraction) {
      t = Clock::now();
      for (const viz::TileRect& rc : rects) {
        (void)viz::TileGrid::extract(image, rc).encode_png();
      }
      rects_ms = ms_since(t);
    }
  }
  view.previous = image;
  it.encode_ms += encode_ms;

  t = Clock::now();
  view.hub->publish(std::move(state), image, /*build_half=*/false);
  const double publish_ms = ms_since(t);
  it.publish_ms += publish_ms;
  it.body_ms += publish_ms - encode_ms - rects_ms;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 5.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") name = argv[i + 1];
    if (flag == "--seed") seed = std::stoull(argv[i + 1]);
    if (flag == "--seconds") seconds = std::stod(argv[i + 1]);
  }
  perfbench::Workload w;
  try {
    w = perfbench::make_workload(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_stages: %s\n", e.what());
    return 2;
  }
  const web::FrontEndConfig& fe = w.frontend;

  web::FrameHub::Config hub_config;
  hub_config.window = fe.frame_window;
  hub_config.workers = fe.hub_workers;
  hub_config.tile_size = fe.tile_size;
  hub_config.raw_window = fe.raw_window;
  std::vector<ViewReplay> views(1 + fe.views.size());  // main first
  for (auto& view : views) {
    view.hub = std::make_unique<web::FrameHub>(hub_config);
  }

  steering::SteeringSession session(fe.session);
  perfbench::SteerScript script(seed);
  std::uint64_t steers = 0, orbits = 0;
  std::vector<Iteration> iterations;
  const auto start = Clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  while (elapsed_s() < seconds || iterations.size() < 20) {
    // The generator's open-loop schedules, applied on the loop thread the
    // way the front end applies posted steers and view changes.
    while (static_cast<double>(steers) * perfbench::kSteerPeriodS <=
           elapsed_s()) {
      const perfbench::Steer s = script.next();
      session.steer(s.name, s.value);
      ++steers;
    }
    while (w.orbit &&
           static_cast<double>(orbits) * perfbench::kOrbitPeriodS <=
               elapsed_s()) {
      session.view().azimuth =
          static_cast<float>(perfbench::orbit_azimuth(seed, orbits));
      ++orbits;
    }

    Iteration it;
    auto t = Clock::now();
    const auto frame = session.next_frame();
    const double next_ms = ms_since(t);
    const double exec_ms =
        1e3 * (frame.exec.filter_s + frame.exec.transform_s +
               frame.exec.render_s);
    it.simulate_ms = next_ms - exec_ms;
    it.render_ms = exec_ms;

    util::Json state;
    state["view"] = "main";
    state["cycle"] = frame.cycle;
    state["sim_time"] = frame.sim_time;
    state["variable"] = frame.variable;
    state["vrt"] = frame.vrt.to_string();
    state["predicted_delay_s"] = frame.vrt.predicted_delay_s;
    state["filter_s"] = frame.exec.filter_s;
    state["transform_s"] = frame.exec.transform_s;
    state["render_s"] = frame.exec.render_s;
    state["geometry_bytes"] = static_cast<double>(frame.exec.geometry_bytes);
    state["published_ms"] = now_unix_ms();
    util::JsonObject params;
    for (const auto& [key, value] : session.parameters()) {
      params[key] = util::Json(value);
    }
    state["parameters"] = util::Json(params);
    replay_view(views[0], fe, hub_config, std::move(state), frame.image, it,
                true);

    for (std::size_t v = 0; v < fe.views.size(); ++v) {
      const web::ViewSpec& spec = fe.views[v];
      t = Clock::now();
      const auto exec = session.render_view(spec.viz, spec.camera);
      it.render_ms += ms_since(t);
      if (!exec) continue;
      util::Json view_state;
      view_state["view"] = spec.name;
      view_state["cycle"] = frame.cycle;
      view_state["sim_time"] = frame.sim_time;
      view_state["variable"] = frame.variable;
      view_state["filter_s"] = exec->filter_s;
      view_state["transform_s"] = exec->transform_s;
      view_state["render_s"] = exec->render_s;
      view_state["geometry_bytes"] = static_cast<double>(exec->geometry_bytes);
      view_state["published_ms"] = now_unix_ms();
      replay_view(views[v + 1], fe, hub_config, std::move(view_state),
                  exec->image, it, false);
    }
    iterations.push_back(it);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(fe.frame_interval_s));
  }

  // The first iteration has no tile diff and warms caches: drop it.
  iterations.erase(iterations.begin());
  const auto med = [&](double Iteration::*field) {
    std::vector<double> v;
    v.reserve(iterations.size());
    for (const Iteration& it : iterations) v.push_back(it.*field);
    return median(std::move(v));
  };
  util::Json out;
  out["iterations"] = static_cast<double>(iterations.size());
  out["frame_interval_ms"] = fe.frame_interval_s * 1e3;
  out["hydro.simulate_ms"] = med(&Iteration::simulate_ms);
  out["viz.render_ms"] = med(&Iteration::render_ms);
  out["viz.png_encode_ms"] = med(&Iteration::encode_ms);
  out["viz.tile_diff_ms"] = med(&Iteration::diff_ms);
  out["viz.dirty_fraction"] = med(&Iteration::dirty_fraction);
  out["web.publish_ms"] = med(&Iteration::publish_ms);
  out["web.body_ms"] = med(&Iteration::body_ms);
  std::printf("%s\n", out.dump().c_str());
  for (auto& view : views) view.hub->shutdown();
  return 0;
}
