#!/usr/bin/env python3
"""The steering-loop benchmark: one command, three workloads.

    python3 perfbench/run.py --workload steer_render --seed 1 --seconds 20 --trace 0

Builds the program from ../src (CMake package in this directory, into
.bench_build/perfbench), then:

  1. set-up: starts the server process SETUPS times and times each start to
     the first frame a client receives (through the relay where there is
     one); setup_s is the median;
  2. the run: the last server stays up and perfbench_gen drives the
     workload's clients for --seconds, while this script samples the
     server's CPU, RSS and hub counters at the window's edges;
  3. --trace 1 only: perfbench_stages replays the monitor loop's stages
     on the workload's configuration and seed.

Prints every metric as "name value unit" lines, then one JSON line:
{"correct", "attempted", "failed", "metrics"} -- the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Exits non-zero when
a correctness check failed or the benchmark could not run. METRICS.md
defines every metric.
"""
import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("steer_render", "wire", "relay_dashboard")
SETUPS = 15


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=850)


def exe(name):
    return os.path.join(BUILD, name)


def pct(values, p):
    """Linear-interpolated percentile p (0..100) of a non-empty list."""
    v = sorted(values)
    if not v:
        raise ValueError("no samples")
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


class Server:
    """The server under test in its own process, commanded over stdin."""

    def __init__(self, workload):
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen([exe("perfbench_server"), "--workload", workload],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, bufsize=1)
        ready = self.proc.stdout.readline().split()
        if len(ready) != 3 or ready[0] != "ready":
            self.stop()
            raise RuntimeError("server did not start")
        self.origin, self.relay = int(ready[1]), int(ready[2])

    def stats(self):
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self):
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def first_frame(port, deadline_s=60.0):
    """Long-poll from seq 0 until a frame arrives; returns its arrival time."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        with socket.create_connection(("127.0.0.1", port), timeout=deadline_s) as s:
            s.sendall(b"GET /api/poll?since=0&timeout=10 HTTP/1.1\r\nHost: bench\r\n\r\n")
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = s.recv(65536)
                if not chunk:
                    raise RuntimeError("connection closed before a frame")
                data += chunk
            head, _, body = data.partition(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                key, _, value = line.partition(b":")
                if key.strip().lower() == b"content-length":
                    length = int(value)
            while len(body) < length:
                chunk = s.recv(65536)
                if not chunk:
                    raise RuntimeError("connection closed mid-body")
                body += chunk
            arrived = time.monotonic()
            frame = json.loads(body)
            if "timeout" not in frame and frame.get("seq", 0) > 0:
                return arrived
    raise RuntimeError("no first frame")


def delta(s0, s1, side, key):
    """Counter growth over the window, summed over the side's views."""
    views0, views1 = s0.get(side, {}), s1.get(side, {})
    return sum(v[key] - views0.get(name, {}).get(key, 0) for name, v in views1.items())


def session(stats, client_id):
    for c in stats.get("pacing", {}).get("clients", []):
        if c.get("client") == client_id:
            return c
    return {}


def end_to_end(gen, s0, s1, setups):
    window = s1["t_s"] - s0["t_s"]
    frames = s1["origin"]["main"]["published"] - s0["origin"]["main"]["published"]
    audience = [c for c in gen["clients"].values() if c["audience"]]
    deliveries = sum(c["deliveries"] for c in audience)
    wire = sum(c["wire_bytes"] for c in audience)
    delivery = gen["delivery_ms"]
    display = gen["steer_to_display_ms"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "frames_per_s": (frames / window, "1/s"),
        "delivery_p50_ms": (pct(delivery, 50), "ms"),
        "delivery_p75_ms": (pct(delivery, 75), "ms"),
        "steer_to_display_p50_ms": (pct(display, 50), "ms"),
        "steer_to_display_p90_ms": (pct(display, 90), "ms"),
        "bytes_per_frame": (wire / deliveries, "bytes"),
        "cpu_ms_per_frame": ((s1["cpu_ms"] - s0["cpu_ms"]) / frames, "ms"),
        "peak_rss_mb": (s1["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(gen, s0, s1, stages, e2e):
    clients = gen["clients"]
    audience = [c for c in clients.values() if c["audience"]]
    deliveries = sum(c["deliveries"] for c in audience)
    overhead = sum(c["wire_bytes"] - c["body_bytes"] for c in audience)
    frames = s1["origin"]["main"]["published"] - s0["origin"]["main"]["published"]
    bytes_out = delta(s0, s1, "origin", "image_bytes_out")

    # Relay hop: relay SSE client minus origin SSE client on the same view.
    # Without a relay the same difference between two origin SSE clients is
    # the null hop the relay figure reads against.
    if "relay_sse" in clients:
        near, far = clients["origin_ref"], clients["relay_sse"]
    else:
        sse = [c for c in audience if c["sse"]]
        near, far = sse[0], sse[1]
    hop = pct(far["delivery_ms"], 50) - pct(near["delivery_ms"], 50)

    slow = [c for c in clients.values() if c["paced"]]
    slow_deliveries = sum(c["deliveries"] for c in slow)
    slow_state = sum(c["tiers"].get("state", 0) for c in slow)
    # Over the slow session's life up to the window's end: it settles on
    # its tier within the warm-up.
    slow_session = session(s1, "slow")
    moves = slow_session.get("downgrades", 0) + slow_session.get("upgrades", 0)
    skips = slow_session.get("skipped", 0)

    relay_resyncs = 0
    if "relay_subscriber" in s1:
        relay_resyncs = sum(v["resyncs"] - s0["relay_subscriber"].get(k, {}).get("resyncs", 0)
                            for k, v in s1["relay_subscriber"].items())
    relay_encodes = sum(v["image_encodes"] for v in s1.get("relay", {}).values())

    period = 1000.0 / e2e["frames_per_s"][0] - stages["frame_interval_ms"]
    stage_sum = stages["hydro.simulate_ms"] + stages["viz.render_ms"] + stages["web.publish_ms"]
    traced = gen["delivery_ms_traced"]
    return {
        "hydro.simulate_ms": (stages["hydro.simulate_ms"], "ms"),
        "viz.render_ms": (stages["viz.render_ms"], "ms"),
        "viz.png_encode_ms": (stages["viz.png_encode_ms"], "ms"),
        "viz.compression_ratio": (
            delta(s0, s1, "origin", "image_bytes_in") / bytes_out if bytes_out else 0.0, "ratio"),
        "viz.tile_diff_ms": (stages["viz.tile_diff_ms"], "ms"),
        "viz.dirty_fraction": (stages["viz.dirty_fraction"], "share"),
        "web.publish_ms": (stages["web.publish_ms"], "ms"),
        "web.body_ms": (stages["web.body_ms"], "ms"),
        "web.encodes_per_frame": (delta(s0, s1, "origin", "image_encodes") / frames, "count"),
        "web.dispatch_ms": (pct(gen["dispatch_ms"], 50), "ms"),
        # A mean: most bodies arrive in one read, so the median is 0.
        "net.transfer_ms": (statistics.fmean(gen["transfer_ms"]), "ms"),
        "net.overhead_bytes_per_frame": (overhead / deliveries, "bytes"),
        # Unbounded: on a shared host the ~1 ms wire tail reads the host's load.
        "net.delivery_p98_ms": (pct(gen["delivery_ms"], 98), "ms"),
        "transport.pacing_skips": (skips, "count"),
        "transport.tier_moves": (moves, "count"),
        "transport.state_tier_share": (slow_state / slow_deliveries if slow_deliveries else 0.0,
                                       "share"),
        "relay.hop_ms": (hop, "ms"),
        "relay.image_encodes": (relay_encodes, "count"),
        "relay.resyncs": (relay_resyncs, "count"),
        "steering.steer_post_ms": (pct(gen["steer_post_ms"], 50), "ms"),
        "steering.steer_lag_frames": (pct(gen["steer_lag_frames"], 50), "frames"),
        "monitor.period_ms": (period, "ms"),
        "monitor.accounted_share": (stage_sum / period, "share"),
        "gen.cpu_share": (gen["cpu_share"], "share"),
        "gen.lateness_ms": (pct(gen["lateness_ms"], 99), "ms"),
        "gen.steer_queue_ms": (pct(gen["steer_queue_ms"], 50), "ms"),
        "gen.parse_ms": (pct(gen["parse_ms"], 50), "ms"),
        "trace.overhead_ms": (pct(traced, 50) - pct(gen["delivery_ms"], 50), "ms"),
    }


def server_checks(s0, s1):
    """(attempted, failed) for the checks only the server's counters show."""
    if "relay" not in s1:
        return 0, 0
    failed = 0
    # The relay forwards encoded bodies; it must never encode an image.
    if any(v["image_encodes"] for v in s1["relay"].values()):
        failed += 1
    if any(v["failed"] for v in s1["relay_subscriber"].values()):
        failed += 1
    return 2, failed


def run(args):
    build()
    setups = []
    server = None
    gen = None
    try:
        for i in range(SETUPS):
            server = Server(args.workload)
            setups.append(first_frame(server.relay or server.origin) - server.spawned)
            if i < SETUPS - 1:
                server.stop()
                server = None
        cmd = [exe("perfbench_gen"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--origin", str(server.origin),
               "--relay", str(server.relay), "--trace", str(args.trace)]
        gen = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, bufsize=1)
        s0 = s1 = None
        result = None
        for line in gen.stdout:
            line = line.strip()
            if line == "window_start":
                s0 = server.stats()
            elif line == "window_end":
                s1 = server.stats()
            elif line.startswith("{"):
                result = json.loads(line)
        if gen.wait(timeout=60) != 0 or result is None or s0 is None or s1 is None:
            raise RuntimeError("load generator failed")
        gen = None
    finally:
        if gen is not None:
            gen.kill()
            gen.wait()
        if server is not None:
            server.stop()

    stages = None
    if args.trace:
        out = subprocess.run([exe("perfbench_stages"), "--workload", args.workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds / 3)],
                             check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        stages = json.loads(out.stdout.strip().splitlines()[-1])

    attempted, failed = server_checks(s0, s1)
    attempted += int(result["attempted"])
    failed += int(result["failed"])
    e2e = end_to_end(result, s0, s1, setups)
    metrics = per_layer(result, s0, s1, stages, e2e) if args.trace else e2e

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} share  "
          f"(failed {failed} of {attempted}; {json.dumps(result['errors'])})")
    print(f"samples delivery {len(result['delivery_ms'])} steers {len(result['steer_to_display_ms'])} "
          f"composite_checks {result['composite_checks']} image_checks {result['image_checks']}")
    if result["errors"]["saturated"]:
        print("FLAG generator thread saturated: this run measured the generator")
    if pct(result["steer_queue_ms"], 90) > result["steer_period_ms"]:
        print("FLAG steers waited longer than their period for the carrier connection: "
              "the steer schedule was not kept")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
