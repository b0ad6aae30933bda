"""``serve_mixed``: a ``repro serve start`` daemon under mixed closed-loop traffic.

Set-up prebuilds a characterization store (drnm / hold_power /
read_delay x cmos / proposed at V_DD 0.6, 0.7, 0.8) and starts the
daemon as a subprocess over it.  Traffic runs in rounds of two slices,
each a closed loop (one request in flight per connection):

* a **hit slice** — one connection sends exact and interpolated points
  inside the grid, answered from the daemon's in-memory grids;
* a **mixed slice** — that hit connection keeps going while a second
  one sends ``drnm`` / ``proposed`` misses at fresh V_DD values above
  the grid, each forcing a backfill build (char.build -> analysis ->
  circuit) inside the daemon's interpreter.

``serve.hit_p50_ms`` comes from the hit slices and
``serve.miss_p50_ms`` from the mixed ones, where every miss competes
with hits for the daemon.  Hit latency while a backfill runs is three
busy threads on a 2-vCPU host and follows the host's scheduler; it is
reported per layer (``serve.hit_p99_ms``, ``serve.hit_wait_ms``).
Only drnm misses are sent: mixing in hold_power misses made the hit
tail swing widely between identical runs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import median, overlaps, percentile, ratio, rel_close, tail_percentile

SPEC = {
    "name": "perfbench",
    "designs": ["cmos", "proposed"],
    "vdds": [0.6, 0.7, 0.8],
    "metrics": ["drnm", "hold_power", "read_delay"],
}
MISS_METRIC = ("drnm", "proposed")
MISS_VDD_RANGE = (8100, 9000)
"""Fresh miss V_DDs are drawn from this range in units of 0.1 mV."""
WARMUP_MISS_VDD = 0.95
"""One miss outside the measured range warms the daemon's build path."""

STORE_JOBS = 2
REQUEST_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 90.0
SLICE_S = {False: 1.0, True: 2.0}
"""Length of a hit slice and of a mixed slice.  Hit figures are medians
over slices, so a short host stall moves one slice, not the run.  A
mixed slice also waits for its last miss, with hits still flowing."""

HIT_REL = 1e-12
MISS_REL = 1e-9


def _spec():
    from repro.char import CharSpec

    return CharSpec.from_json(SPEC)


class Daemon:
    """One prebuilt store plus the daemon subprocess serving it."""

    def __init__(self, work: Path, tag: str, trace_dir: Path | None = None):
        self.work = work
        self.store = work / f"store-{tag}"
        self.socket = work / f"{tag}.sock"
        self.log = work / f"daemon-{tag}.log"
        self.trace_dir = trace_dir
        self.proc: subprocess.Popen | None = None

    def start(self) -> None:
        """Prebuild the store, launch the daemon, wait until it answers."""
        from repro.char import CharStore, build_grid

        spec_file = self.work / "spec.json"
        spec_file.write_text(json.dumps(SPEC))
        report = build_grid(_spec(), CharStore(self.store), jobs=STORE_JOBS)
        if report.failed:
            raise RuntimeError(f"store prebuild failed: {report.failures}")
        command = [
            sys.executable, "-m", "repro", "serve", "start",
            "--spec", str(spec_file), "--store", str(self.store),
            "--socket", str(self.socket), "--jobs", "1",
        ]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        env = dict(os.environ)
        src = str(Path("src").resolve())
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve daemon exited with {self.proc.returncode}: "
                    f"{self.log.read_text()[-2000:]}"
                )
            try:
                with self.client() as client:
                    if client.ping():
                        return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("serve daemon never became ready")
            time.sleep(0.02)

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(socket_path=self.socket, timeout_s=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        """Ask for a drain, then make sure the process is gone."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                with self.client() as client:
                    client.shutdown()
                self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired, RuntimeError):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc = None


# -- traffic ---------------------------------------------------------------------


class Request:
    __slots__ = ("t0", "t1", "key", "served", "value", "wall_us", "error")

    def __init__(self, t0, t1, key, served=None, value=None, wall_us=None, error=None):
        self.t0, self.t1, self.key = t0, t1, key
        self.served, self.value, self.wall_us, self.error = served, value, wall_us, error


class Slice:
    """The requests of one traffic slice."""

    def __init__(self, mixed: bool):
        self.mixed = mixed
        self.hits: list[Request] = []
        self.misses: list[Request] = []
        self.window_s = 0.0

    def hit_ms(self) -> list[float]:
        return [1e3 * (r.t1 - r.t0) for r in self.hits if r.error is None]


def _hit_keys(seed: int):
    """Every (metric, design) pair once per round, in seed order, each
    at an exact grid V_DD and at an interpolated one: the seed varies
    the points, not the mix."""
    rng = random.Random(f"{seed}:hits")
    lo, hi = SPEC["vdds"][0], SPEC["vdds"][-1]
    pairs = [(m, d) for m in SPEC["metrics"] for d in SPEC["designs"]]
    while True:
        rng.shuffle(pairs)
        for metric, design in pairs:
            yield (metric, design, rng.choice(SPEC["vdds"]))
            yield (metric, design, round(rng.uniform(lo, hi), 4))


def _miss_keys(seed: int):
    rng = random.Random(f"{seed}:misses")
    metric, design = MISS_METRIC
    for v in rng.sample(range(*MISS_VDD_RANGE), MISS_VDD_RANGE[1] - MISS_VDD_RANGE[0]):
        yield (metric, design, v / 1e4)


def _loop(client_of, keys, out: list, stop: threading.Event, spans, label):
    """Closed loop: one request in flight; errors are recorded, the
    connection is reopened after a transport failure."""
    from repro.serve import ServeError

    client = None
    try:
        while not stop.is_set():
            metric, design, vdd = key = next(keys)
            t0 = time.perf_counter()
            try:
                if client is None:
                    client = client_of()
                with spans.span("ServeClient.query", kind=label):
                    response = client.query(metric, design=design, vdd=vdd)
                out.append(Request(
                    t0, time.perf_counter(), key, response["served"],
                    response["result"]["value"], response["wall_us"],
                ))
            except ServeError as exc:
                out.append(Request(t0, time.perf_counter(), key, error=exc.code))
            except (OSError, ConnectionError) as exc:
                out.append(Request(t0, time.perf_counter(), key, error=repr(exc)))
                if client is not None:
                    client.close()
                client = None
    finally:
        if client is not None:
            client.close()


def _snapshot(daemon: Daemon) -> dict:
    with daemon.client() as client:
        status = client.status()
        counters = client.metrics()["json"]["metrics"]["counters"]
    return {
        "reloads": status["reloads"],
        "batches": status["backfill"]["batches_completed"],
        "points": status["backfill"]["points_completed"],
        "counters": counters,
    }


def warm_up(daemon: Daemon) -> None:
    """Touch every hit key shape once and land one backfill, untimed."""
    with daemon.client() as client:
        for metric in SPEC["metrics"]:
            for design in SPEC["designs"]:
                client.query(metric, design=design, vdd=0.7)
                client.query(metric, design=design, vdd=0.65)
        client.query(MISS_METRIC[0], design=MISS_METRIC[1], vdd=WARMUP_MISS_VDD)


class ServeLoad:
    """Rounds of a hit slice and a mixed slice against one daemon."""

    round_slices = 2

    def __init__(self, daemon: Daemon, seed: int, spans):
        self.daemon = daemon
        self.spans = spans
        self.slices: list[Slice] = []
        self._hit_keys = _hit_keys(seed)
        self._miss_keys = _miss_keys(seed)
        warm_up(daemon)
        self.before = _snapshot(daemon)
        self.after: dict | None = None

    def slice(self) -> float:
        current = Slice(mixed=len(self.slices) % 2 == 1)
        stop_hits, stop_misses = threading.Event(), threading.Event()
        hits = threading.Thread(target=_loop, args=(
            self.daemon.client, self._hit_keys, current.hits, stop_hits, self.spans, "hit"
        ))
        misses = threading.Thread(target=_loop, args=(
            self.daemon.client, self._miss_keys, current.misses, stop_misses,
            self.spans, "miss",
        ))
        start = time.perf_counter()
        hits.start()
        if current.mixed:
            misses.start()
        stop_misses.wait(SLICE_S[current.mixed])
        stop_misses.set()
        if current.mixed:
            misses.join()
        stop_hits.set()
        current.window_s = time.perf_counter() - start
        hits.join()
        self.slices.append(current)
        return current.window_s

    @property
    def at_round_end(self) -> bool:
        return len(self.slices) % 2 == 0

    def finish(self) -> None:
        """Read the daemon's counters after the last slice."""
        self.after = _snapshot(self.daemon)

    # -- accounting -----------------------------------------------------------------

    @property
    def hits(self) -> list[Request]:
        return [r for s in self.slices for r in s.hits]

    @property
    def misses(self) -> list[Request]:
        return [r for s in self.slices for r in s.misses]

    @staticmethod
    def ok(requests) -> list[Request]:
        return [r for r in requests if r.error is None]

    @property
    def attempted(self) -> int:
        return len(self.hits) + len(self.misses)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.hits + self.misses if r.error is not None)

    def of(self, mixed: bool) -> list[Slice]:
        return [s for s in self.slices if s.mixed == mixed]

    def throughput(self) -> float:
        """Hits per second, median over the hit slices."""
        return median([ratio(len(s.hit_ms()), s.window_s) for s in self.of(False)])

    def hits_during_backfill(self) -> tuple[list[float], list[float]]:
        """Hit latencies (ms) that overlapped a miss in flight, and the rest."""
        during, quiet = [], []
        for current in self.slices:
            intervals = [(r.t0, r.t1) for r in current.misses]
            for r in self.ok(current.hits):
                (during if overlaps(r.t0, r.t1, intervals) else quiet).append(
                    1e3 * (r.t1 - r.t0)
                )
        return during, quiet

    def metrics(self) -> dict:
        """The hit p50 is a median over the hit slices; the miss median
        pools every landed miss."""
        misses = [1e3 * (r.t1 - r.t0) for r in self.ok(self.misses)]
        return {
            "serve.hit_p50_ms": (
                median([percentile(s.hit_ms(), 50) for s in self.of(False)]), "ms"
            ),
            "serve.miss_p50_ms": (percentile(misses, 50), "ms"),
        }

    def hit_tail(self) -> dict:
        """Hit throughput of the hit slices and the median over mixed
        slices of the hit p99.

        Per-layer metrics: on a 2-vCPU host the tail follows host phases
        (a hit waits about one GIL switch interval for the build thread
        in quiet phases, two in busy ones) more than the program."""
        return {
            "serve.hit_rps": (self.throughput(), "1/s"),
            "serve.hit_p99_ms": (
                median([percentile(s.hit_ms(), 99) for s in self.of(True)]), "ms"
            ),
        }

    def check(self, direct_points: int) -> tuple[list[str], dict]:
        """Hits equal an in-process ``CharGrid.query`` on the same store;
        misses come back ``served == "backfill"`` and the first
        ``direct_points`` agree with a direct ``evaluate_metric``.

        Returns the problems and the timings of those in-process calls
        (``CharGrid.query`` microseconds, ``evaluate_metric`` seconds).
        """
        from repro.char import CharGrid, CharStore
        from repro.char.metrics import evaluate_metric

        problems = []
        timings = {"query_us": [], "evaluate_s": []}
        grid = CharGrid.from_store(CharStore(self.daemon.store), _spec())
        seen = {}
        for r in self.ok(self.hits):
            if r.served != "memory":
                problems.append(f"serve: hit {r.key} served {r.served!r}")
            seen.setdefault(r.key, r.value)
        for (metric, design, vdd), value in seen.items():
            t0 = time.perf_counter()
            answer = grid.query(metric, design=design, vdd=vdd)
            timings["query_us"].append(1e6 * (time.perf_counter() - t0))
            if not rel_close(value, answer.value, HIT_REL):
                problems.append(
                    f"serve: hit {(metric, design, vdd)} = {value!r}, "
                    f"CharGrid.query {answer.value!r}"
                )
        landed = self.ok(self.misses)
        for r in landed:
            if r.served != "backfill":
                problems.append(f"serve: miss {r.key} served {r.served!r}")
        for r in landed[:direct_points]:
            metric, design, vdd = r.key
            t0 = time.perf_counter()
            value = evaluate_metric(metric, design, vdd)
            timings["evaluate_s"].append(time.perf_counter() - t0)
            if not rel_close(r.value, value, MISS_REL):
                problems.append(
                    f"serve: miss {r.key} = {r.value!r}, evaluate_metric {value!r}"
                )
        if len(landed) < direct_points:
            problems.append(f"serve: only {len(landed)} misses landed")
        return problems, timings

    def describe(self) -> list[str]:
        hits = [1e3 * (r.t1 - r.t0) for r in self.ok(self.hits)]
        tail = tail_percentile(hits)
        during, _ = self.hits_during_backfill()
        return [
            f"serve: {len(hits)} hits, {len(self.ok(self.misses))} misses in "
            f"{len(self.slices)} slices; pooled hit tail with "
            f">=10 samples beyond: "
            + (f"p{tail[0]:g} = {tail[1]:.3f} ms" if tail else "none"),
            f"serve: share of hits overlapping a backfill "
            f"{ratio(len(during), len(hits)):.3f}",
        ]

    def layers(self, timings: dict) -> dict:
        hits = self.ok(self.hits)
        client_us = [1e6 * (r.t1 - r.t0) for r in hits]
        daemon_us = [r.wall_us for r in hits]
        during, quiet = self.hits_during_backfill()
        landed = len(self.ok(self.misses))
        batches = self.after["batches"] - self.before["batches"]
        points = self.after["points"] - self.before["points"]
        builds = _trace_spans(self.daemon.trace_dir, "batch")
        evaluations = (
            _trace_spans(self.daemon.trace_dir, "char.point") or timings["evaluate_s"]
        )
        return {
            "serve.request_us": (median(daemon_us), "us"),
            "serve.client_gap_us": (median(client_us) - median(daemon_us), "us"),
            "char.query_us": (median(timings["query_us"]), "us"),
            "serve.hit_wait_ms": (
                median(during) - median(quiet) if during and quiet else 0.0, "ms"
            ),
            "serve.backfill_share": (ratio(len(during), len(hits)), "share"),
            "serve.reloads_per_miss": (
                ratio(self.after["reloads"] - self.before["reloads"], landed), "count"
            ),
            "char.build_s": (median(builds) if builds else 0.0, "s"),
            "analysis.evaluate_s": (median(evaluations) if evaluations else 0.0, "s"),
            "serve.points_per_batch": (ratio(points, batches), "count"),
        }

    def counter_deltas(self) -> dict:
        before = self.before["counters"]
        return {
            name: n - before.get(name, 0) for name, n in self.after["counters"].items()
        }


def _trace_spans(trace_dir: Path | None, name: str) -> list[float]:
    if trace_dir is None or not (trace_dir / "trace.json").exists():
        return []
    payload = json.loads((trace_dir / "trace.json").read_text())
    return [s["dur_s"] for s in payload.get("spans", ()) if s.get("name") == name]
