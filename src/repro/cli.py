"""Top-level command-line interface: ``python -m repro <command>``.

Commands:

* ``device-info`` — headline figures of merit of the calibrated devices;
* ``cell <design> [--vdd V]`` — hold power, margins, and delays of one
  of the studied cells;
* ``experiment <id>`` — regenerate a paper figure/table (alias of
  ``python -m repro.experiments``, including the telemetry flags
  ``--profile``, ``--trace``, ``--log-level``, ``--output-dir`` and the
  batch-engine flags ``--samples``, ``--seed``, ``--jobs``,
  ``--resume``);
* ``char build|status|query|export`` — the incremental characterization
  store (``repro.char``): build a metric grid (resumable, only missing
  points are simulated), inspect coverage, answer interpolated point
  queries with provenance, and export grids as CSV/JSON;
* ``array build|measure|compare|sweep`` — the hierarchical array
  compiler (:mod:`repro.sram.compiler`): compose a bitcell into a
  simulatable critical path (distributed bitline/wordline RC, decode
  chain, precharge, replica-timed sense amp), measure the read / write
  / half-select scenarios through the transient solver, validate the
  simulated path against the analytic array model, and run
  engine-backed geometry sweeps (``--jobs``, ``--resume``);
* ``netlist <deck.sp> [--op | --tran T]`` — parse a SPICE-subset deck
  and print its DC operating point or run a transient;
* ``diag [paths...]`` — solver-health summary of saved run manifests
  (default: ``results/``);
* ``trace summary|timeline|slowest|convergence`` — timeline analytics
  over a merged run-level trace (produced by ``experiment --trace-dir``
  or ``char build --trace-dir``);
* ``serve start|status|query`` — the online characterization service
  (:mod:`repro.serve`): run the asyncio daemon over a store, inspect a
  running daemon, and query it through the JSON-lines protocol;
* ``bench history|check`` — record ``BENCH_*.json`` headline metrics
  into ``results/bench_history.jsonl`` and flag regressions (``check``
  exits non-zero on one — the CI gate).
"""

from __future__ import annotations

import argparse
import math
import sys

__all__ = ["main"]

CELL_CHOICES = ("proposed", "cmos", "asym", "7t", "inward_n", "outward_n")


def _cmd_device_info(_args) -> int:
    import numpy as np

    from repro.devices.library import nmos_device, nominal_tfet_physics, tfet_device

    physics = nominal_tfet_physics()
    device = tfet_device()
    nmos = nmos_device()
    print("Si TFET (calibrated, Section 2 anchors):")
    print(f"  I_on  (1 V) : {device.on_current(1.0):.3e} A/um")
    print(f"  I_off (1 V) : {device.off_current(1.0):.3e} A/um")
    print(f"  min SS      : {physics.subthreshold_swing_mv_per_dec():.1f} mV/dec")
    print(f"  reverse@-1V : {abs(float(np.asarray(device.current_density(0.0, -1.0)))):.3e} A/um")
    print("32 nm MOSFET baseline:")
    print(f"  I_on  (0.8V): {nmos.on_current(0.8):.3e} A/um")
    print(f"  I_off (0.8V): {nmos.off_current(0.8):.3e} A/um")
    print(f"  SS          : {nmos.subthreshold_swing_mv_per_dec():.1f} mV/dec")
    return 0


def _build_cell(name: str, corner: str = "tt"):
    from repro.devices.corners import corner_device_set
    from repro.experiments.designs import (
        asym_cell,
        cmos_cell,
        proposed_cell,
        proposed_read_assist,
        seven_t_cell,
    )
    from repro.sram import AccessConfig, CellSizing, Tfet6TCell

    # corner_device_set raises a KeyError listing the known corners on a
    # bad name; devices stays None at "tt" so the nominal path is untouched.
    devices = corner_device_set(corner) if corner != "tt" else None
    if name == "cmos":
        if corner != "tt":
            raise ValueError(
                "corner cards are TFET oxide-thickness scales; "
                "the CMOS baseline only supports --corner tt"
            )
        return cmos_cell(), None
    if name == "proposed":
        return proposed_cell(devices), proposed_read_assist()
    if name == "asym":
        return asym_cell(devices), None
    if name == "7t":
        return seven_t_cell(devices), None
    if name == "inward_n":
        return (
            Tfet6TCell(CellSizing().with_beta(0.6), AccessConfig.INWARD_N, devices=devices),
            None,
        )
    if name == "outward_n":
        return (
            Tfet6TCell(CellSizing().with_beta(0.6), AccessConfig.OUTWARD_N, devices=devices),
            None,
        )
    raise ValueError(f"unknown cell {name!r}")


def _cmd_cell(args) -> int:
    from repro.analysis import (
        critical_wordline_pulse,
        dynamic_read_noise_margin,
        hold_power,
        read_delay,
        write_delay,
    )
    from repro.analysis.area import cell_area_um2

    try:
        cell, assist = _build_cell(args.design, corner=args.corner)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    vdd = args.vdd
    corner_note = "" if args.corner == "tt" else f" [{args.corner} corner]"
    print(f"{cell.name} at V_DD = {vdd} V{corner_note}")
    print(f"  hold power : {hold_power(cell, vdd):.3e} W")
    drnm = dynamic_read_noise_margin(cell.read_testbench(vdd, assist=assist))
    print(f"  DRNM       : {drnm * 1e3:.1f} mV" + ("  (with read assist)" if assist else ""))
    if args.design != "asym":
        wl = critical_wordline_pulse(cell, vdd)
        print(f"  WL_crit    : {'inf' if math.isinf(wl) else f'{wl * 1e12:.1f} ps'}")
    else:
        print("  WL_crit    : undefined (no separatrix)")
    wd = write_delay(cell, vdd, pulse_width=6e-9)
    rd = read_delay(cell, vdd, assist=assist, duration=8e-9)
    print(f"  write delay: {'inf' if math.isinf(wd) else f'{wd * 1e12:.1f} ps'}")
    print(f"  read delay : {'inf' if math.isinf(rd) else f'{rd * 1e12:.1f} ps'}")
    print(f"  area       : {cell_area_um2(cell):.3f} um^2")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.runner import main as experiments_main

    argv = [args.experiment_id]
    if args.profile:
        argv.append("--profile")
    if args.trace:
        argv.extend(["--trace", args.trace])
    if args.log_level:
        argv.extend(["--log-level", args.log_level])
    if args.trace_dir:
        argv.extend(["--trace-dir", args.trace_dir])
    if args.output_dir:
        argv.extend(["--output-dir", args.output_dir])
    if args.verify:
        argv.append("--verify")
    if args.samples is not None:
        argv.extend(["--samples", str(args.samples)])
    if args.seed is not None:
        argv.extend(["--seed", str(args.seed)])
    if args.jobs is not None:
        argv.extend(["--jobs", str(args.jobs)])
    if args.resume:
        argv.append("--resume")
    if args.char_store:
        argv.extend(["--char-store", args.char_store])
    return experiments_main(argv)


def _cmd_char(args) -> int:
    from repro.char import CharGrid, CharQueryError, CharStore, resolve_spec

    try:
        spec = resolve_spec(args.spec)
    except ValueError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    store = CharStore(args.store)

    if args.char_command == "build":
        from repro.char import build_grid
        from repro.telemetry import core as telemetry

        session = (
            telemetry.enable() if (args.profile or args.metrics_out) else None
        )
        try:
            report = build_grid(
                spec,
                store,
                jobs=args.jobs,
                verify_fraction=args.verify_fraction,
                trace_dir=args.trace_dir,
            )
        finally:
            if session is not None:
                telemetry.disable()
        print(report.summary())
        if session is not None:
            hits = session.counters.get("char.store.hits", 0)
            misses = session.counters.get("char.store.misses", 0)
            print(f"store: {hits} hits, {misses} misses")
        if args.metrics_out and session is not None:
            from pathlib import Path

            from repro.obs.export import write_metrics

            json_path = Path(args.metrics_out)
            write_metrics(
                session,
                json_path,
                json_path.with_suffix(".prom"),
                run=f"char:{args.spec}",
                duration_s=report.wall_s,
            )
            print(f"metrics: {json_path}")
        if args.trace_dir:
            from pathlib import Path

            print(f"trace: {Path(args.trace_dir) / 'trace.json'}")
        return 1 if report.failed else 0

    if args.char_command == "status":
        status = store.status(spec)
        if args.json:
            import json as json_module

            payload = {
                **status.to_json(),
                "store": str(store.directory),
                "index": store.index_summary(),
            }
            print(json_module.dumps(payload, indent=2))
        else:
            print(status.summary())
        return 0

    if args.char_command == "query":
        try:
            grid = CharGrid.from_store(store, spec)
            answer = grid.query(
                args.metric,
                design=args.design,
                vdd=args.vdd,
                beta=args.beta,
                corner=args.corner,
                method=args.method,
            )
        except (CharQueryError, FileNotFoundError) as exc:
            print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
            return 2
        if args.json:
            import json as json_module

            # Answer values can legitimately be inf (an unwritable
            # cell's wl_crit is data); encode non-finite floats with
            # the experiments.io convention so the output stays strict
            # JSON instead of allow_nan=False raising.
            print(
                json_module.dumps(
                    _encode_json_tree(answer.to_json()), indent=2, allow_nan=False
                )
            )
        else:
            print(answer.summary())
        return 0

    if args.char_command == "export":
        return _char_export(spec, store, args)
    raise AssertionError(f"unhandled char command {args.char_command!r}")


def _encode_json_tree(value):
    """Apply the experiments.io non-finite float encoding recursively."""
    from repro.experiments.io import _encode_value

    if isinstance(value, dict):
        return {k: _encode_json_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_json_tree(v) for v in value]
    return _encode_value(value)


def _char_export(spec, store, args) -> int:
    """Dump one spec's entries (values + provenance) as CSV or JSON."""
    from repro.char import entry_fingerprint
    from repro.experiments.io import _csv_value, _encode_value

    index = store.load_index()
    header = ["design", "corner", "beta", "vdd", "metric", "value", "status", "fp"]
    rows = []
    for entry in spec.entries():
        fp = entry_fingerprint(entry.point, entry.metric)
        record = index.get(fp)
        status = record.get("status", "missing") if record else "missing"
        value = record.get("value") if record else None
        point = entry.point
        rows.append(
            [point.design, point.corner, point.beta, point.vdd,
             entry.metric, value, status, fp]
        )

    out = None if args.out is None else open(args.out, "w", newline="")
    try:
        handle = out or sys.stdout
        if args.format == "csv":
            import csv

            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_value(v) for v in row])
        else:
            import json as json_module

            payload = {
                "spec": spec.to_json(),
                "header": header,
                "rows": [[_encode_value(v) for v in row] for row in rows],
            }
            handle.write(json_module.dumps(payload, indent=2, allow_nan=False) + "\n")
    finally:
        if out is not None:
            out.close()
    if args.out is not None:
        print(f"wrote {len(rows)} entries to {args.out}")
    return 0


def _cmd_serve(args) -> int:
    if args.serve_command == "start":
        return _serve_start(args)

    from repro.serve.client import ServeClient, ServeError

    try:
        client = ServeClient(
            socket_path=None if args.port else args.socket,
            tcp_port=args.port,
            timeout_s=args.timeout_s,
        )
    except (ConnectionError, FileNotFoundError, OSError) as exc:
        target = f"port {args.port}" if args.port else args.socket
        print(f"error: cannot reach a serve daemon at {target}: {exc}",
              file=sys.stderr)
        return 2

    import json as json_module

    with client:
        if args.serve_command == "status":
            try:
                status = client.status()
            except (ServeError, ConnectionError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if args.json:
                print(json_module.dumps(status, indent=2))
            else:
                print(_format_serve_status(status))
            return 0

        # serve query
        try:
            response = client.query(
                args.metric, design=args.design, vdd=args.vdd,
                beta=args.beta, corner=args.corner, method=args.method,
            )
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ConnectionError as exc:
            print(f"error: daemon hung up: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json_module.dumps(
                _encode_json_tree(response), indent=2, allow_nan=False))
        else:
            from repro.char.query import CharAnswer

            answer = CharAnswer(
                metric=response["result"]["metric"],
                unit=response["result"]["unit"],
                value=response["result"]["value"],
                coords=response["result"]["coords"],
                method=response["result"]["method"],
                nearest=response["result"]["nearest"],
                notes=tuple(response["result"]["notes"]),
            )
            print(answer.summary())
            print(f"  served: {response['served']} "
                  f"({response['wall_us']:.0f} us server-side)")
        return 0


def _serve_start(args) -> int:
    import asyncio

    from repro.char import resolve_spec
    from repro.serve.daemon import ServeConfig, serve

    if args.shard_index is None and (args.workers > 1 or args.http_port):
        return _serve_fleet(args)

    socket_path = args.socket
    tcp_port = args.port
    shard_count = None
    if args.shard_index is not None:
        # A fleet member: --socket/--port name the FRONT's base address
        # and the shard derives its own from them, so restarting shard
        # i by hand only needs the same command line plus --shard-index.
        from repro.serve.shard import shard_socket_path, shard_tcp_port

        shard_count = args.workers
        if not 0 <= args.shard_index < args.workers:
            print(f"error: --shard-index {args.shard_index} outside "
                  f"--workers {args.workers}", file=sys.stderr)
            return 2
        if tcp_port is not None:
            socket_path = None
            tcp_port = shard_tcp_port(args.port, args.shard_index)
        else:
            socket_path = shard_socket_path(args.socket, args.shard_index)

    try:
        specs = [resolve_spec(name) for name in (args.spec or ["nominal"])]
        config = ServeConfig(
            store_dir=args.store,
            specs=specs,
            socket_path=socket_path,
            tcp_port=tcp_port,
            max_inflight=args.max_inflight,
            backfill_depth=args.backfill_depth,
            coalesce_s=args.coalesce_s,
            request_timeout_s=args.timeout_s,
            drain_grace_s=args.drain_grace_s,
            jobs=args.jobs,
            verify_fraction=args.verify_fraction,
            metrics_out=args.metrics_out,
            trace_dir=args.trace_dir,
            shard_index=args.shard_index,
            shard_count=shard_count,
            synthetic_service_s=args.synthetic_service_s,
        )
    except ValueError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    where = []
    if config.socket_path is not None:
        where.append(str(config.socket_path))
    if config.tcp_port is not None:
        where.append(f"127.0.0.1:{config.tcp_port}")
    label = (f"shard {args.shard_index}/{shard_count}"
             if args.shard_index is not None else "serving")
    print(f"{label} {', '.join(s.name for s in specs)} from {args.store} "
          f"on {' and '.join(where)} (SIGTERM drains)")
    asyncio.run(serve(config))
    print("serve: drained and stopped")
    return 0


def _serve_fleet(args) -> int:
    """Supervise ``--workers`` shard daemons behind one routing front."""
    import asyncio
    import subprocess
    import time as time_module
    from pathlib import Path

    from repro.serve.client import ServeClient
    from repro.serve.front import FrontConfig, ShardAddress, serve_front
    from repro.serve.shard import shard_socket_path, shard_tcp_port

    workers = args.workers
    shard_cmd_base = [
        sys.executable, "-m", "repro", "serve", "start",
        "--store", args.store,
        "--socket", args.socket,
        "--workers", str(workers),
        "--jobs", str(args.jobs),
        "--max-inflight", str(args.max_inflight),
        "--backfill-depth", str(args.backfill_depth),
        "--coalesce-s", str(args.coalesce_s),
        "--timeout-s", str(args.timeout_s),
        "--drain-grace-s", str(args.drain_grace_s),
        "--verify-fraction", str(args.verify_fraction),
        "--synthetic-service-s", str(args.synthetic_service_s),
    ]
    for spec in args.spec or []:
        shard_cmd_base += ["--spec", spec]
    if args.port is not None:
        shard_cmd_base += ["--port", str(args.port)]

    shards, procs = [], []
    for index in range(workers):
        cmd = shard_cmd_base + ["--shard-index", str(index)]
        if args.metrics_out:
            out = Path(args.metrics_out)
            cmd += ["--metrics-out",
                    str(out.with_name(f"{out.stem}.shard{index}{out.suffix}"))]
        if args.trace_dir:
            cmd += ["--trace-dir", args.trace_dir]
        procs.append(subprocess.Popen(cmd))
        if args.port is not None:
            shards.append(ShardAddress(tcp_port=shard_tcp_port(args.port, index)))
        else:
            shards.append(ShardAddress(
                socket_path=shard_socket_path(args.socket, index)))

    def _stop_shards() -> None:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=args.drain_grace_s + 10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    # Wait for every shard to answer a ping (grid loading can take a
    # while on a cold store) before exposing the front.
    deadline = time_module.monotonic() + 120.0
    try:
        for index, address in enumerate(shards):
            while True:
                if procs[index].poll() is not None:
                    print(f"error: shard {index} exited with "
                          f"{procs[index].returncode} during startup",
                          file=sys.stderr)
                    _stop_shards()
                    return 2
                try:
                    with ServeClient(socket_path=address.socket_path,
                                     tcp_port=address.tcp_port,
                                     timeout_s=5.0) as probe:
                        if probe.ping():
                            break
                except (ConnectionError, FileNotFoundError, OSError):
                    pass
                if time_module.monotonic() > deadline:
                    print(f"error: shard {index} did not come up within 120 s",
                          file=sys.stderr)
                    _stop_shards()
                    return 2
                time_module.sleep(0.1)

        config = FrontConfig(
            shards=shards,
            socket_path=None if args.port else args.socket,
            tcp_port=args.port,
            http_port=args.http_port,
            request_timeout_s=args.timeout_s + 30.0,
            metrics_out=args.metrics_out,
        )
        where = [a.describe() for a in shards]
        front_at = []
        if config.socket_path is not None:
            front_at.append(str(config.socket_path))
        if config.tcp_port is not None:
            front_at.append(f"127.0.0.1:{config.tcp_port}")
        if config.http_port is not None:
            front_at.append(f"http://127.0.0.1:{config.http_port}")
        print(f"fleet: {workers} shards on {', '.join(where)}; front on "
              f"{' and '.join(front_at)} (SIGTERM drains)")
        asyncio.run(serve_front(config))
    finally:
        _stop_shards()
    print("serve: fleet drained and stopped")
    return 0


def _format_serve_status(status: dict) -> str:
    if status.get("fleet"):
        return _format_fleet_status(status)
    lines = [
        f"serve daemon pid {status['pid']} — up {status['uptime_s']:.1f} s, "
        f"store {status['store']}"
        + (" [draining]" if status.get("draining") else ""),
    ]
    for coverage in status.get("coverage", []):
        lines.append(
            f"  {coverage['spec']}: {coverage['present']}/{coverage['total']} "
            f"present, {coverage['missing']} missing, "
            f"{coverage['failed']} failed"
        )
    backfill = status.get("backfill", {})
    lines.append(
        f"  backfill: {backfill.get('pending', 0)} pending, "
        f"{backfill.get('in_flight', 0)} in flight, "
        f"{backfill.get('batches_completed', 0)} batches / "
        f"{backfill.get('points_completed', 0)} points completed"
    )
    counters = status.get("counters", {})
    lines.append(
        f"  requests: {counters.get('serve.requests', 0)} total, "
        f"{counters.get('serve.hits', 0)} hits, "
        f"{counters.get('serve.misses', 0)} misses, "
        f"{counters.get('serve.timeouts', 0)} timeouts"
    )
    return "\n".join(lines)


def _format_fleet_status(status: dict) -> str:
    lines = [
        f"serve fleet front pid {status['pid']} — up "
        f"{status['uptime_s']:.1f} s, {status['shards_up']}/"
        f"{status['workers']} shards up"
        + (" [draining]" if status.get("draining") else ""),
    ]
    for shard in status.get("shards", []):
        if not shard.get("ok"):
            lines.append(f"  shard {shard['shard']} ({shard['address']}): "
                         f"DOWN — {shard.get('message', '')}")
            continue
        counters = (shard.get("status") or {}).get("counters", {})
        lines.append(
            f"  shard {shard['shard']} ({shard['address']}): "
            f"{counters.get('serve.requests', 0)} requests, "
            f"{counters.get('serve.hits', 0)} hits, "
            f"{counters.get('serve.misses', 0)} misses"
        )
    aggregate = status.get("aggregate", {})
    lines.append(
        f"  aggregate: {aggregate.get('serve.requests', 0)} requests, "
        f"{aggregate.get('serve.hits', 0)} hits, "
        f"{aggregate.get('serve.misses', 0)} misses, "
        f"{aggregate.get('serve.timeouts', 0)} timeouts"
    )
    return "\n".join(lines)


def _cmd_trace(args) -> int:
    from repro.obs.trace import (
        format_convergence,
        format_slowest,
        format_summary,
        format_timeline,
        load_trace,
    )

    try:
        trace = load_trace(args.trace)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    if args.trace_command == "summary":
        print(format_summary(trace))
    elif args.trace_command == "timeline":
        print(format_timeline(trace, width=args.width))
    elif args.trace_command == "slowest":
        print(format_slowest(trace, top=args.top))
    else:
        print(format_convergence(trace))
    return 0


def _cmd_bench(args) -> int:
    import json as json_module

    from repro.obs import bench

    records = []
    for path in bench.collect_bench_files(args.root):
        try:
            payload = json_module.loads(path.read_text())
        except (OSError, json_module.JSONDecodeError):
            print(f"note: skipping unreadable {path}", file=sys.stderr)
            continue
        record = bench.bench_record(payload, path.name)
        if record is not None:
            records.append(record)
    added = bench.append_history(records, args.history)
    if added:
        print(f"recorded {added} new bench result(s) into {args.history}")
    history = bench.load_history(args.history)
    print(bench.format_history(history, tolerance=args.tolerance))
    if args.bench_command == "check":
        problems = bench.check_history(history, tolerance=args.tolerance)
        if problems:
            print()
            for problem in problems:
                print(f"REGRESSION: {problem}")
            return 1
        print()
        print("no regressions detected")
    return 0


def _cmd_diag(args) -> int:
    from repro.telemetry.diag import format_diag_report, load_manifests

    manifests = load_manifests(args.paths)
    print(format_diag_report(manifests))
    return 0 if manifests else 1


def _cmd_array(args) -> int:
    from repro.sram.array import ArrayGeometry

    if args.array_command == "sweep":
        return _array_sweep(args)

    from repro.sram.compiler import CompileOptions, compile_array

    try:
        cell, assist = _build_cell(args.design, corner=args.corner)
        if args.scenario != "read" or args.no_assist:
            assist = None
        geometry = ArrayGeometry(rows=args.rows, columns=args.columns)
        options = CompileOptions(sense=args.sense)
        compiled = compile_array(
            cell, geometry, args.vdd,
            scenario=args.scenario, assist=assist, options=options,
        )
    except (KeyError, ValueError, TypeError, NotImplementedError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2

    if args.array_command == "build":
        return _array_build(compiled)
    if args.array_command == "measure":
        return _array_measure(compiled, args)
    if args.array_command == "compare":
        return _array_compare(cell, geometry, assist, compiled, args)
    raise AssertionError(f"unhandled array command {args.array_command!r}")


def _array_build(compiled) -> int:
    """Print the compiled path's structure without simulating it."""
    from repro.circuit.sparse import DEFAULT_SPARSE_THRESHOLD, sparse_requested
    from repro.sram.compiler.census import census_macro_area

    geometry = compiled.geometry
    ladder = compiled.ladder
    size = compiled.unknown_count
    sparse = "sparse" if sparse_requested(size) else "dense"
    print(f"{compiled.circuit.title}")
    print(f"  unknowns : {size} -> {sparse} MNA "
          f"(auto threshold {DEFAULT_SPARSE_THRESHOLD})")
    print(f"  bitline  : C_total {ladder.total_capacitance:.3e} F, "
          f"R_total {ladder.total_resistance:.1f} ohm, "
          f"Elmore {ladder.elmore_delay * 1e12:.1f} ps")
    print(f"  explicit : {compiled.bench.notes['n_explicit']:.0f} neighbour(s)"
          + (", 1 half-selected victim" if "hs_q" in compiled.probes else ""))
    print(f"  decoder  : {compiled.decoder.stages} buffer stage(s) after the "
          f"address NAND")
    if compiled.replica is not None:
        print(f"  replica  : {compiled.replica.n_replica} timing cell(s)")
    areas = census_macro_area(compiled.cell, geometry, compiled.census)
    print(f"  census   : cells {areas['cell_array_um2']:.1f} um2, "
          f"rows {areas['row_periphery_um2']:.1f}, "
          f"columns {areas['column_periphery_um2']:.1f}, "
          f"shared {areas['shared_um2']:.2f}, "
          f"control/IO {areas['control_io_um2']:.1f} "
          f"-> total {areas['total_um2']:.1f} um2")
    return 0


def _array_result_table(rows_spec, command: str):
    """One-row ExperimentResult so --profile manifests work for `repro diag`."""
    from repro.experiments.common import ExperimentResult

    header, row = zip(*rows_spec)
    result = ExperimentResult(
        f"array_{command}", f"repro array {command}", list(header)
    )
    result.add_row(*row)
    return result


def _array_profiled(args, command: str, work):
    """Run ``work()`` under a telemetry session when --profile is set,
    writing a run manifest ``repro diag`` can summarize."""
    import time as time_module

    if not args.profile:
        value, _ = work()
        return value
    from repro.telemetry import core as telemetry
    from repro.telemetry.manifest import build_manifest, manifest_path, write_manifest

    out_dir = args.output_dir or "results"
    with telemetry.enabled() as session:
        start = time_module.perf_counter()
        with session.span(f"array.{command}"):
            value, rows_spec = work()
        wall = time_module.perf_counter() - start
        result = _array_result_table(rows_spec, command)
        manifest = build_manifest(
            result.experiment_id, result.title, result, session, wall
        )
        write_manifest(manifest, out_dir)
    print(f"manifest: {manifest_path(out_dir, result.experiment_id)}")
    return value


def _array_measure(compiled, args) -> int:
    from repro.sram.compiler import measure_array

    def work():
        m = measure_array(compiled)
        rows_spec = [
            ("scenario", m.scenario),
            ("rows", m.rows),
            ("columns", m.columns),
            ("unknowns", m.unknowns),
            ("sparse", "yes" if m.sparse_engaged else "no"),
            ("wordline_delay_ps", 1e12 * m.wordline_delay),
            ("access_delay_ps", 1e12 * m.access_delay),
            ("resolved_delay_ps", 1e12 * m.resolved_delay),
            ("energy_fJ", 1e15 * m.energy),
            ("cell_energy_fJ", 1e15 * m.cell_energy),
            ("disturb_margin_mV", 1e3 * m.disturb_margin),
            ("victim_flipped", str(m.victim_flipped)),
        ]
        return m, rows_spec

    m = _array_profiled(args, "measure", work)
    print(f"{compiled.circuit.title}: {m.unknowns} unknowns "
          f"({'sparse' if m.sparse_engaged else 'dense'} MNA)")
    print(f"  wordline delay : {1e12 * m.wordline_delay:.1f} ps (far cell)")
    print(f"  access delay   : {_fmt_ps(m.access_delay)}")
    if m.scenario == "read":
        print(f"  sense resolved : {_fmt_ps(m.resolved_delay)}")
    print(f"  path energy    : {1e15 * m.energy:.2f} fJ "
          f"(cell rails: {1e15 * m.cell_energy:.3f} fJ)")
    if not math.isnan(m.disturb_margin):
        print(f"  disturb margin : {1e3 * m.disturb_margin:.1f} mV "
              f"({'victim FLIPPED' if m.victim_flipped else 'victim held'})")
    if not m.completed:
        print("  access did not complete within the window", file=sys.stderr)
        return 1
    return 0


def _array_compare(cell, geometry, assist, compiled, args) -> int:
    from repro.experiments.ext_array_area import AREA_TOLERANCE
    from repro.experiments.ext_array_read import DELAY_TOLERANCE, ENERGY_RATIO_BAND
    from repro.sram.compiler import compare_array

    def work():
        comp = compare_array(
            cell, geometry, args.vdd, assist=assist, options=compiled.options
        )
        rows_spec = [
            ("rows", geometry.rows),
            ("columns", geometry.columns),
            ("analytic_ps", 1e12 * comp.analytic_access_time),
            ("simulated_ps", 1e12 * comp.simulated_access_time),
            ("delay_ratio", comp.delay_ratio),
            ("energy_ratio", comp.energy_ratio),
            ("analytic_area_um2", comp.analytic_area_um2),
            ("census_area_um2", comp.census_area_um2),
            ("area_ratio", comp.area_ratio),
        ]
        return comp, rows_spec

    comp = _array_profiled(args, "compare", work)
    delay_ok = abs(comp.delay_ratio - 1.0) <= DELAY_TOLERANCE
    energy_ok = ENERGY_RATIO_BAND[0] <= comp.energy_ratio <= ENERGY_RATIO_BAND[1]
    area_gated = geometry.rows >= 64
    area_ok = (not area_gated) or abs(comp.area_ratio - 1.0) <= AREA_TOLERANCE
    print(f"{compiled.circuit.title} vs analytic plan")
    print(f"  read delay : {1e12 * comp.simulated_access_time:.1f} ps simulated / "
          f"{1e12 * comp.analytic_access_time:.1f} ps analytic "
          f"(ratio {comp.delay_ratio:.3f}, tolerance +/-{DELAY_TOLERANCE:.0%}) "
          f"[{'ok' if delay_ok else 'OUT OF TOLERANCE'}]")
    print(f"  energy     : {1e15 * comp.simulated_energy:.2f} fJ path / "
          f"{1e15 * comp.analytic_energy:.3f} fJ analytic cell "
          f"(ratio {comp.energy_ratio:.1f}, band "
          f"[{ENERGY_RATIO_BAND[0]:g}x, {ENERGY_RATIO_BAND[1]:g}x]) "
          f"[{'ok' if energy_ok else 'OUT OF BAND'}]")
    print(f"  cell rails : {1e15 * comp.simulated_cell_energy:.3f} fJ simulated / "
          f"{1e15 * comp.analytic_cell_energy:.3f} fJ analytic (not gated)")
    area_note = (
        f"tolerance +/-{AREA_TOLERANCE:.0%}" if area_gated
        else "not gated below 64 rows"
    )
    print(f"  macro area : {comp.census_area_um2:.1f} um2 census / "
          f"{comp.analytic_area_um2:.1f} um2 analytic "
          f"(ratio {comp.area_ratio:.3f}, {area_note}) "
          f"[{'ok' if area_ok else 'OUT OF TOLERANCE'}]")
    return 0 if (delay_ok and energy_ok and area_ok) else 1


def _array_sweep(args) -> int:
    from pathlib import Path

    from repro.engine import EngineConfig
    from repro.sram.compiler import run_array_sweep

    try:
        rows_list = [int(r) for r in args.rows_list.split(",") if r.strip()]
        if not rows_list:
            raise ValueError("--rows-list is empty")
    except ValueError as exc:
        print(f"error: bad --rows-list: {exc}", file=sys.stderr)
        return 2
    base = Path(args.output_dir or "results")
    run_key = f"array_{args.design}_{args.scenario}_{args.columns}x@{args.vdd}"
    engine = EngineConfig(
        jobs=args.jobs,
        resume=args.resume,
        checkpoint_path=base / "checkpoints" / "array_sweep.jsonl",
        run_key=run_key,
        root_seed=args.seed,
        cache_dir=base / "table_cache",
    )
    try:
        results, report = run_array_sweep(
            rows_list, columns=args.columns, vdd=args.vdd,
            design=args.design, scenario=args.scenario, engine=engine,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    print(f"{args.design} {args.scenario} sweep, {args.columns} columns, "
          f"V_DD {args.vdd} V ({report.jobs} job(s), "
          f"{report.resumed_count} resumed, {report.wall_s:.1f} s)")
    print("  rows  unknowns  sparse  access (ps)  energy (fJ)")
    failed = False
    for rows, m in zip(rows_list, results):
        if m is None:
            print(f"  {rows:<5} FAILED (see checkpoint log)")
            failed = True
            continue
        print(f"  {rows:<5} {m['unknowns']:<9} "
              f"{'yes' if m['sparse_engaged'] else 'no':<7} "
              f"{_fmt_ps(m['access_delay']):<12} {1e15 * m['energy']:.2f}")
    return 1 if failed else 0


def _fmt_ps(value: float) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "inf"
    return f"{value * 1e12:.1f} ps"


def _cmd_netlist(args) -> int:
    from pathlib import Path

    from repro.circuit.dcop import solve_dc
    from repro.circuit.parser import parse_netlist
    from repro.circuit.report import format_netlist, format_operating_point
    from repro.circuit.transient import simulate_transient

    circuit = parse_netlist(Path(args.deck).read_text())
    print(format_netlist(circuit))
    if args.tran is not None:
        result = simulate_transient(circuit, args.tran)
        print(f"\n* transient to {args.tran:g} s ({len(result.times)} points)")
        for name in circuit.node_names:
            print(f"v({name}) final = {result.final(name):+.6f} V")
    else:
        print()
        print(format_operating_point(solve_dc(circuit)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("device-info", help="calibrated device figures of merit")

    cell = sub.add_parser("cell", help="metrics of one studied SRAM cell")
    cell.add_argument("design", choices=CELL_CHOICES)
    cell.add_argument("--vdd", type=float, default=0.8)
    cell.add_argument("--corner", default="tt", metavar="NAME",
                      help="process-corner device cards (tt, ff, ss, fs, sf); "
                      "TFET designs only")

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("experiment_id")
    exp.add_argument("--profile", action="store_true",
                     help="collect solver telemetry and write a run manifest")
    exp.add_argument("--trace", metavar="PATH", default=None,
                     help="write the structured JSON event trace to PATH")
    exp.add_argument("--log-level", default=None,
                     choices=("debug", "info", "warning", "error"),
                     help="event threshold for the trace/event log")
    exp.add_argument("--trace-dir", metavar="DIR", default=None,
                     help="stream cross-process span trees into DIR and "
                     "merge them into DIR/trace.json (see `repro trace`)")
    exp.add_argument("--output-dir", metavar="DIR", default=None,
                     help="directory for result JSON and run manifests")
    exp.add_argument("--verify", action="store_true",
                     help="re-check accepted solver results against the "
                     "reference implementations while the experiment runs")
    exp.add_argument("--samples", type=int, default=None, metavar="N",
                     help="Monte-Carlo sample count (sampling experiments)")
    exp.add_argument("--seed", type=int, default=None, metavar="S",
                     help="root seed for the batch engine's per-sample seeds")
    exp.add_argument("--jobs", type=int, default=None, metavar="J",
                     help="worker processes; bit-identical to --jobs 1")
    exp.add_argument("--resume", action="store_true",
                     help="resume an interrupted run from its checkpoints")
    exp.add_argument("--char-store", metavar="DIR", default=None,
                     help="serve grid points from a pre-built "
                     "characterization store (repro char build)")

    char = sub.add_parser("char", help="incremental characterization store")
    char_sub = char.add_subparsers(dest="char_command", required=True)

    def _char_common(p):
        p.add_argument("--spec", default="nominal", metavar="NAME|FILE",
                       help="built-in spec name (nominal, beta_sweep, corners) "
                       "or a JSON spec file")
        p.add_argument("--store", default="results/char", metavar="DIR",
                       help="store directory (default: results/char)")

    char_build = char_sub.add_parser(
        "build", help="simulate the spec's missing grid points")
    _char_common(char_build)
    char_build.add_argument("--jobs", type=int, default=1, metavar="J",
                            help="worker processes for the engine batch")
    char_build.add_argument("--verify-fraction", type=float, default=0.0,
                            metavar="F", help="sample-audit this fraction of "
                            "points under repro.verify")
    char_build.add_argument("--profile", action="store_true",
                            help="print store hit/miss counters after the build")
    char_build.add_argument("--trace-dir", metavar="DIR", default=None,
                            help="stream the build batch's span trees into DIR "
                            "and merge them into DIR/trace.json")
    char_build.add_argument("--metrics-out", metavar="PATH", default=None,
                            help="write the build's metrics snapshot to PATH "
                            "(JSON; a .prom sibling is written too)")

    char_status = char_sub.add_parser(
        "status", help="coverage of one spec: present/missing/failed/stale")
    _char_common(char_status)
    char_status.add_argument("--json", action="store_true",
                             help="machine-readable store state (spec "
                             "coverage + whole-index counts)")

    char_query = char_sub.add_parser(
        "query", help="interpolated metric query with provenance")
    _char_common(char_query)
    char_query.add_argument("metric")
    char_query.add_argument("--design", required=True)
    char_query.add_argument("--vdd", type=float, required=True)
    char_query.add_argument("--beta", type=float, default=None)
    char_query.add_argument("--corner", default="tt")
    char_query.add_argument("--method", default="auto",
                            choices=("auto", "linear", "cubic", "nearest"))
    char_query.add_argument("--json", action="store_true",
                            help="print the answer as JSON")

    char_export = char_sub.add_parser(
        "export", help="dump a spec's entries as CSV or JSON")
    _char_common(char_export)
    char_export.add_argument("--format", default="csv", choices=("csv", "json"))
    char_export.add_argument("--out", default=None, metavar="PATH",
                             help="output file (default: stdout)")

    array = sub.add_parser(
        "array", help="hierarchical array compiler (repro.sram.compiler)")
    array_sub = array.add_subparsers(dest="array_command", required=True)

    def _array_common(p):
        p.add_argument("--design", default="proposed",
                       choices=("proposed", "cmos", "asym", "inward_n",
                                "outward_n"),
                       help="bitcell composed into the array (7T's decoupled "
                       "read port is outside the column topology)")
        p.add_argument("--rows", type=int, default=16)
        p.add_argument("--columns", type=int, default=4)
        p.add_argument("--vdd", type=float, default=0.8)
        p.add_argument("--corner", default="tt", metavar="NAME",
                       help="process-corner device cards (TFET designs only)")
        p.add_argument("--scenario", default="read",
                       choices=("read", "write", "half_select"))
        p.add_argument("--sense", default="replica",
                       choices=("replica", "fixed", "none"),
                       help="read sense-enable source (replica-bitline "
                       "timed, ideal pulse, or no sense amp)")
        p.add_argument("--no-assist", action="store_true",
                       help="drop the design's default read assist")

    array_build = array_sub.add_parser(
        "build", help="compile the critical path and print its structure")
    _array_common(array_build)

    for verb, verb_help in (
        ("measure", "simulate the compiled path and print its metrics"),
        ("compare", "validate the simulated path against the analytic model"),
    ):
        verb_p = array_sub.add_parser(verb, help=verb_help)
        _array_common(verb_p)
        verb_p.add_argument("--profile", action="store_true",
                            help="collect solver telemetry and write a run "
                            "manifest (`repro diag` summarizes it)")
        verb_p.add_argument("--output-dir", metavar="DIR", default=None,
                            help="manifest directory (default: results/)")

    array_sweep = array_sub.add_parser(
        "sweep", help="engine-backed geometry sweep (checkpointed, resumable)")
    _array_common(array_sweep)
    array_sweep.add_argument("--rows-list", default="8,16,32", metavar="R1,R2",
                             help="comma-separated row counts to sweep")
    array_sweep.add_argument("--jobs", type=int, default=1, metavar="J",
                             help="worker processes")
    array_sweep.add_argument("--resume", action="store_true",
                             help="resume from the sweep's JSONL checkpoint")
    array_sweep.add_argument("--seed", type=int, default=0, metavar="S",
                             help="engine root seed (sweep tasks are "
                             "deterministic; the seed keys the checkpoint)")
    array_sweep.add_argument("--output-dir", metavar="DIR", default=None,
                             help="checkpoint/cache directory "
                             "(default: results/)")

    net = sub.add_parser("netlist", help="parse and solve a SPICE-subset deck")
    net.add_argument("deck")
    net.add_argument("--tran", type=float, default=None, help="transient stop time (s)")

    diag = sub.add_parser("diag", help="summarize saved run manifests")
    diag.add_argument("paths", nargs="*", default=["results"],
                      help="manifest files or directories (default: results/)")

    trace_p = sub.add_parser("trace", help="timeline analytics on a merged trace")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    trace_verbs = (
        ("summary", "span population, wall times, task coverage"),
        ("timeline", "ASCII Gantt of task spans in concurrency lanes"),
        ("slowest", "tasks ranked by wall time and Newton effort"),
        ("convergence", "ConvergenceError forensics grouped per task"),
    )
    for verb, verb_help in trace_verbs:
        verb_p = trace_sub.add_parser(verb, help=verb_help)
        verb_p.add_argument("--trace", default="results/trace", metavar="PATH",
                            help="merged trace.json or its trace directory "
                            "(default: results/trace)")
        if verb == "timeline":
            verb_p.add_argument("--width", type=int, default=72, metavar="COLS",
                                help="timeline width in characters")
        if verb == "slowest":
            verb_p.add_argument("--top", type=int, default=10, metavar="N",
                                help="how many tasks to list")

    serve_p = sub.add_parser(
        "serve", help="online characterization service (repro.serve)")
    serve_sub = serve_p.add_subparsers(dest="serve_command", required=True)

    serve_start = serve_sub.add_parser(
        "start", help="run the serving daemon in the foreground")
    serve_start.add_argument("--spec", action="append", default=None,
                             metavar="NAME|FILE",
                             help="serving spec (repeatable; default: nominal)")
    serve_start.add_argument("--store", default="results/char", metavar="DIR",
                             help="characterization store directory")
    serve_start.add_argument("--socket", default="results/serve.sock",
                             metavar="PATH", help="unix socket to listen on")
    serve_start.add_argument("--port", type=int, default=None, metavar="N",
                             help="also listen on localhost TCP port N")
    serve_start.add_argument("--jobs", type=int, default=1, metavar="J",
                             help="worker processes per backfill build")
    serve_start.add_argument("--max-inflight", type=int, default=64,
                             metavar="N", help="concurrent query budget "
                             "(past it: structured overload rejection)")
    serve_start.add_argument("--backfill-depth", type=int, default=256,
                             metavar="N", help="pending backfill point budget")
    serve_start.add_argument("--coalesce-s", type=float, default=0.05,
                             metavar="F", help="miss-coalescing window (s)")
    serve_start.add_argument("--timeout-s", type=float, default=120.0,
                             metavar="F", help="per-request budget (s)")
    serve_start.add_argument("--drain-grace-s", type=float, default=30.0,
                             metavar="F", help="graceful shutdown budget (s)")
    serve_start.add_argument("--verify-fraction", type=float, default=0.0,
                             metavar="F", help="sample-audit fraction for "
                             "backfill builds")
    serve_start.add_argument("--metrics-out", metavar="PATH", default=None,
                             help="write the final metrics snapshot to PATH "
                             "(JSON; a .prom sibling is written too)")
    serve_start.add_argument("--trace-dir", metavar="DIR", default=None,
                             help="stream backfill-build span trees into DIR")
    serve_start.add_argument("--workers", type=int, default=1, metavar="N",
                             help="shard the keyspace over N daemon workers "
                             "behind one routing front (default: 1, no fleet)")
    serve_start.add_argument("--http-port", type=int, default=None,
                             metavar="N", help="also expose the front over "
                             "HTTP/1.1 on localhost port N (/v1/query, "
                             "/v1/status, /metrics)")
    serve_start.add_argument("--shard-index", type=int, default=None,
                             help=argparse.SUPPRESS)  # fleet-internal: run as
    # shard i of --workers, deriving the shard address from the front's
    # --socket/--port base (also how an operator restarts a dead shard).
    serve_start.add_argument("--synthetic-service-s", type=float, default=0.0,
                             metavar="F", help="benchmark calibration: block "
                             "F seconds per query (keep 0 in production)")

    for verb, verb_help in (
        ("status", "coverage, backfill queue, and request counters"),
        ("query", "one metric query against a running daemon"),
    ):
        verb_p = serve_sub.add_parser(verb, help=verb_help)
        verb_p.add_argument("--socket", default="results/serve.sock",
                            metavar="PATH", help="daemon unix socket")
        verb_p.add_argument("--port", type=int, default=None, metavar="N",
                            help="connect via localhost TCP instead")
        verb_p.add_argument("--timeout-s", type=float, default=120.0,
                            metavar="F", help="client-side timeout (s)")
        verb_p.add_argument("--json", action="store_true",
                            help="print the raw response as JSON")
        if verb == "query":
            verb_p.add_argument("metric")
            verb_p.add_argument("--design", required=True)
            verb_p.add_argument("--vdd", type=float, required=True)
            verb_p.add_argument("--beta", type=float, default=None)
            verb_p.add_argument("--corner", default="tt")
            verb_p.add_argument("--method", default="auto",
                                choices=("auto", "linear", "cubic", "nearest"))

    bench_p = sub.add_parser(
        "bench", help="record and check benchmark headline history")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    for verb, verb_help in (
        ("history", "record fresh BENCH_*.json results and print the history"),
        ("check", "same, then exit non-zero on any regression (CI gate)"),
    ):
        verb_p = bench_sub.add_parser(verb, help=verb_help)
        verb_p.add_argument("--history", default="results/bench_history.jsonl",
                            metavar="PATH", help="history log location")
        verb_p.add_argument("--root", default=".", metavar="DIR",
                            help="directory scanned for BENCH_*.json")
        verb_p.add_argument("--tolerance", type=float, default=0.25, metavar="F",
                            help="allowed fractional drop below the baseline "
                            "median for higher-is-better metrics")

    args = parser.parse_args(argv)
    handlers = {
        "device-info": _cmd_device_info,
        "cell": _cmd_cell,
        "experiment": _cmd_experiment,
        "char": _cmd_char,
        "array": _cmd_array,
        "netlist": _cmd_netlist,
        "diag": _cmd_diag,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
