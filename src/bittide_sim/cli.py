"""Command-line entry points.

Subcommands: run, analyze, verify, plotdata, gen-topology.  Traces are CSV
(streamable, diffable), reports are JSON, plot data is labeled text series.
All numeric output uses 17 significant digits, so files round-trip doubles
exactly and repeated runs on the same config are byte-identical.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import floatfmt, verify as verify_mod
from .config import ConfigError, config_to_dict, parse_config
from .dynamics import run
from .framesim import fault_report, run_discrete
from .graph import MAX_NODES, TopologyError, generate_topology
from .spectral import SpectralError, predict_beta_ss, predict_omega_ss

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write(path: Path, data: str | bytes | bytearray):
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        path.write_text(data, encoding="utf-8")
    else:
        path.write_bytes(data)


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) and a newline, byte for byte.
    The indented encoder is pure Python and takes several steps per value;
    here a scalar takes one, and a list of floats is joined in one call."""
    return _json_value(obj, "\n") + "\n"


_json_str = json.encoder.encode_basestring_ascii


def _json_value(obj, newline: str) -> str:
    """obj as the indented encoder writes it at the indent after `newline`."""
    kind = type(obj)
    if kind is str:
        return _json_str(obj)
    if kind is float and obj - obj == 0:    # finite: nan and inf are words
        return float.__repr__(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = newline + "  "
    if (kind is list or kind is tuple) and obj:
        try:
            text = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:                   # not all floats
            text = None
        if text is None or "n" in text:     # or not all finite
            text = ("," + inner).join(_json_value(v, inner) for v in obj)
        return "[" + inner + text + newline + "]"
    if kind is dict and obj and all(type(k) is str for k in obj):
        return "{" + inner + ("," + inner).join(
            _json_str(k) + ": " + _json_value(v, inner)
            for k, v in sorted(obj.items())) + newline + "}"
    # empty containers, subclasses, nan, inf and keys the encoder converts:
    # the encoder's own text, indented to this level
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


def trace_csv(trace) -> bytearray:
    """The trace as CSV in one bytes buffer.  `floatfmt` formats the numbers
    as b"%.17g" does (so as _fmt does), a chunk of rows at a time, with the
    mode's cell put in each row.  Each chunk's omega, c and beta come from
    `trace.rows`, so a trace that derives them forms only that chunk."""
    times = trace.times
    n, m = trace.correction.shape[1], trace.m
    header = (["t", "mode"]
              + [f"omega_{i}" for i in range(1, n + 1)]
              + [f"c_{i}" for i in range(1, n + 1)]
              + [f"beta_{j}" for j in range(1, m + 1)])
    out = bytearray(",".join(header).encode() + b"\n")
    cols = 2 + 2 * n + m
    seps = np.full(cols, ord(","), dtype=np.uint8)
    seps[-1] = ord("\n")
    names, codes = np.unique(np.asarray(trace.mode, dtype=str),
                             return_inverse=True)
    mode_cells = floatfmt.text_cells([name.encode() for name in names])
    for rows in floatfmt.row_chunks(len(times), cols):
        cells = floatfmt.cells(np.hstack((
            times[rows, None], np.zeros((rows.stop - rows.start, 1)),  # mode
            *trace.rows(rows))), seps)
        cells[:, 1, :floatfmt.SEP] = mode_cells[codes[rows]]
        out += floatfmt.join(cells)
    return out


class TraceError(ValueError):
    """A trace file that `read_trace_csv` cannot read: the message names the
    file and the line."""


def read_trace_csv(path):
    """(times, modes, omega, correction, occupancy) of a `trace.csv` file.
    A file that is not UTF-8 or has no header, or a row whose cell count is
    not the header's or whose number does not parse, raises TraceError."""
    data = Path(path).read_bytes()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TraceError(f"{path}, line {line}: not UTF-8") from None
    if not lines:
        raise TraceError(f"{path}: no header")
    header = lines[0].split(",")
    n = sum(c.startswith("omega_") for c in header)
    m = sum(c.startswith("beta_") for c in header)
    times, modes, omega, corr, beta = [], [], [], [], []
    for number, line in enumerate(lines[1:], 2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise TraceError(f"{path}, line {number}: {len(cells)} cells, "
                             f"the header has {len(header)}")
        try:
            times.append(float(cells[0]))
            omega.append([float(x) for x in cells[2:2 + n]])
            corr.append([float(x) for x in cells[2 + n:2 + 2 * n]])
            beta.append([float(x) for x in cells[2 + 2 * n:2 + 2 * n + m]])
        except ValueError as exc:
            raise TraceError(f"{path}, line {number}: {exc}") from None
        modes.append(cells[1])
    shape = (len(times), n) if times else (0, n)
    bshape = (len(times), m) if times else (0, m)
    return (np.array(times), modes, np.array(omega).reshape(shape),
            np.array(corr).reshape(shape), np.array(beta).reshape(bshape))


def cmd_run(cfg, out_dir: Path) -> int:
    discrete = cfg.discrete.enabled
    summary = {"mode": "discrete" if discrete else "continuous",
               "config": config_to_dict(cfg)}
    system = cfg.system()
    params = system.params
    summary["predicted"] = {
        "omega_ss": [float(v) for v in predict_omega_ss(system.sd, params)],
        "beta_ss_pre_reframe": [float(v) for v in
                                predict_beta_ss(system.sd, system.clm, params)],
        "beta_ss_post_reframe": [float(v) for v in params.beta_off]
        if cfg.controller == "reframing" else None,
    }

    if discrete:
        trace = run_discrete(cfg.discrete_scenario(system))
        faults = [asdict(f) for f in fault_report(trace)]
        summary["faults"] = faults
        summary["aborted"] = trace.aborted
        fault_lines = ["edge,t,direction,occupancy"] + [
            f"{f['edge']},{_fmt(f['t'])},{f['direction']},{f['occupancy']}"
            for f in faults]
        _write(out_dir / "faults.csv", "\n".join(fault_lines) + "\n")
    else:
        trace = run(system, schedule=cfg.schedule(),
                    settings=cfg.continuous_settings(system))
    csv_bytes = trace_csv(trace)

    omega, correction, beta = trace.rows(slice(-1, None))
    summary["simulated"] = {
        "reframe_time": trace.reframe_time,
        "reframe_payload": [float(v) for v in trace.reframe_payload]
        if getattr(trace, "reframe_payload", None) is not None else None,
        "terminal_omega": [float(v) for v in omega[0]],
        "terminal_correction": [float(v) for v in correction[0]],
        "terminal_beta": [float(v) for v in beta[0]],
        "samples": len(trace.times),
    }
    _write(out_dir / "trace.csv", csv_bytes)
    _write(out_dir / "summary.json", _json_text(summary))
    print(f"wrote {out_dir / 'trace.csv'} ({len(trace.times)} samples)")
    if discrete and (summary["faults"] or trace.aborted):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_analyze(cfg, out_dir: Path) -> int:
    system = cfg.system()
    params, clm, sd = system.params, system.clm, system.sd
    eigs = sorted(sd.eigenvalues, key=lambda v: (v.real, v.imag))
    report = {
        "n": system.topology.n,
        "m": system.topology.m,
        "z": [float(v) for v in sd.z],
        "eigenvalues": [{"re": float(v.real), "im": float(v.imag)}
                        for v in eigs],
        "decay_rate": sd.decay_rate(),
        "recommended_horizon": sd.horizon(),
        "omega_ss": [float(v) for v in predict_omega_ss(sd, params)],
        "beta_ss_pre_reframe": [float(v) for v in predict_beta_ss(sd, clm, params)],
        "beta_off": [float(v) for v in params.beta_off],
    }
    text = _json_text(report)
    _write(out_dir / "analysis.json", text)
    print(text, end="")
    return EXIT_OK


def _verify_flag_error(args) -> str | None:
    """The error of the first out-of-range `verify` flag, or None."""
    for flag in ("count", "infeasible", "seed"):   # numpy refuses a seed < 0
        value = getattr(args, flag)
        if value is not None and value < 0:
            return f"--{flag} must be at least 0, got {value}"
    if args.n_min < 2:
        return f"--n-min must be at least 2, got {args.n_min}"
    if args.n_max < args.n_min:
        return (f"--n-max must be at least --n-min {args.n_min}, got "
                f"{args.n_max}")
    if args.n_max > MAX_NODES:
        return f"--n-max must be at most {MAX_NODES}, got {args.n_max}"
    return None


def cmd_verify(args, out_dir: Path) -> int:
    error = _verify_flag_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    report = verify_mod.run_battery(count=args.count, seed=args.seed,
                                    n_range=(args.n_min, args.n_max),
                                    infeasible_count=args.infeasible)
    _write(out_dir / "battery.json", _json_text(report))
    for name, stats in report["summary"]["checks"].items():
        worst = stats["worst_residual"]
        print(f"{name}: {stats['statuses']}"
              + (f" worst residual {worst:.3e}" if worst is not None else ""))
    print(f"negative controls uncentered: "
          f"{report['summary']['uncentered_negative_controls']}")
    print(f"non-diagonalizable case: {report['summary']['non_diagonalizable']}")
    print("all pass" if report["all_pass"] else "FAILURES (see battery.json)")
    return EXIT_OK if report["all_pass"] else EXIT_CHECK_FAILED


def cmd_plotdata(trace_path, quantity: str, cfg, out_path: Path | None) -> int:
    times, modes, omega, correction, occupancy = read_trace_csv(trace_path)
    chunks = []
    if quantity == "omega":
        series, label = omega, "omega node"
    else:
        if cfg is None:
            print("error: beta-rel needs --config to recover beta_off",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        beta_off = cfg.system().params.beta_off
        if occupancy.shape[1] != len(beta_off):
            print("error: trace and config disagree on edge count",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        series, label = occupancy - beta_off, "beta-rel edge"
    seps = np.frombuffer(b" \n", dtype=np.uint8)
    for j in range(series.shape[1]):
        lines = floatfmt.join(floatfmt.cells(
            np.column_stack((times, series[:, j])), seps))
        # a block ends without its last newline, which the join restores
        chunks.append((f"# {label}={j + 1}\n".encode() + lines)[:-1].decode())
    for i in range(1, len(modes)):
        if modes[i] != modes[i - 1] and times[i] == times[i - 1]:
            chunks.append(f"# reframe t={_fmt(times[i])}\n{_fmt(times[i])} 0")
            break
    text = "\n\n".join(chunks) + ("\n" if chunks else "")
    if out_path is None:
        print(text, end="")
    else:
        _write(out_path, text)
        print(f"wrote {out_path}")
    return EXIT_OK


def cmd_gen_topology(args, out_path: Path | None) -> int:
    topology = generate_topology(args.kind, args.n, seed=args.seed,
                                 extra_edge_fraction=args.extra_edge_fraction)
    doc = {"topology": {"n": topology.n,
                        "edges": [list(e) for e in topology.edges]}}
    text = _json_text(doc)
    if out_path is None:
        print(text, end="")
    else:
        _write(out_path, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bittide-sim",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, config_required=True):
        sp.add_argument("--config", required=config_required,
                        help="scenario config JSON")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--strict", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="reject unknown config keys (default on)")

    sp = sub.add_parser("run", help="simulate a scenario, write trace + summary")
    add_common(sp)
    sp.add_argument("--discrete", action="store_true",
                    help="force frame-accurate discrete mode")
    sp.add_argument("--continue-on-fault", action="store_true",
                    help="record buffer faults instead of aborting")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the config seed")

    sp = sub.add_parser("analyze", help="spectral report, no simulation")
    add_common(sp)

    sp = sub.add_parser("verify", help="run the convergence-check battery")
    sp.add_argument("--out", default="out")
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-min", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=8)
    sp.add_argument("--infeasible", type=int, default=None,
                    help="number of infeasible negative controls")

    sp = sub.add_parser("plotdata", help="labeled (t, value) series from a trace")
    sp.add_argument("trace", help="trace CSV produced by run")
    sp.add_argument("--quantity", choices=["omega", "beta-rel"],
                    default="omega")
    sp.add_argument("--config", default=None,
                    help="config file (needed for beta-rel)")
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.add_argument("--strict", action=argparse.BooleanOptionalAction,
                    default=True)

    sp = sub.add_parser("gen-topology", help="emit a generated topology as JSON")
    sp.add_argument("--kind", required=True,
                    choices=["ring", "bidirectional-ring", "complete",
                             "random-strong"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--extra-edge-fraction", type=float, default=0.0)
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    return p


def _apply_overrides(cfg, args):
    if getattr(args, "discrete", False):
        cfg = replace(cfg, discrete=replace(cfg.discrete, enabled=True))
    if getattr(args, "continue_on_fault", False):
        cfg = replace(cfg, discrete=replace(cfg.discrete,
                                            continue_on_fault=True))
    if getattr(args, "seed", None) is not None:
        # a new topology seed makes the parsed topology stale
        cfg = replace(cfg, seed=args.seed,
                      topology_seed=args.seed if cfg.topology_kind else
                      cfg.topology_seed, parsed_topology=None)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-topology":
            return cmd_gen_topology(args, Path(args.out) if args.out else None)
        if args.command == "verify":
            return cmd_verify(args, Path(args.out))
        if args.command == "plotdata":
            cfg = (parse_config(args.config, strict=args.strict)
                   if args.config else None)
            return cmd_plotdata(args.trace, args.quantity, cfg,
                                Path(args.out) if args.out else None)
        cfg = parse_config(args.config, strict=args.strict)
        cfg = _apply_overrides(cfg, args)
        if args.command == "run":
            return cmd_run(cfg, Path(args.out))
        if args.command == "analyze":
            return cmd_analyze(cfg, Path(args.out))
    except (ConfigError, TopologyError, SpectralError, TraceError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
