"""Command line entry point for experiments and point utilities.

Exit codes: 0 all requested checks passed, 1 some suite failed or
`reduce` did not converge, 2 usage or configuration error (including
non-finite point entries and malformed sequence or config documents).
The TUBE_SEED environment variable overrides config seeds when set;
--json switches stdout to the machine-readable encoding.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import serialize
from .geometry import DomainError, tube_mask
from .psh import moment_map, phi
from .quotient import gram_map, gram_rank
from .reduction import orbit_minimize
from .boundary import boundary_scan, normal_form
from .suites import ExperimentConfig, SUITE_NAMES, run_suite

USAGE_ERROR = 2
SUITE_FAILURE = 1


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _env_seed():
    raw = os.environ.get("TUBE_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"TUBE_SEED must be an integer, got {raw!r}") from exc


def _emit(payload, as_json, text_lines):
    if as_json:
        print(serialize.canonical_dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _summary(name, report):
    agg = report.aggregate
    return (
        f"{name}: {report.verdict} "
        f"(pass {agg['pass_count']}, fail {agg['fail_count']}, "
        f"inconclusive {agg['inconclusive_count']}, {report.wall_time:.2f}s)"
    )


def _cmd_run(args):
    doc = _load_json(args.config)
    cfg = ExperimentConfig.from_dict(doc)
    env = _env_seed()
    if env is not None:
        cfg.seed = env
    report = run_suite(cfg)
    _emit(serialize.jsonable(report), args.json, [_summary(cfg.suite, report)])
    return 0 if report.verdict == "pass" else SUITE_FAILURE


def _cmd_run_all(args):
    env = _env_seed()
    seed = args.seed if env is None else env
    worst = 0
    payloads = {}
    for name in SUITE_NAMES:
        cfg = ExperimentConfig(suite=name, seed=seed)
        if args.output_dir:
            os.makedirs(args.output_dir, exist_ok=True)
            cfg.output_path = os.path.join(args.output_dir, f"{name}.json")
        report = run_suite(cfg)
        payloads[name] = serialize.jsonable(report)
        if report.verdict != "pass":
            worst = SUITE_FAILURE
        if not args.json:
            print(_summary(name, report))
    if args.json:
        print(serialize.canonical_dumps(payloads))
    return worst


def _read_point(path):
    return serialize.parse_point(_load_json(path))


def _cmd_phi(args):
    Z = _read_point(args.point)
    value = float(phi(Z))
    _emit({"phi": value}, args.json, [f"phi = {value!r}"])
    return 0


def _cmd_moment(args):
    Z = _read_point(args.point)
    m = [float(x) for x in moment_map(Z)]
    norm = float(np.linalg.norm(m))
    _emit(
        {"moment": m, "norm": norm},
        args.json,
        [f"moment = {m!r}", f"norm = {norm!r}"],
    )
    return 0


def _cmd_reduce(args):
    Z = _read_point(args.point)
    r = orbit_minimize(Z)
    payload = {
        "phi_min": r.phi_min,
        "moment_norm": r.moment_norm,
        "converged": r.converged,
        "iterations": r.iterations,
        "reduced_point": serialize.jsonable(r.reduced_point),
    }
    _emit(
        payload,
        args.json,
        [
            f"phi_min = {r.phi_min!r}",
            f"moment_norm = {r.moment_norm!r}",
            f"converged = {r.converged} in {r.iterations} iterations",
        ],
    )
    return 0 if r.converged else SUITE_FAILURE


def _cmd_gram(args):
    Z = _read_point(args.point)
    Gm = gram_map(Z)
    payload = {
        "gram": serialize.jsonable(Gm),
        "rank": gram_rank(Gm),
        "in_tube": bool(tube_mask(Z)),
    }
    _emit(
        payload,
        args.json,
        [f"gram = {serialize.jsonable(Gm)!r}", f"rank = {payload['rank']}"],
    )
    return 0


def _cmd_normal_form(args):
    Z = _read_point(args.point)
    if Z.shape[0] != 1:
        raise ValueError("normal-form expects a single matrix point")
    nf = normal_form(Z)
    r = float(nf.r[0])
    payload = {
        "u": serialize.jsonable(nf.u[0]),
        "r": r,
        "X": serialize.jsonable(nf.X[0]),
    }
    _emit(
        payload,
        args.json,
        [f"u = {payload['u']!r}", f"r = {r!r}", f"X = {payload['X']!r}"],
    )
    return 0


def _cmd_scan(args):
    doc = _load_json(args.sequence)
    rep = boundary_scan(doc)
    payload = serialize.jsonable(rep)
    lines = [
        f"points = {len(rep.records)}",
        f"gram_converged = {rep.gram_converged}",
        f"weak_exhaustion = {rep.weak_exhaustion} (applicable {rep.weak_exhaustion_applicable})",
        f"mod_real_exhaustion = {rep.mod_real_exhaustion} (applicable {rep.mod_real_applicable})",
    ]
    _emit(payload, args.json, lines)
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="futuretube",
        description="Seeded verification experiments on the future tube",
    )
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    sub = p.add_subparsers(dest="command")

    q = sub.add_parser("run", help="run one suite from a config file")
    q.add_argument("config")
    q.set_defaults(fn=_cmd_run)

    q = sub.add_parser("run-all", help="run every suite with defaults")
    q.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    q.add_argument("--output-dir", default=None)
    q.set_defaults(fn=_cmd_run_all)

    for name, fn, arg in [
        ("phi", _cmd_phi, "point"),
        ("moment", _cmd_moment, "point"),
        ("reduce", _cmd_reduce, "point"),
        ("gram", _cmd_gram, "point"),
        ("normal-form", _cmd_normal_form, "point"),
        ("scan", _cmd_scan, "sequence"),
    ]:
        q = sub.add_parser(name)
        q.add_argument(arg)
        q.set_defaults(fn=fn)
    return p


def cli_entry(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return USAGE_ERROR if exc.code not in (0, None) else 0
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except (ValueError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main():
    raise SystemExit(cli_entry())


if __name__ == "__main__":
    main()
