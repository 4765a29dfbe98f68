"""Seeded verification suites and their deterministic reports.

Every suite draws each sample from its own stream keyed by
(seed, suite name, sample index), so records are independent of
evaluation order and a fixed config reproduces a byte-identical report
body (wall time excluded).  A per-sample suite takes its samples in
chunks: it draws the normals of a chunk's samples as one block and
stages them, doing all their numerical work in one stacked call per
kernel and returning one record per sample.
The registry is closed; adding a suite is a code change recorded in the
artifact version.
"""

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import serialize
from .rng import Block
from .geometry import (
    IDENTITY,
    det2,
    det_im,
    from_matrix,
    lorentz_product,
    sample_four_vector,
    sample_tube_matrix,
    sample_tube_point,
    to_matrix,
)
from .actions import (
    _dots,
    act_real,
    adj2,
    adjoint,
    apply_J,
    exp_algebra,
    full_tangent_basis,
    orbit_fields,
    sample_algebra,
    sample_sl2,
    sample_su2,
)
from .psh import (
    directional_derivative,
    flow_monotonicity,
    levi_form,
    levi_form_phi,
    moment_map,
    phi,
)
from .quotient import gram_map, gram_rank, kempf_ness_minimize_all, saturation_probe_all
from .reduction import (
    critical_iff_moment_zero,
    lagrangian_check,
    orbit_minimize_all,
    section_levi_identity,
)
from .boundary import ScanOptions, boundary_scan, normal_form, triangular_bounds_check

__all__ = [
    "ARTIFACT_VERSION",
    "SUITE_NAMES",
    "ExperimentConfig",
    "ExperimentReport",
    "run_suite",
    "report_body_bytes",
]

ARTIFACT_VERSION = "0.4.0"


@dataclass
class ExperimentConfig:
    suite: str
    seed: int = 7
    n: int | None = None
    samples: int | None = None
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict) or "suite" not in doc:
            raise ValueError("config must be a mapping with a 'suite' name")
        known = {"suite", "seed", "n", "samples", "tolerances", "output_path"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def resolve(self):
        """(n, samples, tolerances) with defaults; malformed fields raise ValueError."""
        if not isinstance(self.suite, str) or self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        entry = SUITES[self.suite]
        serialize.integer("seed", self.seed)
        n = entry.default_n if self.n is None else serialize.integer("n", self.n)
        samples = entry.default_samples if self.samples is None else serialize.integer("samples", self.samples)
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if n < 1:
            raise ValueError("n must be >= 1")
        overrides = self.tolerances or {}
        if not isinstance(overrides, dict):
            raise ValueError("tolerances must be a mapping of names to numbers")
        tol = dict(entry.tolerances)
        for k, v in overrides.items():
            if k not in tol:
                raise ValueError(f"unknown tolerance override {k!r} for suite {self.suite}")
            tol[k] = serialize.number(f"tolerance {k!r}", v)
            if tol[k] < 0.0:
                raise ValueError(f"tolerance {k!r} must be >= 0, got {v!r}")
        if self.output_path is not None and not isinstance(self.output_path, (str, os.PathLike)):
            raise ValueError(f"output_path must be a path string, got {self.output_path!r}")
        if self.output_path is not None:
            if not os.fspath(self.output_path):
                raise ValueError("output_path must not be empty")
            # checked here, so that a report that cannot be written fails
            # before its suite runs, not after
            folder = os.path.dirname(os.fspath(self.output_path)) or os.curdir
            if not os.path.isdir(folder):
                raise ValueError(f"output_path directory {folder!r} does not exist")
        return n, samples, tol


@dataclass
class ExperimentReport:
    config: dict
    records: list
    aggregate: dict  # pass/fail/inconclusive counts and wall_time
    verdict: str
    artifact_version: str

    @property
    def wall_time(self):
        return self.aggregate["wall_time"]


def report_body_bytes(report):
    """Canonical bytes of the report without the wall time."""
    agg = {k: v for k, v in report.aggregate.items() if k != "wall_time"}
    body = {
        "config": report.config,
        "records": report.records,
        "aggregate": agg,
        "verdict": report.verdict,
        "artifact_version": report.artifact_version,
    }
    return serialize.canonical_bytes(body)


@dataclass
class _SuiteEntry:
    runner: object
    default_samples: int
    default_n: int
    tolerances: dict


def _verdict(ok):
    return "pass" if ok else "fail"


# samples staged at a time, and so the one bound on a block of normals;
# at least every solver suite's default sample count, so that those take
# one stage call
_CHUNK = 32


@dataclass(frozen=True)
class _EachSample:
    """Runner of a suite whose records are one per sample.

    This is the one loop over samples and the one place that keys
    streams: sample i reads the first draws(n) normals of
    stream_for(seed, name, i).  The samples go through in chunks of at
    most _CHUNK, and each chunk in two steps: its normals are drawn as
    one Block, then its samples are staged.  draw(rng, n) returns the
    tuple of inputs that need no rejection sampling, read in stream
    order; on the Block it gives them for every sample of the chunk at
    once, stacked along a leading axis.  stage(index, inputs, rngs, n,
    tol) gets the range index of the chunk's sample indices, their
    stacked inputs and their RowStreams, which go on where draw stopped;
    it makes each sample's remaining reads, in stream order, does the
    chunk's numerical work in one stacked call per kernel, and returns
    one record per sample.  Only one chunk's inputs and RowStreams are
    alive at a time.  On one scalar stream, the stage of a stack of one
    reads the same normals in the same order, and the runner gives the
    same records for every chunk size.  A record gets "index": i unless
    it carries its own index.  units(tol), when given, returns fixed
    records placed first.
    """

    name: str
    draws: Callable
    draw: Callable
    stage: Callable
    units: Callable | None = None

    def __call__(self, seed, n, samples, tol):
        records = self.units(tol) if self.units is not None else []
        for start in range(0, samples, _CHUNK):
            index = range(start, min(start + _CHUNK, samples))
            block = Block(seed, self.name, len(index), self.draws(n), start)
            inputs = self.draw(block, n)
            staged = self.stage(index, inputs, [block.row(k) for k in range(len(index))], n, tol)
            records.extend({"index": i, **record} for i, record in zip(index, staged))
        return records


def _tube_point(rng, n):
    return (sample_tube_point(rng, n),)


def _coordinate_draw(rng, n):
    return sample_four_vector(rng), sample_tube_matrix(rng)


def _coordinate_stage(index, inputs, rngs, n, tol):
    z, W = inputs
    eps = tol["det_identity"]
    Z = to_matrix(z)
    zz = lorentz_product(z, z)
    c_det = np.abs(det2(Z) - zz) <= eps * (1.0 + np.abs(zz))
    err = np.abs(from_matrix(Z) - z).max(axis=-1)
    c_round = err <= tol["roundtrip"] * (1.0 + np.abs(z).max(axis=-1))
    imzz = lorentz_product(z.imag, z.imag).real
    c_im = np.abs(det_im(Z) - imzz) <= eps * (1.0 + np.abs(imzz))
    c_bound = det_im(W) <= np.abs(det2(W)) + eps
    return [
        {
            "det_identity": d,
            "roundtrip": r,
            "im_identity": m,
            "det_im_bound": b,
            "verdict": _verdict(d and r and m and b),
        }
        for d, r, m, b in zip(c_det.tolist(), c_round.tolist(), c_im.tolist(), c_bound.tolist())
    ]


def _psh_levi_stage(index, inputs, rngs, n, tol):
    (Z,) = inputs
    basis = full_tangent_basis(n)
    L = levi_form_phi(Z, basis)
    mineig = np.linalg.eigvalsh(L)[:, 0]
    g = np.stack([sample_sl2(rng) for rng in rngs])
    phi_g, phi_0 = phi(np.concatenate([act_real(g[:, None], Z), Z])).reshape(2, -1)
    inv_err = (np.abs(phi_g - phi_0) / phi_0).tolist()
    records = []
    for k, i in enumerate(index):
        ok = mineig[k] > 0.0 and inv_err[k] <= tol["invariance"]
        st = None
        # every tenth sample checks the analytic Levi form against the
        # stencil, with one Richardson step: the stencil along B/2 is the
        # stencil at h/2, scaled by 1/4 (halving B is exact)
        if i % 10 == 0:
            Lst = (16.0 * levi_form(phi, Z[k], basis / 2.0) - levi_form(phi, Z[k], basis)) / 3.0
            st = float(np.linalg.norm(L[k] - Lst) / np.linalg.norm(Lst))
            ok = ok and st <= tol["stencil_match"]
        records.append(
            {
                "min_eigenvalue": mineig[k],
                "invariance_rel_err": inv_err[k],
                "stencil_rel_err": st,
                "verdict": _verdict(bool(ok)),
            }
        )
    return records


def _moment_draw(rng, n):
    return sample_tube_point(rng, n), rng.matrix()


def _moment_stage(index, inputs, rngs, n, tol):
    Z, A = inputs
    m = moment_map(Z)
    fd = directional_derivative(phi, Z, apply_J(orbit_fields(Z)))
    worst = np.max(np.abs(m - fd) / (1.0 + np.abs(fd)), axis=-1)
    iP = 1j * (A @ A.conj().swapaxes(-1, -2) + 0.2 * IDENTITY)
    m_ip = moment_map(iP[:, None])
    zero_norm = np.sqrt(_dots(m_ip, m_ip))
    # each sample draws g, then xi
    g, xi = (np.stack(a) for a in zip(*[(sample_sl2(rng), sample_algebra(rng)) for rng in rngs]))
    lhs = _dots(moment_map(act_real(g[:, None], Z)), xi)
    rhs = _dots(m, adjoint(adj2(g), xi))
    equi = np.abs(lhs - rhs) / (1.0 + np.abs(lhs))
    return [
        {
            "fd_rel_err": w,
            "ip_moment_norm": z,
            "equivariance_err": e,
            "verdict": _verdict(
                w <= tol["fd_match"] and z <= tol["ip_zero"] and e <= tol["equivariance"]
            ),
        }
        for w, z, e in zip(worst.tolist(), zero_norm.tolist(), equi.tolist())
    ]


def _flow_draw(rng, n):
    return sample_tube_point(rng, n), sample_algebra(rng)


def _flow_stage(index, inputs, rngs, n, tol):
    Z, xi = inputs
    xi = xi / np.sqrt(_dots(xi, xi))[:, None]
    return [
        {
            "kept": len(rep.values),
            "truncated_at": rep.truncated_at,
            "nondecreasing": rep.nondecreasing,
            "strict_when_moving": rep.strict_when_moving,
            "verdict": _verdict(
                bool(rep.nondecreasing and rep.strict_when_moving and len(rep.values) >= 2)
            ),
        }
        for rep in flow_monotonicity(xi, Z, t_max=0.25, steps=25, slack=tol["slack"])
    ]


def _reduce_stage(index, inputs, rngs, n, tol):
    # both starts of every sample, Z and a real translate g Z, in one solve
    (Z,) = inputs
    g = np.stack([sample_sl2(rng) for rng in rngs])
    rs = orbit_minimize_all(np.concatenate([Z, act_real(g[:, None], Z)]), tol["moment_tol"])
    records = []
    for Z0, r0, r1 in zip(Z, rs[: len(Z)], rs[len(Z) :]):
        diff = abs(r0.phi_min - r1.phi_min)
        lower = float(np.sum(1.0 / np.abs(det2(Z0))))
        ok = (
            r0.converged
            and r1.converged
            and diff <= tol["translate_agreement"]
            and r0.phi_min >= lower - 1e-9
            and r0.phi_min <= phi(Z0) + 1e-9
        )
        records.append(
            {
                "converged": bool(r0.converged and r1.converged),
                "phi_min": r0.phi_min,
                "translate_diff": diff,
                "lower_bound": lower,
                "moment_norm": r0.moment_norm,
                "verdict": _verdict(bool(ok)),
            }
        )
    return records


def _levi_record(index, n, base, tol):
    rep = section_levi_identity(base, dev_tol=tol["deviation"], eig_tol=tol["min_eig"])
    return {
        "index": index,
        "n": n,
        "deviation": rep.deviation,
        "min_eigenvalue": rep.min_eigenvalue,
        "verdict": _verdict(rep.passed),
    }


def _levi_unit(tol):
    return [_levi_record(0, 1, np.stack([1j * IDENTITY]), tol)]


def _reduce_bases(Z):
    # every base point reduced in one solve; the tight tolerance keeps the
    # spurious sixth field direction well under lagrangian's rank tolerance
    return orbit_minimize_all(Z, 1e-10)


def _levi_identity_stage(index, inputs, rngs, n, tol):
    # the unit record holds index 0, so sample i is record i + 1
    (Z,) = inputs
    records = []
    for i, rr in zip(index, _reduce_bases(Z)):
        if rr.converged:
            records.append(_levi_record(i + 1, n, rr.reduced_point, tol))
        else:
            records.append(
                {"index": i + 1, "n": n, "deviation": None, "min_eigenvalue": None, "verdict": "fail"}
            )
    return records


def _lagrangian_stage(index, inputs, rngs, n, tol):
    (Z,) = inputs
    fields = ("max_omega", "orbit_dim", "complex_orbit_dim", "normal_hessian_positive")
    records = []
    for Z0, rr in zip(Z, _reduce_bases(Z)):
        if not rr.converged:
            records.append({**dict.fromkeys(fields, None), "verdict": "fail"})
            continue
        lag = lagrangian_check(rr, tol=tol["omega_tol"])
        crit = critical_iff_moment_zero(rr.reduced_point)
        away = critical_iff_moment_zero(Z0)
        ok = lag.passed and lag.normal_hessian_positive and crit.consistent and away.consistent
        records.append({**{k: getattr(lag, k) for k in fields}, "verdict": _verdict(bool(ok))})
    return records


# index, point, expected classification and norm; a norm of None asks
# for a collapse below tol["collapse_norm"]
_KN_UNITS = (
    ("unit-diag21", np.diag([2.0, 1.0]).astype(complex), "closed", 4.0),
    ("unit-nilpotent", np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), "non_closed", None),
    ("unit-identity", 1j * IDENTITY, "closed", 2.0),
)


def _kn_units(tol):
    out = []
    rs = kempf_ness_minimize_all(np.stack([Z for _, Z, _, _ in _KN_UNITS])[:, None])
    for (index, _, expect, norm_sq), r in zip(_KN_UNITS, rs):
        if norm_sq is None:
            norm_ok = r.achieved_norm_sq <= tol["collapse_norm"]
        else:
            norm_ok = abs(r.achieved_norm_sq - norm_sq) <= tol["unit_norm"]
        out.append(
            {
                "index": index,
                "classification": r.classification,
                "achieved_norm_sq": r.achieved_norm_sq,
                "verdict": _verdict(r.classification == expect and norm_ok),
            }
        )
    return out


def _kempf_ness_draw(rng, n):
    # max(n, 3) matrices, each as rng.matrix() draws it
    c = rng.complex_normals(4 * max(n, 3))
    return (c.reshape(c.shape[:-1] + (-1, 2, 2)),)


def _kempf_ness_stage(index, inputs, rngs, n, tol):
    (Z,) = inputs
    records = []
    for r, G in zip(kempf_ness_minimize_all(Z), gram_map(Z)):
        rank = gram_rank(G)
        verdict = "inconclusive"  # also on a non-generic draw, where the rank criterion does not apply
        if rank >= 3 and r.classification != "inconclusive":
            verdict = _verdict(r.classification == "closed")
        records.append(
            {
                "gram_rank": rank,
                "classification": r.classification,
                "gradient_norm": r.gradient_norm,
                "iterations": r.iterations,
                "verdict": verdict,
            }
        )
    return records


def _saturation_record(sp):
    return {
        "classification": sp.classification,
        "witness_kind": sp.witness_kind,
        "gram_distance": sp.gram_distance,
        "verdict": _verdict(sp.certified_in_extended_tube),
    }


def _saturation_unit(tol):
    shear = 0.5 * np.array([[0.0, 1.0], [0.0, 0.0]])
    deg = np.stack([1j * IDENTITY, 1j * IDENTITY + shear])
    return [{"index": "unit-degenerate", **_saturation_record(saturation_probe_all(deg[None])[0])}]


def _saturation_stage(index, inputs, rngs, n, tol):
    (Z,) = inputs
    return [_saturation_record(sp) for sp in saturation_probe_all(Z)]


def _normal_form_draw(rng, n):
    return (sample_tube_matrix(rng),)


def _normal_form_stage(index, inputs, rngs, n, tol):
    (W,) = inputs
    nf = normal_form(W)
    X = nf.X
    recon = np.abs(act_real(nf.group_element(), W) - X).max(axis=(-2, -1))
    # |.| of single entries as the scalar abs rounds it
    x_abs = np.hypot(X[:, 0, 0].real, X[:, 0, 0].imag)
    offdiag = np.hypot(X[:, 1, 0].real, X[:, 1, 0].imag)
    balance = np.abs(x_abs - np.hypot(X[:, 1, 1].real, X[:, 1, 1].imag)) / x_abs
    Xc = X.copy()
    Xc[:, 1, 0] = 0.0
    tb = triangular_bounds_check(Xc)
    u = np.stack([sample_su2(rng) for rng in rngs])
    star_conj = np.abs(act_real(u, W) - u @ W @ u.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bounds_ok = tb.strict_lower_ok & tb.det_upper_ok
    fields = (recon, offdiag, balance, bounds_ok, star_conj)
    return [
        {
            "reconstruction_err": rc,
            "offdiag": od,
            "balance_rel_err": bl,
            "bounds_ok": bd,
            "star_conjugation_err": sc,
            "verdict": _verdict(
                rc <= tol["reconstruction"]
                and od <= tol["offdiag"]
                and bl <= tol["balance"]
                and bd
                and sc <= tol["star_conjugation"]
            ),
        }
        for rc, od, bl, bd, sc in zip(*(f.tolist() for f in fields))
    ]


def _suite_boundary_weak(seed, n, samples, tol):
    # the curve i I / k in every component, k = 1 .. samples
    points = [np.stack([1j * IDENTITY * (1.0 / k)] * n) for k in range(1, samples + 1)]
    rep = boundary_scan(points, ScanOptions())
    records = []
    exact = True
    for r in rep.records:
        k = r.index + 1
        expect = n * float(k) ** 2
        ok = r.in_tube and abs(r.phi - expect) <= tol["phi_exact"] * expect and r.psi_converged
        exact = exact and ok
        records.append(
            {
                "index": r.index,
                "phi": r.phi,
                "psi": r.psi,
                "min_det_im": float(np.min(r.det_im)),
                "verdict": _verdict(bool(ok)),
            }
        )
    records.append(
        {
            "index": "verdict",
            "weak_exhaustion": rep.weak_exhaustion,
            "thresholds_crossed": {str(k): v for k, v in rep.thresholds_crossed.items()},
            "verdict": _verdict(bool(rep.weak_exhaustion and exact)),
        }
    )
    return records


def _mod_greal_stage(index, inputs, rngs, n, tol):
    # one scan per sample, over the 20 real translates exp(0.35 k e1) Z
    (Z,) = inputs
    g = np.stack([exp_algebra(np.eye(6)[0], 0.35 * k) for k in range(20)])[:, None]
    records = []
    for Z0, phi0 in zip(Z, phi(Z).tolist()):
        opts = ScanOptions(
            phi_bound=max(50.0, 2.0 * phi0),
            compact_bound=tol["compact_bound"],
            det_floor=tol["det_floor"],
        )
        rep = boundary_scan(list(act_real(g, Z0)), opts)
        # psi is invariant under the real group, so the 20 translates share it
        psis = [r.psi for r in rep.records if r.psi is not None]
        converged = len(psis) == len(rep.records) and all(r.psi_converged for r in rep.records)
        spread = (max(psis) - min(psis)) / min(psis) if psis else None
        ok = (
            rep.mod_real_applicable
            and rep.mod_real_exhaustion
            and converged
            and spread <= tol["psi_spread"]
        )
        records.append(
            {
                "gram_converged": rep.gram_converged,
                "phi_bounded": rep.phi_bounded,
                "raw_escapes": rep.raw_escapes,
                "compact": rep.compact_after_normalization,
                "psi_converged": converged,
                "psi_spread": spread,
                "verdict": _verdict(bool(ok)),
            }
        )
    return records


SUITES = {
    "coordinate-identities": _SuiteEntry(
        _EachSample("coordinate-identities", lambda n: 20, _coordinate_draw, _coordinate_stage),
        1000,
        1,
        {"det_identity": 1e-12, "roundtrip": 1e-12},
    ),
    "psh-levi": _SuiteEntry(
        _EachSample("psh-levi", lambda n: 12 * n + 8, _tube_point, _psh_levi_stage),
        40,
        2,
        {"invariance": 1e-10, "stencil_match": 1e-4},
    ),
    "moment-oracle": _SuiteEntry(
        _EachSample("moment-oracle", lambda n: 12 * n + 22, _moment_draw, _moment_stage),
        150,
        2,
        {"fd_match": 1e-6, "ip_zero": 1e-10, "equivariance": 1e-6},
    ),
    "flow-monotone": _SuiteEntry(
        _EachSample("flow-monotone", lambda n: 12 * n + 6, _flow_draw, _flow_stage),
        60,
        2,
        {"slack": 1e-9},
    ),
    "reduce-minimum": _SuiteEntry(
        _EachSample("reduce-minimum", lambda n: 12 * n + 8, _tube_point, _reduce_stage),
        15,
        2,
        {"moment_tol": 1e-8, "translate_agreement": 1e-5},
    ),
    "levi-identity": _SuiteEntry(
        _EachSample(
            "levi-identity", lambda n: 12 * n, _tube_point, _levi_identity_stage, units=_levi_unit
        ),
        1,
        2,
        {"deviation": 1e-3, "min_eig": 1e-6},
    ),
    "lagrangian": _SuiteEntry(
        _EachSample("lagrangian", lambda n: 12 * n, _tube_point, _lagrangian_stage),
        8,
        2,
        {"omega_tol": 1e-5},
    ),
    "kempf-ness": _SuiteEntry(
        _EachSample(
            "kempf-ness", lambda n: 8 * max(n, 3), _kempf_ness_draw, _kempf_ness_stage, units=_kn_units
        ),
        30,
        3,
        {"unit_norm": 1e-6, "collapse_norm": 1e-6},
    ),
    "saturation-probe": _SuiteEntry(
        _EachSample(
            "saturation-probe", lambda n: 12 * n, _tube_point, _saturation_stage, units=_saturation_unit
        ),
        8,
        2,
        {},
    ),
    "normal-form": _SuiteEntry(
        _EachSample("normal-form", lambda n: 16, _normal_form_draw, _normal_form_stage),
        300,
        1,
        {
            "reconstruction": 1e-9,
            "offdiag": 1e-10,
            "balance": 1e-8,
            "star_conjugation": 1e-12,
        },
    ),
    "boundary-weak-exhaustion": _SuiteEntry(
        _suite_boundary_weak, 40, 1, {"phi_exact": 1e-12}
    ),
    "boundary-mod-greal": _SuiteEntry(
        _EachSample("boundary-mod-greal", lambda n: 12 * n, _tube_point, _mod_greal_stage),
        3,
        2,
        {"compact_bound": 100.0, "det_floor": 1e-6, "psi_spread": 1e-8},
    ),
}

SUITE_NAMES = tuple(SUITES.keys())


def run_suite(cfg):
    """Execute one suite and return (optionally write) its report."""
    n, samples, tol = cfg.resolve()
    entry = SUITES[cfg.suite]
    t0 = time.perf_counter()
    records = entry.runner(cfg.seed, n, samples, tol)
    wall = time.perf_counter() - t0
    verdicts = [r.get("verdict") for r in records]
    passed, failed = verdicts.count("pass"), verdicts.count("fail")
    counts = {
        "pass_count": passed,
        "fail_count": failed,
        "inconclusive_count": len(verdicts) - passed - failed,
        "wall_time": wall,
    }
    report = ExperimentReport(
        config={
            "suite": cfg.suite,
            "seed": int(cfg.seed),
            "n": n,
            "samples": samples,
            "tolerances": tol,
        },
        records=records,
        aggregate=counts,
        verdict="pass" if counts["fail_count"] == 0 else "fail",
        artifact_version=ARTIFACT_VERSION,
    )
    if cfg.output_path:
        payload = serialize.jsonable(report)
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
