"""Experiment harness: declarative configs, a registry of named
experiments and verification suites, deterministic seeded reports, and
JSON/CSV serialization.

The experiments own their loops: the library modules compute single
quantities, and the bodies here draw the seeded inputs, call them, and
build the records (the ratio sweeps of ``suite:theorem6`` and
``suite:theorem8``, the approximation-number profiles of
``suite:weak-cotype2``, and the imbalance search of ``sidon``, which
reuses the interpolation constant the run has already solved).

Config schema (JSON object, all keys optional except ``experiment``):

``experiment``
    registry key, e.g. ``"volume"`` or ``"suite:horn"``;
``seed``
    integer master seed (default 0) — every random draw derives from it;
``output``
    path for the serialized report (``.json`` or ``.csv``).

Each experiment declares the parameters it reads, with their defaults
(``qnlab list`` shows them); ``run`` fills in the defaults and rejects a
set parameter that the experiment does not declare:

``spaces``
    list of space strings, in the grammar of :mod:`qnlab.spaces` (a
    kind's ``str`` is its string form);
``dim, samples, trials, budget``
    positive integers; these and ``seed`` reject booleans and fractional
    numbers instead of truncating them;
``tolerance, theta, p``
    floats (not booleans);
``group``
    group string, either comma factors ``"2,2,2"`` or ``"z2^3"``;
``characters``
    ``"coordinate"`` or ``"all"``.

Reports carry a schema version, the echoed config (the effective value of
every declared parameter), an observational flag
(observational suites emit trend data and assert no numeric threshold,
stated in the header), records, named verdicts, and a wallclock figure
that is excluded from the determinism payload.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import factorization, geometry, interpolation, randsigns, sidon, spaces
from .numkernel import DegenerateMatrixError, RandomSource, as_integer
from .spaces import OperatorSpec, Polytope, WeightedLp, parse_space

SCHEMA_VERSION = "1"


# --------------------------------------------------------------------------
# group grammar


def parse_group(text: str) -> sidon.FiniteAbelianGroup:
    """Group strings: ``"2,2,2"`` (factor list) or ``"z2^3"``."""
    t = text.strip().lower()
    if t.startswith("z2^"):
        return sidon.FiniteAbelianGroup((2,) * int(t[3:]))
    factors = tuple(int(v) for v in t.split(",") if v.strip() != "")
    return sidon.FiniteAbelianGroup(factors)


# --------------------------------------------------------------------------
# config and report


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run (see module docstring)."""

    experiment: str
    spaces: tuple[str, ...] = ()
    seed: int = 0
    dim: int | None = None
    samples: int | None = None
    trials: int | None = None
    budget: int | None = None
    tolerance: float | None = None
    theta: float | None = None
    p: float | None = None
    group: str | None = None
    characters: str | None = None
    output: str | None = None

    def __post_init__(self):
        if isinstance(self.spaces, str):  # tuple() would split it into characters
            raise ValueError(f"spaces must be a list of space strings, got {self.spaces!r}")
        object.__setattr__(self, "spaces", tuple(str(s) for s in self.spaces))
        object.__setattr__(self, "seed", as_integer("seed", self.seed))
        for name in ("dim", "samples", "trials", "budget"):
            value = getattr(self, name)
            if value is not None:
                if as_integer(name, value) < 1:
                    raise ValueError(f"{name} must be a positive integer, got {value}")
                object.__setattr__(self, name, int(value))
        for name in ("tolerance", "theta", "p"):
            value = getattr(self, name)
            if value is not None:
                if isinstance(value, (bool, np.bool_)):  # float(True) is 1.0
                    raise ValueError(f"{name} must be a number, got {value!r}")
                object.__setattr__(self, name, float(value))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["spaces"] = list(self.spaces)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in data:
            raise ValueError("config needs an 'experiment' key")
        return cls(**data)


def _json_safe(obj):
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    return str(obj)


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    config: ExperimentConfig
    observational: bool
    header: str
    records: tuple
    verdicts: tuple  # of {"name", "passed", "detail"}
    passed: bool | None  # None exactly for observational runs
    wallclock_seconds: float

    @property
    def exit_code(self) -> int:
        return 1 if self.passed is False else 0

    def payload(self) -> dict:
        """Deterministic content: everything except the wallclock.  The
        config echo leaves out the parameters the experiment does not take."""
        declared = _REGISTRY[self.experiment][3]
        config = {k: v for k, v in self.config.to_dict().items()
                  if k not in _PARAMETERS or k in declared}
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "config": config,
            "observational": self.observational,
            "header": self.header,
            "records": _json_safe(list(self.records)),
            "verdicts": _json_safe(list(self.verdicts)),
            "passed": self.passed,
        }

    def to_dict(self) -> dict:
        d = self.payload()
        d["wallclock_seconds"] = self.wallclock_seconds
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """Records flattened to CSV (union of record keys, sorted)."""
        rows = [_flatten_record(r) for r in _json_safe(list(self.records))]
        keys = sorted({k for row in rows for k in row})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()


def _flatten_record(record, prefix: str = "") -> dict:
    if isinstance(record, dict):
        flat = {}
        for k, v in record.items():
            inner = f"{prefix}{k}" if not prefix else f"{prefix}.{k}"
            flat.update(_flatten_record(v, inner))
        return flat
    if isinstance(record, list):
        return {prefix: json.dumps(record)}
    return {prefix: record}


def write_report(report: ExperimentReport, path: str) -> None:
    if path.endswith(".csv"):
        text = report.to_csv()
    else:
        text = report.to_json() + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --------------------------------------------------------------------------
# shared helpers for experiment bodies


def _verdict(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _root(config: ExperimentConfig) -> RandomSource:
    return RandomSource(config.seed)


def _running_max(records: list[dict], key: str) -> None:
    best = -math.inf
    for rec in records:
        best = max(best, rec[key])
        rec["trend_max"] = best


# --------------------------------------------------------------------------
# primary experiments


def _run_volume(config: ExperimentConfig):
    rng = _root(config)
    records, verdicts = [], []
    for i, sp in enumerate(map(parse_space, config.spaces)):
        name = str(sp)
        mc = geometry.volume(sp, "monte-carlo", rng.split(0, i), config.samples)
        rec = {
            "space": name,
            "mc_value": mc.value,
            "mc_stderr": mc.stderr,
            "samples": config.samples,
        }
        exact = sp.exact_volume()
        if exact is not None:
            value, method = exact
            rel = abs(mc.value - value) / value
            allowed = max(config.tolerance, 4.0 * mc.stderr / value)
            rec.update({"exact_value": value, "exact_method": method, "rel_error": rel})
            verdicts.append(
                _verdict(
                    f"volume agreement {name}",
                    rel <= allowed,
                    f"rel error {rel:.2e} vs allowed {allowed:.2e}",
                )
            )
        records.append(rec)
    return records, verdicts


def _run_ellipsoid(config: ExperimentConfig):
    rng = _root(config)
    records, verdicts = [], []
    for i, sp in enumerate(map(parse_space, config.spaces)):
        name = str(sp)
        gen = rng.split(1, i).generator()
        dirs = gen.standard_normal((1000, sp.dim))
        gauges = sp.gauge_many(dirs)
        boundary = dirs / gauges[:, None]
        outer = geometry.mvee_of_ball(sp)
        q_out = outer.quadratic_form(boundary)
        verdicts.append(
            _verdict(
                f"outer containment {name}",
                float(q_out.max()) <= 1.0 + 1e-6,
                f"max quadratic form {q_out.max():.12f}",
            )
        )
        ins = geometry.inscribed_ellipsoid(sp)
        radii = ins.ellipsoid.boundary_radii(dirs)
        g_in = sp.gauge_many(dirs * radii[:, None])
        verdicts.append(
            _verdict(
                f"inscribed containment {name}",
                float(g_in.max()) <= 1.0 + 1e-6,
                f"max gauge on inscribed boundary {g_in.max():.12f}",
            )
        )
        records.append(
            {
                "space": name,
                "outer_volume": outer.volume(),
                "inscribed_volume": ins.ellipsoid.volume(),
                "inscribed_maximal": ins.maximal,
                "outer_max_form": float(q_out.max()),
                "inscribed_max_gauge": float(g_in.max()),
            }
        )
    return records, verdicts


def _run_interp(config: ExperimentConfig):
    dim, theta, tol = config.dim, config.theta, config.tolerance
    rng = _root(config)
    w0 = 1.0 + np.arange(dim)
    w1 = np.linspace(2.0, 0.5, dim)
    pair = interpolation.NormPair.diagonal(w0, w1)
    params = interpolation.ThetaParams(theta)
    gen = rng.split(2).generator()
    vectors = [np.ones(dim), np.eye(dim)[0]]
    vectors.extend(gen.standard_normal((3, dim)))
    records, verdicts = [], []
    worst = 0.0
    for j, x in enumerate(vectors):
        exact = interpolation.quadratic_theta_norm_exact(pair, x, theta)
        quad = interpolation.theta_norm(pair, params, x)
        diag = interpolation.diagonal_theta_norm(w0, w1, x, theta)
        rel = abs(quad.value - exact) / exact
        worst = max(worst, rel, abs(diag - exact) / exact)
        records.append(
            {
                "vector": j,
                "theta": theta,
                "quadrature": quad.value,
                "eig_closed_form": exact,
                "diagonal_closed_form": diag,
                "rel_error": rel,
                "tail_mass": quad.tail_mass,
            }
        )
    verdicts.append(
        _verdict(
            "quadrature vs closed form",
            worst <= tol,
            f"worst rel error {worst:.2e} vs tolerance {tol:.1e}",
        )
    )
    x = np.ones(dim)
    sandwich_ok = True
    for t in (0.1, 1.0, 10.0):
        k2 = interpolation.k_functional(pair, 2.0, t, x)
        k1 = interpolation.k_functional(pair, 1.0, t, x)
        trivial = min(pair.space0.gauge(x), t * pair.space1.gauge(x))
        sandwich_ok &= k2.value <= k1.value + 1e-9
        sandwich_ok &= k1.value <= math.sqrt(2.0) * k2.value + 1e-9
        sandwich_ok &= k1.value <= trivial + 1e-9
        records.append({"t": t, "k_s1": k1.value, "k_s2": k2.value})
    verdicts.append(
        _verdict("split-infimum bracket", sandwich_ok,
                 "exponent-1 bracket against the exact exponent-2 value")
    )
    mat = rng.split(3).generator().standard_normal((dim, dim))
    check = interpolation.interp_operator_bound_check(
        mat, pair, pair, theta, rng=rng.split(4)
    )
    records.append(
        {
            "operator_lhs": check.lhs,
            "operator_rhs": check.rhs,
            "endpoint0": check.endpoint0,
            "endpoint1": check.endpoint1,
            "endpoint_kind": check.endpoint_kind,
        }
    )
    verdicts.append(
        _verdict(
            "interpolated operator bound",
            check.passed,
            f"lhs {check.lhs:.6f} <= rhs {check.rhs:.6f}",
        )
    )
    return records, verdicts


def _run_typecotype(config: ExperimentConfig):
    n = min(4, randsigns.MAX_EXACT_N)
    rng = _root(config)
    records, verdicts = [], []
    for i, sp in enumerate(map(parse_space, config.spaces)):
        name = str(sp)
        ident = OperatorSpec.identity(sp)
        t2 = randsigns.type2_lower(ident, n, config.budget, rng.split(6, i))
        c2 = randsigns.cotype2_lower(ident, n, config.budget, rng.split(7, i))
        kn = min(3, randsigns.MAX_PROJECTION_N)
        kc = randsigns.kconvexity_lower(ident, kn, config.budget, rng.split(8, i))
        kh = randsigns.khintchine_ratio(sp, np.eye(sp.dim), 4.0, 2.0)
        eq_p = config.p if config.p is not None else min(getattr(sp, "p", 2.0), 2.0)
        ent = interpolation.equal_norms_type(sp, eq_p, n, budget=2, rng=rng.split(9, i))
        records.append(
            {
                "space": name,
                "type2_lower": t2.value,
                "cotype2_lower": c2.value,
                "kconvexity_lower": kc.value,
                "khintchine_4_2": kh,
                "equal_norms_type": ent.value,
                "equal_norms_p": eq_p,
            }
        )
        for label, est in (("type-2", t2), ("cotype-2", c2), ("projection", kc)):
            verdicts.append(
                _verdict(
                    f"{label} lower bound {name} >= 1",
                    est.value >= 1.0 - 1e-9,
                    f"value {est.value:.9f}",
                )
            )
        if sp.is_euclidean:
            for label, est in (("type-2", t2), ("cotype-2", c2), ("projection", kc)):
                verdicts.append(
                    _verdict(
                        f"Euclidean {label} equals 1",
                        abs(est.value - 1.0) <= 1e-9,
                        f"value {est.value:.12f}",
                    )
                )
        verdicts.append(
            _verdict(
                f"moment monotonicity {name}",
                kh >= 1.0 - 1e-12,
                f"4th-to-2nd moment ratio {kh:.9f}",
            )
        )
    return records, verdicts


def _run_gamma2(config: ExperimentConfig):
    rng = _root(config)
    records, verdicts = [], []
    for i, sp in enumerate(map(parse_space, config.spaces)):
        name = str(sp)
        ident = OperatorSpec.identity(sp)
        g = factorization.gamma2_upper(ident, budget=config.budget, rng=rng.split(10, i))
        delta = factorization.delta(ident, rng=rng.split(13, i))
        records.append(
            {
                "space": name,
                "gamma2_lower": g.lower,
                "gamma2_upper": g.upper,
                "gamma2_certified": g.certified,
                "delta": delta.value,
                "delta_kind": delta.kind,
            }
        )
        verdicts.append(
            _verdict(
                f"factorization bracket {name}",
                g.upper >= g.lower - 1e-9,
                f"lower {g.lower:.6f} <= upper {g.upper:.6f}",
            )
        )
        if g.certified:
            verdicts.append(
                _verdict(
                    f"witness product matches {name}",
                    abs(g.witness.product - g.upper) <= 1e-9 * max(1.0, g.upper),
                    f"product {g.witness.product:.12f} vs upper {g.upper:.12f}",
                )
            )
        if sp.is_euclidean:
            verdicts.append(
                _verdict(
                    f"Euclidean identity factors at 1 ({name})",
                    abs(g.upper - 1.0) <= 1e-6,
                    f"upper {g.upper:.9f}",
                )
            )
        r = sp.r_exponent
        a = sp.coordinate_scales(r)
        if r < 1 and a is not None and np.all(a == 1.0):
            target = sp.dim ** (1.0 / r - 1.0)
            verdicts.append(
                _verdict(
                    f"envelope distance near closed form {name}",
                    0.98 * target <= delta.value <= target * (1.0 + 1e-9),
                    f"delta {delta.value:.6f} vs closed form {target:.6f}",
                )
            )
    return records, verdicts


def _run_sidon(config: ExperimentConfig):
    group = parse_group(config.group)
    if len(config.spaces) > 1:
        raise ValueError("sidon takes at most one space")
    sp = parse_space(config.spaces[0]) if config.spaces else WeightedLp.euclidean(len(group.factors))
    rng = _root(config)
    if config.characters == "all":
        chars = sidon.all_characters(group)
    elif config.characters == "coordinate":
        chars = sidon.coordinate_characters(group)
    else:
        raise ValueError("characters must be 'coordinate' or 'all'")
    records, verdicts = [], []
    sid = None
    if group.is_sign_group and len(chars) <= sidon.MAX_SIDON_SET:
        sid = sidon.sidon_constant(group, chars)
        re_mat, _ = sidon.character_matrix(group, chars)
        reproduced = re_mat.T @ np.asarray(sid.measure)
        defect = float(np.abs(reproduced - np.asarray(sid.pattern)).max())
        records.append(
            {
                "sidon_constant": sid.value,
                "worst_pattern": list(np.asarray(sid.pattern)),
                "interpolation_defect": defect,
            }
        )
        verdicts.append(
            _verdict("interpolation constant >= 1", sid.value >= 1.0 - 1e-9,
                     f"value {sid.value:.9f}")
        )
        verdicts.append(
            _verdict(
                "optimal measure interpolates its pattern",
                defect <= 1e-7,
                f"max transform defect {defect:.2e}",
            )
        )
    for t in range(config.trials):
        vecs = rng.split(14, t).generator().standard_normal((len(chars), sp.dim))
        ratio = sidon.cp_ratio(group, chars, sp, config.p, vecs)
        rec = {
            "trial": t,
            "group_side": ratio.group_side,
            "rademacher_side": ratio.rademacher_side,
            "ratio": ratio.ratio,
        }
        records.append(rec)
        if config.characters == "coordinate" and group.is_sign_group:
            # coordinate characters of a sign group are Rademacher signs
            verdicts.append(
                _verdict(
                    f"coordinate characters match sign averages (trial {t})",
                    ratio.ratio == 1.0,
                    f"ratio {ratio.ratio!r}",
                )
            )
    imbalance = sidon.imbalance_lower(
        group, chars, sp, config.p, budget=config.budget, rng=rng.split(15, 0)
    )
    cert = randsigns.cotype2_lower(
        OperatorSpec.identity(sp), n=min(4, 2 * sp.dim), budget=2, rng=rng.split(15, 1)
    )
    records.append(
        {
            "regularity_imbalance": imbalance.value,
            "regularity_sidon": None if sid is None else sid.value,
            "cotype2_certificate": cert.value,
        }
    )
    return records, verdicts


# --------------------------------------------------------------------------
# verification suites


def _run_suite_horn(config: ExperimentConfig):
    trials = config.trials
    rng = _root(config)
    pairs = np.empty((trials, 2, 4, 4))
    for i in range(trials):  # the pair (a, b) of split i, a drawn first
        pairs[i] = rng.split(16, i).generator().standard_normal((2, 4, 4))
    lhs, rhs, passed = spaces.horn_check_many(pairs[:, 0], pairs[:, 1], (1.0 / 3.0, 0.5, 1.0), 4)
    failures = int(np.count_nonzero(~passed))
    min_margin = float((rhs - lhs).min())
    checks = 12 * trials
    records = [{"pairs": trials, "checks": checks, "failures": failures, "min_margin": min_margin}]
    verdicts = [
        _verdict(
            "singular-value partial sums dominated",
            failures == 0,
            f"{checks} checks, {failures} failures, min margin {min_margin:.3e}",
        )
    ]
    return records, verdicts


def _run_suite_lemma11(config: ExperimentConfig):
    rng = _root(config)
    cases = [(WeightedLp.unweighted(1.0 / beta, n), beta, False)
             for beta in (1, 2, 3) for n in range(2, 5)]
    for j in range(6):
        gen = rng.split(17, j).generator()
        beta = (1, 2, 3)[j % 3]
        w = np.exp(gen.standard_normal(3 + (j % 2)))
        cases.append((WeightedLp(1.0 / beta, w), beta, True))
    records = []
    all_ok = eq_ok = True
    worst_eq = 0.0
    for sp, beta, weighted in cases:
        n = sp.dim
        for mask in range(1, 2**n - 1):
            subset = tuple(i for i in range(n) if (mask >> i) & 1)
            res = geometry.section_projection_volume_check(sp, subset)
            all_ok &= res.passed
            if not weighted:
                gap = abs(res.ratio - res.bound) / res.bound
                worst_eq = max(worst_eq, gap)
                eq_ok &= gap <= 0.01
            records.append(
                {
                    "beta": beta,
                    "dim": n,
                    "subset": list(subset),
                    "ratio": res.ratio,
                    "bound": res.bound,
                    "weighted": weighted,
                }
            )
    verdicts = [
        _verdict("split volume ratio within binomial bound", all_ok,
                 "all coordinate splits dominated"),
        _verdict(
            "unweighted splits attain the bound",
            eq_ok,
            f"worst equality gap {worst_eq:.2e} (allowed 1%)",
        ),
    ]
    return records, verdicts


def _random_polytope(rng: RandomSource, idx: int, dim: int, extremes: int) -> Polytope:
    for attempt in range(16):
        gen = rng.split(18, idx, attempt).generator()
        v = gen.standard_normal((extremes, dim))
        try:
            return Polytope(np.vstack([v, -v]))
        except (DegenerateMatrixError, ValueError):
            continue
    raise RuntimeError("could not draw a non-degenerate polytope")


def _run_suite_santalo(config: ExperimentConfig):
    rng = _root(config)
    records = []
    failures = 0
    for i in range(config.trials):
        dim = 2 + (i % 2)
        extremes = dim + 2 + (i % 3)
        poly = _random_polytope(rng, i, dim, extremes)
        res = geometry.santalo_check(poly, rng=rng.split(19, i))
        if not res.passed:
            failures += 1
        records.append(
            {
                "instance": i,
                "dim": dim,
                "outer_ratio": res.outer_ratio,
                "dual_inner_ratio": res.dual_inner_ratio,
                "slack": res.slack,
                "passed": res.passed,
            }
        )
    verdicts = [
        _verdict(
            "outer ratio dominates the dual inner ratio",
            failures == 0,
            f"{config.trials} seeded polytopes, {failures} failures",
        )
    ]
    return records, verdicts


def _ratio_sweep(config: ExperimentConfig, stream: int, pairs_of, bound, pair_fields=None):
    """Shared body of the theorem6 and theorem8 sweeps: for each dim 2..4
    and space pair ``pairs_of(d)``, ``config.trials`` Gaussian operators,
    each bracketed by ``bound(u, rng) -> (lower, upper, fields)``; records
    the ratio upper / lower.  ``pair_fields(target, rng)`` adds fields
    shared by every record of one pair."""
    rng = _root(config)
    records = []
    for d in range(2, 5):
        sweep_rng = rng.split(stream, d)
        for idx, (src, tgt) in enumerate(pairs_of(d)):
            shared = pair_fields(tgt, sweep_rng.split(idx, 0)) if pair_fields else {}
            for t in range(config.trials):
                m = sweep_rng.split(idx, 1, t).generator().standard_normal((tgt.dim, src.dim))
                lower, upper, found = bound(OperatorSpec(m, src, tgt), sweep_rng.split(idx, 2, t))
                if lower <= 0:
                    continue
                records.append(
                    {
                        "pair": idx,
                        "source_dim": src.dim,
                        "target_dim": tgt.dim,
                        "trial": t,
                        **shared,
                        **found,
                        "ratio": upper / lower,
                        "dim": d,
                    }
                )
    _running_max(records, "ratio")
    return records, []


def _run_suite_theorem6(config: ExperimentConfig):
    def pairs_of(d):
        return [
            (WeightedLp.unweighted(0.5, d), WeightedLp.euclidean(d)),
            (WeightedLp.unweighted(0.5, d), WeightedLp.unweighted(1.0, d)),
            (WeightedLp.unweighted(2.0 / 3.0, d), WeightedLp.euclidean(d)),
        ]

    def target_certificate(tgt, rng):
        cert = randsigns.cotype2_lower(OperatorSpec.identity(tgt), n=4, budget=2, rng=rng)
        return {"target_cotype2_certificate": cert.value}

    def bound(u, rng):
        g = factorization.gamma2_upper(u, budget=config.budget, rng=rng)
        found = {"gamma2_lower": g.lower, "gamma2_upper": g.upper, "certified": g.certified}
        return g.lower, g.upper, found

    return _ratio_sweep(config, 20, pairs_of, bound, target_certificate)


def _run_suite_theorem8(config: ExperimentConfig):
    def pairs_of(d):
        return [
            (WeightedLp.unweighted(0.5, d), WeightedLp.euclidean(d)),
            (WeightedLp.unweighted(2.0 / 3.0, d), WeightedLp.unweighted(1.0, d)),
        ]

    def bound(u, rng):
        res = factorization.delta(u, rng=rng)
        lower = factorization.op_norm(u, rng=rng.split(1)).value
        found = {"op_lower": lower, "delta": res.value, "delta_kind": res.kind}
        return lower, res.value, found

    return _ratio_sweep(config, 21, pairs_of, bound)


def _run_suite_theorem15(config: ExperimentConfig):
    rng = _root(config)
    records = []
    cases = [(1.0, 3, 20_000), (1.0, 4, 20_000), (1.0, 5, 20_000),
             (0.5, 3, 10_000), (0.5, 4, 10_000)]
    for case_idx, (p, d, samples) in enumerate(cases):
        sp = WeightedLp.unweighted(p, d)
        for t in range(config.trials):
            kernel = rng.split(22, case_idx, t).generator().standard_normal((1, d))
            quot = spaces.quotient(sp, kernel)
            est = geometry.vr_star(
                quot, rng=rng.split(23, case_idx, t),
                samples=config.samples or samples,
            )
            records.append(
                {
                    "p": p,
                    "ambient_dim": d,
                    "quotient_dim": quot.dim,
                    "trial": t,
                    "outer_ratio": est.value,
                    "stderr": est.stderr,
                }
            )
    _running_max(records, "outer_ratio")
    return records, []


def _run_suite_lemma1_exponent(config: ExperimentConfig):
    rng = _root(config)
    records = []
    exponents = {
        "steep": lambda r: ((1.0 / r - 1.0) / (1.0 / r - 2.0)) if abs(1.0 / r - 2.0) > 1e-9 else None,
        "mid": lambda r: (1.0 / r - 1.0) / (1.0 / r - 0.5),
        "shallow": lambda r: (1.0 - r) / (2.0 - r),
    }
    for r in (0.4, 0.5, 2.0 / 3.0):
        for d in (2, 3, 4, 6):
            sp = WeightedLp.unweighted(r, d)
            kc = randsigns.kconvexity_lower(
                OperatorSpec.identity(sp), n=4, budget=config.budget, rng=rng.split(24, d)
            )
            row = {"r": r, "dim": d, "kconvexity_lower": kc.value}
            for label, fn in exponents.items():
                phi = fn(r)
                if phi is None:
                    continue
                model = d**phi * (1.0 + math.log(d))
                row[f"model_{label}"] = model
                row[f"ratio_{label}"] = kc.value / model
            records.append(row)
    _running_max(records, "kconvexity_lower")
    return records, []


def _run_suite_lemma5(config: ExperimentConfig):
    rng = _root(config)
    records = []
    for r in (0.5, 2.0 / 3.0):
        threshold = r / (2.0 - r)
        for theta in (0.7 * threshold, 0.95 * threshold, min(0.95, 1.3 * threshold)):
            for d in (2, 3):
                sp = WeightedLp.unweighted(r, d)
                pair = interpolation.NormPair.from_spaces(sp.envelope_space(), sp)
                params = interpolation.ThetaParams(theta, nodes=50, t_min=1e-5, t_max=1e5,
                                                   budget=config.budget)
                gen = rng.split(25, d).generator()
                worst = -math.inf
                exact = True
                for _ in range(3):
                    x = gen.standard_normal(d)
                    y = gen.standard_normal(d)
                    nx, ny, nxy = (interpolation.theta_norm(pair, params, v) for v in (x, y, x + y))
                    worst = max(worst, nxy.value / (nx.value + ny.value) - 1.0)
                    exact = exact and nx.exact and ny.exact and nxy.exact
                records.append(
                    {
                        "r": r,
                        "theta": theta,
                        "below_threshold": theta < threshold,
                        "dim": d,
                        "max_triangle_defect": worst,
                        "exact": exact,
                    }
                )
    _running_max(records, "max_triangle_defect")
    return records, []


def _run_suite_weak_cotype2(config: ExperimentConfig):
    """Per space, the profile max over trials and k of
    a_k(u) sqrt(k) / (Gaussian mean of u) for Gaussian operators u from
    Euclidean (d+2)-space; a_k is an upper bound or a searched value for
    non-quadratic targets, so the profile is an estimate."""
    rng = _root(config)
    records = []
    idx = 0
    for p in (0.5, 1.0, 2.0):
        for d in (2, 3):
            sp = WeightedLp.unweighted(p, d)
            n = d + 2
            source = WeightedLp.euclidean(n)
            space_rng = rng.split(26, idx)
            idx += 1
            profile, evaluations = 0.0, 0
            for t in range(config.trials):
                g = space_rng.split(t, 0).generator().standard_normal((d, n))
                u = OperatorSpec(g, source, sp)
                ell = factorization.gaussian_mean(u, config.samples, space_rng.split(t, 1))
                if ell.value <= 0:
                    continue
                for k in range(1, n + 1):
                    a = factorization.approx_numbers(u, k, rng=space_rng.split(t, 2, k))
                    profile = max(profile, a.value * math.sqrt(k) / ell.value)
                    evaluations += 1
            records.append(
                {
                    "space": str(sp),
                    "profile": profile,
                    "evaluations": evaluations,
                }
            )
    _running_max(records, "profile")
    return records, []


# --------------------------------------------------------------------------
# registry, run(), list_experiments()


# name -> (runner, description, observational, declared parameters).  The
# parameters map to their defaults; a default of None or () is worked out
# by the runner: per space (typecotype's p), per case (theorem15's
# samples), or from the group (sidon's spaces).
_REGISTRY: dict[str, tuple] = {
    "volume": (_run_volume, "Monte Carlo unit-ball volumes against closed forms", False,
               {"spaces": ("lp p=0.5 dim=3", "lp p=1.0 dim=3", "euclidean dim=3"),
                "samples": 200_000, "tolerance": 0.05}),
    "ellipsoid": (_run_ellipsoid, "enclosing/inscribed ellipsoid containment checks", False,
                  {"spaces": ("lp p=1.0 dim=3", "lp p=inf dim=3")}),
    "interp": (_run_interp, "interpolation functionals: quadrature, closed forms, operator bound", False,
               {"dim": 3, "theta": 0.5, "tolerance": 1e-3}),
    "typecotype": (_run_typecotype, "sign-average constants with witnesses", False,
                   {"spaces": ("euclidean dim=3", "lp p=0.5 dim=3"), "budget": 4, "p": None}),
    "gamma2": (_run_gamma2, "factorization brackets and distance estimates", False,
               {"spaces": ("euclidean dim=3", "lp p=1.0 dim=3", "lp p=0.5 dim=3"), "budget": 8}),
    "sidon": (_run_sidon, "character interpolation constant and moment comparison", False,
              {"group": "2,2", "spaces": (), "p": 2.0, "trials": 5, "budget": 2, "characters": "coordinate"}),
    "suite:horn": (_run_suite_horn, "singular-value partial-sum checks on seeded matrix pairs", False,
                   {"trials": 1000}),
    "suite:lemma11": (_run_suite_lemma11, "coordinate split volume inequality across small Lp balls", False, {}),
    "suite:santalo": (_run_suite_santalo, "polar volume comparisons on seeded random polytopes", False,
                      {"trials": 100}),
    "suite:theorem6": (_run_suite_theorem6, "factorization ratio sweep into sign-regular targets", True,
                       {"budget": 4, "trials": 3}),
    "suite:theorem8": (_run_suite_theorem8, "envelope-route factorization ratio sweep", True,
                       {"trials": 3}),
    "suite:theorem15": (_run_suite_theorem15, "outer volume ratios of random quotient balls", True,
                        {"trials": 2, "samples": None}),
    "suite:lemma1-exponent": (_run_suite_lemma1_exponent, "projection-constant growth against dimension-power models", True,
                              {"budget": 2}),
    "suite:lemma5": (_run_suite_lemma5, "triangle defect of interpolated gauges across the convexity threshold", True,
                     {"budget": 200}),
    "suite:weak-cotype2": (_run_suite_weak_cotype2, "approximation-number profiles of random Gaussian embeddings", True,
                           {"trials": 2, "samples": 6000}),
}

# config fields that only the experiments declaring them take
_PARAMETERS = tuple(f.name for f in fields(ExperimentConfig) if f.name not in ("experiment", "seed", "output"))

OBSERVATIONAL_NOTE = (
    "observational: trend data only, no numeric threshold is asserted"
)


def list_experiments() -> tuple[dict, ...]:
    """Catalogue of registered experiments and suites, each with its
    declared parameters and their defaults."""
    return tuple(
        {"name": name, "description": desc, "observational": obs, "parameters": dict(params)}
        for name, (fn, desc, obs, params) in _REGISTRY.items()
    )


def suite_names() -> tuple[str, ...]:
    return tuple(name for name in _REGISTRY if name.startswith("suite:"))


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute one configured experiment and return its report.

    Unset parameters take the experiment's declared defaults; a set
    parameter that the experiment does not declare raises ``ValueError``.
    Reports are deterministic functions of the config (records and
    verdicts); only ``wallclock_seconds`` varies between runs."""
    if config.experiment not in _REGISTRY:
        raise ValueError(
            f"unknown experiment {config.experiment!r}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        )
    fn, desc, observational, params = _REGISTRY[config.experiment]
    unread = [k for k in _PARAMETERS if k not in params and getattr(config, k) not in (None, ())]
    if unread:
        raise ValueError(
            f"{config.experiment} does not read {', '.join(unread)}; "
            f"it takes {', '.join(params) or 'no parameters'}, besides seed and output"
        )
    config = replace(config, **{k: v for k, v in params.items() if getattr(config, k) in (None, ())})
    start = time.perf_counter()
    records, verdicts = fn(config)
    elapsed = time.perf_counter() - start
    if observational:
        header = f"{desc} | {OBSERVATIONAL_NOTE}"
        passed = None
        verdicts = ()
    else:
        header = desc
        passed = all(v["passed"] for v in verdicts) if verdicts else True
    report = ExperimentReport(
        experiment=config.experiment,
        config=config,
        observational=observational,
        header=header,
        records=tuple(records),
        verdicts=tuple(verdicts),
        passed=passed,
        wallclock_seconds=elapsed,
    )
    if config.output:
        write_report(report, config.output)
    return report
