"""Command-line front end: norms, semigroup evaluation, verification suites.

Four subcommands:

``norm``
    One Luxemburg, Besov, or Triebel-Lizorkin norm, printed as JSON.
``semigroup``
    Evaluate the OU or Poisson-Hermite action (or a time derivative of it)
    at given points, spectrally or through the quadrature path.
``verify``
    Run named verification suites; JSON report to stdout, optional CSV.
``report``
    Run suites and write CSV/JSON artifacts with a text summary.

Exit codes: 0 success, 1 suite failure, 2 usage error, 3 numerical
non-convergence. ``--nodes-per-axis`` and ``--n-panels`` override the
default grid resolution of every subcommand.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .errors import ConvergenceError, ParameterError
from .exponents import ExponentFunction, descriptor_label, exponent_from_descriptor
from .hermite import HermiteExpansion, random_expansion
from .lebesgue import gaussian_space, luxemburg_norm
from .quadrature import make_context
from .semigroups import (
    S_SWITCH,
    ou_apply,
    ou_apply_kernel,
    ph_apply_subordination,
    ph_derivative,
)
from .smoothness import SmoothnessParams, besov_norm, triebel_norm
from .suites import CSV_HEADER, SuiteConfig, csv_rows, run_suite, suite_ids


# ------------------------------------------------------------- config plumbing

def parse_function_literal(lit: str) -> HermiteExpansion:
    """Expansion from "h:k", "expand:[[nu, c], ...]" or "family:random:N:seed"."""
    if not isinstance(lit, str):
        raise ParameterError(f"function literal must be a string, got {type(lit).__name__}")
    if lit.startswith("h:"):
        try:
            n = int(lit[2:])
        except ValueError:
            raise ParameterError(f"bad Hermite literal {lit!r}; expected h:<order>") from None
        if n < 0:
            raise ParameterError(f"Hermite order must be >= 0, got {n}")
        return HermiteExpansion.single((n,))
    if lit.startswith("expand:"):
        try:
            payload = json.loads(lit[len("expand:"):])
        except json.JSONDecodeError as e:
            raise ParameterError(f"bad expansion literal: {e}") from None
        if not isinstance(payload, list) or not payload:
            raise ParameterError("expansion literal must be a nonempty list of [nu, c] pairs")
        pairs = []
        for item in payload:
            if not (isinstance(item, list) and len(item) == 2):
                raise ParameterError(f"expansion entry {item!r} is not a [nu, c] pair")
            nu, c = item
            nu = (nu,) if isinstance(nu, int) else tuple(nu)
            pairs.append((nu, float(c)))
        dims = {len(nu) for nu, _ in pairs}
        if len(dims) != 1:
            raise ParameterError(f"mixed multi-index dimensions {sorted(dims)}")
        return HermiteExpansion.from_pairs(dims.pop(), pairs)
    if lit.startswith("family:random:"):
        parts = lit.split(":")
        if len(parts) != 4:
            raise ParameterError(
                f"bad family literal {lit!r}; expected family:random:<cap>:<seed>"
            )
        try:
            cap, seed = int(parts[2]), int(parts[3])
        except ValueError:
            raise ParameterError(f"non-integer cap/seed in {lit!r}") from None
        return random_expansion(1, cap, np.random.default_rng(seed))
    raise ParameterError(
        f"unrecognized function literal {lit!r}; use h:<k>, expand:[[nu,c],...] "
        f"or family:random:<cap>:<seed>"
    )


_KIND_ALIASES = {"const": "constant", "constant": "constant",
                 "gaussian": "gaussian", "time": "time"}


def parse_exponent(literal) -> ExponentFunction:
    """Exponent from "const:2", "gaussian:2:1", "time:1.5:3" or a descriptor dict."""
    if isinstance(literal, dict):
        return exponent_from_descriptor(literal)
    if not isinstance(literal, str):
        raise ParameterError(f"exponent must be a string or descriptor, got {literal!r}")
    head, _, rest = literal.partition(":")
    if head not in _KIND_ALIASES:
        raise ParameterError(f"unknown exponent family {head!r} in {literal!r}")
    try:
        params = [float(v) for v in rest.split(":")] if rest else []
    except ValueError:
        raise ParameterError(f"non-numeric parameter in exponent {literal!r}") from None
    return exponent_from_descriptor({"kind": _KIND_ALIASES[head], "params": params})


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ParameterError(f"cannot read config file: {e}") from None
    except json.JSONDecodeError as e:
        raise ParameterError(f"config file is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    return cfg


def _merged(args, cfg: dict, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    v = getattr(args, key, None)
    if v is not None:
        return v
    return cfg.get(key, default)


def _suite_config(args, cfg: dict) -> SuiteConfig:
    return SuiteConfig.from_dict({
        "seed": int(_merged(args, cfg, "seed", 0)),
        "nodes_per_axis": _maybe_int(_merged(args, cfg, "nodes_per_axis")),
        "n_panels": _maybe_int(_merged(args, cfg, "n_panels")),
    })


def _maybe_int(v):
    return None if v is None else int(v)


def _write_csv(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


# ------------------------------------------------------------------ norm

def cmd_norm(args) -> int:
    cfg = _load_config(args.config)
    lit = _merged(args, cfg, "f")
    space = _merged(args, cfg, "space")
    if lit is None or space is None:
        raise ParameterError("norm needs --space and --f (flags or config file)")
    if space not in ("lp", "besov", "triebel"):
        raise ParameterError(f"space must be lp, besov or triebel, got {space!r}")
    f = parse_function_literal(lit)
    ctx = make_context(
        dim=f.dim,
        nodes_per_axis=_maybe_int(_merged(args, cfg, "nodes_per_axis")),
        n_panels=_maybe_int(_merged(args, cfg, "n_panels")),
    )
    p_literal = _merged(args, cfg, "p")
    if p_literal is None:
        raise ParameterError("norm needs an exponent --p")
    p = parse_exponent(p_literal)

    if space == "lp":
        res = luxemburg_norm(f, p, gaussian_space(ctx))
        out = {
            "space": "lp",
            "f": lit,
            "p_desc": descriptor_label(p.descriptor),
            "value": res.value,
            "modular_at_value": res.modular_at_value,
            "iterations": res.iterations,
        }
        row = [["norm:lp", lit, "", "", out["p_desc"], "",
                repr(res.value), repr(res.value), "1.0",
                "true" if np.isfinite(res.value) else "false"]]
    else:
        alpha = _merged(args, cfg, "alpha")
        if alpha is None:
            raise ParameterError(f"a {space} norm needs --alpha")
        q_literal = _merged(args, cfg, "q")
        if q_literal is None:
            raise ParameterError(f"a {space} norm needs a time exponent --q")
        q = parse_exponent(q_literal)
        sp = SmoothnessParams(alpha=float(alpha), p=p, q=q,
                              k=_maybe_int(_merged(args, cfg, "k")))
        rep = (besov_norm if space == "besov" else triebel_norm)(f, sp, ctx)
        p_desc, q_desc = descriptor_label(p.descriptor), descriptor_label(q.descriptor)
        out = {
            "space": space,
            "f": lit,
            "alpha": float(alpha),
            "k": rep.k_used,
            "p_desc": p_desc,
            "q_desc": q_desc,
            "lp_norm": rep.lp_norm,
            "seminorm": rep.seminorm,
            "total": rep.total,
            "grid_meta": rep.grid_meta,
        }
        ratio = rep.total / rep.lp_norm if rep.lp_norm > 0 else float("inf")
        row = [[f"norm:{space}", lit, repr(float(alpha)), str(rep.k_used),
                p_desc, q_desc, repr(rep.total), repr(rep.lp_norm), repr(ratio),
                "true" if np.isfinite(rep.total) else "false"]]
    _emit(out)
    csv_path = _merged(args, cfg, "csv")
    if csv_path:
        _write_csv(csv_path, row)
    return 0


# ------------------------------------------------------------- semigroup

def _parse_points(literal, dim: int) -> np.ndarray:
    if literal is None:
        if dim != 1:
            raise ParameterError("multi-dimensional input needs explicit --points")
        return np.linspace(-2.0, 2.0, 9)
    try:
        payload = json.loads(literal)
    except json.JSONDecodeError:
        try:
            payload = [float(v) for v in literal.split(",")]
        except ValueError:
            raise ParameterError(f"bad points literal {literal!r}") from None
    try:
        pts = np.atleast_1d(np.asarray(payload, dtype=float))
    except (TypeError, ValueError):
        raise ParameterError(f"bad points literal {literal!r}") from None
    if not np.all(np.isfinite(pts)):
        raise ParameterError(f"points must be finite, got {literal!r}")
    if pts.ndim == 1 and dim == 1:
        return pts
    if pts.ndim == 2 and pts.shape[1] == dim:
        return pts
    raise ParameterError(f"points shape {pts.shape} does not match dimension {dim}")


def cmd_semigroup(args) -> int:
    cfg = _load_config(args.config)
    lit = _merged(args, cfg, "f")
    if lit is None:
        raise ParameterError("semigroup needs a function --f")
    f = parse_function_literal(lit)
    t = float(_merged(args, cfg, "t", 1.0))
    k = int(_merged(args, cfg, "k", 0))
    kind = _merged(args, cfg, "kind", "ph")
    method = _merged(args, cfg, "method", "spectral")
    pts = _parse_points(_merged(args, cfg, "points"), f.dim)

    if kind not in ("ou", "ph"):
        raise ParameterError(f"kind must be ou or ph, got {kind!r}")
    if method not in ("spectral", "quadrature"):
        raise ParameterError(f"method must be spectral or quadrature, got {method!r}")
    if k < 0:
        raise ParameterError(f"derivative order must be >= 0, got {k}")

    if method == "spectral":
        if kind == "ph":
            vals = ph_derivative(f, t, k).evaluate(pts)
        else:
            g = ou_apply(f, t)
            if k:
                scaled = {nu: c * (-nu.order) ** k for nu, c in g.coeffs.items()}
                g = HermiteExpansion(g.dim, g.degree_cap, scaled)
            vals = g.evaluate(pts)
    else:
        if k:
            raise ParameterError("the quadrature path computes the semigroup itself; "
                                 "use method spectral for derivatives")
        ctx = make_context(dim=f.dim,
                           nodes_per_axis=_maybe_int(_merged(args, cfg, "nodes_per_axis")))
        if kind == "ou":
            # the explicit kernel outruns the rule at small t, as the inner
            # T_s of the subordination integral does
            vals = ou_apply_kernel(f, t, pts, ctx, method="kernel" if t >= S_SWITCH else "shifted")
        else:
            vals = ph_apply_subordination(f, t, pts, ctx)

    pts_list = pts.tolist() if pts.ndim > 1 else [float(v) for v in pts]
    _emit({"kind": kind, "method": method, "f": lit, "t": t, "k": k,
           "points": pts_list, "values": [float(v) for v in vals]})
    return 0


# ---------------------------------------------------------------- verify

def _resolve_suites(names: list[str]) -> list[str]:
    if names == ["all"]:
        return suite_ids()
    known = set(suite_ids())
    bad = [n for n in names if n not in known]
    if bad:
        raise ParameterError(
            f"unknown suite(s) {', '.join(bad)}; choose from {', '.join(suite_ids())} or all"
        )
    return names


def _run_suites(ids: list[str], scfg: SuiteConfig, parallel: int | None):
    if parallel is None or len(ids) == 1:
        return [run_suite(sid, scfg) for sid in ids]
    workers = parallel if parallel > 0 else None
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(run_suite, cfg=scfg), ids))


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    names = args.suites or cfg.get("suites")
    if not names:
        raise ParameterError("verify needs at least one suite id (or 'all')")
    ids = _resolve_suites(list(names))
    scfg = _suite_config(args, cfg)
    results = _run_suites(ids, scfg, args.parallel)
    if len(results) == 1:
        _emit(results[0].to_dict())
    else:
        _emit({"pass": all(r.passed for r in results),
               "results": [r.to_dict() for r in results]})
    csv_path = _merged(args, cfg, "csv")
    if csv_path:
        _write_csv(csv_path, csv_rows(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_report(args) -> int:
    cfg = _load_config(args.config)
    names = args.suites or cfg.get("suites") or ["all"]
    ids = _resolve_suites(list(names))
    scfg = _suite_config(args, cfg)
    results = _run_suites(ids, scfg, args.parallel)
    csv_path = _merged(args, cfg, "csv", "gvs-report.csv")
    _write_csv(csv_path, csv_rows(results))
    json_path = _merged(args, cfg, "json")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump({"pass": all(r.passed for r in results),
                       "results": [r.to_dict() for r in results]}, fh, indent=2)
    for r in results:
        n_fail = sum(1 for c in r.cases if not c.passed)
        verdict = "pass" if r.passed else f"FAIL ({n_fail}/{len(r.cases)} cases)"
        print(f"{r.suite_id:24s} {len(r.cases):4d} cases  {r.wall_time:8.2f}s  {verdict}")
    ok = all(r.passed for r in results)
    print(f"\n{'all suites pass' if ok else 'SUITE FAILURES PRESENT'}; table -> {csv_path}")
    return 0 if ok else 1


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvs",
        description="Variable-exponent Gaussian smoothness norms and their "
                    "verification suites.",
        epilog="Suites: " + " ".join(suite_ids()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--nodes-per-axis", dest="nodes_per_axis", type=int,
                       help="Gauss-Hermite nodes per axis")
        p.add_argument("--n-panels", dest="n_panels", type=int,
                       help="log-time quadrature panels")

    p_norm = sub.add_parser("norm", help="compute one norm")
    add_common(p_norm)
    p_norm.add_argument("--space", choices=["lp", "besov", "triebel"])
    p_norm.add_argument("--f", help="h:<k> | expand:[[nu,c],...] | family:random:<cap>:<seed>")
    p_norm.add_argument("--alpha", type=float, help="smoothness order")
    p_norm.add_argument("--k", type=int, help="derivative order (default: floor(alpha) + 1)")
    p_norm.add_argument("--p", help="space exponent, e.g. const:2 or gaussian:2:1")
    p_norm.add_argument("--q", help="time exponent, e.g. const:2 or time:1.5:3")
    p_norm.add_argument("--csv", help="also write a one-row CSV table")
    p_norm.set_defaults(func=cmd_norm)

    p_semi = sub.add_parser("semigroup", help="evaluate a semigroup action")
    add_common(p_semi)
    p_semi.add_argument("--kind", choices=["ou", "ph"])
    p_semi.add_argument("--f", help="function literal (see norm --help)")
    p_semi.add_argument("--t", type=float, help="semigroup time (default 1.0)")
    p_semi.add_argument("--k", type=int, help="time-derivative order (default 0)")
    p_semi.add_argument("--points", help="comma-separated coordinates or JSON array")
    p_semi.add_argument("--method", choices=["spectral", "quadrature"])
    p_semi.set_defaults(func=cmd_semigroup)

    def add_verify_args(p):
        add_common(p)
        p.add_argument("--seed", type=int, help="RNG seed for random families (default 0)")
        p.add_argument("--parallel", nargs="?", const=0, type=int, default=None,
                       help="run suites in separate processes (optional worker count)")

    p_verify = sub.add_parser("verify", help="run verification suites")
    add_verify_args(p_verify)
    p_verify.add_argument("suites", nargs="*", help="suite ids, or 'all'")
    p_verify.add_argument("--csv", help="write the case table to this path")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="run suites and write artifacts")
    add_verify_args(p_report)
    p_report.add_argument("suites", nargs="*", help="suite ids (default: all)")
    p_report.add_argument("--csv", help="case table path (default gvs-report.csv)")
    p_report.add_argument("--json", help="also write the full JSON report here")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
