"""Command line front end: verify / expand / eval.

Exit codes: 0 all selected checks pass, 1 at least one fails, 2
configuration error.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import harness
from .core import DomainError, GEN_S, Tau
from .exactq import (THETA_DENS as _THETA_DENS, e2_expansion, eta_expansion,
                     joyce_expansion, partition_series, rank_moment_series,
                     theta_q_expansion)
from .special import (THETA_INDEX, UPPER_GAMMA_RTOL, e2_value, eta_value,
                      eval_qseries, gauss_E, modular_law, period_integral,
                      series_trunc_for, single_mode_period, theta_value,
                      upper_gamma_scaled)

VERIFY_GROUPS = (*sorted({g for s in harness.CATALOG for g in s.groups}), "all")

# historical shorthands accepted by --checks
_CHECK_ALIASES = {
    "duke": ("three-halves", "single-mode"),
    "threehalves": ("three-halves", "single-mode"),
    "gamma14": ("theta-star",),
}


def _int_list(text: str) -> tuple:
    try:
        vals = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of ints: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _tau_arg(text: str) -> Tau:
    c = _complex_arg(text)
    try:
        return Tau(c.real, c.imag)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mockmod",
        description="exact q-series and numeric certification of"
                    " completed modular identities")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the check catalog")
    v.add_argument("group", choices=VERIFY_GROUPS)
    v.add_argument("--seed", type=int, default=2026)
    v.add_argument("--tol", type=float, default=None,
                   help="tolerance on the relative residual of every"
                        " selected inexact check")
    v.add_argument("--ell", type=_int_list, default=(1, 2, 3),
                   help="comma list of half-index orders, e.g. 1,2,3")
    v.add_argument("--k", type=_int_list, default=(2, 4, 6),
                   help="comma list of even weights, e.g. 2,4,6")
    v.add_argument("--checks", type=str, default=None,
                   help="comma list of check-name fragments to keep")
    v.add_argument("--json", dest="json_path", metavar="PATH", default=None)

    e = sub.add_parser("expand", help="emit an exact expansion as JSON")
    e.add_argument("--object", required=True,
                   choices=("eta", "P", "E2", "rank-moment", "joyce", "theta"))
    e.add_argument("--T", required=True, type=int, help="q-order truncation")
    e.add_argument("--ell", type=int, default=1)
    e.add_argument("--k", type=int, default=2)
    e.add_argument("--kind", choices=tuple(_THETA_DENS), default="theta1")

    ev = sub.add_parser("eval", help="evaluate one numeric kernel")
    # a value such as -0.2+0.3i is a number, not an option; this is the
    # rule argparse itself uses from Python 3.13 on
    ev._negative_number_matcher = re.compile(r"-\.?\d")
    ev.add_argument("--fn", required=True,
                    choices=("E", "gammainc", "eta", "theta", "E2", "period"))
    ev.add_argument("--x", type=float, default=1.0)
    ev.add_argument("--tau", type=_tau_arg, default=Tau(0.0, 1.0))
    ev.add_argument("--z", type=_complex_arg, default=0.2 + 0.1j)
    ev.add_argument("--mode", type=int, default=0,
                    help="period integrand mode index k, frequency"
                         " (6k+1)^2/24")
    return ap


def _checks_filter(tokens: str):
    wanted = []
    for raw in tokens.split(","):
        t = raw.strip()
        if not t:
            continue
        wanted.extend(_CHECK_ALIASES.get(t, (t,)))

    def keep(check_id: str) -> bool:
        suffix = check_id.split(".", 1)[1]
        return any(w in suffix for w in wanted)

    return keep


def _run_verify(args) -> int:
    config = harness.SuiteConfig(
        seed=args.seed, ells=args.ell, ks=args.k,
        groups=(args.group,), output_path=args.json_path)
    specs = harness.selected_specs(config)
    if args.checks is not None:
        keep = _checks_filter(args.checks)
        specs = [s for s in specs if keep(s.check_id)]
        config.only = tuple(s.check_id for s in specs)
    if not specs:
        print("no checks selected", file=sys.stderr)
        return 2
    if args.tol is not None:
        config.tol_overrides = {s.check_id: args.tol for s in specs
                                if s.tolerance > 0.0}
    reports, code = harness.run_suite(config)
    for r in reports:
        print(f"[{r.verdict:>4s}] {r.check_id:28s} residual={r.residual:.3e}"
              f" tol={r.tolerance:.1e} ({r.runtime_ms} ms)")
        if "variant" in r.params:
            print(f"{'':7s}variant={r.params['variant']}"
                  f" separation={r.params['separation']:.1e}")
        if "error" in r.params:
            print(f"{'':7s}error: {r.params['error']}")
    passed = sum(r.verdict == "pass" for r in reports)
    print(f"{passed}/{len(reports)} checks passed")
    if args.json_path:
        print(f"report written to {args.json_path}")
    return code


def _run_expand(args) -> int:
    t = args.T
    if t <= 0:
        print("--T must be positive", file=sys.stderr)
        return 2
    if args.object == "eta":
        series = eta_expansion(24 * t)
    elif args.object == "P":
        series = partition_series(t)
    elif args.object == "E2":
        series = e2_expansion(t)
    elif args.object == "rank-moment":
        series = rank_moment_series(args.ell, t)
    elif args.object == "joyce":
        series = joyce_expansion(args.k, t)
    else:
        series = theta_q_expansion(args.kind, _THETA_DENS[args.kind] * t)
    print(json.dumps(series.to_json_dict()))
    return 0


def _fmt(value: complex) -> str:
    if isinstance(value, complex) and value.imag:
        return f"{value.real:.16e} {value.imag:+.16e}i"
    return f"{complex(value).real:.16e}"


def _run_eval(args) -> int:
    if args.fn == "E":
        val = gauss_E(args.x)
        err = 1e-15 * max(1.0, abs(val))
    elif args.fn == "gammainc":
        if args.x <= 0:
            print("--x must be positive for gammainc", file=sys.stderr)
            return 2
        val = upper_gamma_scaled(args.x)
        err = UPPER_GAMMA_RTOL * val  # the kernel's documented bound
    elif args.fn == "eta":
        val = eta_value(args.tau)
        # two-route bound: lacunary sum against the exact q-expansion
        series = eta_expansion(series_trunc_for(args.tau, 24))
        err = max(abs(val - eval_qseries(series, args.tau)),
                  math.ulp(abs(val)))
    elif args.fn == "theta":
        val = theta_value(args.z, args.tau)
        # two-route bound: the value against its image under tau -> -1/tau
        image = theta_value(args.z / GEN_S.j_factor(args.tau),
                            GEN_S.apply(args.tau))
        err = modular_law(GEN_S, val, image, args.tau, halves=1, psi=3,
                          index=THETA_INDEX, z=(args.z,)) * abs(val)
    elif args.fn == "E2":
        val = e2_value(args.tau)
        # two-route bound: Lambert sum against the exact q-expansion
        series = e2_expansion(series_trunc_for(args.tau, 1))
        err = max(abs(val - eval_qseries(series, args.tau)),
                  math.ulp(abs(val)))
    else:
        a = (6 * args.mode + 1) ** 2 / 24.0
        val = period_integral(lambda ws: np.exp(2j * math.pi * a * ws),
                              args.tau, rtol=1e-11)
        # two-route bound: quadrature against the closed form
        err = abs(val - single_mode_period(a, args.tau))
    print(f"value = {_fmt(val)}")
    print(f"error estimate = {err:.3e}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "expand":
            return _run_expand(args)
        return _run_eval(args)
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
