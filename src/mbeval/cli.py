"""Command-line front end: evaluate catalog entries or user-supplied MB
integrands (JSON), and run the cross-method verification suite.

Each record of ``catalog.REGISTRY`` is a subcommand: its flags become the
subparser's options, its evaluator answers the call, and its verify rows make
up ``verify --suite all`` (the "all" rows in registry order), ``--suite full``
(those, then the "full" rows) and ``--suite <entry>`` (that entry's rows).
``mb`` (an MB integrand from a JSON file) and ``verify`` are the two others.
A ``--config`` file may set ``tol`` and ``seed`` and nothing else; a flag on
the command line wins over it.

Exit codes: 0 success/pass, 1 evaluation error, 2 verification failure (any
report with "pass": false), 64 usage error.  Reports are JSON on stdout;
diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from . import catalog as cat
from . import mellin as ml
from .errors import EvalError, UsageError
from .result import EvalResult
from .symcore import GammaFactor, LinearForm, rat

SCHEMA = 1


# ---------------------------------------------------------------------------
# linear-form strings ("k+1", "2*z1-1/2") and the MB JSON wire format


def linform_from_string(text: str) -> LinearForm:
    s = text.replace(" ", "").replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    coeffs: dict[str, Fraction] = {}
    const = Fraction(0)
    for piece in s.split("+"):
        if not piece:
            continue
        neg = piece.startswith("-")
        if neg:
            piece = piece[1:]
        if "*" in piece:
            c, name = piece.split("*", 1)
            coef = Fraction(c)
        elif piece and (piece[0].isalpha() or piece[0] == "_"):
            coef, name = Fraction(1), piece
        else:
            # rational constant, possibly like "3/2"
            coef, name = Fraction(piece), None
        if neg:
            coef = -coef
        if name is None:
            const += coef
        else:
            coeffs[name] = coeffs.get(name, Fraction(0)) + coef
    return LinearForm(coeffs, const)


def mb_to_json(mb: ml.MBIntegrand) -> dict:
    def gamma_entry(g: GammaFactor, mult):
        coeffs = {k: str(v) for k, v in sorted(g.arg.coeffs.items())}
        return {"coeffs": coeffs, "const": str(g.arg.const), "mult": mult}

    num = [gamma_entry(g, g.mult) for g in mb.gammas if g.mult > 0]
    den = [gamma_entry(g, -g.mult) for g in mb.gammas if g.mult < 0]
    powers = [{"param": name,
               "coeffs": {k: str(v) for k, v in sorted(e.coeffs.items())},
               "const": str(e.const)}
              for name, e in mb.powers]
    powers += [{"param": str(base),
                "coeffs": {k: str(v) for k, v in sorted(e.coeffs.items())},
                "const": str(e.const)}
               for base, e in mb.base_powers]
    return {
        "schema": SCHEMA,
        "dim": mb.dim,
        "prefactor": {
            "rational": str(mb.prefactor),
            "gammas": [{"arg_const": repr(g.arg), "mult": g.mult}
                       for g in mb.pref_gammas],
        },
        "num": num,
        "den": den,
        "powers": powers,
        "free_params": list(mb.params),
    }


def mb_from_json(doc: Mapping) -> ml.MBIntegrand:
    """The integrand a parsed MB JSON document describes; UsageError if the
    document is malformed (missing field, non-rational number, wrong type)."""
    try:
        return _mb_from_doc(doc)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise UsageError(f"malformed MB document: {type(e).__name__}: {e}") from None


def _mb_from_doc(doc: Mapping) -> ml.MBIntegrand:
    if doc.get("schema") != SCHEMA:
        raise UsageError(f"unsupported schema {doc.get('schema')!r}")
    dim = int(doc["dim"])
    if dim > 1:
        zsyms = tuple(f"z{i + 1}" for i in range(dim))
    else:
        listed = {k for e in (*doc.get("num", []), *doc.get("den", []))
                  for k in e.get("coeffs", {})}
        zsyms = ("z1",) if "z1" in listed and "z" not in listed else ("z",)
    gammas = []

    def parse_gamma(entry, sign):
        coeffs = {k: rat(v) for k, v in entry.get("coeffs", {}).items()}
        arg = LinearForm(coeffs, rat(entry.get("const", "0")))
        gammas.append(GammaFactor(arg, sign * int(entry.get("mult", 1))))

    for e in doc.get("num", []):
        parse_gamma(e, 1)
    for e in doc.get("den", []):
        parse_gamma(e, -1)
    powers = []
    base_powers = []
    for e in doc.get("powers", []):
        exp = LinearForm({k: rat(v) for k, v in e.get("coeffs", {}).items()},
                         rat(e.get("const", "0")))
        name = e["param"]
        try:
            base_powers.append((rat(name), exp))
        except (ValueError, TypeError):
            powers.append((name, exp))
    pref = doc.get("prefactor", {})
    pref_gammas = tuple(
        GammaFactor(linform_from_string(g["arg_const"]), int(g["mult"]))
        for g in pref.get("gammas", []))
    return ml.MBIntegrand(
        zsyms=zsyms,
        prefactor=rat(pref.get("rational", "1")),
        pref_gammas=pref_gammas,
        base_powers=tuple(base_powers),
        powers=tuple(sorted(powers)),
        gammas=tuple(gammas),
        params=tuple(doc.get("free_params", [])),
    )


# ---------------------------------------------------------------------------
# report plumbing


def _sig(x: float, digits: int) -> float:
    return float(f"{x:.{digits}g}")


def _result_entry(method: str, r: EvalResult, runtime_ms: float | None) -> dict:
    out = {"method": method, "value": _sig(r.value, 15),
           "abs_err_est": _sig(r.abs_err_est, 3)}
    if runtime_ms is not None:
        out["runtime_ms"] = int(round(runtime_ms))
    return out


def emit_report(entry: str, params: dict, results: list[dict], ok: bool) -> str:
    return json.dumps({"schema": SCHEMA, "entry": entry, "params": params,
                       "results": results, "pass": bool(ok)}, separators=(",", ":"))


def _pairwise_pass(results: list[tuple[str, EvalResult]]) -> tuple[bool, list[dict]]:
    deltas = []
    ok = True
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            mi, ri = results[i]
            mj, rj = results[j]
            diff = abs(float(ri.value) - float(rj.value))
            allow = 2.0 * max(float(ri.abs_err_est), float(rj.abs_err_est), 1e-14)
            good = bool(diff <= allow)
            ok = ok and good
            deltas.append({"a": mi, "b": mj, "delta": _sig(diff, 3),
                           "allow": _sig(allow, 3), "pass": good})
    return ok, deltas


# ---------------------------------------------------------------------------
# dispatch


def _add_common(p):
    p.add_argument("--method", default="auto")
    # None: from --config, else 1e-8 and 0 (see _apply_config)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--timings", action="store_true",
                   help="include runtime_ms (breaks byte-reproducibility)")
    p.add_argument("--config", default=None,
                   help="key=value file with default tol/seed")


@lru_cache(maxsize=None)
def build_parser():
    """The argparse parser, built once: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="mbeval", add_help=True)
    sub = ap.add_subparsers(dest="cmd")
    for entry in cat.REGISTRY:
        p = sub.add_parser(entry.id)
        for name, parse, *default in entry.flags:
            p.add_argument(f"--{name}", type=parse, required=not default,
                           default=default[0] if default else None)
        p.set_defaults(entry=entry)
        _add_common(p)

    p = sub.add_parser("mb")
    p.add_argument("--file", required=True)
    p.add_argument("--param", action="append", default=[],
                   help="name=value, repeatable")
    _add_common(p)

    p = sub.add_parser("verify")
    p.add_argument("--suite", default="all")
    _add_common(p)
    return ap


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise UsageError(f"cannot read {what} {path!r}: {reason}") from None


def _read_json(path: str):
    try:
        return json.loads(_read_text(path, "file"))
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed JSON in {path!r}: {e}") from None


def _apply_config(args):
    """Fill in tol and seed: a flag on the command line wins over the --config
    file, which wins over the built-in default.  The file sets nothing else."""
    cfg = {}
    if args.config:
        for line in _read_text(args.config, "config file").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq or key.strip() not in ("tol", "seed"):
                raise UsageError(f"config file {args.config!r} sets only tol and "
                                 f"seed, not {line!r}")
            cfg[key.strip()] = val.strip()
    try:
        if args.tol is None:
            args.tol = float(cfg.get("tol", 1e-8))
        if args.seed is None:
            args.seed = int(cfg.get("seed", 0))
    except ValueError as e:
        raise UsageError(f"bad value in config file {args.config!r}: {e}") from None
    return args


def _mb_call(args) -> tuple[dict, object]:
    """The report params of ``mb`` and its evaluator fn(method)."""
    mb = mb_from_json(_read_json(args.file))
    pv = {}
    for spec_ in args.param:
        name, eq, val = spec_.partition("=")
        if not eq:
            raise UsageError(f"--param wants name=value, not {spec_!r}")
        pv[name] = cat.parse_rational(val)

    def evaluate(m):
        if m in ("auto", "contour"):
            return ml.eval_contour(mb, pv, tol=args.tol)
        if m == "series":
            from . import chulls
            return chulls.eval_mb_series(
                mb, {k: Fraction(v) for k, v in pv.items()}, args.tol)
        raise UsageError(f"mb supports contour/series, not {m!r}")
    return {"file": args.file, "values": pv}, evaluate


def _run_entry(args) -> tuple[dict, EvalResult, float]:
    """(report params, result, runtime in ms) of one subcommand call."""
    if args.cmd == "mb":
        params, evaluate = _mb_call(args)
    else:
        params = {flag[0]: getattr(args, flag[0]) for flag in args.entry.flags}
        evaluate = lambda m: args.entry.evaluate(params, m, args.tol, args.seed)
    t0 = time.perf_counter()
    result = evaluate(args.method)
    return params, result, (time.perf_counter() - t0) * 1000.0


def _verify_rows(suite: str) -> list:
    """(entry, row) pairs of a suite: "all", then "full" adds its rows after
    them; an entry id is that entry's rows."""
    if suite in ("all", "full"):
        suites = ("all", "full") if suite == "full" else ("all",)
        return [(e, row) for s in suites
                for e in cat.REGISTRY for row in e.verify if row[2] == s]
    rows = [(e, row) for e in cat.REGISTRY if e.id == suite for row in e.verify]
    if not rows:
        raise UsageError(f"unknown suite {suite!r}")
    return rows


def run_verify(suite: str, tol: float, seed: int, timings: bool) -> int:
    all_ok = True
    reports = []
    for entry, (params, methods, _, tol_floor) in _verify_rows(suite):
        results = []
        for m in methods:
            t0 = time.perf_counter()
            r = entry.evaluate(params, m, max(tol, tol_floor), seed)
            ms = (time.perf_counter() - t0) * 1000.0
            results.append((m, r, ms))
        ok, deltas = _pairwise_pass([(m, r) for m, r, _ in results])
        all_ok = all_ok and ok
        reports.append({
            "entry": entry.id,
            "params": params,
            "results": [_result_entry(m, r, ms if timings else None)
                        for m, r, ms in results],
            "deltas": deltas,
            "pass": ok,
        })
        print(f"verify {entry.id} {params}: {'PASS' if ok else 'FAIL'}",
              file=sys.stderr)
    doc = {"schema": SCHEMA, "entry": "verify", "suite": suite,
           "reports": reports, "pass": all_ok}
    print(json.dumps(doc, separators=(",", ":")))
    return 0 if all_ok else 2


def dispatch(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.cmd is None:
            raise UsageError("a subcommand is required")
        args = _apply_config(args)
        if args.cmd == "verify":
            return run_verify(args.suite, args.tol, args.seed, args.timings)
        params, result, ms = _run_entry(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 64
    except SystemExit as e:
        return 64 if e.code not in (0, None) else 0
    except EvalError as e:
        print(json.dumps({"schema": SCHEMA, "error": type(e).__name__,
                          "message": str(e)}, separators=(",", ":")))
        print(f"evaluation error: {e}", file=sys.stderr)
        return 1
    out = [_result_entry(result.method, result, ms if args.timings else None)]
    ok = result.abs_err_est <= args.tol * 1.0000001 or result.abs_err_est <= 1e-12
    print(emit_report(args.cmd, params, out, ok))
    return 0 if ok else 2


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
