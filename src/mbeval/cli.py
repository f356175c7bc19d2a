"""Command-line front end: evaluate catalog entries or user-supplied MB
integrands (JSON), and run the cross-method verification suite.

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


def linform_to_string(form: LinearForm) -> str:
    parts = []
    for name in sorted(form.coeffs):
        c = form.coeffs[name]
        if c == 1:
            parts.append(f"+{name}")
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*{name}")
    if form.const != 0 or not parts:
        parts.append(f"{'+' if form.const >= 0 else '-'}{abs(form.const)}")
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


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
            "gammas": [{"arg_const": linform_to_string(g.arg), "mult": g.mult}
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


def emit_report(entry: str, params: dict, results: list[dict],
                ok: bool | None = None) -> str:
    doc = {"schema": SCHEMA, "entry": entry, "params": params,
           "results": results}
    if ok is not None:
        doc["pass"] = bool(ok)
    return json.dumps(doc, separators=(",", ":"), sort_keys=False)


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
    p.add_argument("--json", dest="json_out", action="store_true", default=True)


@lru_cache(maxsize=None)
def build_parser():
    """The argparse parser, built once: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="mbeval", add_help=True)
    sub = ap.add_subparsers(dest="cmd")

    p = sub.add_parser("ising")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("ising-param")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exponents", required=True,
                   help="comma-separated, e.g. 1/2,1/3,1/4")
    _add_common(p)

    p = sub.add_parser("c5")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    _add_common(p)

    p = sub.add_parser("box")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", required=True)
    _add_common(p)

    p = sub.add_parser("delta")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--b5-method", default="oracle", choices=["oracle", "contour"])
    _add_common(p)

    p = sub.add_parser("jellium")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("ruby")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--a", default="", help="comma-separated Bessel orders")
    p.add_argument("--R", default="", help="comma-separated radii")
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


def _parse_number(text: str) -> float:
    """A rational flag value ("3/2", "-0.5", "1e-3") as the nearest float."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise UsageError(f"not a rational number: {text!r}") from None


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
    file, which wins over the built-in default."""
    cfg = {}
    if args.config:
        for line in _read_text(args.config, "config file").splitlines():
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    from . import chulls
    try:
        if args.tol is None:
            args.tol = float(cfg.get("tol", 1e-8))
        if args.seed is None:
            args.seed = int(cfg.get("seed", 0))
        if "max_jet_order" in cfg:
            chulls.MAX_JET_ORDER = int(cfg["max_jet_order"])
        if "contour_node_budget" in cfg:
            ml.DEFAULT_MAX_NODES = int(cfg["contour_node_budget"])
    except ValueError as e:
        raise UsageError(f"bad value in config file {args.config!r}: {e}") from None
    return args


def _run_entry(args) -> tuple[str, dict, list[tuple[str, EvalResult]]]:
    cmd = args.cmd
    if cmd == "ising":
        params = {"n": args.n, "k": args.k}
        fn = lambda m: cat.ising_c(args.n, args.k, m, args.tol, args.seed)
    elif cmd == "ising-param":
        exps = [_parse_number(x) for x in args.exponents.split(",")]
        params = {"n": args.n, "k": args.k, "exponents": exps}
        fn = lambda m: cat.ising_c_param(args.n, args.k, exps, m, args.tol)
    elif cmd == "c5":
        al = _parse_number(args.alpha)
        be = _parse_number(args.beta)
        params = {"k": args.k, "alpha": al, "beta": be}
        fn = lambda m: cat.c5_param(args.k, al, be, m, args.tol)
    elif cmd == "box":
        s = _parse_number(args.s)
        params = {"n": args.n, "s": s}
        fn = lambda m: cat.box_b(args.n, s, m, args.tol, args.seed)
    elif cmd == "delta":
        s = _parse_number(args.s)
        params = {"n": args.n, "s": s}
        fn = lambda m: cat.delta(args.n, s, "relation" if m == "auto" else m,
                                 args.tol, args.seed, args.b5_method)
    elif cmd == "jellium":
        params = {"n": args.n}
        fn = lambda m: cat.jellium(args.n, m, args.tol, args.seed)
    elif cmd == "ruby":
        a_list = [_parse_number(x) for x in args.a.split(",") if x]
        r_list = [_parse_number(x) for x in args.R.split(",") if x]
        d = _parse_number(args.d)
        params = {"l": args.l, "d": d, "a": a_list, "R": r_list}
        fn = lambda m: cat.ruby(args.l, d, a_list, r_list, m, args.tol)
    elif cmd == "mb":
        mb = mb_from_json(_read_json(args.file))
        pv = {}
        for spec_ in args.param:
            name, eq, val = spec_.partition("=")
            if not eq:
                raise UsageError(f"--param wants name=value, not {spec_!r}")
            pv[name] = _parse_number(val)
        params = {"file": args.file, "values": pv}

        def fn(m):
            if m in ("auto", "contour"):
                return ml.eval_contour(mb, pv, tol=args.tol)
            if m == "series":
                from . import chulls
                return chulls.eval_mb_series(
                    mb, {k: Fraction(v) for k, v in pv.items()}, args.tol)
            raise UsageError(f"mb supports contour/series, not {m!r}")
    else:
        raise UsageError("missing or unknown subcommand")
    t0 = time.perf_counter()
    result = fn(args.method)
    ms = (time.perf_counter() - t0) * 1000.0
    return cmd, params, [(result.method, result, ms)]


_VERIFY_GRID = [
    ("h1", {"a": 1.0, "b": 2.0}, ["closed", "contour", "oracle"]),
    ("h1", {"a": 1.0, "b": 0.5}, ["closed", "contour", "series"]),
    ("ising", {"n": 1, "k": 3}, ["closed", "oracle"]),
    ("ising", {"n": 2, "k": 1}, ["closed", "oracle"]),
    ("ising", {"n": 3, "k": 1}, ["closed", "contour", "oracle"]),
    ("ising", {"n": 3, "k": 2}, ["contour", "series", "oracle"]),
    ("ising", {"n": 4, "k": 1}, ["closed", "contour", "oracle"]),
    ("ising", {"n": 5, "k": 1}, ["contour", "oracle"]),
    ("ising-param", {"n": 3, "k": 1, "exponents": (0.5, 1.0 / 3.0, 0.25)},
     ["closed", "contour", "series", "oracle"]),
    ("c5", {"k": 1, "alpha": 0.04, "beta": 0.04}, ["contour", "series"]),
    ("box", {"n": 2, "s": 1.0}, ["closed", "contour", "oracle"]),
    ("box", {"n": 3, "s": 1.0}, ["contour", "oracle"]),
    ("box", {"n": 3, "s": -1.0}, ["contour", "oracle"]),
    ("delta", {"n": 1, "s": 1.0}, ["relation", "oracle"]),
    ("delta", {"n": 2, "s": 1.0}, ["relation", "oracle"]),
    ("delta", {"n": 3, "s": 1.0}, ["relation", "oracle"]),
    ("jellium", {"n": 3}, ["closed", "contour"]),
    ("ruby", {"l": 0, "d": 3.0, "a": (1.0, 1.0), "R": (1.0, 1.0)},
     ["series", "oracle"]),
    ("ruby", {"l": 0, "d": 2.0, "a": (0.0,), "R": (1.0,)},
     ["series", "oracle"]),
]

_VERIFY_FULL_EXTRA = [
    ("box", {"n": 4, "s": 1.0}, ["contour", "oracle"]),
    ("delta", {"n": 4, "s": 1.0}, ["relation", "oracle"]),
    ("delta", {"n": 5, "s": 2.0}, ["relation", "oracle"]),
]


def _verify_eval(entry: str, params: dict, method: str, tol: float, seed: int):
    if entry == "h1":
        return cat.h1(params["a"], params["b"], method, tol)
    if entry == "ising":
        return cat.ising_c(params["n"], params["k"], method, tol, seed)
    if entry == "ising-param":
        return cat.ising_c_param(params["n"], params["k"],
                                 list(params["exponents"]), method, tol)
    if entry == "c5":
        return cat.c5_param(params["k"], params["alpha"], params["beta"],
                            method, tol)
    if entry == "box":
        return cat.box_b(params["n"], params["s"], method, tol, seed)
    if entry == "delta":
        t = max(tol, 2e-5) if params["n"] >= 4 else max(tol, 1e-6)
        return cat.delta(params["n"], params["s"], method, t, seed)
    if entry == "jellium":
        return cat.jellium(params["n"], method, max(tol, 1e-7), seed)
    if entry == "ruby":
        return cat.ruby(params["l"], params["d"], list(params["a"]),
                        list(params["R"]), method, tol)
    raise UsageError(f"unknown verify entry {entry!r}")


def run_verify(suite: str, tol: float, seed: int, timings: bool,
               stream=sys.stdout) -> int:
    grid = list(_VERIFY_GRID)
    if suite == "full":
        grid += _VERIFY_FULL_EXTRA
    elif suite != "all":
        grid = [g for g in grid + _VERIFY_FULL_EXTRA if g[0] == suite]
        if not grid:
            raise UsageError(f"unknown suite {suite!r}")
    all_ok = True
    reports = []
    for entry, params, methods in grid:
        results = []
        for m in methods:
            t0 = time.perf_counter()
            r = _verify_eval(entry, params, m, tol, seed)
            ms = (time.perf_counter() - t0) * 1000.0
            results.append((m, r, ms))
        ok, deltas = _pairwise_pass([(m, r) for m, r, _ in results])
        all_ok = all_ok and ok
        reports.append({
            "entry": entry,
            "params": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in params.items()},
            "results": [_result_entry(m, r, ms if timings else None)
                        for m, r, ms in results],
            "deltas": deltas,
            "pass": ok,
        })
        print(f"verify {entry} {params}: {'PASS' if ok else 'FAIL'}",
              file=sys.stderr)
    doc = {"schema": SCHEMA, "entry": "verify", "suite": suite,
           "reports": reports, "pass": all_ok}
    print(json.dumps(doc, separators=(",", ":")), file=stream)
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
        entry, params, results = _run_entry(args)
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
    out = [_result_entry(m, r, ms if args.timings else None)
           for m, r, ms in results]
    ok = all(r.abs_err_est <= args.tol * 1.0000001 or r.abs_err_est <= 1e-12
             for _, r, _ in results)
    print(emit_report(entry, params, out, ok))
    return 0 if ok else 2


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
