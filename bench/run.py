"""mbeval benchmark: run one workload for a fixed time and check every output.

    python3 bench/run.py --workload contour-multifold --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; mbeval is imported from ./src.  The
workload's case list (see workloads.py) is drawn from the seed and issued in
whole rounds, one case after another through ``mbeval.cli.dispatch``, until
``--seconds`` have passed.  Every round must print the same bytes.  After the
timed rounds each distinct case is checked against an independent reference
(references.py).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Per-case
reports, a summary and (traced) the spans go to bench/out/.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

# MB representations each workload derives during set-up, by catalog builder
DERIVES = {
    "contour-multifold": [("c5_param_mb",), ("box_j_mb", 1), ("box_j_mb", 2)],
    "contour-onefold": [("ising_mb", 3), ("ising_mb", 4), ("ising_param_mb", 3),
                        ("ising_param_mb", 4), ("h1_mb",), ("box_j_mb", 1)],
    "residue-series": [("ising_mb", 3), ("ising_param_mb", 3), ("c5_param_mb",),
                       ("h1_mb",)],
    "oracles": [],
}

# metric names and units, as BENCHMARK.json at the root declares them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

CATALOG_ENTRIES = ("ising_c", "ising_c_param", "c5_param", "box_b", "delta", "jellium",
                   "ruby", "h1")
# hyperfun functions the catalog calls directly: traced so that their time
# is not counted as catalog self time
HYPERFUN_FROM_CATALOG = ("f21_at_minus1", "pfq", "dilog", "polygamma", "ellipk",
                         "lauricella_fc", "gauss_legendre")


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _set_up(workload: str):
    """Import mbeval and derive the workload's MB representations (cold)."""
    if not (SRC / "mbeval" / "__init__.py").is_file():
        _fail(f"no mbeval source under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from mbeval import catalog, cli
    t1 = time.perf_counter()
    if Path(catalog.__file__).resolve().parent != SRC / "mbeval":
        _fail(f"imported mbeval from {catalog.__file__}, not from {SRC}")
    for name, *args in DERIVES[workload]:
        getattr(catalog, name)(*args)
    # the H1 integrand file the `mb --file` cases read; its path is part of
    # their reports, so it is the same for every run
    h1_file = BENCH / "out" / wl.H1_FILE
    if ("h1_mb",) in DERIVES[workload]:
        doc = cli.mb_to_json(catalog.h1_mb())
        h1_file.write_text(json.dumps(doc, indent=1) + "\n")
    h1_path = os.path.relpath(h1_file)
    t2 = time.perf_counter()
    return cli, h1_path, {"setup_s": t2 - T_START, "setup.import_s": t1 - t0,
                          "setup.derive_s": t2 - t1}


def _install_tracer(tracer):
    from mbeval import catalog, chulls, cli, hyperfun, mellin, quadrature

    def add(key, value):
        def count(counters, result):
            counters[key] += value(result)
        return count

    def series_counts(c, r):
        c["chulls.eval_series.terms"] += r.diagnostics["terms_summed"]
        c["chulls.eval_series.higher_order_terms"] += sum(
            n for q, n in r.diagnostics["pole_order_profiles"].items() if max(q) > 1)

    def cube_counts(c, r):
        c["quadrature.cube_integral.points"] += r.evals
        c["quadrature.cube_integral.used_points"] += (r.diagnostics["points_per_shift"]
                                                      * r.diagnostics["shifts"])

    tracer.wrap(cli, "dispatch", "cli.dispatch")
    for name in CATALOG_ENTRIES:
        tracer.wrap(catalog, name, f"catalog.{name}")
    tracer.wrap(mellin, "choose_contour", "mellin.choose_contour")
    tracer.wrap(mellin, "eval_contour", "mellin.eval_contour",
                add("mellin.eval_contour.nodes", lambda r: r.diagnostics["nodes"]))
    tracer.wrap(mellin, "clgamma", "gammafn.clgamma",
                add("gammafn.clgamma.elements", lambda r: r.size if hasattr(r, "size") else 1))
    tracer.wrap(chulls, "eval_mb_series", "chulls.eval_mb_series")
    tracer.wrap(chulls, "enumerate_pole_subsets", "chulls.enumerate_pole_subsets")
    tracer.wrap(chulls, "group_by_cones", "chulls.group_by_cones")
    tracer.wrap(chulls, "eval_series", "chulls.eval_series", series_counts)
    tracer.wrap(quadrature, "cube_integral", "quadrature.cube_integral", cube_counts)
    tracer.wrap(quadrature, "sobol_points", "quadrature.sobol_points",
                add("quadrature.sobol_points.points", lambda r: r.shape[0]))
    tracer.wrap(quadrature, "quad_1d", "quadrature.quad_1d",
                add("quadrature.quad_1d.evals", lambda r: r.evals))
    tracer.wrap(quadrature, "bessel_moment", "quadrature.bessel_moment",
                add("quadrature.bessel_moment.evals", lambda r: r.evals))
    k0_count = add("hyperfun.besselk0_vec.elements", lambda r: r.size)
    tracer.wrap(quadrature, "besselk0_vec", "hyperfun.besselk0_vec", k0_count)
    tracer.wrap(hyperfun, "besselk0_vec", "hyperfun.besselk0_vec", k0_count)
    tracer.wrap(hyperfun, "besselj", "hyperfun.besselj")
    for name in HYPERFUN_FROM_CATALOG:
        tracer.wrap(hyperfun, name, f"hyperfun.{name}")


def _layer_metrics(per_round: dict[str, float]) -> dict[str, float]:
    """The PER_LAYER metrics of one round from its trace totals."""
    g = lambda key: per_round.get(key, 0.0)
    ratio = lambda a, b: a / b if b else 0.0
    out = {
        "cli.dispatch.calls": g("cli.dispatch.calls"),
        "cli.dispatch.self_ms_per_call": ratio(1e3 * g("cli.dispatch.self_s"),
                                               g("cli.dispatch.calls")),
        "catalog.self_s": sum(g(f"catalog.{n}.self_s") for n in CATALOG_ENTRIES),
        "mellin.eval_contour.gamma_evals_per_node": ratio(g("gammafn.clgamma.elements"),
                                                          g("mellin.eval_contour.nodes")),
        "gammafn.clgamma.elements_per_s": ratio(g("gammafn.clgamma.elements"),
                                                g("gammafn.clgamma.s")),
        "chulls.eval_series.us_per_term": ratio(1e6 * g("chulls.eval_series.s"),
                                                g("chulls.eval_series.terms")),
        "quadrature.cube_integral.final_share": ratio(
            g("quadrature.cube_integral.used_points"), g("quadrature.cube_integral.points")),
    }
    for name in PER_LAYER:
        if name not in out and not name.startswith("setup."):
            out[name] = g(name)
    return out


def _src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "mbeval").glob("*.py")))


def _parse_report(text: str):
    doc = json.loads(text.strip().splitlines()[-1])
    res = doc["results"][0]
    return doc, float(res["value"]), float(res["abs_err_est"])


def _check(cases, outputs, refs, cli) -> list[dict]:
    """One report per case: value, error estimate, reference, actual error."""
    import references as rf

    def closed(spec):
        kind, *args = spec
        if kind == "jellium3":
            return float(rf.jellium_three())
        if kind == "box_even":
            return float(rf.box_even_moment(*args))
        if kind == "delta_two":
            return float(rf.delta_two(*args))
        if kind == "ruby":
            return float(rf.ruby_single(*args))
        raise ValueError(spec)

    values = {}
    reports = []
    for i, (case, (rc, text)) in enumerate(zip(cases, outputs)):
        rep = {"case": i, "argv": " ".join(case.argv), "tol": case.tol, "rc": rc}
        reports.append(rep)
        if rc != 0:
            rep["ok"] = False
            rep["error"] = text.strip()[-300:]
            continue
        doc, value, est = _parse_report(text)
        values[i] = value
        rep.update(value=value, abs_err_est=est)
        rep["pass"] = doc.get("pass")
    for rep, case in zip(reports, cases):
        if rep["rc"] != 0:
            continue
        kind, arg = case.check
        if kind == "ref":
            ref = refs(arg)
        elif kind == "exact":
            ref = closed(arg)
        elif kind == "qmc":
            ref = refs(arg) if isinstance(arg, str) else closed(arg)
        elif kind == "swap":
            ref = values.get(arg, math.nan)
        elif kind == "contour":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.dispatch(list(arg))
            ref = _parse_report(buf.getvalue())[1] if rc == 0 else math.nan
        else:
            raise ValueError(kind)
        err = abs(rep["value"] - ref)
        allow = wl.QMC_MULT * rep["abs_err_est"] if kind == "qmc" else case.tol
        rep.update(reference=ref, abs_err=float(f"{err:.3g}"), check=kind,
                   ok=bool(rep["pass"] is True and err <= allow))
    return reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cli, h1_path, setup = _set_up(args.workload)
    cases = wl.cases_for(args.workload, args.seed, h1_path)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        _install_tracer(tracer)

    first: list[tuple[int, str]] = []
    times: list[list[float]] = [[] for _ in cases]
    round_walls: list[float] = []
    round_layers: list[dict] = []
    case_counts: list[dict] = []
    attempted = failed = 0
    drift = 0
    perf = time.perf_counter
    t_begin = perf()
    while True:
        r = len(round_walls)
        before = tracer.snapshot() if tracer else None
        r0 = perf()
        for i, case in enumerate(cases):
            buf = io.StringIO()
            if tracer:
                tracer.current_case, tracer.current_round = i, r
                c_before = dict(tracer.counters) if r == 0 else None
            c0 = perf()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.dispatch(list(case.argv))
            except Exception as exc:  # an uncaught program error fails the case
                rc = -1
                buf.write(f"{type(exc).__name__}: {exc}\n")
            times[i].append(perf() - c0)
            attempted += 1
            failed += rc != 0
            if r == 0:
                first.append((rc, buf.getvalue()))
                if tracer:
                    case_counts.append({k: v - c_before.get(k, 0) for k, v in
                                        tracer.counters.items() if v != c_before.get(k, 0)})
            elif (rc, buf.getvalue()) != first[i]:
                drift += 1
        round_walls.append(perf() - r0)
        if tracer:
            after = tracer.snapshot()
            round_layers.append(_layer_metrics({k: v - before.get(k, 0) for k, v in after.items()}))
        if perf() - t_begin >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.save(out_dir / "spans.tsv.gz")

    from references import References
    refs = References()
    reports = _check(cases, first, refs, cli)
    for rep, ts, counts in zip(reports, times, case_counts or [None] * len(cases)):
        if counts:
            rep["counts"] = {k: counts[k] for k in sorted(counts)}
        rep["time_ms"] = round(1e3 * min(ts), 3)
    lines = [json.dumps(rep, sort_keys=True) for rep in reports]
    digest = hashlib.sha256("\n".join(
        json.dumps({k: v for k, v in rep.items() if k != "time_ms"}, sort_keys=True)
        for rep in reports).encode()).hexdigest()
    (out_dir / "cases.jsonl").write_text("\n".join(lines) + "\n")

    bad = [rep for rep in reports if rep["rc"] == 0 and not rep["ok"]]
    correct = not bad and drift == 0 and refs.misses == 0
    for rep in bad:
        print(f"bench: case {rep['case']} wrong: {rep['argv']}: value {rep.get('value')} "
              f"reference {rep.get('reference')} est {rep.get('abs_err_est')}", file=sys.stderr)
    if drift:
        print(f"bench: {drift} case runs printed other bytes than round 0", file=sys.stderr)
    if refs.misses:
        print(f"bench: {refs.misses} references were missing from the cache", file=sys.stderr)

    # Each case's time is its best over the run's rounds.  On a shared
    # machine a core's speed can flip between states 1.8x apart from one
    # second to the next (seen on a 2-core VM); the median of a run drifts
    # with the share of time spent slow, the best of several calls of the
    # same case much less.
    best = [min(ts) for ts in times]
    wall_s = sum(best)
    if args.trace:
        metrics = {"setup.import_s": setup["setup.import_s"],
                   "setup.derive_s": setup["setup.derive_s"]}
        for name in PER_LAYER:
            if name not in metrics:
                metrics[name] = statistics.median(lr[name] for lr in round_layers)
        units = PER_LAYER
    else:
        metrics = {"setup_s": setup["setup_s"], "wall_s": wall_s,
                   "case_p50_ms": 1e3 * statistics.median(best),
                   "peak_rss_mb": peak_rss_mb, "src_lines": _src_lines()}
        units = END_TO_END
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "cases": len(cases), "rounds": len(round_walls), "round_wall_s": round_walls,
               "median_round_wall_s": statistics.median(round_walls), "wall_s": wall_s,
               "cases_sha256": digest, "correct": correct,
               "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"bench: {args.workload} seed {args.seed}: {len(cases)} cases x "
          f"{len(round_walls)} rounds, wall_s {wall_s:.4f}, cases_sha256 {digest[:16]}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
