"""cone-forge benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs one workload (or each in turn) in a fresh worker process, checks every
item against the independent oracles in oracles.py, prints a table of the
metrics with units and sample counts, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from spans plus the tracing overhead.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import inputs
import oracles
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("edge-sweep", "lattice-certify", "geometry-pointwise", "cli-readme")
SETUP_REPEATS = 3  # one before the measured worker, one after it
PROBE_REPEATS = 3
WORKER_TIMEOUT_S = 150
EDGE_PROBLEMS = ("solve_mode", "split_solution", "coefficient_bound_check")
CATALOGS = ("function_rates", "harmonic_rate_catalog", "one_form_catalog",
            "paired_catalog")
KIND_LAYER = {"recovery": "edge", "split": "edge", "bound": "edge",
              "kernel": "edge", "g2": "g2", "ma-cone": "stenzel",
              "ma-smooth": "stenzel", "profile": "stenzel", "rates": "spectra",
              "planted": "lattice", "certified": "lattice",
              "elliptic": "lattice", "satisfiable": "lattice",
              "cmd": "cli"}


class BenchmarkError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# statistics


def nearest_rank(values, q):
    """Value at rank ceil(q n) of the sorted sample (no interpolation)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tail(slots):
    """(value, percentile, samples beyond) over (latency, samples) slots: p90,
    or the highest percentile whose slots beyond hold ten or more samples."""
    ordered = sorted(slots)
    n = len(ordered)
    j = math.ceil(0.9 * n) - 1
    while j > 0 and sum(k for _, k in ordered[j + 1:]) < 10:
        j -= 1
    return ordered[j][0], 100.0 * (j + 1) / n, sum(k for _, k in ordered[j + 1:])


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# processes


def _env():
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _run_worker(args, tmp, out, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", tmp, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    try:
        subprocess.run(cmd, env=_env(), check=True, timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchmarkError(f"worker failed: {exc}") from None
    records = []
    with open(out, "rb") as fh:
        while True:
            try:
                records.append(pickle.load(fh))
            except EOFError:
                return records


def _timed(cmd, cwd):
    t = time.perf_counter()
    subprocess.run(cmd, cwd=cwd, env=_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t


def cli_start_probe(tmp):
    """(bare interpreter start, `import cone_forge.cli` minus that), medians."""
    interp, full = [], []
    for _ in range(PROBE_REPEATS):
        interp.append(_timed([sys.executable, "-c", "pass"], tmp))
        full.append(_timed([sys.executable, "-c", "import cone_forge.cli"], tmp))
    return statistics.median(interp), statistics.median(full) - statistics.median(interp)


def measure(args):
    """Run the workload process between set-up-only repeats; check its items."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        def setup_only(k):
            return _run_worker(args, tmp, f"{tmp}/setup{k}.pkl", True)[0]["setup_s"]
        before = SETUP_REPEATS // 2
        setups = [setup_only(k) for k in range(before)]
        records = _run_worker(args, tmp, f"{tmp}/run.pkl")
        setups += [setup_only(k) for k in range(before, SETUP_REPEATS - 1)]
        probe = cli_start_probe(tmp) if args.trace else None
    head, passes, final = records[0], records[1:-1], records[-1]
    items = [it for p in passes for it in p["items"]]
    run = dict(setups=setups + [head["setup_s"]], passes=passes, items=items,
               verdicts=oracles.check_items(items), final=final, probe=probe,
               side=oracles.bessel_vs_scipy(head["side"]) if head["side"] else None)
    for it in items:  # large outputs are no longer needed once checked
        it["result"] = None
    return run


# ---------------------------------------------------------------------------
# metrics


def failures(run):
    out = [(it["name"], note) for it, (ok, _, note) in
           zip(run["items"], run["verdicts"]) if not ok]
    if run["side"] is not None and not run["side"][0]:
        out.append(("bessel_k/bessel_i vs scipy", run["side"][2]))
    return out


def attempted(run):
    return len(run["items"]) + (run["side"] is not None)


def slot_latencies(run):
    """(latency, samples) of each item slot: the lower decile of its group.

    Every pass runs the workload's item list in the same order on fresh
    inputs, so slot i of each pass is the same kind of work.  A slot is its
    own group unless the workload puts slots that do the same work (say,
    G2 residuals of random 3-forms) in one group, which pools their samples.
    The host's speed shifts by up to 2x, often for under a second at a
    time; the lower decile (nearest rank) of a group's samples, which are
    spread over the whole run, tracks the undisturbed speed.
    """
    samples, group_of = defaultdict(list), {}
    for it in run["items"]:
        samples[it["group"]].append(it["seconds"])
        group_of[it["slot"]] = it["group"]
    latency = {g: nearest_rank(v, 0.1) for g, v in samples.items()}
    per_slot = len(run["passes"])
    return [(latency[g], per_slot) for _, g in sorted(group_of.items())]


def end_to_end(run, workload):
    slots = slot_latencies(run)
    latencies = [t for t, _ in slots]
    p90, pct, beyond = tail(slots)
    rss_kb = run["final"]["rss_self_kb"]
    if workload == "cli-readme":  # the commands run while the worker waits
        rss_kb += run["final"]["rss_children_kb"]
    n_pass, n_slot = len(run["passes"]), len(slots)
    per_slot = f"{n_slot} item latencies over {n_pass} passes"
    return {
        "wall_s": (math.fsum(latencies), "s", f"sum of {per_slot}"),
        "item_p50_ms": (nearest_rank(latencies, 0.5) * 1e3, "ms",
                        f"p50 of {per_slot}"),
        "item_p90_ms": (p90 * 1e3, "ms", f"p{pct:.1f} of {per_slot}, "
                        f"{beyond} samples beyond"),
        "setup_s": (statistics.median(run["setups"]), "s",
                    f"median of {len(run['setups'])} set-ups"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB",
                        "worker" + (" + largest command" if
                                    workload == "cli-readme" else "")),
    }


def _spans_by_name(spans):
    out = defaultdict(list)
    for s in spans:
        out[s[2], s[3]].append(s)
    return out


def _ms(spans):
    return median_or_zero([s[6] for s in spans]) * 1e3


def _worst_ratio(run, layer):
    return max((r for it, (_, r, _) in zip(run["items"], run["verdicts"])
                if KIND_LAYER[it["kind"]] == layer and r is not None),
               default=0.0)


def _problem_stats(spans):
    """(bessel array calls per top-level edge problem call, repeated-key share)."""
    by_id = {s[0]: s for s in spans}

    def top_problem(s):
        found = None
        while s is not None:
            if s[2] == "edge" and s[3] in EDGE_PROBLEMS:
                found = s
            s = by_id.get(s[1])
        return found

    tops = sorted((s for s in spans if s[2] == "edge" and s[3] in EDGE_PROBLEMS
                   and top_problem(s) is s), key=lambda s: (s[4], s[5]))
    if not tops:
        return 0.0, 0.0
    # array calls only: scalar calls come from scipy quad inside the cached
    # bound constant, once per (mu, delta'') and process
    calls = sum(1 for s in spans if s[2] == "bessel"
                and s[3] in ("bessel_k", "bessel_i") and s[8]["points"] > 1
                and top_problem(s))
    seen, repeats = set(), 0
    for s in tops:
        repeats += s[8]["key"] in seen
        seen.add(s[8]["key"])
    return calls / len(tops), repeats / len(tops)


def per_layer(run):
    """Per-layer rows from the traced passes; counts and times per pass."""
    spans = run["final"]["spans"]
    traced = [p for p in run["passes"] if p["traced"]]
    plain = {p["pass"]: p for p in run["passes"] if not p["traced"]}
    n = len(traced)
    named = _spans_by_name(spans)
    m = {}
    for layer in LAYERS:
        mine = [s for s in spans if s[2] == layer]
        self_s = sum(s[7] for s in mine)
        m[f"{layer}.calls"] = (len(mine) / n, "count")
        m[f"{layer}.self_s"] = (self_s / n, "s")
        m[f"{layer}.share"] = (self_s / sum(p["wall"] for p in traced), "ratio")

    k, i = named["bessel", "bessel_k"], named["bessel", "bessel_i"]
    k_points = sum(s[8]["points"] for s in k)
    m["bessel.k_points"] = (k_points / n, "count")
    m["bessel.i_points"] = (sum(s[8]["points"] for s in i) / n, "count")
    m["bessel.k_small_x_share"] = (
        sum(s[8]["small"] for s in k) / k_points if k_points else 0.0, "ratio")
    m["bessel.k_ns_per_point"] = (
        sum(s[6] for s in k) / k_points * 1e9 if k_points else 0.0, "ns")
    m["bessel.max_rel_err_vs_scipy"] = (
        run["side"][1] * oracles.BESSEL_SCIPY_TOL if run["side"] else 0.0,
        "ratio")

    solve = named["edge", "solve_mode"]
    per_problem, repeat_share = _problem_stats(spans)
    m["edge.solve_mode_ms"] = (_ms([s for s in solve if s[8]["N"] == 2048]), "ms")
    m["edge.solve_mode_16k_ms"] = (
        _ms([s for s in solve if s[8]["N"] == 16384]), "ms")
    m["edge.split_solution_ms"] = (_ms(named["edge", "split_solution"]), "ms")
    m["edge.coefficient_bound_check_ms"] = (
        _ms(named["edge", "coefficient_bound_check"]), "ms")
    m["edge.kernel_modes_ms"] = (_ms(named["edge", "kernel_modes"]), "ms")
    m["edge.worst_tol_ratio"] = (_worst_ratio(run, "edge"), "ratio")
    m["edge.bessel_calls_per_problem"] = (per_problem, "calls/problem")
    m["edge.repeat_key_share"] = (repeat_share, "ratio")

    searches = named["lattice", "constrained_class_search"]
    lattice_ok = [ok for it, (ok, _, _) in zip(run["items"], run["verdicts"])
                  if KIND_LAYER[it["kind"]] == "lattice"]
    m["lattice.certified_search_s"] = (median_or_zero(
        [s[6] for s in searches if s[8]["bound"] >= 10 ** 6
         and s[8]["square"] == -2]), "s")
    m["lattice.satisfiable_search_s"] = (median_or_zero(
        [s[6] for s in searches if s[8]["ndots"] == 0]), "s")
    m["lattice.small_search_ms"] = (_ms(
        [s for s in searches if s[8]["bound"] <= 100 and s[8]["ndots"]]), "ms")
    m["lattice.oracle_agree_frac"] = (
        sum(lattice_ok) / len(lattice_ok) if lattice_ok else 0.0, "ratio")

    residuals = named["g2", "linearization_residual"]
    m["g2.residual_ms"] = (_ms(residuals), "ms")
    m["g2.induced_metric_calls_per_residual"] = (
        len(named["g2", "induced_metric"]) / len(residuals) if residuals
        else 0.0, "calls/residual")
    m["g2.worst_tol_ratio"] = (_worst_ratio(run, "g2"), "ratio")

    points = named["stenzel", "monge_ampere_residual"]
    m["stenzel.solve_profile_ms"] = (_ms(
        [s for s in named["stenzel", "solve_profile"]
         if s[8]["n"] == 3 and s[8]["steps"] == 2000]), "ms")
    m["stenzel.ma_point_ms"] = (_ms(points), "ms")
    m["stenzel.potential_evals_per_point"] = (
        len(named["stenzel", "potential"]) / len(points) if points else 0.0,
        "evals/point")
    m["stenzel.worst_tol_ratio"] = (_worst_ratio(run, "stenzel"), "ratio")

    m["spectra.catalog_ms"] = (_ms(
        [s for name in CATALOGS for s in named["spectra", name]]), "ms")

    interp_s, import_s = run["probe"]
    m["cli.interp_s"] = (interp_s, "s")
    m["cli.import_s"] = (import_s, "s")
    for name, _ in inputs.README_COMMANDS:
        m[f"cli.cmd_ms.{name}"] = (median_or_zero(
            [it["seconds"] for p in plain.values() for it in p["items"]
             if it["name"] == name]) * 1e3, "ms")

    # each traced pass directly follows its untraced twin; the first pair
    # also holds the untraced warm-up, so it counts only when it is alone
    pairs = [p["wall"] - plain[p["pass"]]["wall"] for p in traced]
    overhead = statistics.median(pairs[1:] or pairs)
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_share"] = (
        overhead / statistics.median(p["wall"] for p in plain.values()),
        "ratio")
    return {k: (v, u, "") for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# output


def report(workload, args, run):
    metrics = per_layer(run) if args.trace else end_to_end(run, workload)
    failed = failures(run)
    n = attempted(run)
    print(f"== {workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  passes {len(run['passes'])}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:14s} {note}")
    print(f"  {'fail_frac':42s} {len(failed) / n:14.6g} {'ratio':14s} "
          f"{len(failed)} failed of {n} attempted")
    if args.trace:
        traced = statistics.mean(p["wall"] for p in run["passes"]
                                 if p["traced"])
        covered = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        print(f"  traced pass {traced:.4g} s, {covered / traced:.1%} inside "
              f"layer spans; tracing overhead "
              f"{metrics['trace.overhead_s'][0]:.4g} s per pass "
              f"({metrics['trace.overhead_share'][0]:.1%})")
    for name, note in sorted(set(failed)):
        print(f"  FAILED {name}: {note}")
    return {"correct": not failed, "attempted": n, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cone_forge" / "__init__.py").is_file():
        print(f"error: no cone_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = {}
    try:
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            args.workload = workload
            results[workload] = report(workload, args, measure(args))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        line = next(iter(results.values()))
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
