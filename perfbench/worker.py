"""One workload process: set up, run timed passes, stream item records.

    python3 worker.py --workload W --seed S --seconds R --trace 0|1 --tmp DIR
                      --out FILE [--setup-only]

A pass is one fixed-size batch of items; pass k draws its inputs from
(seed, workload, k).  Items run one at a time (a closed loop with a single
caller).  An item's latency covers only the calls into cone_forge (or, for
cli-readme, one cold `cone-forge` subprocess): drawing the inputs happens
before the clock starts, and checking the outputs happens in the parent
process afterwards.  An item that raises is recorded with its error and the
run goes on.

Passes run until the next one would overrun the budget.  With --trace 1
every pass runs untraced and then, with the tracer installed, again on the
same inputs.

The output file is a pickle stream: one setup record, one record per pass,
one final record with resource usage and spans.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


class Workload:
    """In-process workload: the tracer wraps cone_forge in this process."""

    min_passes = 1
    traced_run = False

    def side_checks(self):
        return None

    def start_tracing(self, tracer):
        tracer.install()

    def stop_tracing(self, tracer):
        tracer.uninstall()

    def collect_spans(self, item_index):
        return []


class EdgeSweep(Workload):
    def setup(self, seed, tmp):
        from cone_forge import bessel, edge
        self.edge, self.bessel = edge, bessel
        self.fine = inputs.log_grid(inputs.RECOVERY_POINTS)
        self.coarse = inputs.log_grid(inputs.EDGE_POINTS)
        self.recoveries = []
        for n, mu in inputs.RECOVERY_PAIRS:
            _, z = inputs.manufactured(n, mu)
            self.recoveries.append((n, mu, z, z(self.fine)))

    def side_checks(self):
        """bessel_k / bessel_i on the edge argument range, for the scipy check."""
        x = np.logspace(-8, np.log10(50.0), 300)
        return {"x": x, "values": {mu: (self.bessel.bessel_k(mu, x),
                                        self.bessel.bessel_i(mu, x))
                                   for mu in (0.0, 0.7, 1.0, 1.5, 2.3)}}

    def make_pass(self, rng):
        edge = self.edge
        items = []
        for n, mu, z, zvals in self.recoveries:
            def run(n=n, mu=mu, z=z, zvals=zvals):
                prob = edge.ModeProblem(n=n, mu=mu, grid=self.fine, rhs=zvals,
                                        support_max=inputs.RECOVERY_SUPPORT,
                                        rhs_fn=z)
                return {"y": edge.solve_mode(prob)}
            items.append(("recovery", f"recovery n={n} mu={mu}",
                          {"n": n, "mu": mu}, run))
        for inst in inputs.edge_instances(rng):
            z = inputs.bump(inst["a"], inst["b"], inst["amp"])
            zvals = z(self.coarse)

            def problem(inst=inst, z=z, zvals=zvals):
                return edge.ModeProblem(n=inst["n"], mu=inst["mu"],
                                        grid=self.coarse, rhs=zvals,
                                        support_max=inst["b"], rhs_fn=z)

            def split(inst=inst, problem=problem):
                sol = edge.split_solution(problem(), inst["dp"], inst["dpp"])
                return {"y": sol.y, "c_low": sol.c_low}

            def bound(inst=inst, problem=problem):
                lhs, rhs = edge.coefficient_bound_check(problem(),
                                                        inst["dpp_bound"])
                return {"lhs": lhs, "rhs": rhs}
            tag = f"n={inst['n']} mu={inst['mu']}"
            items.append(("split", f"split {tag}", inst, split))
            items.append(("bound", f"bound {tag}", inst, bound))

        def kernel():
            return {"modes": [(m.n, m.identity_residual, m.ode0_residual,
                               m.ode1_residual, m.log_ratio, m.inverse_ratio)
                              for m in edge.kernel_modes(10)]}
        items.append(("kernel", "kernel_modes(10)", {"n_max": 10}, kernel))
        return items


class GeometryPointwise(Workload):
    def setup(self, seed, tmp):
        from cone_forge import g2, spectra, stenzel
        self.g2, self.st, self.sp = g2, stenzel, spectra
        # the smoothing-point fixture, as in criterion 3 and `stenzel ma-check`
        self.profile = stenzel.solve_profile(3, 20.0, 2000)
        self.s5_modes = spectra.load_spectrum("s5").coclosed(0)

    def make_pass(self, rng):
        g2, st, sp = self.g2, self.st, self.sp
        items = []
        for k in range(24):
            gamma = inputs.unit_3form(rng)

            def lin(gamma=gamma):
                return {"res": [g2.linearization_residual(gamma, h)
                                for h in (1e-2, 1e-3, 1e-4)]}
            items.append(("g2", f"g2 residual #{k}", {}, lin, "g2"))
        for k in range(20):
            z = inputs.quadric_point(0.0, rng)

            def cone(z=z):
                pt = st.QuadricPoint(z=z, eps=0.0)
                return {"res": st.monge_ampere_residual(
                    st.cone_potential_fn(3), pt, h=1e-3)}
            items.append(("ma-cone", f"ma cone #{k}", {}, cone, "ma-cone"))
        for k in range(20):
            eps = (1.0, 0.5 + 0.5j)[k % 2]
            z = inputs.quadric_point(eps, rng)

            def smooth(z=z, eps=eps):
                pt = st.QuadricPoint(z=z, eps=eps)
                return {"res": st.monge_ampere_residual(
                    st.stenzel_potential_fn(self.profile, eps), pt, h=1e-3)}
            items.append(("ma-smooth", f"ma smoothing #{k} eps={eps}", {},
                          smooth, f"ma-smooth eps={eps}"))
        for n, w_max, steps in inputs.profile_configs(rng):
            def prof(n=n, w_max=w_max, steps=steps):
                p = st.solve_profile(n, w_max, steps)
                return {"w": p.w, "fprime": p.fprime, "f0": float(p.f[0])}
            items.append(("profile", f"profile n={n} w_max={w_max:.3f} "
                          f"steps={steps}", {"n": n}, prof))
        for k in range(8):
            window = inputs.rate_window(rng)

            def rates(window=window):
                return {"rates": [(r.lam, r.multiplicity) for r in
                                  sp.function_rates(3, self.s5_modes, window)]}
            items.append(("rates", f"s5 function rates {window}",
                          {"window": window}, rates))
        return items


class LatticeCertify(Workload):
    def setup(self, seed, tmp):
        from cone_forge import lattice
        self.lat = lattice
        self.L = lattice.build_k3_lattice()
        images = lattice.matching_embedding(self.L).images
        self.vectors = dict(zip(inputs.MATCHING_NAMES, images))
        unit = np.eye(self.L.rank, dtype=int).astype(object)
        self.vectors["B1"], self.c1 = unit[16], unit[17]

    def _span(self, spec):
        if spec["span"] == "matching":
            return [self.vectors[k] for k in inputs.MATCHING_NAMES]
        return [m * self.c1 for m in spec["c1_multiples"]]

    def search(self, kind, name, spec, group=None):
        """One search as an item: (kind, name, params, run, group)."""
        def run():
            res = self.lat.constrained_class_search(
                self._span(spec), spec["square"],
                [(self.vectors[w], v) for w, v in spec["dots"]],
                spec["bound"], L=self.L)
            cert = res.certificate
            return {"solutions": [tuple(s) for s in res.solutions],
                    "cert": None if cert is None else cert.modulus}
        return kind, name, spec, run, group

    def make_pass(self, rng):
        fixed = [
            ("certified", "certified (-2)-class search, bound 1e6",
             dict(span="matching", square=-2, dots=[("kplus", 0)],
                  bound=10 ** 6)),
            ("elliptic", "elliptic-class linear UNSAT search",
             dict(span="matching", square=0, dots=[("kplus", 0), ("kminus", 2)],
                  bound=10 ** 6)),
        ]
        # one call of about 12 s: a single sample per run, too few for a
        # bounded end-to-end metric, so only the traced run times it
        if self.traced_run:
            fixed.append(("satisfiable", "unconstrained (-2)-class search, "
                          "bound 50", dict(span="matching", square=-2, dots=[],
                                           bound=50)))
        # a planted search's time is its modulus loop, fixed by its number
        # of free variables, so searches with equally many dots share a group
        planted = ([("planted", f"planted 1-dot #{k}", s, "planted 1-dot")
                    for k, s in enumerate(inputs.planted_searches(rng, 12, 1))]
                   + [("planted", f"planted 2-dot #{k}", s, "planted 2-dot")
                      for k, s in enumerate(inputs.planted_searches(rng, 4, 2))])
        # the planted searches are spread between the large ones, so their
        # latencies sample the whole pass rather than its first seconds
        order = planted[:6] + fixed[:1] + planted[6:11] + fixed[1:] + planted[11:]
        return [self.search(*item) for item in order]


# what the `cone-forge` console script runs
LAUNCH = ("import sys; from cone_forge.cli import main; "
          "sys.argv[0] = 'cone-forge'; main()")


class CliReadme(Workload):
    """Cold `cone-forge` subprocesses; traced ones write their own spans."""

    min_passes = 3  # stdout must repeat within a run; slots need repeats

    def setup(self, seed, tmp):
        self.tmp = Path(tmp)
        rhs = inputs.rhs_csv(inputs.pass_rng(seed, "cli-readme", 0))
        (self.tmp / "rhs.csv").write_text(rhs)
        # the package import, as the in-process workloads pay it in set-up;
        # it also leaves the first timed command no colder than the rest
        subprocess.run([sys.executable, "-c", "import cone_forge.cli"],
                       cwd=self.tmp, check=True, timeout=CLI_TIMEOUT_S)
        self.traced = False
        self.id_offset = 0
        self.span_file = self.tmp / "spans.pkl"

    def start_tracing(self, tracer):
        self.traced = True

    def stop_tracing(self, tracer):
        self.traced = False

    def make_pass(self, rng):
        items = []
        for name, line in inputs.README_COMMANDS:
            argv = line.split() + ["--verify"]

            def run(argv=argv):
                if not self.traced:
                    cmd = [sys.executable, "-c", LAUNCH, *argv]
                else:
                    cmd = [sys.executable, str(HERE / "tracer.py"),
                           str(self.span_file), *argv]
                done = subprocess.run(cmd, cwd=self.tmp, capture_output=True,
                                      timeout=CLI_TIMEOUT_S)
                out = self.tmp / "profile.csv"
                return {"rc": done.returncode, "stdout": done.stdout,
                        "stderr": done.stderr[-2000:],
                        "file": out.read_bytes() if "--out" in argv else None}
            items.append(("cmd", name, {"argv": argv}, run))
        return items

    def collect_spans(self, item_index):
        if not self.span_file.exists():  # untraced, or killed by the timeout
            return []
        with open(self.span_file, "rb") as fh:
            spans = pickle.load(fh)
        self.span_file.unlink()
        off = self.id_offset  # span ids restart at 0 in every process
        self.id_offset += len(spans)
        return [(s[0] + off, None if s[1] is None else s[1] + off, *s[2:4],
                 item_index, *s[5:]) for s in spans]


WORKLOADS = {
    "edge-sweep": EdgeSweep,
    "lattice-certify": LatticeCertify,
    "geometry-pointwise": GeometryPointwise,
    "cli-readme": CliReadme,
}


class Runner:
    def __init__(self, workload, name, seed, sink):
        self.w, self.name, self.seed, self.sink = workload, name, seed, sink
        self.items = 0
        self.tracer = Tracer()
        self.spans = []

    def run_phase(self, budget, min_passes, paired=False):
        """Run passes until the next one would overrun `budget` seconds.

        With `paired`, each pass runs untraced and then again traced on the
        same inputs, so the two compare at the same moment of the run.
        """
        start = time.perf_counter()
        passes = 0
        last = 0.0
        while passes < min_passes or \
                time.perf_counter() - start + last <= budget:
            t = time.perf_counter()
            passes += 1
            self.run_pass(passes)
            if paired:
                self.w.start_tracing(self.tracer)
                self.run_pass(passes, traced=True)
                self.w.stop_tracing(self.tracer)
            last = time.perf_counter() - t

    def run_pass(self, number, traced=False):
        rng = inputs.pass_rng(self.seed, self.name, number)
        records = []
        for slot, (kind, name, params, run, *group) in enumerate(
                self.w.make_pass(rng)):
            group = group[0] if group and group[0] is not None else slot
            self.tracer.item = self.items
            error = None
            result = None
            t = time.perf_counter()
            try:
                result = run()
            except Exception as exc:  # recorded as a failed item
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            self.spans += self.w.collect_spans(self.items)
            records.append({"slot": slot, "group": group,
                            "kind": kind, "name": name, "params": params,
                            "seconds": dt, "result": result, "error": error})
            self.items += 1
        pickle.dump({"pass": number, "traced": traced,
                     "wall": sum(r["seconds"] for r in records),
                     "items": records}, self.sink)
        self.sink.flush()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]()
    workload.traced_run = bool(args.trace)
    workload.setup(args.seed, args.tmp)
    setup_s = time.perf_counter() - _T0
    with open(args.out, "wb") as sink:
        if args.setup_only:
            pickle.dump({"setup_s": setup_s}, sink)
            return
        pickle.dump({"setup_s": setup_s, "side": workload.side_checks()}, sink)
        runner = Runner(workload, args.workload, args.seed, sink)
        if args.trace:
            runner.run_phase(args.seconds, 1, paired=True)
        else:
            runner.run_phase(args.seconds, workload.min_passes)
        usage = resource.getrusage
        pickle.dump({
            "rss_self_kb": usage(resource.RUSAGE_SELF).ru_maxrss,
            "rss_children_kb": usage(resource.RUSAGE_CHILDREN).ru_maxrss,
            "spans": runner.tracer.spans + runner.spans,
        }, sink)


if __name__ == "__main__":
    main()
