"""Seeded benchmark inputs and the closed forms the oracles compare against.

Only numpy is used here: nothing in this module calls cone_forge, so the
closed forms stay independent of the code under test.  Every draw comes from
``pass_rng(seed, workload, pass_index)``, so one seed gives the same inputs
for every pass of every run.
"""

from __future__ import annotations

import zlib

import numpy as np

# acceptance criterion 5 inputs: twenty (n, mu) recoveries on a 16k log grid
RECOVERY_PAIRS = tuple((n, mu) for n in (1, 2, 3, 5, 7, 9, 12, 16, 20, 25)
                       for mu in (0.7, 1.5))
RECOVERY_POINTS = 16384
RECOVERY_SUPPORT = 0.8
EDGE_POINTS = 2048
R_MIN = 1e-8

# per order: (delta', delta'') for split_solution, delta'' for the bound
# check (the criterion-5 pairs), and how many instances one pass draws
EDGE_WEIGHTS = {1.0: (0.5, 1.5, 0.25), 2.3: (1.0, 2.8, 0.5)}
EDGE_INSTANCES_PER_ORDER = 8

# the Gram matrix of (Pi-tilde, -K_plus, -quarter-K_minus) from the paper
MATCHING_GRAM = np.array([[-2, 1, 0], [1, 4, 0], [0, 0, 4]], dtype=np.int64)
MATCHING_NAMES = ("pi", "kplus", "kminus")


def pass_rng(seed: int, workload: str, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), pass_index])


def log_grid(num: int) -> np.ndarray:
    return np.geomspace(R_MIN, 1.0, num)


# ---------------------------------------------------------------------------
# edge


def manufactured(n: int, mu: float, hi: float = RECOVERY_SUPPORT):
    """(y*, z) with y*(r) = r^2 exp(-1/(hi - r)) below hi and 0 above it.

    z = ((r d/dr)^2 - (n^2 r^2 + mu^2)) y* from hand-written derivatives.
    y* is O(r^2) at 0 and flat at hi, so the Green-kernel solution with both
    homogeneous constants pinned to zero is y* itself for 0 < mu < 2.
    Below a distance 1e-2 from hi the factor exp(-1/(hi - r)) < 4e-44 is
    taken as zero.
    """

    def parts(r):
        r = np.asarray(r, dtype=float)
        d = hi - r
        inside = d > 1e-2
        g = np.zeros_like(r)
        g1 = np.zeros_like(r)
        g2 = np.zeros_like(r)
        di = d[inside]
        g[inside] = np.exp(-1.0 / di)
        g1[inside] = -g[inside] / di ** 2
        g2[inside] = g[inside] * (1.0 / di ** 4 - 2.0 / di ** 3)
        return (r * r * g, 2 * r * g + r * r * g1,
                2 * g + 4 * r * g1 + r * r * g2)

    def ystar(r):
        return parts(r)[0]

    def z(r):
        r = np.asarray(r, dtype=float)
        y, y1, y2 = parts(r)
        return r * r * y2 + r * y1 - (n * n * r * r + mu * mu) * y

    return ystar, z


def bump(a: float, b: float, amp: float):
    """amp * exp(-1/(t(1-t))) with t = (x-a)/(b-a): smooth, supported in (a, b)."""

    def f(x):
        x = np.asarray(x, dtype=float)
        t = (x - a) / (b - a)
        out = np.zeros_like(x)
        m = (t > 0) & (t < 1)
        out[m] = amp * np.exp(-1.0 / (t[m] * (1.0 - t[m])))
        return out

    return f


def bump_params(rng: np.random.Generator) -> tuple[float, float, float]:
    """Support and amplitude drawn as in acceptance criterion 5."""
    a = float(rng.uniform(0.05, 0.4))
    b = float(rng.uniform(a + 0.05, 0.85))
    return a, b, float(rng.uniform(0.1, 10.0))


def edge_instances(rng: np.random.Generator) -> list[dict]:
    """One pass of split/bound instances, equal counts per order.

    n covers [1, 50] by stratified draws (one per eighth of the range), so
    every pass costs about the same while no two passes share their inputs.
    The first instance per order is n = 1: the smallest Bessel arguments,
    hence the longest K quadrature and the largest temporaries, every pass.
    """
    out = []
    for k in range(EDGE_INSTANCES_PER_ORDER):
        for mu, (dp, dpp, dpp_bound) in EDGE_WEIGHTS.items():
            n = 1 + int((k + (rng.random() if k else 0.0))
                        * 50 / EDGE_INSTANCES_PER_ORDER)
            a, b, amp = bump_params(rng)
            out.append(dict(n=n, mu=mu, a=a, b=b, amp=amp, dp=dp, dpp=dpp,
                            dpp_bound=dpp_bound))
    return out


def rhs_csv(rng: np.random.Generator) -> str:
    """A seeded bump right-hand side as `r,z` CSV text on the 2048-point grid.

    `edge solve --verify` checks a fourth-order stencil residual to 1e-6 on
    this grid, which bumps narrower than about 0.45 do not meet (exit 1 is
    then the documented verdict); widths in [0.55, 0.75] stay below 0.3 of it.
    """
    a = float(rng.uniform(0.05, 0.2))
    b = a + float(rng.uniform(0.55, 0.75))
    amp = float(rng.uniform(0.1, 10.0))
    grid = log_grid(EDGE_POINTS)
    z = bump(a, b, amp)(grid)
    return "r,z\n" + "".join(f"{r:.17g},{v:.17g}\n" for r, v in zip(grid, z))


# the fifteen README commands, with --verify on each (every command offers it)
README_COMMANDS = (
    ("g2.lincheck", "g2 lincheck --samples 100 --step 1e-4"),
    ("bessel.eval", "bessel eval --mu 2.3 --x 1.0"),
    ("stenzel.profile", "stenzel profile --n 3 --wmax 20 --steps 2000 "
                        "--out profile.csv"),
    ("stenzel.ma-check", "stenzel ma-check --eps 0.5,0.5 --points 50 --seed 7"),
    ("spectra.rates", "spectra rates --input s5 --window=-0.5:6.5"),
    ("spectra.rates-harmonic", "spectra rates --input s2xs3_partial --p 2 "
                               "--kind harmonic --window=-2.5:0.5"),
    ("spectra.index-change", "spectra index-change --input s2xs3_partial "
                             "--delta=-2.0,-0.1 --delta-prime=-1.9,0.1 "
                             "--end-rates 0:2"),
    ("edge.solve", "edge solve --n 2 --mu 1.0 --rhs rhs.csv"),
    ("edge.split", "edge split --n 2 --mu 1.0 --rhs rhs.csv --delta-p 0.5 "
                   "--delta-pp 1.5"),
    ("edge.kernel", "edge kernel --nmax 10"),
    ("lattice.build", "lattice build"),
    ("lattice.match", "lattice match"),
    ("lattice.search", "lattice search --square=-2 --dots kplus:0 "
                       "--bound 1000000"),
    ("lattice.complement", "lattice complement"),
    ("lattice.generic", "lattice generic --seed 1"),
)


# ---------------------------------------------------------------------------
# geometry


def unit_3form(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(35)
    return v / np.linalg.norm(v)


def quadric_point(eps: complex, rng: np.random.Generator) -> np.ndarray:
    """z in C^4 with sum z_j^2 = eps and |z_4| >= 0.3 (chart 3 stays valid)."""
    while True:
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s2 = eps - np.sum(w * w)
        if abs(s2) >= 0.09:
            root = np.sqrt(s2) * (1 if rng.random() < 0.5 else -1)
            return np.append(w, root)


def profile_configs(rng: np.random.Generator) -> list[tuple[int, float, int]]:
    """(n, w_max, steps) per pass; w_max is drawn so no two passes repeat."""
    return [(3, float(rng.uniform(16.0, 20.0)), 2000),
            (2, float(rng.uniform(12.0, 16.0)), 1500),
            (4, float(rng.uniform(10.0, 14.0)), 1500)]


def profile_fprime(n: int, w: np.ndarray) -> np.ndarray:
    """Closed-form f' with (f'^n)' = n sinh^(n-1) w, f'(0) = 0, n in {2, 3, 4}."""
    if n == 2:
        return 2.0 * np.sinh(w / 2.0)
    if n == 3:
        return (1.5 * (np.sinh(w) * np.cosh(w) - w)) ** (1.0 / 3.0)
    if n == 4:  # 4 int_0^w sinh^3 = (4/3)(cosh w - 1)^2 (cosh w + 2)
        c1 = 2.0 * np.sinh(w / 2.0) ** 2
        return ((4.0 / 3.0) * c1 * c1 * (np.cosh(w) + 2.0)) ** 0.25
    raise ValueError(f"no closed form for n = {n}")


def rate_window(rng: np.random.Generator) -> tuple[float, float]:
    """Half-integer window inside (-10.5, 6.5), where the s5 data is complete."""
    return (-float(rng.integers(0, 11)) - 0.5, float(rng.integers(0, 7)) + 0.5)


# ---------------------------------------------------------------------------
# lattice


def planted_searches(rng: np.random.Generator, count: int, ndots: int,
                     names: tuple[str, ...] = ("kplus", "kminus")) -> list[dict]:
    """Searches over the matching span built around a planted solution.

    The planted coefficient vector has entries in [-bound, bound], so every
    one of these searches is satisfiable and no certificate may be returned.
    Dot constraints are drawn from `names`.  The benchmark leaves out pi: a
    pi constraint with an odd value, or pi with a second constraint, hits the
    false UNSAT that known_defects.py reproduces.
    """
    out = []
    for _ in range(count):
        bound = int(rng.integers(10, 31))
        x = rng.integers(-bound, bound + 1, 3)
        gx = MATCHING_GRAM @ x
        which = sorted(rng.choice(len(names), size=ndots, replace=False).tolist())
        dots = [(names[w], int(gx[MATCHING_NAMES.index(names[w])]))
                for w in which]
        out.append(dict(span="matching", square=int(x @ gx), dots=dots,
                        bound=bound))
    return out
