import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from _fresh_python import run_python
from cone_forge import g2
from cone_forge.errors import InputError

# the two refusals of a 3-form that induces no positive metric
DEGENERATE = (r"det\(B\) = .* is not finite and positive"
              r"|bilinear form is indefinite")


def perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def dense_tensor(coeffs, k):
    """Full antisymmetric tensor from combination coefficients (oracle)."""
    T = np.zeros((7,) * k)
    for c, combo in enumerate(g2.COMBOS[k]):
        for perm in itertools.permutations(combo):
            T[perm] = perm_sign(perm) * coeffs[c]
    return T


def oracle_wedge_top(a2, b2, phi):
    """(a ^ b ^ phi) coefficient of e^{1..7} from raw permutation sums."""
    A = dense_tensor(a2, 2)
    B = dense_tensor(b2, 2)
    P = dense_tensor(phi, 3)
    total = 0.0
    for perm in itertools.permutations(range(7)):
        total += (perm_sign(perm) * A[perm[0], perm[1]] * B[perm[2], perm[3]]
                  * P[perm[4], perm[5], perm[6]])
    return total / (2 * 2 * 6)  # 2! 2! 3! normalization of the shuffle sum


def contract_basis(i, form, k):
    """e_i . form, from the directly built interior-product tensor."""
    return reference_contract_tensor(k)[i] @ form


def test_phi0_nonzero_entries():
    nz = {g2.COMBOS[3][i]: v for i, v in enumerate(g2.PHI0) if v != 0}
    assert nz == {(0, 1, 2): 1, (0, 3, 4): 1, (0, 5, 6): 1, (1, 3, 5): 1,
                  (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1}


def test_induced_metric_phi0_oracle():
    # raw permutation oracle: (e_i . phi0)^(e_j . phi0)^phi0 = 6 delta e^{1..7}
    for i in range(7):
        for j in range(i, 7):
            a = contract_basis(i, g2.PHI0, 3)
            b = contract_basis(j, g2.PHI0, 3)
            val = oracle_wedge_top(a, b, g2.PHI0)
            assert val == pytest.approx(6.0 if i == j else 0.0, abs=1e-12)
    m = g2.induced_metric(g2.PHI0)
    assert np.allclose(m.g, np.eye(7), atol=1e-13)
    assert m.vol == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_induced_metric_perturbed_oracle(seed):
    # B = vol * g against raw permutation sums; iota_i taken from the dense
    # tensor of phi, not from the interior-product table
    rng = np.random.default_rng(seed)
    phi = g2.PHI0 + 0.2 * rng.standard_normal(35)
    P = dense_tensor(phi, 3)
    iota = [np.array([P[i, a, b] for a, b in g2.COMBOS[2]]) for i in range(7)]
    B = np.empty((7, 7))
    for i in range(7):
        for j in range(i, 7):
            B[i, j] = B[j, i] = oracle_wedge_top(iota[i], iota[j], phi) / 6.0
    m = g2.induced_metric(phi)
    assert np.max(np.abs(m.vol * m.g - B)) <= 1e-12
    assert m.vol == pytest.approx(np.linalg.det(B) ** (1.0 / 9.0), abs=1e-12)


# direct constructions of the interior-product tensor, the star's complement
# table and a sparse wedge, kept as references for the one wedge tensor

def reference_contract_tensor(k):
    """T[i] maps k-form coefficients to (e_i . form) coefficients."""
    T = np.zeros((7, g2.form_dim(k - 1), g2.form_dim(k)))
    for c, combo in enumerate(g2.COMBOS[k]):
        for pos, i in enumerate(combo):
            rest = combo[:pos] + combo[pos + 1:]
            T[i, g2.combo_index(rest), c] = (-1.0) ** pos
    return T


def reference_star_tables(k):
    """Complement index and sign of each k-tuple."""
    perm = np.empty(g2.form_dim(k), dtype=int)
    sgn = np.empty(g2.form_dim(k))
    for c, combo in enumerate(g2.COMBOS[k]):
        comp = tuple(i for i in range(7) if i not in combo)
        perm[c] = g2.combo_index(comp)
        sgn[c] = perm_sign(combo + comp)
    return perm, sgn


def reference_star(g, raised, k):
    perm, sgn = reference_star_tables(k)
    out = np.zeros(g2.form_dim(7 - k))
    out[perm] = np.sqrt(np.linalg.det(g)) * sgn * raised
    return out


def star(g, form, k):
    """Hodge star of a k-form for the positive-definite metric g, read off
    the complement table of _wedge_tensor as theta reads it for phi."""
    raised = g2._compound(np.linalg.inv(g), k) @ form
    return np.sqrt(np.linalg.det(g)) * raised @ g2._wedge_tensor(k, 7 - k)[:, :, 0]


def wedge(a, k, b, l):
    """a ^ b from the one multiplication table."""
    return np.einsum("a,b,abc->c", a, b, g2._wedge_tensor(k, l))


def reference_wedge(a, k, b, l):
    """Sparse sign table accumulated with np.add.at."""
    rows, cols, outs, signs = [], [], [], []
    for i, ca in enumerate(g2.COMBOS[k]):
        for j, cb in enumerate(g2.COMBOS[l]):
            if not set(ca) & set(cb):
                rows.append(i)
                cols.append(j)
                outs.append(g2.combo_index(ca + cb))
                signs.append(perm_sign(ca + cb))
    out = np.zeros(g2.form_dim(k + l))
    np.add.at(out, outs, np.array(signs) * a[rows] * b[cols])
    return out


@pytest.mark.parametrize("k", range(1, 8))
def test_contract_reads_wedge_table_exactly(k):
    T = reference_contract_tensor(k)
    assert np.array_equal(g2._wedge_tensor(1, k - 1), T)


@pytest.mark.parametrize("k", range(8))
def test_star_reads_wedge_table_exactly(k):
    perm, sgn = reference_star_tables(k)
    S = np.zeros((g2.form_dim(k), g2.form_dim(7 - k)))
    S[np.arange(g2.form_dim(k)), perm] = sgn
    assert np.array_equal(g2._wedge_tensor(k, 7 - k)[:, :, 0], S)
    rng = np.random.default_rng(40 + k)
    for _ in range(20):
        A = rng.standard_normal((7, 7))
        g = A @ A.T + 0.5 * np.eye(7)
        form = rng.standard_normal(g2.form_dim(k))
        raised = g2._compound(np.linalg.inv(g), k) @ form
        assert np.array_equal(star(g, form, k), reference_star(g, raised, k))


def test_phi0_tables_exact():
    perm, sgn = reference_star_tables(3)
    star0 = np.zeros((35, 35))
    star0[perm, np.arange(35)] = sgn
    P1, P7, P27 = g2.projector_matrices(g2.PHI0)
    assert np.array_equal(g2._linearization_matrix(),
                          star0 @ ((4.0 / 3.0) * P1 + P7 - P27))
    # at phi0 every entry of B is integer arithmetic
    m = g2.induced_metric(g2.PHI0)
    assert np.array_equal(m.g, np.eye(7)) and m.vol == 1.0


def test_wedge_matches_sparse_reference():
    rng = np.random.default_rng(50)
    for k in range(8):
        for l in range(8 - k):
            a = rng.standard_normal(g2.form_dim(k))
            b = rng.standard_normal(g2.form_dim(l))
            assert np.allclose(wedge(a, k, b, l), reference_wedge(a, k, b, l),
                               rtol=1e-14, atol=1e-14)


def test_import_builds_no_table():
    proc = run_python(
        ["-c", "import numpy as np, cone_forge.g2 as g; "
         "print([n for n, v in vars(g).items() if isinstance(v, np.ndarray)]); "
         "print(g._wedge_tensor.cache_info().currsize, "
         "g._phi0_projectors.cache_info().currsize, "
         "g._linearization_matrix.cache_info().currsize, "
         "g._dense_3.cache_info().currsize)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['PHI0']", "0 0 0 0"]


def test_project_3form_at_phi0_reuses_projectors(monkeypatch):
    P1, P7, _ = g2.projector_matrices(g2.PHI0)
    g2._phi0_projectors()

    def rebuilt(phi):
        raise AssertionError("projectors rebuilt at phi0")

    monkeypatch.setattr(g2, "projector_matrices", rebuilt)
    gamma = np.random.default_rng(60).standard_normal(35)
    dec = g2.project_3form(g2.PHI0.copy(), gamma)
    assert np.array_equal(dec.pi1, P1 @ gamma)
    assert np.array_equal(dec.pi7, P7 @ gamma)
    assert np.array_equal(dec.pi27, gamma - dec.pi1 - dec.pi7)


@pytest.mark.parametrize("c", [0.5, 1.7, 3.0])
def test_scaling_law(c):
    m = g2.induced_metric(c * g2.PHI0)
    assert np.allclose(m.g, c ** (2.0 / 3.0) * np.eye(7), rtol=1e-10)


def test_scaling_law_random_form():
    rng = np.random.default_rng(1)
    phi = g2.PHI0 + 0.2 * rng.standard_normal(35)
    g_1 = g2.induced_metric(phi).g
    g_c = g2.induced_metric(2.0 * phi).g
    assert np.allclose(g_c, 2 ** (2.0 / 3.0) * g_1, rtol=1e-10)


def test_degenerate_form_rejected():
    with pytest.raises(InputError, match=DEGENERATE):
        g2.induced_metric(np.zeros(35))
    with pytest.raises(InputError, match=DEGENERATE):
        g2.induced_metric(-g2.PHI0)  # orientation-reversing


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_form_rejected(bad):
    # a NaN det(B) passes "det <= tol" and a NaN matrix passes Cholesky
    phi = g2.PHI0.copy()
    phi[5] = bad
    with pytest.raises(InputError, match=DEGENERATE):
        g2.induced_metric(phi)


def test_split_type_form_rejected():
    # det(B) > 0 but the bilinear form has signature (3,4); must not slip
    # through as a "metric"
    split = np.array([
        -1.280394, -0.713068, 0.621018, -2.250141, 0.38637, -0.581641,
        0.10928, -0.075702, 0.202114, 0.694172, -0.75837, 1.420982,
        0.726094, 0.843733, 1.164864, 0.787588, 0.844079, 0.075594,
        -1.426774, -0.135045, -0.769515, -1.422742, 0.258453, -0.568549,
        -1.029804, -1.043001, 0.268417, 0.358672, 1.322457, -0.013915,
        1.04184, 1.402265, 1.150166, -2.365304, 1.228684])
    with pytest.raises(InputError, match=DEGENERATE):
        g2.induced_metric(split)


def test_hodge_star_defining_property():
    # alpha ^ *omega = <alpha, omega>_g vol_g for random metric and forms
    rng = np.random.default_rng(12)
    A = rng.standard_normal((7, 7))
    met_g = A @ A.T + 0.5 * np.eye(7)
    volume = np.sqrt(np.linalg.det(met_g))
    for k in (1, 2, 3, 4):
        Lk = g2._compound(np.linalg.inv(met_g), k)
        for _ in range(5):
            alpha = rng.standard_normal(g2.form_dim(k))
            omega = rng.standard_normal(g2.form_dim(k))
            lhs = wedge(alpha, k, star(met_g, omega, k), 7 - k)[0]
            rhs = (alpha @ Lk @ omega) * volume
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_star_star_identity_all_degrees():
    rng = np.random.default_rng(2)
    phi = g2.PHI0 + 0.15 * rng.standard_normal(35)
    g = g2.induced_metric(phi).g
    for k in range(8):
        x = rng.standard_normal(g2.form_dim(k))
        back = star(g, star(g, x, k), 7 - k)
        assert np.allclose(back, x, atol=1e-12)


def test_star_star_100_random_3forms():
    rng = np.random.default_rng(3)
    g = g2.induced_metric(g2.PHI0).g
    for _ in range(100):
        x = rng.standard_normal(35)
        assert np.max(np.abs(star(g, star(g, x, 3), 4) - x)) < 1e-12


def test_hodge_star_basis_examples():
    e1 = np.zeros(7)
    e1[0] = 1.0
    expect = np.zeros(7)
    expect[g2.combo_index((1, 2, 3, 4, 5, 6))] = 1.0
    assert np.allclose(star(np.eye(7), e1, 1), expect)
    assert np.allclose(star(np.eye(7), np.array([1.0]), 0), np.ones(1))


def test_theta_model_point_and_scaling():
    th = g2.theta(g2.PHI0)
    assert np.allclose(th, star(g2.induced_metric(g2.PHI0).g, g2.PHI0, 3))
    rng = np.random.default_rng(4)
    phi = g2.PHI0 + 0.1 * rng.standard_normal(35)
    for c in (0.5, 2.0):
        assert np.allclose(g2.theta(c * phi), c ** (4.0 / 3.0) * g2.theta(phi),
                           rtol=1e-9)


def g2_algebra_basis():
    """The 14 2-forms a with a ^ *phi0 = 0: the Lie algebra of G2."""
    star_phi = g2.PHI0 @ g2._wedge_tensor(3, 4)[:, :, 0]
    rows = np.einsum("abc,b->ac", g2._wedge_tensor(2, 4), star_phi)
    _, s, vt = np.linalg.svd(rows.T, full_matrices=True)
    return vt[np.sum(s > 1e-10):]


def two_form_matrix(a):
    """Antisymmetric matrix of a 2-form under the flat metric."""
    X = np.zeros((7, 7))
    for c, (i, j) in enumerate(g2.COMBOS[2]):
        X[i, j], X[j, i] = a[c], -a[c]
    return X


def pullback(A, form, k):
    """Pullback of a k-form by the linear map A (A*e^j = sum_i A_ji e^i)."""
    return g2._compound(A.T, k).T @ form


def test_theta_equivariance_under_g2_rotations():
    basis = g2_algebra_basis()
    assert basis.shape == (14, 21)
    rng = np.random.default_rng(5)
    th0 = g2.theta(g2.PHI0)
    for _ in range(4):
        a = basis.T @ rng.standard_normal(14)
        A = expm(two_form_matrix(0.3 * a))
        # A preserves phi0, hence theta(phi0)
        assert np.allclose(pullback(A, g2.PHI0, 3), g2.PHI0, atol=1e-10)
        assert np.allclose(pullback(A, th0, 4), th0, atol=1e-10)
        # equivariance at a generic form
        phi = g2.PHI0 + 0.1 * rng.standard_normal(35)
        lhs = g2.theta(pullback(A, phi, 3))
        rhs = pullback(A, g2.theta(phi), 4)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_dense_3_table_is_the_antisymmetric_extension():
    S, increasing = g2._dense_3()
    phi = np.random.default_rng(69).standard_normal(35)
    assert np.array_equal((S @ phi).reshape(7, 7, 7), dense_tensor(phi, 3))
    assert np.array_equal((S @ phi)[increasing], phi)


def theta_by_compound(phi):
    """theta with the indices raised by _compound(inv(g), 3), as it was
    computed before the raise moved onto the dense tensor (reference)."""
    return star(g2.induced_metric(phi).g, phi, 3)


def test_theta_matches_compound_raise():
    rng = np.random.default_rng(70)
    for t in np.geomspace(1e-4, 1e-1, 200):
        phi = g2.PHI0 + t * g2.random_unit_3form(rng)
        ref = theta_by_compound(phi)
        assert np.linalg.norm(g2.theta(phi) - ref) <= \
            1e-14 * np.linalg.norm(ref)


def test_linearization_residual_matches_compound_formula():
    rng = np.random.default_rng(71)
    for _ in range(50):
        gamma = g2.random_unit_3form(rng)
        for h in (1e-2, 1e-3, 1e-4):
            diff = (theta_by_compound(g2.PHI0 + h * gamma)
                    - theta_by_compound(g2.PHI0 - h * gamma)) / (2.0 * h)
            ref = np.linalg.norm(diff - g2._linearization_matrix() @ gamma)
            assert abs(g2.linearization_residual(gamma, h) - ref) <= 1e-11


def test_projection_examples():
    dec = g2.project_3form(g2.PHI0, g2.PHI0)
    assert np.allclose(dec.pi1, g2.PHI0, atol=1e-12)
    assert np.allclose(dec.pi7, 0, atol=1e-12)
    assert np.allclose(dec.pi27, 0, atol=1e-12)
    star_phi = g2.theta(g2.PHI0)
    gen7 = contract_basis(0, star_phi, 4)
    dec = g2.project_3form(g2.PHI0, gen7)
    assert np.allclose(dec.pi7, gen7, atol=1e-12)
    assert np.allclose(dec.pi1, 0, atol=1e-12)
    assert np.allclose(dec.pi27, 0, atol=1e-12)


def test_projector_ranks_and_identities():
    P1, P7, P27 = g2.projector_matrices(g2.PHI0)
    assert np.linalg.matrix_rank(P1) == 1
    assert np.linalg.matrix_rank(P7) == 7
    assert np.linalg.matrix_rank(P27) == 27
    for A in (P1, P7, P27):
        assert np.allclose(A @ A, A, atol=1e-10)
    assert np.allclose(P1 @ P7, 0, atol=1e-10)
    assert np.allclose(P7 @ P27, 0, atol=1e-10)
    assert np.allclose(P1 + P7 + P27, np.eye(35), atol=1e-10)


def test_projector_ranks_and_identities_near_phi0():
    rng = np.random.default_rng(11)
    phi = g2.PHI0 + 0.1 * rng.standard_normal(35)
    M = g2._compound(np.linalg.inv(g2.induced_metric(phi).g), 3)
    P1, P7, P27 = g2.projector_matrices(phi)
    assert [np.linalg.matrix_rank(P) for P in (P1, P7, P27)] == [1, 7, 27]
    for A in (P1, P7, P27):
        assert np.allclose(A @ A, A, atol=1e-10)
        # orthogonal in the metric phi induces: M P is symmetric
        assert np.allclose(M @ A, (M @ A).T, atol=1e-10)
    for A, B in ((P1, P7), (P1, P27), (P7, P27)):
        assert np.allclose(A @ B, 0, atol=1e-10)
        assert np.allclose(B @ A, 0, atol=1e-10)
    assert np.allclose(P1 @ phi, phi, atol=1e-10)


def test_projection_reconstruction_random():
    rng = np.random.default_rng(6)
    phi = g2.PHI0 + 0.1 * rng.standard_normal(35)
    met = g2.induced_metric(phi)
    M = g2._compound(np.linalg.inv(met.g), 3)
    for _ in range(100):
        gamma = rng.standard_normal(35)
        dec = g2.project_3form(phi, gamma)
        assert np.allclose(dec.pi1 + dec.pi7 + dec.pi27, gamma, atol=1e-10)
        assert abs(dec.pi1 @ M @ dec.pi7) < 1e-10
        assert abs(dec.pi1 @ M @ dec.pi27) < 1e-10
        assert abs(dec.pi7 @ M @ dec.pi27) < 1e-10


def test_linearization_directions():
    # gamma = phi0: derivative (4/3) * phi0
    assert g2.linearization_residual(g2.PHI0, 1e-4) <= 1e-6
    # gamma in the 27-part: derivative -*gamma
    rng = np.random.default_rng(7)
    dec = g2.project_3form(g2.PHI0, rng.standard_normal(35))
    g27 = dec.pi27 / np.linalg.norm(dec.pi27)
    assert g2.linearization_residual(g27, 1e-4) <= 1e-6
    # and the zero form
    assert g2.linearization_residual(np.zeros(35)) == 0.0


def test_linearization_order_two():
    rng = np.random.default_rng(8)
    gamma = g2.random_unit_3form(rng)
    hs = np.array([1e-2, 1e-3, 1e-4])
    res = np.array([g2.linearization_residual(gamma, h) for h in hs])
    slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
    assert abs(slope - 2.0) <= 0.2


def test_linearization_rejects_large_step():
    with pytest.raises(InputError, match=DEGENERATE):
        g2.linearization_residual(-10.0 * g2.PHI0, 1.0)


# the stacked metric and theta pass

def test_theta_stack_matches_rows():
    rng = np.random.default_rng(72)
    phis = np.array([g2.PHI0 + t * g2.random_unit_3form(rng)
                     for t in np.geomspace(1e-4, 1e-1, 64)])
    stacked, g = g2._thetas(phis)
    for phi, th, gi in zip(phis, stacked, g):
        row = g2.theta(phi)
        assert np.linalg.norm(th - row) <= 1e-14 * np.linalg.norm(row)
        assert np.array_equal(gi, g2.induced_metric(phi).g)


@pytest.mark.parametrize("bad", ["degenerate", "nan"])
def test_stack_with_one_bad_row_raises(bad):
    rng = np.random.default_rng(73)
    phis = np.array([g2.PHI0 + 0.01 * g2.random_unit_3form(rng)
                     for _ in range(5)])
    if bad == "degenerate":
        phis[2] = -10.0 * g2.PHI0
    else:
        phis[2, 7] = math.nan
    with pytest.raises(InputError, match=DEGENERATE):
        g2._thetas(phis)
    gammas = phis - g2.PHI0
    with pytest.raises(InputError, match=DEGENERATE):
        g2.linearization_residual(gammas, 1.0)


def test_stacked_residual_matches_per_direction():
    rng = np.random.default_rng(74)
    gammas = np.array([g2.random_unit_3form(rng) for _ in range(12)])
    for h in (1e-2, 1e-3, 1e-4):
        stacked = g2.linearization_residual(gammas, h)
        assert stacked.shape == (12,)
        for gamma, res in zip(gammas, stacked):
            assert abs(res - g2.linearization_residual(gamma, h)) <= 1e-11
    assert isinstance(g2.linearization_residual(gammas[0]), float)
    assert g2.linearization_residual(np.zeros((3, 35))).tolist() == [0.0] * 3
    assert g2.linearization_residual(np.zeros(35)) == 0.0


def test_one_metric_pass_per_residual(monkeypatch):
    passes = []
    real = g2._metrics

    def counted(phis, *args):
        passes.append(len(phis))
        return real(phis, *args)

    monkeypatch.setattr(g2, "_metrics", counted)
    gamma = g2.random_unit_3form(np.random.default_rng(75))
    g2.linearization_residual(gamma)
    assert passes == [2]
    g2.linearization_residual(np.stack((gamma, 2 * gamma, 3 * gamma)))
    assert passes == [2, 6]
