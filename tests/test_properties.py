"""Property-based checks of the linear-algebra, Wick-gauge, metric, spin-operator, momentum-block and export contracts."""

import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from nhmetric import metric
from nhmetric.cluster_ising import ClusterSector, CorrelatorTable, _wick_matrix, build_cluster_chain
from nhmetric.errors import AmbiguousMatchWarning
from nhmetric.linalg import EigenSystem, eig_right, match_states, pfaffian
from nhmetric.metric import MetricRequest, metric_spectrum
from nhmetric.mixed_ising import MixedSector, MixedSpec, build_mixed
from nhmetric.spinops import (
    block_dimension,
    dense_operator,
    diagonalize,
    embed,
    momentum_block,
    site_operator,
)
from nhmetric.sweep import SweepRecord, export_records, load_records
from pfaffian_reference import pfaffian_unblocked, ungauged_wick_matrix
from spin_reference import assert_same_spectrum, kron_operator

# derandomized so that every run of the suite draws the same examples
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
names = st.text(alphabet="abcdefghij_", min_size=1, max_size=6)


def random_unit_columns(rng, n, k):
    v = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    return v / np.linalg.norm(v, axis=0)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


@dataclass(frozen=True)
class RandomPencil:
    """H(mu) = H0 + mu H1 with random Hermitian H0, H1 drawn from ``seed``."""

    mu: float
    seed: int
    n: int

    def terms(self):
        rng = np.random.default_rng(self.seed)
        return random_hermitian(rng, self.n), random_hermitian(rng, self.n)

    def build(self):
        h0, h1 = self.terms()
        return h0 + self.mu * h1

    def derivative(self, parameter):
        return self.terms()[1]


# small sizes, and sizes on both sides of n = 128, two of zhetrf's
# 64-column panels
PFAFFIAN_SIZES = st.integers(min_value=1, max_value=12) | st.integers(min_value=126, max_value=134)


@PROPERTY
@given(seed=seeds, n=PFAFFIAN_SIZES, real=st.booleans())
def test_pfaffian_squared_is_determinant(seed, n, real):
    # complex draws check the unblocked loop, the tests' complex oracle, which
    # pfaffian refuses; real draws check pfaffian, and against the loop too,
    # for the sign that pf**2 = det cannot see
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    if not real:
        m = m + 1j * rng.normal(size=(n, n))
    a = m - m.T
    norm = np.linalg.norm(a, 2)
    reference = pfaffian_unblocked(a)
    pf = pfaffian(a) if real else reference
    assert abs(pf - reference) <= 1e-12 * norm ** (n / 2)
    # rounding moves det by about n**2 eps ||A||**n, and an odd-n det off zero alike
    assert abs(pf**2 - np.linalg.det(a)) <= 1e-12 * norm**n


@st.composite
def wick_cases(draw):
    """A random table of real G and S / i, and a shuffled list of k A's and k B's on its sites."""
    rng = np.random.default_rng(draw(seeds))
    r_max = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=8))
    table = CorrelatorTable(
        r_max=r_max,
        g_values=rng.normal(size=2 * r_max + 1) * 0.4,
        s_values=np.concatenate([[0.0], rng.normal(size=r_max) * 0.3]),
    )
    sites = rng.integers(0, r_max + 1, size=2 * k)
    is_a = rng.permutation(np.arange(2 * k) < k)
    return table, sites, is_a


@PROPERTY
@given(case=wick_cases())
def test_gauged_real_pfaffian_is_the_complex_one(case):
    # the gauge is a congruence D M D of det D = e^{i pi (n_A - n_B) / 4} = 1
    table, sites, is_a = case
    m = _wick_matrix(table, sites, is_a)
    assert m.dtype == float
    expect = pfaffian_unblocked(ungauged_wick_matrix(table, sites, is_a))
    assert abs(pfaffian(m) - expect) <= 1e-13 * max(1.0, abs(expect))


@PROPERTY
@given(seed=seeds, n=st.integers(min_value=1, max_value=12))
def test_match_states_returns_a_permutation(seed, n):
    rng = np.random.default_rng(seed)
    prev, nxt = (EigenSystem(np.zeros(n, complex), random_unit_columns(rng, n, n)) for _ in "ab")
    with warnings.catch_warnings():
        # unrelated bases overlap weakly; the bijection must hold regardless
        warnings.simplefilter("ignore", AmbiguousMatchWarning)
        perm = match_states(prev, nxt)
    assert sorted(perm.tolist()) == list(range(n))


@st.composite
def pauli_strings(draw):
    """A chain length N and 1-4 factors at sites in [-N, 2N), so sites wrap and repeat."""
    N = draw(st.integers(min_value=2, max_value=6))
    sites = st.integers(min_value=-N, max_value=2 * N - 1)
    return N, draw(st.dictionaries(sites, st.sampled_from("xyzu"), min_size=1, max_size=4))


@PROPERTY
@given(string=pauli_strings())
def test_site_operator_matches_kronecker_chain(string):
    N, ops = string
    rows, amp = site_operator(N, ops)
    matrix = np.zeros((2**N, 2**N), dtype=complex)
    matrix[rows, np.arange(2**N)] = amp
    assert np.array_equal(matrix, kron_operator(N, ops))
    assert np.iscomplexobj(amp) == ("y" in ops.values())


@st.composite
def translation_sums(draw):
    """N in [2, 7] and 1-3 strings of 1-3 factors at sites in [-2, 2], with a coefficient seed.

    At N = 2 and 3 a string can wrap onto a repeated site, as the cluster
    chain's three-site term does.  Hypothesis draws the strings; the
    complex Gaussian coefficients come from the seed, so no drawn value
    places the sum exactly on an exceptional point.
    """
    N = draw(st.integers(min_value=2, max_value=7))
    string = st.dictionaries(st.integers(-2, 2), st.sampled_from("xyzu"), min_size=1, max_size=3)
    strings = draw(st.lists(string, min_size=1, max_size=3))
    rng = np.random.default_rng(draw(seeds))
    return N, [(complex(*rng.normal(size=2)), ops) for ops in strings]


def translation_sum_blocks(N, terms):
    """Every nonempty (m, parity) block of the sum: parity blocks where every string keeps it."""
    flips = [sum(label in "xy" for label in ops.values()) for _, ops in terms]
    parities = (1, -1) if all(f % 2 == 0 for f in flips) else (None,)
    return [(m, p) for p in parities for m in range(N) if block_dimension(N, m, p)]


@PROPERTY
@given(case=translation_sums())
def test_momentum_blocks_carry_the_dense_spectrum(case):
    N, terms = case
    dense = sum(
        c * kron_operator(N, {site + l: label for site, label in ops.items()})
        for c, ops in terms
        for l in range(N)
    )
    blocks = [momentum_block(N, terms, m, p) for m, p in translation_sum_blocks(N, terms)]
    union = np.concatenate([np.linalg.eigvals(b) for b in blocks])
    expected = np.linalg.eigvals(dense)
    distance = np.abs(expected[:, None] - union[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert len(union) == 2**N
    assert np.max(distance[rows, cols]) <= 1e-10


@PROPERTY
@given(case=translation_sums())
def test_embedding_is_an_isometry_onto_the_invariant_block(case):
    N, terms = case
    dense = sum(
        c * kron_operator(N, {site + l: label for site, label in ops.items()})
        for c, ops in terms
        for l in range(N)
    )
    columns = []
    for m, p in translation_sum_blocks(N, terms):
        block = momentum_block(N, terms, m, p)
        E = embed(N, np.eye(len(block)), m, p)
        np.testing.assert_allclose(E.conj().T @ E, np.eye(len(block)), atol=1e-12)
        # H maps the embedded sector into itself, acting as the block does
        np.testing.assert_allclose(dense @ E, E @ block, atol=1e-12)
        columns.append(E)
    basis = np.hstack(columns)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2**N), atol=1e-12)


@PROPERTY
@given(case=translation_sums(), periodic=st.booleans())
def test_dense_operator_is_the_kronecker_sum(case, periodic):
    N, terms = case
    expected = np.zeros((2**N, 2**N), dtype=complex)
    for c, ops in terms:
        # open boundaries keep the translates that lie inside the chain, unreduced
        shifts = range(N) if periodic else [l for l in range(-2, N + 2) if all(0 <= s + l < N for s in ops)]
        for l in shifts:
            expected += c * kron_operator(N, {site + l: label for site, label in ops.items()})
    np.testing.assert_allclose(dense_operator(N, terms, periodic), expected, rtol=0, atol=1e-12)


@st.composite
def periodic_chains(draw):
    """A momentum block and the dense H of a mixed chain, or of a cluster chain in one parity.

    The fields come from a drawn seed, so no drawn value places the chain
    exactly on an exceptional point.  ``parity`` selects the dense basis
    states of that parity of prod sigma^z (all for the mixed chain).
    """
    N = draw(st.integers(min_value=3, max_value=8))
    m = draw(st.integers(min_value=0, max_value=N - 1))
    parity = draw(st.sampled_from([None, 1, -1]))
    J, a, b = np.random.default_rng(draw(seeds)).uniform(0.2, 2.0, size=3)
    if parity is None:
        dense = build_mixed(MixedSpec(N=N, J=J, h_x=a, h_z=b))
        return MixedSector(N, m, J, a, b), dense, np.ones(2**N, dtype=bool)
    inside = site_operator(N, {l: "z" for l in range(N)})[1] == parity
    return ClusterSector(N, m, parity, J, a, b), build_cluster_chain(N, J, a, b), inside


@PROPERTY
@given(chain=periodic_chains())
def test_diagonalize_matches_the_dense_chain(chain):
    block, dense, inside = chain
    point = diagonalize(block)
    w, psi = point.eigenvalues, point.ground
    assert_same_spectrum(w, eig_right(dense[np.ix_(inside, inside)]).eigenvalues, rtol=1e-10)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    assert not psi[~inside].any()
    assert np.linalg.norm(dense @ psi - w[0] * psi) <= 1e-10


values = st.one_of(
    finite,
    st.builds(complex, finite, finite),
    st.lists(finite, max_size=4).map(np.array),
    st.lists(st.builds(complex, finite, finite), max_size=4).map(
        lambda xs: np.array(xs, dtype=complex)
    ),
)


@st.composite
def sweep_records(draw):
    params = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    return [
        SweepRecord(
            params={p: draw(finite) for p in params},
            values=draw(st.dictionaries(names, values, max_size=4)),
            warnings=draw(st.dictionaries(names, st.integers(0, 1000), max_size=2)),
            error=draw(st.none() | st.text(max_size=20)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]


@PROPERTY
@given(records=sweep_records())
def test_json_export_round_trip(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "records.json")
        export_records(records, "json", path)
        loaded = load_records(path)
    assert len(loaded) == len(records)
    for a, b in zip(records, loaded):
        assert (a.params, a.warnings, a.error) == (b.params, b.warnings, b.error)
        assert set(a.values) == set(b.values)
        for key, value in a.values.items():
            assert type(np.asarray(b.values[key]).dtype) is type(np.asarray(value).dtype)
            assert np.array_equal(np.asarray(b.values[key]), np.asarray(value))


@PROPERTY
@given(seed=seeds, n=st.integers(min_value=2, max_value=8), mu=st.floats(-2.0, 2.0))
def test_perturbative_metric_of_hermitian_pencil(seed, n, mu):
    model = RandomPencil(mu=mu, seed=seed, n=n)
    energies, vectors = np.linalg.eigh(model.build())
    # the stencil oracle needs levels that stay apart across the step
    assume(np.min(np.diff(energies)) > 0.1)
    h1 = model.terms()[1]
    amplitudes = np.abs(vectors.conj().T @ h1 @ vectors) ** 2
    gaps = energies[:, None] - energies[None, :]
    np.fill_diagonal(gaps, np.inf)
    closed_form = np.sum(amplitudes / gaps**2, axis=0)

    req = MetricRequest(model=model, parameter="mu")
    g = np.array([mv.g for mv in metric_spectrum(req)])
    # dH is exact here, so only rounding separates the two (6.7e-14 at worst)
    np.testing.assert_allclose(g, closed_form, rtol=1e-12)
    oracle = np.array([mv.g for mv in metric._fd_spectrum(req)])
    np.testing.assert_allclose(g, oracle, rtol=1e-4)
